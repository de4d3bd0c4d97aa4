"""Command-line behavior: strict config parsing, run outputs, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from wegner_lab import experiments as X
from wegner_lab import spectral
from wegner_lab.cli import ConfigError, main, parse_run_config, resolved_ini
from wegner_lab.random_model import load_model_config
from wegner_lab.spectral import ResonantSampleError
from wegner_lab.thick_sets import (
    RasterGeometry,
    RasterSet,
    build_fat_cantor,
    load_raster,
    save_raster,
    smith_volterra_spec,
    stripes_raster,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
_POSITIVES = "a non-empty list of positive finite numbers"


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


TINY_UNCERTAINTY = """\
[run]
experiment = uncertainty
seed = 0
mesh_density = 32

[parameters]
e_list = 25.0
l_list = 2.0
"""


GOLDEN_RESOLVED = {
    "wegner": (
        "[run]\nexperiment = wegner\nseed = 20260822\nworkers = 1\nreplicas = 200\nmesh_density = 16\n\n"
        "[parameters]\ne_ref = 30.0\neps_list = 0.4,0.2,0.1\nl_list = 8.0,16.0,32.0\n"
    ),
    "uncertainty": (
        "[run]\nexperiment = uncertainty\nseed = 0\nworkers = 1\nmesh_density = 64\n\n"
        "[parameters]\na = 1.0\nbc = dirichlet\ne_list = 25.0,100.0,225.0,400.0\nl_list = 2.0,3.0,4.0\n"
        "set_depth = 4\nset_kind = stripes\nset_period = 1.0\nset_resolution = 48\n"
        "set_width = 0.3333333333333333\n"
    ),
    "ise": (
        "[run]\nexperiment = ise\nseed = 777\nworkers = 1\nreplicas = 200\nmesh_density = 16\n\n"
        "[parameters]\nl_list = 8.0,16.0\n"
    ),
    "stubborn": (
        "[run]\nexperiment = stubborn\nseed = 7\nworkers = 1\nreplicas = 6\n\n"
        "[parameters]\ne = 4.0\nl_list = 8.0,16.0\nmin_boxes = 3\n"
    ),
}


@pytest.fixture(autouse=True)
def _no_out_override(monkeypatch):
    monkeypatch.delenv("WEGNER_LAB_OUT", raising=False)


class TestParseRunConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = parse_run_config(_write(tmp_path / "r.ini", "[run]\nexperiment = uncertainty\n"))
        assert cfg.experiment == "uncertainty"
        assert cfg.params["seed"] == 0 and cfg.params["workers"] == 1
        assert "replicas" not in cfg.params and "mesh_density" not in cfg.params
        assert cfg.params["set_kind"] == "stripes"
        assert cfg.params["l_list"] == (2.0, 3.0, 4.0)

    def test_list_values_parse_to_tuples(self, tmp_path):
        text = "[run]\nexperiment = wegner\nreplicas = 4\n\n[parameters]\nl_list = 8, 16\n"
        cfg = parse_run_config(_write(tmp_path / "r.ini", text))
        assert cfg.params["l_list"] == (8.0, 16.0)
        assert cfg.params["replicas"] == 4

    def test_unknown_section_named(self, tmp_path):
        p = _write(tmp_path / "r.ini", "[run]\nexperiment = ise\n\n[extras]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_run_config(p)

    def test_unknown_run_key_named(self, tmp_path):
        p = _write(tmp_path / "r.ini", "[run]\nexperiment = ise\nthreads = 2\n")
        with pytest.raises(ConfigError, match="'threads'"):
            parse_run_config(p)

    def test_unknown_parameter_names_experiment(self, tmp_path):
        p = _write(tmp_path / "r.ini", "[run]\nexperiment = ise\n\n[parameters]\neps = 0.1\n")
        with pytest.raises(ConfigError, match="'eps'.*ise"):
            parse_run_config(p)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[run]\nexperiment = ids\n\n[parameters]\nl = wide\n", "l"),
            ("[run]\nexperiment = ids\nseed = abc\n", "seed"),
            ("[run]\nexperiment = ids\nworkers = x\n", "workers"),
            ("[run]\nexperiment = ids\nreplicas = 2.5\n", "replicas"),
            ("[run]\nexperiment = wegner\n\n[parameters]\nl_list =\n", "l_list"),
        ],
        ids=["parameter", "seed", "workers", "replicas", "empty-list"],
    )
    def test_unparseable_value_reported(self, tmp_path, text, key):
        p = _write(tmp_path / "r.ini", text)
        with pytest.raises(ConfigError, match=f"cannot parse {key} ="):
            parse_run_config(p)

    @pytest.mark.parametrize(
        "experiment, key, raw",
        [
            ("ids", "eps", "nan"),
            ("ids", "eps", "inf"),
            ("ids", "c_w", "-inf"),
            ("wegner", "l_list", "8,nan"),
            ("wegner", "eps_list", "0.4, inf"),
            ("uncertainty", "a", "1.0,-inf"),
            ("spectral-minimum", "eps_list", "NaN"),
        ],
    )
    def test_non_finite_value_exits_two_naming_file_and_key(self, tmp_path, capsys, experiment, key, raw):
        # float, Grid and Sequence[float] values share one parser, which refuses nan and inf
        p = _write(tmp_path / "r.ini", f"[run]\nexperiment = {experiment}\n\n[parameters]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"cannot parse {key} ="):
            parse_run_config(p)
        assert main(["run", "--config", str(p), "--model", str(CONFIG_DIR / "covering.model.ini"),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: cannot parse {key} = {raw!r}")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_unknown_experiment_lists_known_ones(self, tmp_path):
        p = _write(tmp_path / "r.ini", "[run]\nexperiment = percolation\n")
        with pytest.raises(ConfigError, match="wegner"):
            parse_run_config(p)

    def test_missing_run_section(self, tmp_path):
        p = _write(tmp_path / "r.ini", "[parameters]\nl = 4\n")
        with pytest.raises(ConfigError, match=r"missing \[run\]"):
            parse_run_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_run_config(tmp_path / "absent.ini")

    @pytest.mark.parametrize("command", [["run", "--config"], ["certify", "--model"]], ids=["run-file", "model-file"])
    def test_undecodable_file_exits_two_naming_it(self, tmp_path, capsys, command):
        # run and model files share one reader: bytes that are not text are a bad file, not a traceback
        path = tmp_path / "bytes.ini"
        path.write_bytes(b"[run]\nexperiment = \xff\xfe\n")
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_resolved_ini_round_trips(self, tmp_path):
        src = "[run]\nexperiment = wegner\nseed = 3\nreplicas = 5\n\n[parameters]\nl_list = 4,8\n"
        cfg = parse_run_config(_write(tmp_path / "a.ini", src))
        cfg2 = parse_run_config(_write(tmp_path / "b.ini", resolved_ini(cfg)))
        assert cfg2 == cfg

    def test_shipped_run_configs_parse(self):
        # the benchmark's run files too: a stricter parser fails here, not in a benchmark run
        paths = sorted(CONFIG_DIR.glob("*.run.ini")) + sorted((ROOT / "perfbench" / "slab2d").glob("*.run.ini"))
        assert len(paths) == 9
        for path in paths:
            assert path.name == f"{parse_run_config(path).experiment}.run.ini"

    @pytest.mark.parametrize("name", sorted(GOLDEN_RESOLVED))
    def test_shipped_run_configs_resolve_to_golden_text(self, name, tmp_path):
        cfg = parse_run_config(CONFIG_DIR / f"{name}.run.ini")
        assert resolved_ini(cfg) == GOLDEN_RESOLVED[name]
        # the resolved file is itself a run file for the same run
        assert parse_run_config(_write(tmp_path / "resolved.ini", GOLDEN_RESOLVED[name])) == cfg


class TestRunCommand:
    def test_model_free_run_writes_all_outputs(self, tmp_path, capsys):
        cfg = _write(tmp_path / "u.ini", TINY_UNCERTAINTY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("report.json", "records.csv", "summary.txt", "config.resolved.ini"):
            assert (out / name).exists(), name
        payload = json.loads((out / "report.json").read_text())
        assert payload["experiment"] == "uncertainty"
        assert "wall_clock_s" not in payload
        assert (out / "records.csv").read_text().startswith("# wegner-lab records v1")
        assert "uncertainty" in capsys.readouterr().out

    def test_machine_outputs_are_rerun_identical(self, tmp_path):
        cfg = _write(tmp_path / "u.ini", TINY_UNCERTAINTY)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("report.json", "records.csv", "config.resolved.ini"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_environment_overrides_out_flag(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path / "u.ini", TINY_UNCERTAINTY)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("WEGNER_LAB_OUT", str(env_dir))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "flag_out")]) == 0
        assert (env_dir / "report.json").exists()
        assert not (tmp_path / "flag_out").exists()

    def test_model_run_from_shipped_files(self, tmp_path):
        text = (
            "[run]\nexperiment = wegner\nseed = 99\nreplicas = 4\n\n"
            "[parameters]\nl_list = 4\neps_list = 0.4\n"
        )
        cfg = _write(tmp_path / "w.ini", text)
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--config",
                str(cfg),
                "--model",
                str(CONFIG_DIR / "covering.model.ini"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["experiment"] == "wegner"
        assert payload["seed"] == 99

    def test_grid_is_recorded_sorted_and_merged(self, tmp_path):
        text = "[run]\nexperiment = wegner\nreplicas = 2\n\n[parameters]\nl_list = 16,8,8\neps_list = 0.4\n"
        out = tmp_path / "out"
        argv = ["run", "--config", str(_write(tmp_path / "w.ini", text)), "--out", str(out)]
        assert main(argv + ["--model", str(CONFIG_DIR / "covering.model.ini")]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["L_list"] == [8.0, 16.0]
        assert [r["point"][0] for r in payload["records"]] == [8.0, 8.0, 16.0, 16.0]

    def test_failing_verdict_exits_one(self, tmp_path, capsys):
        # exponential trapping cannot work on covering support; the report
        # says FAIL and the process says 1
        text = "[run]\nexperiment = stubborn-exp\nreplicas = 3\n"
        cfg = _write(tmp_path / "s.ini", text)
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--config",
                str(cfg),
                "--model",
                str(CONFIG_DIR / "covering.model.ini"),
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        assert json.loads((out / "report.json").read_text())["verdicts"] == {
            "persistent_eigenvalue": "FAIL"
        }

    def test_missing_model_is_a_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "w.ini", "[run]\nexperiment = wegner\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "needs a model file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named, model",
        [(text, named, None) for text, named in [
            ("[run]\nexperiment = uncertainty\nbogus = 1\n", "bogus"),
            ("[run]\nexperiment = uncertainty\n\n[parameters]\nlambda_floor = 1e-3\n", "unknown key 'lambda_floor'"),
            ("[run]\nexperiment = wegner\nreplicas = 0\n", "replicas must be an integer >= 1, got 0"),
            ("[run]\nexperiment = ise\nreplicas = 0\n", "replicas must be an integer >= 1, got 0"),
            ("[run]\nexperiment = ise\nworkers = 0\n", "workers must be an integer >= 1, got 0"),
            ("[run]\nexperiment = ise\nmesh_density = 0\n", "mesh_density must be an integer >= 1, got 0"),
            ("[run]\nexperiment = ise\nseed = -1\n", "seed must be an integer >= 0, got -1"),
            ("[run]\nexperiment = ise\nseed = abc\n", "cannot parse seed"),
            ("[run]\nexperiment = wegner\n\n[parameters]\nl_list =\n", "cannot parse l_list"),
            ("[run]\nexperiment = minorant\nworkers = 2\n", "minorant takes no 'workers'"),
            ("[run]\nexperiment = uncertainty\nreplicas = 3\n", "uncertainty takes no 'replicas'"),
            ("[run]\nexperiment = uncertainty\nworkers = 2\n", "uncertainty takes no 'workers'"),
            (
                "[run]\nexperiment = ise\nmesh_density = 3\n\n[parameters]\nl_list = 1\n",
                "no grid node in [-0.5, -0.25] along axis 0",
            ),
            ("[run]\nexperiment = stubborn-exp\n\n[parameters]\neigen_index = -1\n", "eigen_index must be an integer >= 0, got -1"),
            ("[run]\nexperiment = wegner\n\n[parameters]\neps_list = 0.0,0.1\n", f"eps_list must be {_POSITIVES}, got (0.0, 0.1)"),
            ("[run]\nexperiment = stubborn\n\n[parameters]\ne = -2\n", "E must exceed -1"),
            ("[run]\nexperiment = stubborn\n\n[parameters]\ne = -1\n", "E must exceed -1"),
            ("[run]\nexperiment = ids\n\n[parameters]\neps = -0.25\n", "eps must be a positive finite number, got -0.25"),
            ("[run]\nexperiment = ids\n\n[parameters]\neps = 0\n", "eps must be a positive finite number, got 0.0"),
            ("[run]\nexperiment = minorant\n\n[parameters]\nl = 4.5\n", "got L = 4.5, spacing 5.5"),
            (
                "[run]\nexperiment = localisation-probe\n\n[parameters]\ne_lo = 3\ne_hi = 1\n",
                "E_lo must be below E_hi, got E_lo = 3, E_hi = 1",
            ),
            ("[run]\nexperiment = stubborn\n\n[parameters]\nmin_boxes = 0\n", "min_boxes must be an integer >= 1, got 0"),
            ("[run]\nexperiment = spectral-minimum\n\n[parameters]\neps_list = 0\n", f"eps_list must be {_POSITIVES}, got (0.0,)"),
            ("[run]\nexperiment = uncertainty\n\n[parameters]\nbc = neumann\ne_list = 0,25\n", f"E_list must be {_POSITIVES}, got (0.0, 25.0)"),
            # one value outside its kind's domain per kind: refused by the experiment's parameter check, as a Python call is
            ("[run]\nexperiment = ids\n\n[parameters]\nl = 0\n", "L must be a positive finite number, got 0.0"),
            ("[run]\nexperiment = minorant\n\n[parameters]\nbox_length = -1\n", "box_length must be a positive finite number, got -1.0"),
            ("[run]\nexperiment = ise\n\n[parameters]\nl_list = 0,8\n", f"L_list must be {_POSITIVES}, got (0.0, 8.0)"),
            ("[run]\nexperiment = uncertainty\n\n[parameters]\na = -1\n", f"a must be {_POSITIVES}, got (-1.0,)"),
            ("[run]\nexperiment = stubborn\nmesh_density = 0\n", "mesh_density must be an integer >= 1, got 0"),
            ("[run]\nexperiment = wegner\n\n[parameters]\ne_ref = inf\n", "cannot parse e_ref = 'inf' as float"),
            ("[run]\nexperiment = ids\n\n[parameters]\ne_list = 2,nan\n", "cannot parse e_list = '2,nan' as Grid"),
            ("[run]\nexperiment = uncertainty\n\n[parameters]\nbc = open\n", "bc must be one of dirichlet, neumann, periodic"),
        ]]
        + [
            # couplings on [-1, 1]: both drivers' bounds need a nonnegative potential
            ("[run]\nexperiment = spectral-minimum\n", "got min_support = -1", "covering"),
            ("[run]\nexperiment = stubborn\n", "got min_support = -1", "geometric"),
        ],
        ids=[
            "unknown-key", "lambda-floor", "wegner-replicas-0", "ise-replicas-0", "workers-0", "mesh-density-0",
            "negative-seed", "seed-abc", "empty-list", "minorant-workers", "uncertainty-replicas",
            "uncertainty-workers", "ise-empty-end-block", "stubborn-exp-negative-index", "wegner-zero-eps",
            "stubborn-e-below-minus-one", "stubborn-e-minus-one", "ids-negative-eps", "ids-zero-eps",
            "minorant-fractional-spacing", "probe-empty-window", "stubborn-zero-min-boxes", "spectral-minimum-zero-eps",
            "uncertainty-zero-energy", "ids-zero-length", "minorant-negative-box", "ise-zero-box",
            "uncertainty-negative-window", "stubborn-mesh-density-0", "wegner-infinite-e-ref", "ids-nan-energy",
            "uncertainty-unknown-bc",
            "spectral-minimum-negative-couplings", "stubborn-negative-couplings",
        ],
    )
    def test_bad_config_exits_two(self, tmp_path, capsys, text, named, model):
        cfg = _write(tmp_path / "u.ini", text)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path)]
        if model is not None:
            shipped = (CONFIG_DIR / f"{model}.model.ini").read_text()
            assert "lo = 0.0\n" in shipped
            argv += ["--model", str(_write(tmp_path / "m.ini", shipped.replace("lo = 0.0\n", "lo = -1\n")))]
        elif "uncertainty" not in text:
            argv += ["--model", str(CONFIG_DIR / "covering.model.ini")]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_unresolvable_grid_exits_two(self, tmp_path, capsys):
        # one unit box at one node per unit leaves no interior grid point
        text = "[run]\nexperiment = spectral-minimum\nmesh_density = 1\n\n[parameters]\nl = 1\n"
        cfg = _write(tmp_path / "s.ini", text)
        argv = ["run", "--config", str(cfg), "--model", str(CONFIG_DIR / "covering.model.ini")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "L = 1.0 at mesh_density = 1 makes no grid: need at least two grid points per axis" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["covering", "slab"])
    def test_probe_window_below_the_spectrum_finds_no_state(self, tmp_path, model):
        # in d=1 the cutoff -1 lies below the bands' Gershgorin floor
        text = (
            "[run]\nexperiment = localisation-probe\nseed = 3\nreplicas = 2\n\n"
            "[parameters]\nl = 8\ne_lo = -2.0\ne_hi = -1.0\n"
        )
        cfg = _write(tmp_path / "p.ini", text)
        argv = ["run", "--config", str(cfg), "--model", str(CONFIG_DIR / f"{model}.model.ini")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["fitted"]["states_found"] == 0

    def test_eigensolver_failure_exits_two(self, tmp_path, capsys):
        # 5041 unknowns: the Lanczos run stops short of the exact count below E=2
        text = (
            "[run]\nexperiment = localisation-probe\nreplicas = 1\nmesh_density = 4\n\n"
            "[parameters]\nl = 18\ne_hi = 2.0\n"
        )
        cfg = _write(tmp_path / "p.ini", text)
        argv = ["run", "--config", str(cfg), "--model", str(CONFIG_DIR / "slab.model.ini")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "iteration stalled: 38 Ritz values at cutoff, inertia says 41" in capsys.readouterr().err

    def test_box_with_no_exact_count_exits_two(self, tmp_path, capsys):
        # a 65 x 65 periodic box would be one dense factorization over the
        # limit, so it has no exact count; single-vector Lanczos cannot see
        # the multiplicities of this checkerboard's spectrum without one
        geo = RasterGeometry(origin=(0.0, 0.0), extent=(1.0, 1.0), resolution=(2, 2), periodic=True)
        save_raster(RasterSet(geometry=geo, cells=np.array([[True, False], [False, True]])), tmp_path / "checker.npz")
        text = (
            "[run]\nexperiment = uncertainty\nmesh_density = 65\n\n[parameters]\nset_kind = file\n"
            "set_path = checker.npz\na = 1.0,1.0\nbc = periodic\nl_list = 1\ne_list = 45,100\n"
        )
        cfg = _write(tmp_path / "u.ini", text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "no exact eigenvalue count: 4225 unknowns to factor densely, limit 4096" in capsys.readouterr().err

    def test_resonant_shift_exits_two(self, tmp_path, capsys, monkeypatch):
        def refuse(H, lo, hi):
            raise ResonantSampleError(f"an eigenvalue may lie within 1e-09 of shift {hi}")

        # a d=2 block counts operator by operator, where a Schur block can refuse a shift; a d=1 block never does
        monkeypatch.setattr(spectral, "count_in_interval", refuse)
        cfg = _write(tmp_path / "w.ini", "[run]\nexperiment = wegner\nreplicas = 1\n\n[parameters]\nl_list = 4\n")
        argv = ["run", "--config", str(cfg), "--model", str(CONFIG_DIR / "slab.model.ini")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "an eigenvalue may lie within 1e-09 of shift" in capsys.readouterr().err

    def test_unparseable_model_value_exits_two(self, tmp_path, capsys):
        text = (CONFIG_DIR / "covering.model.ini").read_text().replace("extent = 40", "extent = ten")
        model = _write(tmp_path / "bad.model.ini", text)
        assert main(["certify", "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert "bad.model.ini" in err and "[model] extent = 'ten'" in err

    def test_another_laws_model_key_exits_two(self, tmp_path, capsys):
        text = (CONFIG_DIR / "covering.model.ini").read_text().replace("kind = uniform", "kind = uniform\np0 = 0.3\nalpha = 9")
        model = _write(tmp_path / "stray.model.ini", text)
        assert main(["certify", "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert "stray.model.ini" in err and "[distribution] key 'p0' does not apply to kind uniform" in err

    def test_set_from_file_feeds_uncertainty(self, tmp_path):
        raster = tmp_path / "set.npz"
        assert main(
            ["make-set", "--kind", "stripes", "--width", "0.3333333333333333",
             "--period", "1.0", "--resolution", "48", "--out", str(raster)]
        ) == 0
        text = (
            "[run]\nexperiment = uncertainty\nmesh_density = 32\n\n"
            "[parameters]\ne_list = 25.0\nl_list = 2.0\nset_kind = file\nset_path = set.npz\n"
        )
        cfg = _write(tmp_path / "u.ini", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["fitted"]["gamma_certified"] == pytest.approx(1.0 / 3.0, rel=1e-12)


# one tiny run per experiment: (run file, model file, the same run as a direct driver call)
TINY_RUNS = {
    "wegner": (
        "seed = 99\nreplicas = 4\n\n[parameters]\nl_list = 4\neps_list = 0.4,0.2\n",
        "covering",
        lambda m: X.run_wegner(m, L_list=(4.0,), eps_list=(0.4, 0.2), e_ref=30.0, seed=99, replicas=4, workers=1),
    ),
    "ids": (
        "seed = 2\nreplicas = 3\n\n[parameters]\nl = 4\ne_list = 2,5\n",
        "covering",
        lambda m: X.estimate_ids(m, L=4.0, E_list=(2.0, 5.0), eps=0.25, c_w=None, seed=2, replicas=3, workers=1),
    ),
    "stubborn": (
        "seed = 7\nreplicas = 2\n\n[parameters]\nl_list = 8\nmin_boxes = 2\n",
        "geometric",
        lambda m: X.run_stubborn(m, E=4.0, L_list=(8.0,), min_boxes=2, seed=7, replicas=2, workers=1),
    ),
    "stubborn-exp": (
        "replicas = 2\n\n[parameters]\nl = 4\n",
        "geometric",
        lambda m: X.run_stubborn_exponential(m, L=4.0, eigen_index=3, seed=0, replicas=2, workers=1),
    ),
    "uncertainty": (
        "mesh_density = 32\n\n[parameters]\ne_list = 25.0\nl_list = 2.0\n",
        None,
        lambda _: X.run_uncertainty(
            stripes_raster(1.0 / 3.0, 1.0, 48), a=(1.0,), E_list=(25.0,), L_list=(2.0,), bc="dirichlet", seed=0,
            mesh_density=32,
        ),
    ),
    "ise": (
        "seed = 5\nreplicas = 4\nmesh_density = 8\n\n[parameters]\nl_list = 4,8\n",
        "covering",
        lambda m: X.run_ise(m, L_list=(4.0, 8.0), seed=5, replicas=4, mesh_density=8, workers=1),
    ),
    "spectral-minimum": (
        "replicas = 3\n\n[parameters]\nl = 4\neps_list = 0.5\n",
        "covering",
        lambda m: X.run_spectral_minimum(m, eps_list=(0.5,), L=4.0, seed=0, replicas=3, workers=1),
    ),
    "localisation-probe": (
        "replicas = 2\n\n[parameters]\nl = 8\n",
        "covering",
        lambda m: X.localisation_probe(m, E_lo=0.0, E_hi=2.0, L=8.0, seed=0, replicas=2, workers=1),
    ),
    "minorant": (
        "replicas = 2\n\n[parameters]\nl = 4\n",
        "covering",
        lambda m: X.run_minorant_check(m, L=4.0, box_length=8.0, seed=0, replicas=2),
    ),
}


@pytest.mark.parametrize("experiment", sorted(TINY_RUNS))
def test_run_matches_direct_driver_call(experiment, tmp_path):
    body, model_name, direct = TINY_RUNS[experiment]
    cfg = _write(tmp_path / "r.ini", f"[run]\nexperiment = {experiment}\n{body}")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    model = None
    if model_name is not None:
        model_path = CONFIG_DIR / f"{model_name}.model.ini"
        argv += ["--model", str(model_path)]
        model = load_model_config(model_path)
    assert main(argv) in (0, 1)
    rep = direct(model)
    assert (tmp_path / "out" / "report.json").read_text() == rep.to_json()
    assert (tmp_path / "out" / "records.csv").read_text() == rep.to_records_csv()


class TestMakeSet:
    def test_stripes_binary_round_trip(self, tmp_path, capsys):
        path = tmp_path / "stripes.npz"
        rc = main(
            ["make-set", "--kind", "stripes", "--width", "0.25", "--period", "1.0",
             "--resolution", "32", "--out", str(path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        S = load_raster(path)
        assert S.measure == pytest.approx(0.25, rel=1e-15)
        assert S.geometry.extent == (1.0,)

    def test_cantor_round_trip_under_the_given_name(self, tmp_path):
        path = tmp_path / "cantor.txt"
        rc = main(["make-set", "--kind", "cantor", "--depth", "2", "--resolution", "128",
                   "--out", str(path)])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["cantor.txt"]  # no ".npz" appended
        S = load_raster(path)
        want = build_fat_cantor(smith_volterra_spec(2), 128)
        assert S.measure == want.measure
        assert S.cell_fraction == want.cell_fraction


class TestCertify:
    def _stripes_file(self, tmp_path):
        path = tmp_path / "s.npz"
        main(["make-set", "--kind", "stripes", "--width", "0.3333333333333333",
              "--period", "1.0", "--resolution", "48", "--out", str(path)])
        return path

    def test_raster_claim_certified(self, tmp_path, capsys):
        path = self._stripes_file(tmp_path)
        rc = main(["certify", "--raster", str(path), "--window", "1.0",
                   "--gamma", "0.3333333333333333"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CERTIFIED" in out and "gamma_star" in out

    def test_raster_overclaim_refused(self, tmp_path, capsys):
        path = self._stripes_file(tmp_path)
        rc = main(["certify", "--raster", str(path), "--window", "1.0", "--gamma", "0.34"])
        assert rc == 1
        assert "REFUSED" in capsys.readouterr().out

    def test_raster_without_claim_just_reports(self, tmp_path, capsys):
        path = self._stripes_file(tmp_path)
        assert main(["certify", "--raster", str(path), "--window", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "gamma_star" in out and "CERTIFIED" not in out

    def test_raster_window_defaults_to_unit_cube_of_raster(self, tmp_path, capsys):
        geo = RasterGeometry(origin=(0.0, 0.0), extent=(1.0, 1.0), resolution=(4, 4), periodic=True)
        cells = np.zeros((4, 4), dtype=bool)
        cells[:2] = True
        path = tmp_path / "half.npz"
        save_raster(RasterSet(geometry=geo, cells=cells), path)
        assert main(["certify", "--raster", str(path)]) == 0
        assert "gamma_star = 0.5\n" in capsys.readouterr().out
        assert main(["certify", "--raster", str(path), "--window", "1.0"]) == 2
        assert "window dimension" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("old.rast", b"WLRS\x01\x01\x01\x00" + bytes(20) + b"\x03\x00\x00\x00\x00\x00\x00\x00\xa0"),
            ("old.txt", b"wegner-lab-raster v1\nd 1\naxis 0.0 1.0 3\nperiodic 1\nruns 1x1,0x1,1x1\n"),
        ],
        ids=["binary", "run-length"],
    )
    def test_raster_in_an_old_format_exits_two(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["certify", "--raster", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not an .npz raster archive\n"

    def test_model_with_a_periodic_raster_profile_exits_two(self, tmp_path, capsys):
        save_raster(stripes_raster(0.25, 1.0, 8), tmp_path / "stripes.npz")
        model = _write(
            tmp_path / "p.model.ini",
            "[model]\ndimension = 1\nextent = 8\n[sites]\nprofile = raster-file\nraster = stripes.npz\n"
            "[distribution]\nkind = uniform\n[thickness]\ngamma = 0.25\nset = full\n",
        )
        assert main(["certify", "--model", str(model)]) == 2
        assert "raster-file profile stripes.npz is periodic" in capsys.readouterr().err

    def test_non_finite_claimed_gamma_exits_two(self, tmp_path, capsys):
        # a nan claim is no claim to refuse (exit 1): it is a bad argument
        with pytest.raises(SystemExit) as exit_:
            main(["certify", "--raster", str(self._stripes_file(tmp_path)), "--gamma", "nan"])
        assert exit_.value.code == 2
        assert "argument --gamma: invalid finite_float value: 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("extent", ["nan", "inf"])
    def test_model_with_a_non_finite_extent_exits_two(self, tmp_path, capsys, extent):
        model = _write(
            tmp_path / "x.model.ini",
            f"[model]\ndimension = 1\nextent = {extent}\n[sites]\nradius = 0.5\n"
            "[distribution]\nkind = uniform\n[thickness]\ngamma = 1.0\n",
        )
        assert main(["certify", "--model", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {model}: cannot parse [model] extent = {extent!r}\n"

    def test_model_thickness_claim_passes(self, capsys):
        rc = main(["certify", "--model", str(CONFIG_DIR / "covering.model.ini")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "covering lower bound: ok" in out and "verdict: PASS" in out

    def test_model_refutation_claim_passes(self, capsys):
        rc = main(["certify", "--model", str(CONFIG_DIR / "geometric.model.ini"),
                   "--kappa", "0.5", "--window", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "empty window at" in out and "verdict: PASS" in out
        assert "np.float64" not in out

    def test_model_window_defaults_to_unit_cube_of_model(self, capsys):
        rc = main(["certify", "--model", str(CONFIG_DIR / "slab.model.ini")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a=(1.0, 1.0)" in out and "verdict: PASS" in out

    def test_model_window_of_wrong_dimension_exits_two(self, capsys):
        assert main(["certify", "--model", str(CONFIG_DIR / "slab.model.ini"), "--window", "1,1,1"]) == 2
        err = capsys.readouterr().err
        assert "has 3 sides" in err and "dimension 2" in err

    def test_model_window_narrower_than_a_cell_exits_two(self, capsys):
        # the geometric model rasterizes at 8 cells per unit: a 0.01 window holds no cell center
        assert main(["certify", "--model", str(CONFIG_DIR / "geometric.model.ini"), "--window", "0.01"]) == 2
        assert "spans no cell" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, option",
        [
            (["--model", "covering", "--kappa", "0.3"], "--kappa"),
            (["--model", "fat_cantor", "--kappa", "0.3"], "--kappa"),
            (["--raster", "STRIPES", "--kappa", "0.5"], "--kappa"),
            (["--model", "covering", "--gamma", "5"], "--gamma"),
            (["--model", "geometric", "--gamma", "0.5"], "--gamma"),
            (["--model", "covering", "--window", "7"], "--window"),
            (["--model", "fat_cantor", "--window", "2.0"], "--window"),
            (["--raster", "STRIPES", "--model", "geometric"], "--raster"),
            (["--model", "covering", "--window", "7", "--kappa", "0.3", "--gamma", "5"], "--gamma"),
        ],
        ids=["kappa-claim", "kappa-cantor-claim", "kappa-raster", "gamma-claim", "gamma-bound", "window-claim",
             "window-cantor-claim", "raster-and-model", "all-three"],
    )
    def test_option_the_mode_would_ignore_exits_two(self, tmp_path, capsys, args, option):
        # an option the chosen mode does not read is refused, not ignored with a PASS
        files = {name: str(CONFIG_DIR / f"{name}.model.ini") for name in ("covering", "fat_cantor", "geometric")}
        files["STRIPES"] = str(self._stripes_file(tmp_path))
        capsys.readouterr()
        assert main(["certify", *(files.get(a, a) for a in args)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and option in err

    def test_model_claim_without_gamma_exits_two(self, tmp_path, capsys):
        model = _write(tmp_path / "g.model.ini", "[model]\n[sites]\n[distribution]\nkind = uniform\n[thickness]\nset = full\n")
        assert main(["certify", "--model", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {model}: the thickness claim on set 'full' needs [thickness] gamma\n"

    @pytest.mark.parametrize("name", ["covering", "fat_cantor", "geometric"])
    def test_one_dimensional_model_default_window_is_unit(self, name, capsys):
        path = str(CONFIG_DIR / f"{name}.model.ini")
        assert main(["certify", "--model", path]) == 0
        default = capsys.readouterr().out
        assert main(["certify", "--model", path, "--window", "1.0"]) == 0
        assert capsys.readouterr().out == default

    def test_model_without_claims_rejected(self, tmp_path, capsys):
        bare = tmp_path / "bare.model.ini"
        bare.write_text(
            "[model]\ndimension = 1\nextent = 6.0\nresolution = 8\n\n"
            "[sites]\nprofile = indicator-ball\nradius = 0.5\nplacement = all-integers\n\n"
            "[distribution]\nkind = uniform\nlo = 0.0\nhi = 1.0\n"
        )
        assert main(["certify", "--model", str(bare)]) == 2
        assert "neither" in capsys.readouterr().err

    def test_no_target_rejected(self, capsys):
        assert main(["certify"]) == 2
        assert "--raster or --model" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stored")
    cfg = _write(tmp / "u.ini", TINY_UNCERTAINTY)
    out = tmp / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestReportCommand:
    def test_summary_rendering(self, stored, capsys):
        assert main(["report", "--json", str(stored / "report.json")]) == 0
        assert "uncertainty" in capsys.readouterr().out

    def test_csv_rendering_matches_stored_file(self, stored, capsys):
        assert main(["report", "--json", str(stored / "report.json"), "--csv"]) == 0
        assert capsys.readouterr().out == (stored / "records.csv").read_text()

    def test_missing_report_exits_two(self, tmp_path, capsys):
        assert main(["report", "--json", str(tmp_path / "gone.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b"\xff\xfe\x00", b"[1, 2]", b'{"seed": 0}', b'{"experiment": 3}',
         b'{"experiment": "ids", "verdicts": ["PASS"]}', b'{"experiment": "ids", "records": 7}',
         b'{"experiment": "ids", "records": [1]}'],
        ids=["malformed", "not-text", "list", "no-experiment", "bad-experiment", "bad-verdicts", "bad-records",
             "bad-record"],
    )
    def test_file_that_is_no_report_exits_two_naming_it(self, tmp_path, capsys, content):
        bad = tmp_path / "report.json"
        bad.write_bytes(content)
        for extra in ([], ["--csv"]):
            assert main(["report", "--json", str(bad), *extra]) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")
