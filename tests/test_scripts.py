"""The shipped scripts run end to end against the current drivers."""

import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from wegner_lab import cli, experiments, random_model, spectral
from wegner_lab.thick_sets import (
    WindowSpec,
    build_fat_cantor,
    certify_thickness,
    load_raster,
    smith_volterra_spec,
    stripes_raster,
)

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name):
    """A script under scripts/ as a module, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


BATTERY_JOBS = tuple(name for name, *_ in _load_script("run_battery.py").JOBS)


def _python(*argv, **env):
    """The interpreter on argv, the package's src first on PYTHONPATH and env set."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)


def _script(name, *args):
    return _python(str(ROOT / "scripts" / name), *args)


def _battery(out, *extra):
    return _script("run_battery.py", "--quick", "--out", str(out), *extra)


# the shipped run files and the model file each runs on (None: the run builds its own set)
RUN_FILES = {"ise": "covering", "stubborn": "geometric", "uncertainty": None, "wegner": "covering"}
# the benchmark's d=2 run files, on the slab model; d>=2 report bytes depend on the BLAS thread count,
# so they run in a process of their own with every BLAS and OpenMP pool at one thread
SLAB_RUNS = ("ise", "localisation-probe", "spectral-minimum", "stubborn", "wegner")
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
OUTPUT_HASHES = Path(__file__).with_name("output_hashes.json")


def _slab_runs(out):
    """The slab2d run files through the CLI in one process at one BLAS thread, each under out/<name>."""
    argvs = [["run", "--config", str(ROOT / "perfbench" / "slab2d" / f"{name}.run.ini"),
              "--model", str(ROOT / "configs" / "slab.model.ini"), "--out", str(out / name)] for name in SLAB_RUNS]
    code = "import json, sys; from wegner_lab import cli; sys.exit(max(cli.main(a) for a in json.loads(sys.argv[1])))"
    return _python("-c", code, json.dumps(argvs), **ONE_THREAD)


def _run_outputs(out):
    """The quick battery at one and two workers, the slab2d run files and the shipped run files, each under
    its own directory of out; returns the battery and slab processes and the run files' exit codes."""
    procs = [_battery(out / f"battery-workers-{w}", "--workers", str(w)) for w in (1, 2)] + [_slab_runs(out / "slab2d")]
    codes = []
    for name, model in RUN_FILES.items():
        argv = ["run", "--config", str(ROOT / "configs" / f"{name}.run.ini"), "--out", str(out / "run" / name)]
        codes.append(cli.main(argv + (["--model", str(ROOT / "configs" / f"{model}.model.ini")] if model else [])))
    return procs, codes


def _output_hashes(out):
    """sha256 of every byte-stable output under out, by its path relative to out."""
    paths = [p for name in ("report.json", "records.csv", "config.resolved.ini") for p in out.rglob(name)]
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    procs, codes = _run_outputs(out)
    for proc in procs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert codes == [0] * len(RUN_FILES)
    return out


def test_quick_battery_writes_every_report(outputs):
    serial, two = (outputs / f"battery-workers-{w}" for w in (1, 2))
    assert sorted(p.name for p in serial.iterdir()) == sorted(BATTERY_JOBS)
    for job in BATTERY_JOBS:
        for name in ("report.json", "records.csv", "summary.txt"):
            assert (serial / job / name).is_file(), f"{job}/{name}"
    # two workers, each filling its own draw-block cache, write the same bytes
    for job in BATTERY_JOBS:
        for name in ("report.json", "records.csv"):
            assert (two / job / name).read_bytes() == (serial / job / name).read_bytes(), f"{job}/{name}"


def test_outputs_match_the_byte_table(outputs):
    # the table pins the bytes across commits; an output change refreshes it on purpose
    # (python tests/test_scripts.py rewrites it), in a commit that lists old -> new
    table = json.loads(OUTPUT_HASHES.read_text())
    made, here = table["made_with"], {"numpy": np.__version__, "scipy": scipy.__version__}
    if made != here:
        pytest.skip(
            f"the byte table was made with numpy {made['numpy']} and scipy {made['scipy']};"
            f" this is numpy {here['numpy']} and scipy {here['scipy']}"
        )
    got = _output_hashes(outputs)
    assert sorted(got) == sorted(table["sha256"])
    moved = [f"{path}: {want} -> {got[path]}" for path, want in table["sha256"].items() if got[path] != want]
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_battery_refuses_fewer_than_one_worker(tmp_path, workers):
    proc = _battery(tmp_path / "out", "--workers", workers)
    assert proc.returncode == 2
    assert "--workers: must be at least 1" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_example_sets_load_back_and_print_their_gamma(tmp_path):
    proc = _script("make_example_sets.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = ("stripes_third", "fat_cantor_depth4")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.npz" for n in names)
    printed = dict(re.findall(r"^(\w+): measure \S+, unit-window gamma (\S+) ", proc.stdout, re.MULTILINE))
    assert sorted(printed) == sorted(names)
    built = {"stripes_third": stripes_raster(1.0 / 3.0, 1.0, 48), "fat_cantor_depth4": build_fat_cantor(smith_volterra_spec(4), 1024)}
    for name in names:
        S = load_raster(tmp_path / f"{name}.npz")
        assert S.geometry == built[name].geometry
        assert np.array_equal(S.cells, built[name].cells)
        assert float(printed[name]) == certify_thickness(S, WindowSpec((1.0,))).gamma_star


def test_benchmark_tracer_targets_are_package_functions(monkeypatch):
    # perfbench's tracer wraps these functions by module attribute, and its
    # worker and self-tests read two of them through experiments; a deleted or
    # renamed one would otherwise fail only in traced benchmark runs
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) == len(set(tracer.TARGETS)) > 0
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"wegner_lab.{module}"), name, None)), (module, name)
    assert experiments.sample_potential is random_model.sample_potential
    assert experiments.count_in_interval is spectral.count_in_interval


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        procs, codes = _run_outputs(out)
        if any(proc.returncode for proc in procs) or any(codes):
            sys.exit("a run failed; the table is left as it was")
        table = {"made_with": {"numpy": np.__version__, "scipy": scipy.__version__}, "sha256": _output_hashes(out)}
    OUTPUT_HASHES.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table['sha256'])} hashes written to {OUTPUT_HASHES}")
