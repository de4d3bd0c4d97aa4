"""The three benchmark workloads: what each job runs, with which seed.

A workload is built in two steps so the benchmark can time them apart:
``build`` imports the package and constructs the models and sets (this is
the set-up the ``setup_s`` metric covers), and each returned ``Job`` then
runs one experiment and writes its report files (the ``wall_s`` region).

Job seeds derive from the workload seed.  Seed 0 reproduces the frozen
seeds that ``scripts/run_battery.py`` and the example run files use, so the
reference hashes in ``reference.json`` apply to it.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SLAB_MODEL = ROOT / "configs" / "slab.model.ini"
SLAB_RUN_DIR = BENCH_DIR / "slab2d"


def job_seed(workload_seed: int, frozen: int) -> int:
    """The frozen seed at workload seed 0, else a stable mix of both."""
    if workload_seed == 0:
        return frozen
    digest = hashlib.blake2b(f"{workload_seed}:{frozen}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


@dataclass
class Window:
    """One eigenvalue window the output check recounts with a dense solver."""

    job: str
    model: Any  # the AlloyModel the job sampled
    L: float
    mesh_density: int
    seed: int
    replica: int
    lo: float  # -inf for a counting-function threshold
    hi: float


@dataclass
class Job:
    name: str
    run: Callable[[Path, Any], int]  # (output dir, span factory) -> CLI-style exit code


@dataclass
class Workload:
    jobs: list[Job]
    # parsed report.json per job name -> the windows to recount
    windows: Callable[[dict[str, dict]], list[Window]]


def _driver_job(name: str, seed: int, driver: str, *args: Any, **kwargs: Any) -> Job:
    """A job that calls one experiments driver and writes its three files."""

    def run(out: Path, span) -> int:
        from wegner_lab import experiments

        # looked up at call time so a traced run sees the wrapped driver
        rep = getattr(experiments, driver)(*args, seed=seed, **kwargs)
        with span("reports.serialize"):
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(rep.to_json())
            (out / "records.csv").write_text(rep.to_records_csv())
            (out / "summary.txt").write_text(rep.human_summary())
        return 1 if rep.overall == "FAIL" else 0

    return Job(name=name, run=run)


def _anchor_windows(job: str, model, L: float, mesh_density: int, seed: int, replicas, reports) -> list[Window]:
    """Windows of half-width 0.1 and 0.4 around the anchor energy a wegner job used."""
    anchor = reports[job]["fitted"][f"anchor_energy_L={L:g}"]
    return [
        Window(job, model, L, mesh_density, seed, r, anchor - e, anchor + e)
        for r in replicas
        for e in (0.1, 0.4)
    ]


def _battery(seed: int, quick: bool) -> Workload:
    from wegner_lab.random_model import covering_model, fat_cantor_model, geometric_dilution_model
    from wegner_lab.thick_sets import stripes_raster

    covering = covering_model()
    cantor = fat_cantor_model()
    geometric = geometric_dilution_model()
    stripes = stripes_raster(1.0 / 3.0, 1.0, 48)

    def n(full: int, small: int) -> int:
        return small if quick else full

    s = {k: job_seed(seed, v) for k, v in {
        "wegner": 20260822, "ids": 101, "uncertainty": 0, "ise": 777, "stubborn": 7,
        "stubborn-exp": 11, "spectral-minimum": 5, "probe": 3, "minorant": 13}.items()}
    jobs = [
        _driver_job("wegner-covering", s["wegner"], "run_wegner", covering, replicas=n(200, 20)),
        _driver_job("wegner-cantor", s["wegner"], "run_wegner", cantor, replicas=n(200, 20)),
        _driver_job("ids-covering", s["ids"], "estimate_ids", covering, replicas=n(100, 10), c_w=1.0),
        _driver_job("uncertainty-stripes", s["uncertainty"], "run_uncertainty", stripes),
        _driver_job("ise-covering", s["ise"], "run_ise", covering, replicas=n(200, 20)),
        _driver_job("stubborn-geometric", s["stubborn"], "run_stubborn", geometric),
        _driver_job("stubborn-exp-geometric", s["stubborn-exp"], "run_stubborn_exponential", geometric),
        _driver_job("spectral-minimum-covering", s["spectral-minimum"], "run_spectral_minimum", covering,
                    replicas=n(40, 10)),
        _driver_job("localisation-probe-covering", s["probe"], "localisation_probe", covering),
        _driver_job("minorant-covering", s["minorant"], "run_minorant_check", covering, replicas=n(20, 5)),
    ]

    def windows(reports):
        out = _anchor_windows("wegner-covering", covering, 8.0, 16, s["wegner"], (0, 1), reports)
        out += _anchor_windows("wegner-cantor", cantor, 8.0, 16, s["wegner"], (0, 1), reports)
        out += [Window("ids-covering", covering, 12.0, 16, s["ids"], 0, float("-inf"), E) for E in (2.0, 10.0, 20.0)]
        return out

    return Workload(jobs, windows)


def _queries1d(seed: int, quick: bool) -> Workload:
    from wegner_lab.random_model import covering_model
    from wegner_lab.thick_sets import build_fat_cantor, smith_volterra_spec, stripes_raster

    covering = covering_model()
    stripes = stripes_raster(1.0 / 3.0, 1.0, 48)
    cantor = build_fat_cantor(smith_volterra_spec(4), 1024)
    # a dense energy grid: 99 counting-function thresholds per operator
    energies = tuple(float(e) for e in range(1, 34))
    # energies and sizes whose verdicts all pass at seed 0; denser grids
    # (E = 49 or 144 on the stripes) trip the factor-2 stability verdict
    scan = dict(E_list=(25.0, 64.0, 100.0, 169.0, 225.0, 289.0, 400.0), L_list=(2.0, 3.0, 4.0, 6.0),
                mesh_density=128)
    s_ids, s_unc, s_probe = job_seed(seed, 101), job_seed(seed, 0), job_seed(seed, 3)
    jobs = [
        _driver_job("ids-covering-dense", s_ids, "estimate_ids", covering, L=32.0, E_list=energies,
                    replicas=8 if quick else 160),
        _driver_job("uncertainty-stripes", s_unc, "run_uncertainty", stripes, **scan),
        _driver_job("uncertainty-cantor", s_unc, "run_uncertainty", cantor, **scan),
        _driver_job("localisation-probe-covering", s_probe, "localisation_probe", covering, L=32.0,
                    replicas=4 if quick else 24),
    ]

    def windows(reports):
        return [Window("ids-covering-dense", covering, 32.0, 16, s_ids, 0, float("-inf"), E)
                for E in (1.0, 9.0, 17.0, 25.0, 33.0)]

    return Workload(jobs, windows)


# slab2d jobs and their run files under slab2d/, which hold the frozen seeds.
# The workload is already about as long as the battery, so --quick leaves it
# whole.
SLAB_JOBS = ("wegner", "ise", "spectral-minimum", "stubborn", "localisation-probe")


def _slab2d(seed: int, out: Path) -> Workload:
    from wegner_lab import cli
    from wegner_lab.random_model import load_model_config

    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    seeds = {}
    for name in SLAB_JOBS:
        parser = configparser.ConfigParser()
        parser.read(SLAB_RUN_DIR / f"{name}.run.ini")
        seeds[name] = job_seed(seed, parser.getint("run", "seed"))
        parser["run"]["seed"] = str(seeds[name])
        path = out / f"{name}.run.ini"
        with path.open("w") as fh:
            parser.write(fh)

        def run(job_out: Path, span, path=path) -> int:
            argv = ["run", "--config", str(path), "--model", str(SLAB_MODEL), "--out", str(job_out)]
            # the CLI echoes its summary; keep the benchmark's own stdout clean
            with span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        jobs.append(Job(name=name, run=run))

    def windows(reports):
        # the CLI loads the model inside each job; this copy serves only the check.
        # LDL inertia on 225 and 961 unknowns against a dense solve
        slab = load_model_config(SLAB_MODEL)
        return [w for L in (4.0, 8.0) for w in _anchor_windows("wegner", slab, L, 4, seeds["wegner"], (0,), reports)]

    return Workload(jobs, windows)


def build(name: str, seed: int, quick: bool, out: Path) -> Workload:
    if name == "battery":
        return _battery(seed, quick)
    if name == "queries1d":
        return _queries1d(seed, quick)
    if name == "slab2d":
        return _slab2d(seed, out)
    raise ValueError(f"unknown workload {name!r}")
