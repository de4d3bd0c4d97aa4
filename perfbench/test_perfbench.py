"""Self-tests of the benchmark: a small smoke run of each workload.

    python -m pytest perfbench

Each workload runs once untraced and once traced, with ``--quick`` replica
counts.  The tests check the result line against BENCHMARK.json, that the
functions below the drivers account for the traced wall time, and that each
workload still loads the layers it was chosen to load.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def smoke() -> dict[tuple[str, int], tuple[dict, str]]:
    """(workload, trace) -> (result line, full stdout) of a quick run at seed 0."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick")
            assert proc.returncode == 0, proc.stderr
            out[(workload, trace)] = (json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(smoke, workload, trace):
    result, stdout = smoke[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert f"{m['name']} = " in stdout
    assert "failed_frac = 0 ratio" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(smoke, workload):
    result, _ = smoke[(workload, 0)]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_named_self_times_cover_the_traced_wall_time(smoke, workload):
    metrics = smoke[(workload, 1)][0]["metrics"]
    assert metrics["trace.covered_frac"]["value"] >= 0.9


def _layers(smoke, workload):
    return {k: v["value"] for k, v in smoke[(workload, 1)][0]["metrics"].items()}


def test_battery_is_dominated_by_sampling_and_assembly(smoke):
    m = _layers(smoke, "battery")
    assert m["share.sampling_assembly"] >= 0.5
    assert m["spectral.inertia_count.dense_bytes"] == 0  # never leaves the Sturm path
    assert m["spectral.eigs_below.lanczos.calls"] == 0


def test_slab2d_is_dominated_by_factorisations_and_eigensolves(smoke):
    m = _layers(smoke, "slab2d")
    assert m["share.spectral"] >= 0.8
    assert m["share.sampling_assembly"] <= 0.05
    assert m["spectral.eigs_below.dense.calls"] > 0 and m["spectral.eigs_below.lanczos.calls"] > 0
    assert m["spectral.resolvent_block_norm.calls"] > 0
    assert m["spectral.inertia_count.exact_ratio"] == 1.0
    assert m["cli.main.self_s"] > 0


def test_queries1d_has_the_most_queries_per_operator(smoke):
    q = {w: _layers(smoke, w)["spectral.queries_per_operator"] for w in WORKLOADS}
    assert q["queries1d"] >= 20
    assert q["queries1d"] == max(q.values())
    assert _layers(smoke, "queries1d")["share.spectral"] >= 0.5


def test_tracer_restores_every_attribute():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        from tracer import Tracer
        from wegner_lab import experiments, random_model, spectral

        originals = (experiments.sample_potential, spectral.inertia_count, experiments.count_in_interval)
        tracer = Tracer()
        tracer.install()
        assert experiments.sample_potential is not originals[0]
        assert spectral.inertia_count is not originals[1]
        assert tracer.uninstall()
        assert (experiments.sample_potential, spectral.inertia_count, experiments.count_in_interval) == originals
        assert experiments.sample_potential is random_model.sample_potential
    finally:
        del sys.path[:2]


def test_tracer_sees_an_attribute_it_did_not_wrap():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        from tracer import Tracer
        from wegner_lab import spectral

        original = spectral.DENSE_LIMIT
        tracer = Tracer()
        tracer.install()
        spectral.DENSE_LIMIT = original + 1  # changed behind the tracer's back
        try:
            assert not tracer.uninstall()
        finally:
            spectral.DENSE_LIMIT = original
        tracer = Tracer()
        tracer.install()
        spectral.added_during_the_run = 1
        try:
            assert not tracer.uninstall()
        finally:
            del spectral.added_during_the_run
    finally:
        del sys.path[:2]


def test_times_scale_with_the_calibration_loop():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from run import REFERENCE_CALIBRATION_S, scaled

        ref = REFERENCE_CALIBRATION_S
        assert scaled(3.0, ref, ref) == pytest.approx(3.0)
        # a host running at half speed takes twice as long for both
        assert scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
        assert scaled(3.0, ref, 3 * ref) == pytest.approx(1.5)
    finally:
        del sys.path[0]


def test_default_seed_keeps_the_frozen_seeds():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from workloads import job_seed

        assert job_seed(0, 20260822) == 20260822
        assert job_seed(1, 20260822) == job_seed(1, 20260822) != job_seed(2, 20260822)
    finally:
        del sys.path[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
