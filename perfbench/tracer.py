"""Spans around the calls that cross between wegner_lab's modules.

The tracer works from outside the package: ``install`` replaces every
module attribute through which one module calls a public function of
another (``experiments.sample_potential``, ``spectral.inertia_count`` and so
on) with a wrapper that records a span, and ``uninstall`` puts the original
objects back and checks every attribute of the package's modules against a
snapshot taken before ``install``.  Spans stay in memory as rows of (name, start, end, parent,
replica, job) and are summarised, or written out, after the timed region.

A replica is one disorder draw followed by the work done on it: a
``sample_potential`` call opens one, and the operator builds and spectral
queries that follow it belong to it until the driver calls into any other
layer.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, public function) pairs wrapped wherever another package module
# holds a reference to them; the span is named "<module>.<function>"
TARGETS = (
    ("random_model", "sample_potential"),
    ("random_model", "mean_potential"),
    ("random_model", "potential_envelope"),
    ("random_model", "modulus_s"),
    ("random_model", "verify_NoPi"),
    ("random_model", "construct_diluted_minorant"),
    ("random_model", "load_model_config"),
    ("grids", "build_free_laplacian"),
    ("grids", "add_potential"),
    ("grids", "discrete_dirichlet_spectrum"),
    ("spectral", "count_in_interval"),
    ("spectral", "inertia_count"),
    ("spectral", "sturm_count"),
    ("spectral", "eigs_below"),
    ("spectral", "resolvent_block_norm"),
    ("spectral", "compressed_indicator_min_eig"),
    ("thick_sets", "certify_thickness"),
    ("thick_sets", "window_field_max"),
    ("experiments", "run_wegner"),
    ("experiments", "estimate_ids"),
    ("experiments", "run_uncertainty"),
    ("experiments", "run_ise"),
    ("experiments", "run_stubborn"),
    ("experiments", "run_stubborn_exponential"),
    ("experiments", "run_spectral_minimum"),
    ("experiments", "localisation_probe"),
    ("experiments", "run_minorant_check"),
)
DRIVERS = tuple(name for module, name in TARGETS if module == "experiments")
# report serialisation is a method call on the report object
SERIALIZERS = ("to_json", "to_records_csv", "human_summary")
LAYERS = ("cli", "experiments", "random_model", "grids", "spectral", "thick_sets", "reports")
CATCH_ALL = ("experiments.", "cli.main")

REPLICA_START = "random_model.sample_potential"
REPLICA_WORK = ("grids.build_free_laplacian", "grids.add_potential")
SPECTRAL_QUERIES = (
    "spectral.count_in_interval",
    "spectral.eigs_below",
    "spectral.resolvent_block_norm",
    "spectral.compressed_indicator_min_eig",
)
# tail percentile ladder: the highest one with at least 10 samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

NAME, START, END, PARENT, REPLICA, JOB, CHILD = range(7)


class Tracer:
    """Span recorder; one per process, installed around the timed region."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._replica: int | None = None
        self._replicas = 0
        self._job = -1
        self._jobs: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._before: list[tuple[object, dict]] = []  # (module or class, its attributes before install)
        self.first_inertia_s: float | None = None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == REPLICA_START:
            self._replicas += 1
            self._replica = self._replicas
        elif parent >= 0 and self.rows[parent][NAME].startswith("experiments."):
            # a call straight from a driver: the replica goes on only while
            # the driver is building or querying its operator
            if not (name in REPLICA_WORK or name.startswith("spectral.")):
                self._replica = None
        inherited = self.rows[parent][REPLICA] if parent >= 0 else None
        replica = inherited if inherited is not None else self._replica
        self.rows.append([name, time.perf_counter(), 0.0, parent, replica, self._job, 0.0])
        idx = len(self.rows) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str | None = None) -> float:
        row = self.rows[idx]
        row[END] = time.perf_counter()
        if name is not None:
            row[NAME] = name
        self._stack.pop()
        dur = row[END] - row[START]
        if row[PARENT] >= 0:
            self.rows[row[PARENT]][CHILD] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def begin_job(self, name: str) -> None:
        self._jobs.append(name)
        self._job = len(self._jobs) - 1
        self._replica = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        observe = getattr(self, "_observe_" + name.rsplit(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if observe is not None:
                    observe(args, None, exc)
                raise
            renamed = observe(args, result, None) if observe is not None else None
            dur = tracer._close(idx, renamed)
            if name == "spectral.inertia_count" and tracer.first_inertia_s is None:
                tracer.first_inertia_s = dur
            return result

        return wrapper

    def install(self) -> None:
        """Replace every package attribute that refers to a target function."""
        from wegner_lab import cli, experiments, grids, random_model, reports, spectral, thick_sets  # noqa: F401

        package = [m for n, m in sorted(sys.modules.items()) if n.startswith("wegner_lab.")]
        cls = reports.ExperimentReport
        self._before = [(owner, dict(vars(owner))) for owner in package + [cls]]
        for module_name, fn_name in TARGETS:
            original = getattr(sys.modules["wegner_lab." + module_name], fn_name)
            wrapper = self._wrap(original, f"{module_name}.{fn_name}")
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for method in SERIALIZERS:
            self._patch(cls, method, self._wrap(cls.__dict__[method], "reports.serialize"))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore the originals; True when every attribute of the package's
        modules and of ExperimentReport is again the object it was before
        install, whether or not install recorded it."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return all(
            vars(owner).keys() == before.keys() and all(vars(owner)[k] is v for k, v in before.items())
            for owner, before in self._before
        )

    # -- per-call counters, computed from arguments and results -------------

    def _observe_sturm_count(self, args, result, exc):
        self.count("spectral.sturm_count.steps", len(args[0]))

    def _observe_inertia_count(self, args, result, exc):
        from wegner_lab.spectral import INERTIA_DENSE_LIMIT

        H = args[0]
        if result is not None:
            self.count("spectral.inertia_count.exact")
        if not H.is_tridiagonal and H.box.ndof <= INERTIA_DENSE_LIMIT:
            self.count("spectral.inertia_count.dense_bytes", 8 * H.box.ndof**2)

    def _observe_eigs_below(self, args, result, exc):
        if exc is not None:
            self.count("spectral.eigs_below.fail")
            return None
        return f"spectral.eigs_below.{result.method}"

    def _observe_count_in_interval(self, args, result, exc):
        if exc is not None:
            self.count("spectral.count_in_interval.fail")

    def _observe_resolvent_block_norm(self, args, result, exc):
        if exc is None:
            self.count("spectral.resolvent_block_norm.accepted")

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        out: dict[str, list] = {}
        for row in self.rows:
            entry = out.setdefault(row[NAME], [0, 0.0])
            entry[0] += 1
            entry[1] += (row[END] - row[START]) - row[CHILD]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def replica_ms(self) -> list[float]:
        """Duration of each replica, from its first span's start to its last span's end."""
        spans: dict[int, list[float]] = {}
        for row in self.rows:
            if row[REPLICA] is not None:
                lo_hi = spans.setdefault(row[REPLICA], [row[START], row[END]])
                lo_hi[0] = min(lo_hi[0], row[START])
                lo_hi[1] = max(lo_hi[1], row[END])
        return [1e3 * (hi - lo) for lo, hi in spans.values()]

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass; wall_s is its traced wall time."""
        st = self.self_times()
        c = self.counters

        def calls(name):
            return st.get(name, (0, 0.0))[0]

        def self_s(name):
            return st.get(name, (0, 0.0))[1]

        m: dict[str, float] = {}
        for name in (
            "random_model.sample_potential", "grids.build_free_laplacian", "grids.add_potential",
            "spectral.sturm_count", "spectral.inertia_count", "spectral.eigs_below.tridiagonal",
            "spectral.eigs_below.dense", "spectral.eigs_below.lanczos", "spectral.count_in_interval",
            "spectral.resolvent_block_norm", "spectral.compressed_indicator_min_eig",
            "thick_sets.window_field_max",
        ):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
        samples = calls(REPLICA_START)
        builds = calls("grids.build_free_laplacian")
        m["grids.builds_per_replica"] = builds / samples if samples else 0.0
        m["spectral.sturm_count.steps"] = c.get("spectral.sturm_count.steps", 0)
        inertia = calls("spectral.inertia_count")
        m["spectral.inertia_count.exact_ratio"] = c.get("spectral.inertia_count.exact", 0) / inertia if inertia else 1.0
        m["spectral.inertia_count.dense_bytes"] = c.get("spectral.inertia_count.dense_bytes", 0)
        m["spectral.inertia_count.first_call_s"] = self.first_inertia_s or 0.0
        m["spectral.eigs_below.fail"] = c.get("spectral.eigs_below.fail", 0)
        m["spectral.count_in_interval.fail"] = c.get("spectral.count_in_interval.fail", 0)
        resolvents = calls("spectral.resolvent_block_norm")
        m["spectral.resolvent_block_norm.accepted_ratio"] = (
            c.get("spectral.resolvent_block_norm.accepted", 0) / resolvents if resolvents else 1.0
        )
        # queries the drivers put to the spectral layer, per operator built
        queries = sum(
            1
            for row in self.rows
            if row[NAME].startswith(SPECTRAL_QUERIES)
            and (row[PARENT] < 0 or not self.rows[row[PARENT]][NAME].startswith("spectral."))
        )
        m["spectral.queries_per_operator"] = queries / builds if builds else 0.0
        m["thick_sets.certify_thickness.self_s"] = self_s("thick_sets.certify_thickness")
        for driver in DRIVERS:
            m[f"experiments.{driver}.self_s"] = self_s(f"experiments.{driver}")
        reps = sorted(self.replica_ms())
        m["experiments.replica_count"] = len(reps)
        m["experiments.replica_p50_ms"] = statistics.median(reps) if reps else 0.0
        pct = next((p for p in TAIL_LADDER if len(reps) * (1 - p / 100) >= 10), 50.0)
        m["experiments.replica_tail_pct"] = pct
        m["experiments.replica_tail_ms"] = _percentile(reps, pct) if reps else 0.0
        m["reports.serialize.self_s"] = self_s("reports.serialize")
        m["cli.main.self_s"] = self_s("cli.main")
        m["random_model.load_model_config.self_s"] = self_s("random_model.load_model_config")
        layer = {name: 0.0 for name in LAYERS}
        for name, (_, s) in st.items():
            layer[name.split(".", 1)[0]] += s
        for name in LAYERS:
            m[f"layer.{name}.self_s"] = layer[name]
        m["trace.wall_s"] = wall_s
        m["trace.spans"] = len(self.rows)
        # the part of the wall time spent inside the wrapped functions below
        # the drivers and the CLI; their own self time is the catch-all for
        # whatever no span names, so it does not count as covered
        catch_all = sum(s for name, (_, s) in st.items() if name.startswith(CATCH_ALL))
        m["trace.covered_frac"] = (sum(layer.values()) - catch_all) / wall_s
        sampling = sum(self_s(n) for n in (REPLICA_START,) + REPLICA_WORK)
        m["share.sampling_assembly"] = sampling / wall_s
        m["share.spectral"] = layer["spectral"] / wall_s
        return m

    def write(self, path: Path) -> None:
        """The trace artifact: job names plus one row per span, times in seconds."""
        t0 = self.rows[0][START] if self.rows else 0.0
        payload = {
            "columns": ["name", "start", "end", "parent", "replica", "job"],
            "jobs": self._jobs,
            "spans": [
                [r[NAME], round(r[START] - t0, 7), round(r[END] - t0, 7), r[PARENT], r[REPLICA], r[JOB]]
                for r in self.rows
            ],
            "counters": self.counters,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1]
