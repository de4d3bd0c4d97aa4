"""Pinned outputs of every experiment driver at frozen seeds.

Values here were produced once by the drivers themselves and then frozen, so
these are regression pins rather than independent oracles; the independent
checks live with the acceptance gate and the unit suites.  Any drift in
sampling order, mesh layout, or reduction order shows up as an exact-value
break.
"""

import concurrent.futures
import inspect
import json
import math
import re
import types
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from wegner_lab import experiments as X
from wegner_lab import random_model, spectral
from wegner_lab.grids import BoxSpec, add_potential, add_potentials, build_free_laplacian
from wegner_lab.random_model import (
    BernoulliAt,
    Uniform,
    covering_model,
    geometric_dilution_model,
    sample_potential,
)
from wegner_lab.reports import ExperimentReport
from wegner_lab.spectral import ResonantSampleError, resolvent_block_norm
from wegner_lab.thick_sets import stripes_raster

EXACT = dict(rel=1e-12, abs=1e-300)


def _rec(report, statistic, point=None):
    hits = [
        r
        for r in report.records
        if r["statistic"] == statistic and (point is None or r["point"] == point)
    ]
    assert len(hits) == 1, (statistic, point, len(hits))
    return hits[0]


# cheap runs, module scope; the expensive ones come from session fixtures


@pytest.fixture(scope="module")
def ids_report(covering):
    return X.estimate_ids(covering, c_w=1.0)


@pytest.fixture(scope="module")
def stubborn_report(geometric):
    return X.run_stubborn(geometric)


@pytest.fixture(scope="module")
def stubexp_report(geometric):
    return X.run_stubborn_exponential(geometric)


@pytest.fixture(scope="module")
def specmin_report(covering):
    return X.run_spectral_minimum(covering)


@pytest.fixture(scope="module")
def probe_report(covering):
    return X.localisation_probe(covering)


@pytest.fixture(scope="module")
def minorant_report(covering):
    return X.run_minorant_check(covering)


class TestWegnerCovering:
    WANT = {
        (8.0, 0.4): (1.0, 0.0, 0.3125, 0.0),
        (8.0, 0.2): (0.945, 0.016161092305986408, 0.590625, 0.010100682691241505),
        (8.0, 0.1): (0.695, 0.03263741725420572, 0.8687499999999999, 0.04079677156775715),
        (16.0, 0.4): (1.0, 0.0, 0.15625, 0.0),
        (16.0, 0.2): (0.995, 0.005, 0.3109375, 0.0015624999999999999),
        (16.0, 0.1): (0.835, 0.02631229148928473, 0.521875, 0.016445182180802955),
        (32.0, 0.4): (1.0, 0.0, 0.078125, 0.0),
        (32.0, 0.2): (1.0, 0.0, 0.15625, 0.0),
        (32.0, 0.1): (0.97, 0.012092607484694706, 0.303125, 0.0037789398389670957),
    }

    def test_window_statistics_frozen(self, wegner_covering_report):
        for (L, eps), (cm, cse, vr, vse) in self.WANT.items():
            count = _rec(wegner_covering_report, "count_mean", [L, eps])
            ratio = _rec(wegner_covering_report, "volume_ratio", [L, eps])
            assert count["value"] == pytest.approx(cm, **EXACT)
            assert count["stderr"] == pytest.approx(cse, **EXACT)
            assert ratio["value"] == pytest.approx(vr, **EXACT)
            assert ratio["stderr"] == pytest.approx(vse, **EXACT)
            assert count["replicas"] == 200

    def test_anchor_energies_frozen(self, wegner_covering_report):
        f = wegner_covering_report.fitted
        assert f["anchor_energy_L=8"] == pytest.approx(26.341571536365226, **EXACT)
        assert f["anchor_energy_L=16"] == pytest.approx(28.34904940517308, **EXACT)
        assert f["anchor_energy_L=32"] == pytest.approx(29.380149421076293, **EXACT)

    def test_fitted_constant_frozen(self, wegner_covering_report):
        assert wegner_covering_report.fitted["c_w_hat"] == pytest.approx(
            0.9911403147032714, **EXACT
        )

    def test_modulus_is_the_uniform_one(self, wegner_covering_report):
        # uniform couplings on [0, 1] give s(eps) = eps on these windows
        assert wegner_covering_report.fitted["modulus"] == {
            "0.1": 0.1,
            "0.2": 0.2,
            "0.4": 0.4,
        }

    def test_all_verdicts_pass(self, wegner_covering_report):
        assert wegner_covering_report.verdicts == {
            "nested_window_monotonicity": "PASS",
            "volume_trend_eps=0.1": "PASS",
            "volume_trend_eps=0.2": "PASS",
            "volume_trend_eps=0.4": "PASS",
        }
        assert wegner_covering_report.overall == "PASS"

    def test_tiny_run_is_worker_count_invariant(self, covering):
        one = X.run_wegner(covering, L_list=(4.0,), eps_list=(0.4,), replicas=8, seed=99)
        two = X.run_wegner(
            covering, L_list=(4.0,), eps_list=(0.4,), replicas=8, seed=99, workers=2
        )
        assert one.to_json() == two.to_json()

    def test_reference_energy_must_admit_a_window(self, covering):
        with pytest.raises(X.PreconditionError, match="free eigenvalue"):
            X.run_wegner(covering, L_list=(4.0,), eps_list=(0.4,), replicas=2, e_ref=0.01)


class TestWegnerCantor:
    def test_anchor_energies_frozen(self, wegner_cantor_report):
        f = wegner_cantor_report.fitted
        assert f["anchor_energy_L=8"] == pytest.approx(26.219524292270737, **EXACT)
        assert f["anchor_energy_L=16"] == pytest.approx(28.225519993408373, **EXACT)
        assert f["anchor_energy_L=32"] == pytest.approx(29.255883276262203, **EXACT)

    def test_fitted_constant_frozen(self, wegner_cantor_report):
        assert wegner_cantor_report.fitted["c_w_hat"] == pytest.approx(
            1.132256826912415, **EXACT
        )

    def test_smallest_window_column_frozen(self, wegner_cantor_report):
        want = {
            8.0: (0.825, 0.02693515384331068, 1.0312499999999998, 0.03366894230413835),
            16.0: (0.935, 0.01747575492075382, 0.584375, 0.010922346825471137),
            32.0: (0.995, 0.005000000000000001, 0.3109375, 0.0015625000000000003),
        }
        for L, (cm, cse, vr, vse) in want.items():
            count = _rec(wegner_cantor_report, "count_mean", [L, 0.1])
            ratio = _rec(wegner_cantor_report, "volume_ratio", [L, 0.1])
            assert count["value"] == pytest.approx(cm, **EXACT)
            assert count["stderr"] == pytest.approx(cse, **EXACT)
            assert ratio["value"] == pytest.approx(vr, **EXACT)
            assert ratio["stderr"] == pytest.approx(vse, **EXACT)

    def test_all_verdicts_pass(self, wegner_cantor_report):
        assert set(wegner_cantor_report.verdicts.values()) == {"PASS"}
        assert wegner_cantor_report.overall == "PASS"

    def test_thinner_support_costs_a_larger_constant(
        self, wegner_covering_report, wegner_cantor_report
    ):
        assert (
            wegner_cantor_report.fitted["c_w_hat"]
            > wegner_covering_report.fitted["c_w_hat"]
        )


class TestIds:
    WANT = {
        2.0: (0.33499999999999996, 0.0011725441178024132, 0.4166666666666667),
        5.0: (0.6591666666666667, 0.0023968624272055097, 0.6666666666666666),
        10.0: (0.9166666666666666, 0.0, 1.0),
        15.0: (1.1666666666666667, 0.0, 1.1666666666666667),
        20.0: (1.335, 0.0011725441178024132, 1.4166666666666667),
    }

    def test_counting_function_frozen(self, ids_report):
        for E, (v, se, seam) in self.WANT.items():
            r = _rec(ids_report, "ids", E)
            assert r["value"] == pytest.approx(v, **EXACT)
            assert r["stderr"] == pytest.approx(se, **EXACT)
            assert r["replicas"] == 100
            assert _rec(ids_report, "ids_free_seam", E)["value"] == pytest.approx(
                seam, **EXACT
            )

    def test_fitted_frozen(self, ids_report):
        f = ids_report.fitted
        assert f["implied_c_w"] == pytest.approx(0.3066666666666667, **EXACT)
        assert f["max_window_increment"] == pytest.approx(0.07666666666666667, **EXACT)
        assert f["modulus_at_eps"] == pytest.approx(0.25, **EXACT)

    def test_counting_function_nondecreasing(self, ids_report):
        vals = [_rec(ids_report, "ids", E)["value"] for E in sorted(self.WANT)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_disorder_never_exceeds_free_counting(self, ids_report):
        # nonnegative potential pushes every eigenvalue up
        for E in self.WANT:
            assert (
                _rec(ids_report, "ids", E)["value"]
                <= _rec(ids_report, "ids_free_seam", E)["value"]
            )

    def test_all_verdicts_pass(self, ids_report):
        assert ids_report.verdicts == {
            "continuity_bound": "PASS",
            "free_field_seam": "PASS",
            "monotone_in_energy": "PASS",
        }

    def test_tiny_run_is_worker_count_invariant(self, covering):
        # every worker process fills its own operator and profile caches
        kw = dict(L=4.0, E_list=(2.0, 5.0, 10.0), replicas=8, seed=5)
        assert X.estimate_ids(covering, **kw).to_json() == X.estimate_ids(covering, workers=2, **kw).to_json()

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_nan_energy_is_refused(self, covering, slab, d):
        # a NaN threshold once counted nothing below it and passed both verdicts
        kw = dict(E_list=(math.nan, 5.0), replicas=3) | ({} if d == 1 else dict(L=2.0, mesh_density=4))
        with pytest.raises(X.PreconditionError, match=r"^E_list must be a non-empty list of finite numbers, got \(nan, 5.0\)$"):
            X.estimate_ids(covering if d == 1 else slab, **kw)

    def test_a_nan_window_is_refused(self, covering):
        # it once reached the count layer, which refused its shifts
        with pytest.raises(X.PreconditionError, match="^eps must be a positive finite number, got nan$"):
            X.estimate_ids(covering, eps=math.nan, replicas=3)

    def test_a_constant_below_the_increments_fails_the_continuity_bound(self, covering):
        rep = X.estimate_ids(covering, replicas=8, c_w=1e-6)
        assert rep.fitted["implied_c_w"] == pytest.approx(1.0 / 3.0, **EXACT)
        assert rep.verdicts["continuity_bound"] == "FAIL"


class TestStubbornWindows:
    def test_geometry_frozen(self, stubborn_report):
        f = stubborn_report.fitted
        assert f["centers_L=8"] == [[-21.0], [21.0], [-37.0]]
        assert f["centers_L=16"] == [[-41.0], [41.0], [-73.0]]
        assert f["eps_L=8"] == pytest.approx(10.53722209656109, **EXACT)
        assert f["eps_L=16"] == pytest.approx(5.268611048280545, **EXACT)
        assert f["nopi_witness_count"] == 1

    def test_window_width_follows_the_stated_law(self, stubborn_report):
        # half-width 12 pi sqrt(E+1) / L at E = 4, and the ceiling kappa is
        # half the width of the largest box
        f = stubborn_report.fitted
        assert f["eps_L=8"] == pytest.approx(12.0 * math.pi * math.sqrt(5.0) / 8.0, **EXACT)
        assert f["eps_L=8"] == pytest.approx(2.0 * f["eps_L=16"], **EXACT)
        assert f["kappa"] == pytest.approx(6.0 * math.pi * math.sqrt(5.0) / 16.0, **EXACT)

    def test_every_window_was_hit(self, stubborn_report):
        for L in (8.0, 16.0):
            hit = _rec(stubborn_report, "window_hit_fraction", [L])
            assert hit["value"] == 1.0
            assert hit["replicas"] == 24
            assert _rec(stubborn_report, "free_spectrum_distance", [L])[
                "value"
            ] == pytest.approx(0.14952171453951912, **EXACT)
        assert _rec(stubborn_report, "distance_budget", [8.0])["value"] == pytest.approx(
            5.3717999283023925, **EXACT
        )
        assert _rec(stubborn_report, "distance_budget", [16.0])["value"] == pytest.approx(
            2.6762523750994074, **EXACT
        )
        assert set(stubborn_report.verdicts.values()) == {"PASS"}

    def test_plane_slab_variant_frozen(self, slab):
        rep = X.run_stubborn(slab, E=4.0, L_list=(6.0,), replicas=4, seed=7)
        assert rep.fitted["centers_L=6"] == [[-4.0, 0.0], [4.0, 0.0], [-4.0, -6.0]]
        assert rep.fitted["eps_L=6"] == pytest.approx(14.049629462081453, **EXACT)
        assert rep.fitted["kappa"] == pytest.approx(7.024814731040727, **EXACT)
        hit = _rec(rep, "window_hit_fraction", [6.0])
        assert hit["value"] == 1.0 and hit["replicas"] == 18
        assert _rec(rep, "free_spectrum_distance", [6.0])["value"] == pytest.approx(
            0.47377148161136207, **EXACT
        )
        assert rep.overall == "PASS"

    def test_covering_support_refused(self, covering):
        with pytest.raises(X.PreconditionError, match="sup-norm bound"):
            X.run_stubborn(covering)

    def test_a_nan_energy_is_refused(self, geometric):
        # it once reported FAIL for every box
        with pytest.raises(X.PreconditionError, match="^E must be a finite number, got nan$"):
            X.run_stubborn(geometric, E=math.nan)

    def test_too_few_disjoint_boxes_fail(self, geometric):
        # the thin region holds 47 disjoint boxes of side 8 and 23 of side 16, not 500
        rep = X.run_stubborn(geometric, min_boxes=500)
        assert rep.verdicts == {"persistent_window_L=8": "FAIL", "persistent_window_L=16": "FAIL"}
        assert _rec(rep, "disjoint_boxes_found", [8.0])["value"] == 47.0
        assert _rec(rep, "disjoint_boxes_found", [16.0])["value"] == 23.0


class TestStubbornExponential:
    def test_trapped_eigenvalue_frozen(self, stubexp_report):
        f = stubexp_report.fitted
        assert f["center"] == [-12.0]
        assert f["energy"] == pytest.approx(4.380230976609069, **EXACT)
        assert f["window_halfwidth"] == pytest.approx(math.exp(-6.0), **EXACT)
        assert f["continuum_deviation"] == pytest.approx(0.0062598683195336235, **EXACT)

    def test_no_draw_reaches_the_contrast_level(self, stubexp_report):
        r = _rec(stubexp_report, "contrast_hit_fraction", [6.0])
        assert r["value"] == 0.0 and r["replicas"] == 8

    def test_both_verdicts_pass(self, stubexp_report):
        assert stubexp_report.verdicts == {
            "box_untouched_by_disorder": "PASS",
            "persistent_eigenvalue": "PASS",
        }

    def test_window_narrower_than_accuracy_refused(self, geometric):
        with pytest.raises(X.PreconditionError, match="L < 28"):
            X.run_stubborn_exponential(geometric, L=28.0)

    def test_index_beyond_spectrum_refused(self, geometric):
        with pytest.raises(X.PreconditionError, match="eigen_index"):
            X.run_stubborn_exponential(geometric, eigen_index=500)

    def test_covering_support_fails_honestly(self, covering):
        # nothing to trap when every box sees the potential; that is a FAIL
        # verdict with a reason, not an exception
        rep = X.run_stubborn_exponential(covering, replicas=3)
        assert rep.verdicts == {"persistent_eigenvalue": "FAIL"}
        assert "no potential-free box" in rep.fitted["reason"]
        assert rep.overall == "FAIL"


class TestSpectralMinimum:
    def test_fitted_frozen(self, specmin_report):
        f = specmin_report.fitted
        assert f["free_ground"] == pytest.approx(0.15420482754343928, **EXACT)
        assert f["potential_ceiling"] == 1.0
        assert f["event_log10_prob_eps=0.5"] == pytest.approx(-2.709269960975831, **EXACT)
        assert f["event_log10_prob_eps=0.25"] == pytest.approx(-5.418539921951662, **EXACT)

    def test_event_probability_scales_with_the_cap(self, specmin_report):
        # halving the cap squares the probability of the smallness event
        f = specmin_report.fitted
        assert f["event_log10_prob_eps=0.25"] == pytest.approx(
            2.0 * f["event_log10_prob_eps=0.5"], **EXACT
        )

    def test_statistics_frozen(self, specmin_report):
        un_mean = _rec(specmin_report, "min_eig_mean", ["unconditioned"])
        assert un_mean["value"] == pytest.approx(0.6485608820902786, **EXACT)
        assert un_mean["stderr"] == pytest.approx(0.0176370029998337, **EXACT)
        assert _rec(specmin_report, "min_eig_low", ["unconditioned"])[
            "value"
        ] == pytest.approx(0.40214237795841973, **EXACT)
        c5 = _rec(specmin_report, "min_eig_mean", ["conditioned", 0.5])
        assert c5["value"] == pytest.approx(0.41111082112521996, **EXACT)
        assert _rec(specmin_report, "min_eig_high", ["conditioned", 0.5])[
            "value"
        ] == pytest.approx(0.5058235602464436, **EXACT)
        c25 = _rec(specmin_report, "min_eig_mean", ["conditioned", 0.25])
        assert c25["value"] == pytest.approx(0.2851983151521017, **EXACT)
        assert _rec(specmin_report, "min_eig_high", ["conditioned", 0.25])[
            "value"
        ] == pytest.approx(0.3330371324157501, **EXACT)

    def test_tighter_conditioning_sits_lower(self, specmin_report):
        v25 = _rec(specmin_report, "min_eig_mean", ["conditioned", 0.25])["value"]
        v5 = _rec(specmin_report, "min_eig_mean", ["conditioned", 0.5])["value"]
        vun = _rec(specmin_report, "min_eig_mean", ["unconditioned"])["value"]
        assert specmin_report.fitted["free_ground"] < v25 < v5 < vun

    def test_all_verdicts_pass(self, specmin_report):
        assert specmin_report.verdicts == {
            "conditioned_proximity_eps=0.25": "PASS",
            "conditioned_proximity_eps=0.5": "PASS",
            "floor_respected": "PASS",
            "zero_coupling_exact": "PASS",
        }


    @pytest.mark.parametrize("shift", [-2.0, 2.0])
    def test_zero_coupling_seam_fails_off_the_closed_form(self, covering, monkeypatch, shift):
        # the seam's two counts must see a closed form moved by two tolerances
        closed_form = X.discrete_dirichlet_spectrum

        def moved(box):
            levels = closed_form(box)
            return levels + shift * 1e-9 * max(1.0, float(levels[0]))

        kw = dict(eps_list=(0.5,), replicas=2, L=4.0, mesh_density=8)
        assert X.run_spectral_minimum(covering, **kw).verdicts["zero_coupling_exact"] == "PASS"
        monkeypatch.setattr(X, "discrete_dirichlet_spectrum", moved)
        assert X.run_spectral_minimum(covering, **kw).verdicts["zero_coupling_exact"] == "FAIL"

    def test_zero_coupling_seam_runs_no_eigensolve(self, covering, monkeypatch):
        solves = []
        monkeypatch.setattr(X, "eigs_below", lambda *args, **kw: solves.append(args) or spectral.eigs_below(*args, **kw))
        X.run_spectral_minimum(covering, eps_list=(0.5,), replicas=2, L=4.0, mesh_density=8)
        assert len(solves) == 2 + 2  # the unconditioned and the capped ground states only

class TestIse:
    def test_fitted_rate_frozen(self, ise_report):
        assert ise_report.fitted["c0_hat"] == pytest.approx(0.5906538246246344, **EXACT)
        assert ise_report.fitted["c0_hat"] > 0.0

    def test_statistics_frozen(self, ise_report):
        want = {
            8.0: (0.1342080754441588, 0.63, 0.034139420030223126, 0.6296687366593742),
            16.0: (0.02609566795729206, 0.825, 0.02686773157525585, 0.6931228116100816),
        }
        for L, (med, succ, sse, req) in want.items():
            assert _rec(ise_report, "median_norm", [L])["value"] == pytest.approx(
                med, **EXACT
            )
            assert _rec(ise_report, "resonant_samples", [L])["value"] == 0.0
            s = _rec(ise_report, "success_fraction", [L])
            assert s["value"] == pytest.approx(succ, **EXACT)
            assert s["stderr"] == pytest.approx(sse, **EXACT)
            assert _rec(ise_report, "required_fraction", [L])["value"] == pytest.approx(
                req, **EXACT
            )

    def test_decay_steepens_with_box_size(self, ise_report):
        m8 = _rec(ise_report, "median_norm", [8.0])["value"]
        m16 = _rec(ise_report, "median_norm", [16.0])["value"]
        assert m16 < m8

    def test_all_verdicts_pass(self, ise_report):
        assert ise_report.verdicts == {
            "exponential_rate_positive": "PASS",
            "probability_improves_with_box": "PASS",
            "probability_scaling": "PASS",
        }

    def test_tiny_run_is_worker_count_invariant(self, covering):
        kw = dict(L_list=(4.0, 8.0), replicas=8, seed=5)
        assert X.run_ise(covering, **kw).to_json() == X.run_ise(covering, workers=2, **kw).to_json()

    def test_couplings_too_weak_to_localise_fail(self):
        # couplings of at most 1e-9 leave each operator all but free: no positive rate meets its target
        rep = X.run_ise(covering_model(dist=Uniform(0.0, 1e-9)), replicas=16)
        assert rep.fitted["c0_hat"] == 0.0
        assert rep.verdicts["exponential_rate_positive"] == "FAIL"
        assert rep.verdicts["probability_scaling"] == "FAIL"

    # two resonance shifts per operator, counted in one lane pass for every block size: no scalar count runs
    @pytest.mark.parametrize("R", [1, 31, 32, 64, 65])
    def test_block_query_matches_per_operator_calls(self, R, monkeypatch):
        box = BoxSpec(d=1, length=8.0, center=(0.0,), n=127)
        z = 1.0 / math.sqrt(8.0)
        rows, cols = box.node_block((-4.0,), (-2.0,)), box.node_block((2.0,), (4.0,))
        free = build_free_laplacian(box)
        V = np.random.default_rng(R).uniform(0.0, 3.0, size=(R, box.ndof))
        hit = R // 2
        # shift one draw so that its third eigenvalue sits at z, up to rounding
        V[hit] += z - sla.eigh_tridiagonal(*add_potential(free, V[hit]).tridiagonal(), eigvals_only=True)[2]

        def one(H):
            try:
                return resolvent_block_norm(H, z, rows, cols)
            except ResonantSampleError:
                return None

        want = [one(add_potential(free, v)) for v in V]
        scalar = []
        sturm_count = spectral.sturm_count

        def counting(diag, off, x):
            if np.ndim(diag) == 1:
                scalar.append(x)
            return sturm_count(diag, off, x)

        monkeypatch.setattr(spectral, "sturm_count", counting)
        got = spectral.resolvent_norms(add_potentials(free, V.T), z, rows, cols)
        assert got == want
        assert [i for i, norm in enumerate(got) if norm is None] == [hit]
        assert scalar == []


@pytest.mark.parametrize("d", [1, 2])
def test_replica_block_hands_queries_the_per_draw_operators(covering, slab, d):
    model, box = (covering, X._box(1, 8.0, 16)) if d == 1 else (slab, X._box(2, 2.0, 4))
    draws = [(r, None) for r in range(60, 70)] + [(0, 0.0), (9, None), (64, 0.25)]
    for cap in (None, 0.5):
        block = X._replica_block(lambda block: block, (), model, box, 3, cap, draws)
        V = block.potentials
        free = build_free_laplacian(box)
        for r, (replica, override) in enumerate(draws):
            v = sample_potential(model, (3, replica), box, conditioning_cap=cap, couplings_override=override)
            H = block.operators[r]
            assert np.array_equal(V[:, r].view(np.int64), v.view(np.int64))
            assert np.array_equal(H.diag.view(np.int64), add_potential(free, v).diag.view(np.int64))
            assert H.stencil is free.stencil and not H.diag.flags.writeable


def _block_sizes(block):
    """Each draw's block size: a block query that a worker process can unpickle."""
    return [block.diag.shape[1]] * block.diag.shape[1]


def test_a_serial_map_is_one_block_up_to_the_cap(covering):
    box = X._box(1, 4.0, 16)
    assert X._map_replicas(_block_sizes, (), covering, box, 3, X._draws(40), 1) == [40] * 40
    tail = 200 - X.SERIAL_BLOCK
    want = [X.SERIAL_BLOCK] * X.SERIAL_BLOCK + [tail] * tail
    assert X._map_replicas(_block_sizes, (), covering, box, 3, X._draws(200), 1) == want


def test_a_parallel_map_cuts_quarter_shares_of_at_most_half_a_serial_block(covering):
    # about a quarter of each of two workers' shares, n // 8 draws, at least 1 and at most SERIAL_BLOCK // 2
    box = X._box(1, 4.0, 16)
    token = X._POOL.set([])
    try:
        for n, want in [(1, [1]), (3, [1, 1, 1]), (200, [25] * 200), (258, [32] * 256 + [2, 2]),
                        (600, [X.SERIAL_BLOCK // 2] * 576 + [24] * 24)]:
            assert X._map_replicas(_block_sizes, (), covering, box, 3, X._draws(n), 2) == want, n
        assert len(X._POOL.get()) == 1
    finally:
        for pool in X._POOL.get():
            pool.shutdown()
        X._POOL.reset(token)


def test_a_map_mixes_exactly_the_rows_it_draws(covering, monkeypatch):
    # a 200-draw map mixes 200 Philox rows, one _pool_uniforms pass per map block, whatever the cut:
    # blocks of 128 and 72 serially, eight blocks of 25 at two workers
    rows = []
    pool_uniforms = random_model._pool_uniforms

    def counted(words, sites):
        rows.append(len(words))
        return pool_uniforms(words, sites)

    monkeypatch.setattr(random_model, "_pool_uniforms", counted)
    box = X._box(1, 4.0, 16)
    for workers, want in [(1, [128, 72]), (2, [25] * 8)]:
        random_model._row_uniforms.cache_clear()
        rows.clear()
        token = X._POOL.set([types.SimpleNamespace(map=map)])  # a pool that maps in this process
        try:
            X._map_replicas(_block_sizes, (), covering, box, 3, X._draws(200), workers)
        finally:
            X._POOL.reset(token)
        assert rows == want, workers


@pytest.mark.parametrize(
    "driver, kw",
    [
        # 130 draws cross a serial block of 128
        ("run_wegner", dict(L_list=(4.0,), eps_list=(0.4, 0.2), seed=99, replicas=130)),
        # 129 replicas and the zero-coupling seam's override, the map's last draw
        ("estimate_ids", dict(L=4.0, E_list=(2.0, 5.0), seed=5, replicas=129)),
        ("run_ise", dict(L_list=(4.0,), seed=5, replicas=130)),
        # the capped maps read the unconditioned map's uniforms
        ("run_spectral_minimum", dict(eps_list=(0.5,), L=4.0, seed=0, replicas=130)),
        ("localisation_probe", dict(E_lo=0.0, E_hi=2.0, L=4.0, seed=0, replicas=130)),
    ],
)
def test_replica_reports_do_not_depend_on_the_block_size(covering, driver, kw, monkeypatch):
    run = getattr(X, driver)
    want = run(covering, **kw)
    assert want.records
    for size in (1, 64):
        monkeypatch.setattr(X, "SERIAL_BLOCK", size)
        assert run(covering, **kw).to_json() == want.to_json(), size
    monkeypatch.undo()
    assert run(covering, workers=2, **kw).to_json() == want.to_json()


def _masked_shell_decay_rate(psi, box):
    """_shell_decay_rate with a boolean mask per band, the way it was first written: the oracle."""
    shape = box.shape
    arr = np.abs(psi.reshape(shape))
    peak = np.unravel_index(int(np.argmax(arr)), shape)
    idx = np.indices(shape)
    dist = np.zeros(shape, dtype=int)
    for axis in range(box.d):
        dist = np.maximum(dist, np.abs(idx[axis] - peak[axis]))
    shell_width = max(1, int(round(1.0 / box.h)))
    bands = dist // shell_width
    norms = [float(np.sqrt((arr[bands == b] ** 2).sum())) for b in range(int(bands.max()) + 1)]
    usable = [(b, math.log(v)) for b, v in enumerate(norms) if v > 1e-14]
    if len(usable) < 3:
        return None
    xs = np.array([u[0] for u in usable], dtype=float)
    ys = np.array([u[1] for u in usable])
    return -float(np.polyfit(xs, ys, 1)[0])


@given(
    d=st.sampled_from([1, 2]),
    L=st.sampled_from([2.0, 4.0, 8.0, 24.0]),
    density=st.sampled_from([2, 4, 8, 16]),
    rate=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_shell_decay_rate_is_the_masked_bands(d, L, density, rate, seed):
    n = int(L * density) - 1
    if n**d > 20000:
        n = int(20000 ** (1 / d))
    box = BoxSpec(d=d, length=L, center=(0.0,) * d, n=n)
    rng = np.random.default_rng(seed)
    # a random vector, damped away from a random node so the shells decay
    psi = rng.standard_normal(box.ndof) * np.exp(-rate * np.abs(box.nodes() - rng.uniform(-L / 2, L / 2)).max(axis=1))
    assert X._shell_decay_rate(psi, box) == _masked_shell_decay_rate(psi, box)


class TestUncertainty:
    def test_a_nan_energy_is_refused(self, stripes_third):
        # it once skipped the NaN energy, passed all four verdicts and wrote NaN, no JSON value, into the report
        refusal = r"^E_list must be a non-empty list of positive finite numbers, got \(nan, 25, 100, 225\)$"
        with pytest.raises(X.PreconditionError, match=refusal):
            X.run_uncertainty(stripes_third, E_list=(math.nan, 25, 100, 225), L_list=(2, 3))

    WANT = {
        (2.0, 25.0): (0.053473373688890914, 3),
        (2.0, 100.0): (0.00010206660511786355, 6),
        (2.0, 225.0): (8.304307559964099e-08, 9),
        (2.0, 400.0): (7.372505142945882e-11, 12),
        (3.0, 25.0): (0.058517837605407394, 4),
        (3.0, 100.0): (0.00012412905734529816, 9),
        (3.0, 225.0): (6.558469668709489e-08, 14),
        (3.0, 400.0): (2.6541787544752663e-11, 19),
        (4.0, 25.0): (0.05524950525485295, 6),
        (4.0, 100.0): (0.00013582091612054762, 12),
        (4.0, 225.0): (6.151455736256816e-08, 19),
        (4.0, 400.0): (4.428395726255528e-11, 25),
    }

    def test_a_second_set_on_the_same_scan_bisects_nothing(self, stripes_third, monkeypatch):
        # the free operator is kept per box, and with it every cutoff's bisection
        kw = dict(E_list=(25.0, 100.0, 225.0), L_list=(2.0, 3.0), mesh_density=16)
        half = stripes_raster(width=0.5, period=1.0, resolution=48)
        build_free_laplacian.cache_clear()
        cold = X.run_uncertainty(half, **kw).to_json()
        build_free_laplacian.cache_clear()
        X.run_uncertainty(stripes_third, **kw)
        calls = []
        stebz = spectral._STEBZ
        monkeypatch.setattr(spectral, "_STEBZ", lambda *args: calls.append(args) or stebz(*args))
        assert X.run_uncertainty(half, **kw).to_json() == cold
        assert calls == []

    def test_subspace_bounds_frozen(self, uncertainty_report):
        for (L, E), (lam, dim) in self.WANT.items():
            assert _rec(uncertainty_report, "lambda_min", [L, E])["value"] == pytest.approx(
                lam, **EXACT
            )
            assert _rec(uncertainty_report, "subspace_dim", [L, E])["value"] == dim

    def test_correlations_frozen(self, uncertainty_report):
        want = {
            2.0: 0.9995917856776876,
            3.0: 0.9985614255472204,
            4.0: 0.9987775765778648,
        }
        for L, corr in want.items():
            assert _rec(uncertainty_report, "sqrt_energy_corr", [L])[
                "value"
            ] == pytest.approx(corr, **EXACT)

    def test_fitted_frozen(self, uncertainty_report):
        f = uncertainty_report.fitted
        assert f["K_hat"] == 1.0
        assert f["gamma_certified"] == pytest.approx(1.0 / 3.0, **EXACT)
        assert f["thickness_error_bound"] == 0.0
        assert f["stability_excluded_E"] == [225.0, 400.0]

    def test_bound_decays_with_energy_at_each_scale(self, uncertainty_report):
        for L in (2.0, 3.0, 4.0):
            vals = [
                _rec(uncertainty_report, "lambda_min", [L, E])["value"]
                for E in (25.0, 100.0, 225.0, 400.0)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] > 0.0

    def test_all_verdicts_pass(self, uncertainty_report):
        assert uncertainty_report.verdicts == {
            "full_set_identity": "PASS",
            "positivity": "PASS",
            "scale_stability": "PASS",
            "sqrt_energy_rate": "PASS",
        }


class TestLocalisationProbe:
    def test_measurements_frozen(self, probe_report):
        f = probe_report.fitted
        assert f["states_found"] == 107
        assert f["decay_positive_fraction"] == 1.0
        assert _rec(probe_report, "participation_ratio_mean", [24.0])[
            "value"
        ] == pytest.approx(192.83913426825137, **EXACT)
        assert _rec(probe_report, "participation_fraction", [24.0])[
            "value"
        ] == pytest.approx(0.5034964341207607, **EXACT)
        assert _rec(probe_report, "shell_decay_rate_mean", [24.0])[
            "value"
        ] == pytest.approx(0.13000459633051023, **EXACT)

    def test_probe_never_claims_a_verdict(self, probe_report):
        assert probe_report.verdicts == {"probe": "INFORMATIONAL"}
        assert probe_report.overall == "INFORMATIONAL"

    def test_step_distributions_refused(self):
        jumpy = covering_model(dist=BernoulliAt(0.0, 1.0, 0.3))
        with pytest.raises(X.PreconditionError, match="Holder"):
            X.localisation_probe(jumpy)


class TestMinorantCheck:
    def test_construction_frozen(self, minorant_report):
        f = minorant_report.fitted
        assert f["spacing"] == 5.0
        assert f["lattice_count"] == 5
        assert f["gamma_hat"] == pytest.approx(0.2, **EXACT)
        assert f["threshold"] == pytest.approx(1e-06, **EXACT)
        assert f["margin"] == pytest.approx(2e-07, **EXACT)

    def test_every_draw_dominates(self, minorant_report):
        r = _rec(minorant_report, "active_fraction", [4.0])
        assert r["value"] == 1.0 and r["replicas"] == 20
        assert minorant_report.verdicts == {
            "pathwise_minorant": "PASS",
            "positive_margin": "PASS",
        }


class TestReportSurface:
    def test_json_round_trip_preserves_bytes(self, ids_report):
        clone = ExperimentReport.from_json(ids_report.to_json())
        assert clone.to_json() == ids_report.to_json()

    def test_timing_is_opt_in(self, ids_report):
        assert ids_report.wall_clock_s is not None and ids_report.wall_clock_s > 0.0
        assert "wall_clock_s" not in ids_report.to_json()

    def test_csv_carries_every_record(self, ids_report):
        lines = ids_report.to_records_csv().strip().splitlines()
        assert lines[0].startswith("# wegner-lab records v1")
        assert len(lines) - 2 == len(ids_report.records)  # marker, header, rows

    def test_summary_names_each_verdict(self, ids_report):
        text = ids_report.human_summary()
        for name in ids_report.verdicts:
            assert name in text


@pytest.mark.parametrize(
    "driver, fixture, kw",
    [
        ("run_stubborn", "geometric", dict(E=4.0, L_list=(8.0,), min_boxes=2, seed=7, replicas=3)),
        # 70 replicas cross a 64-replica draw block; capped draws share the blocks
        ("run_spectral_minimum", "covering", dict(eps_list=(0.5,), L=4.0, seed=0, replicas=70)),
        ("localisation_probe", "covering", dict(E_lo=0.0, E_hi=2.0, L=8.0, seed=0, replicas=4)),
        ("run_stubborn_exponential", "geometric", dict(L=4.0, eigen_index=3, seed=0, replicas=3)),
        # one worker maps one block of 65 draws (blocks of 128 and 2, the
        # seam's draw last): the large blocks count in lanes, the two-draw tail
        # in the scalar loop; two workers map blocks of 8 (16) draws, which
        # count in the loop (lanes)
        ("run_wegner", "covering", dict(L_list=(4.0,), eps_list=(0.4, 0.2), seed=99, replicas=65)),
        ("estimate_ids", "covering", dict(L=4.0, E_list=(2.0, 5.0, 10.0), seed=5, replicas=129)),
        # one worker checks resonance for all 65 operators in lanes; two
        # workers map blocks of 8, all in the loop
        ("run_ise", "covering", dict(L_list=(4.0,), seed=5, replicas=65)),
        # d=2, where worker processes pay: boxes of 225 and 529 unknowns, one
        # block of 8 replicas on one worker, eight blocks of 1 on two
        ("run_wegner", "slab", dict(L_list=(4.0, 6.0), eps_list=(0.4,), seed=3, replicas=8, mesh_density=4)),
        ("run_ise", "slab", dict(L_list=(4.0, 6.0), seed=5, replicas=8, mesh_density=4)),
        ("run_spectral_minimum", "slab", dict(eps_list=(0.5,), L=4.0, seed=0, replicas=8, mesh_density=4)),
        # 225 unknowns: dense eigenvectors, 8 states found
        ("localisation_probe", "slab", dict(E_lo=0.0, E_hi=3.0, L=4.0, seed=0, replicas=8, mesh_density=4)),
    ],
)
def test_replica_drivers_are_worker_count_invariant(driver, fixture, kw, request):
    # each worker process fills its own draw-block, operator and profile caches
    model = request.getfixturevalue(fixture)
    run = getattr(X, driver)
    one = run(model, workers=1, **kw)
    assert one.to_json() == run(model, workers=2, **kw).to_json()
    assert one.records


@pytest.mark.parametrize(
    "driver, fixture, kw, maps",
    [
        # two box sizes x three disjoint boxes: six replica maps
        ("run_stubborn", "geometric", dict(), 6),
        # three box sizes: three replica maps
        ("run_wegner", "covering", dict(replicas=8), 3),
    ],
)
def test_one_process_pool_per_driver_call(driver, fixture, kw, maps, request, monkeypatch):
    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    mapped = []
    map_replicas = X._map_replicas
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)  # looked up at the first parallel map
    monkeypatch.setattr(X, "_map_replicas", lambda *a, **k: mapped.append(1) or map_replicas(*a, **k))
    model = request.getfixturevalue(fixture)
    run = getattr(X, driver)
    one = run(model, workers=1, **kw)
    assert opened == []
    assert run(model, workers=2, **kw).to_json() == one.to_json()
    assert len(mapped) == 2 * maps
    assert len(opened) == 1


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "driver, kw",
    [
        ("estimate_ids", dict(L=4.0, E_list=(5.0, 10.0))),
        ("run_spectral_minimum", dict(eps_list=(0.5,), L=4.0)),
    ],
)
def test_single_replica_report_is_valid_json(driver, kw, covering):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = getattr(X, driver)(covering, replicas=1, seed=0, **kw)
    payload = json.loads(rep.to_json(), parse_constant=_refuse_constant)
    stderrs = [r["stderr"] for r in payload["records"] if r["replicas"] == 1 and r["stderr"] is not None]
    assert stderrs and all(s == 0.0 for s in stderrs)
    assert "nan" not in rep.to_records_csv()


@pytest.mark.parametrize(
    "driver, factory, lo",
    [("run_spectral_minimum", covering_model, -1.0), ("run_stubborn", geometric_dilution_model, -3.0)],
)
def test_negative_couplings_refused_before_sampling(driver, factory, lo, monkeypatch):
    # both drivers' bounds rest on a nonnegative potential
    sampled = []
    monkeypatch.setattr(X, "sample_potential", lambda *a, **k: sampled.append(a))
    with pytest.raises(X.PreconditionError, match=f"got min_support = {lo:g}$"):
        getattr(X, driver)(factory(dist=Uniform(lo, 1.0)), replicas=8)
    assert sampled == []


# the report each driver returns in this suite, by the driver's name
_REPORT_FIXTURES = {
    "run_wegner": "wegner_covering_report",
    "estimate_ids": "ids_report",
    "run_stubborn": "stubborn_report",
    "run_stubborn_exponential": "stubexp_report",
    "run_uncertainty": "uncertainty_report",
    "run_ise": "ise_report",
    "run_spectral_minimum": "specmin_report",
    "localisation_probe": "probe_report",
    "run_minorant_check": "minorant_report",
}


def test_every_driver_is_registered_once():
    assert sorted(X.EXPERIMENTS.values()) == sorted(_REPORT_FIXTURES)


@pytest.mark.parametrize("name, driver", sorted(X.EXPERIMENTS.items()))
def test_registered_driver_stamps_its_name(name, driver, request):
    assert callable(getattr(X, driver))
    assert request.getfixturevalue(_REPORT_FIXTURES[driver]).experiment == name


_REPLICA_DRIVERS = {
    "run_wegner": "covering",
    "estimate_ids": "covering",
    "run_stubborn": "geometric",
    "run_stubborn_exponential": "geometric",
    "run_ise": "covering",
    "run_spectral_minimum": "covering",
    "localisation_probe": "covering",
    "run_minorant_check": "covering",
}


def test_every_replica_driver_is_listed():
    takes = {d for d in X.EXPERIMENTS.values() if "replicas" in inspect.signature(getattr(X, d)).parameters}
    assert takes == set(_REPLICA_DRIVERS)


@pytest.mark.parametrize("driver, fixture", sorted(_REPLICA_DRIVERS.items()))
def test_fewer_than_one_replica_refused_before_sampling(driver, fixture, request, monkeypatch):
    model = request.getfixturevalue(fixture)
    run = getattr(X, driver)
    sampled = []
    monkeypatch.setattr(X, "sample_potential", lambda *a, **k: sampled.append(a))
    monkeypatch.setattr(X, "sample_potentials", lambda *a, **k: sampled.append(a))
    for key in [k for k in ("replicas", "workers") if k in inspect.signature(run).parameters]:
        for value in (0, -3):
            with pytest.raises(X.PreconditionError, match=f"^{key} must be an integer >= 1, got {value}$"):
                run(model, **{key: value})
    # the count is read from the bound arguments, so a positional 0 is refused alike
    params = list(inspect.signature(run).parameters.values())
    before = [p.default for p in params[1 : [p.name for p in params].index("replicas")]]
    with pytest.raises(X.PreconditionError, match="got 0$"):
        run(model, *before, 0)
    assert sampled == []


@pytest.mark.parametrize("eps_list", [(0.0,), (0.5, -0.25), (math.nan,), (0.5, math.nan), (0.5, math.inf)])
def test_spectral_minimum_refuses_nonpositive_caps_before_sampling(covering, eps_list, monkeypatch):
    # a NaN cap once reached the replica map, whose potentials were all NaN
    sampled = []
    monkeypatch.setattr(X, "sample_potential", lambda *a, **k: sampled.append(a))
    refusal = rf"^eps_list must be a non-empty list of positive finite numbers, got {re.escape(str(eps_list))}$"
    with pytest.raises(X.PreconditionError, match=refusal):
        X.run_spectral_minimum(covering, eps_list=eps_list, replicas=4)
    assert sampled == []


def test_spectral_minimum_refuses_no_caps_before_sampling(covering, monkeypatch):
    # with no cap there is no conditioned draw, so the run would pass on the floor alone
    sampled = []
    monkeypatch.setattr(X, "sample_potential", lambda *a, **k: sampled.append(a))
    with pytest.raises(X.PreconditionError, match=r"^eps_list must be a non-empty list of positive finite numbers, got \(\)$"):
        X.run_spectral_minimum(covering, eps_list=(), replicas=3, L=4.0)
    assert sampled == []


@pytest.mark.parametrize("L_list", [(4.0,), (4.0, 4.0)])
def test_one_box_size_has_no_volume_trend(covering, L_list):
    rep = X.run_wegner(covering, L_list=L_list, eps_list=(0.4, 0.2), replicas=4)
    assert rep.verdicts == {
        "nested_window_monotonicity": "PASS",
        "volume_trend_eps=0.2": "INFORMATIONAL",
        "volume_trend_eps=0.4": "INFORMATIONAL",
    }


def test_repeated_box_size_is_worked_once(covering):
    rep = X.run_wegner(covering, L_list=(4.0, 4.0), eps_list=(0.4,), replicas=4)
    assert [(r["point"], r["statistic"]) for r in rep.records] == [
        ([4.0, 0.4], "count_mean"),
        ([4.0, 0.4], "volume_ratio"),
    ]
    assert rep.config["L_list"] == [4.0]


def test_repeated_cap_is_worked_once(covering):
    rep = X.run_spectral_minimum(covering, eps_list=(0.5, 0.5), L=4.0, replicas=3)
    conditioned = [r["statistic"] for r in rep.records if r["point"][0] == "conditioned"]
    assert conditioned == ["min_eig_mean", "min_eig_high"]
    assert rep.config["eps_list"] == [0.5, 0.5]  # the caps as given: they are not a Grid


# per driver: its subject, a call with non-default, unsorted arguments, and the
# Grid arguments of that call as the report's config must list them
_CONFIG_CALLS = {
    "run_wegner": (
        "covering",
        dict(L_list=(8.0, 4.0), eps_list=(0.2, 0.4, 0.2), replicas=3, seed=41, mesh_density=8, e_ref=25.0),
        dict(L_list=[4.0, 8.0], eps_list=[0.2, 0.4]),
    ),
    "estimate_ids": (
        "covering",
        dict(L=4.0, E_list=(5.0, 2.0, 5.0), eps=0.5, replicas=2, seed=42, mesh_density=8, c_w=2.0),
        dict(E_list=[2.0, 5.0]),
    ),
    "run_stubborn": (
        "geometric",
        dict(E=3.0, L_list=(16.0, 8.0), replicas=2, seed=43, min_boxes=2),
        dict(L_list=[8.0, 16.0]),
    ),
    "run_stubborn_exponential": ("geometric", dict(L=4.0, eigen_index=2, replicas=2, seed=44, mesh_density=8), {}),
    "run_uncertainty": (
        "stripes_third",
        dict(a=(2.0,), E_list=(100.0, 25.0), L_list=(3.0, 2.0, 3.0), mesh_density=16, bc="neumann", seed=45),
        dict(E_list=[25.0, 100.0], L_list=[2.0, 3.0]),
    ),
    "run_ise": ("covering", dict(L_list=(8.0, 4.0), replicas=3, seed=46, mesh_density=8), dict(L_list=[4.0, 8.0])),
    "run_spectral_minimum": ("covering", dict(eps_list=(0.25, 0.5), replicas=2, seed=47, L=4.0, mesh_density=8), {}),
    "localisation_probe": (
        "covering",
        dict(E_lo=0.5, E_hi=3.0, L=8.0, replicas=2, seed=48, mesh_density=8),
        {},
    ),
    "run_minorant_check": ("covering", dict(L=4.0, replicas=2, seed=49, box_length=6.0, mesh_density=8), {}),
}


@pytest.mark.parametrize("driver", sorted(X.EXPERIMENTS.values()))
def test_config_is_the_bound_arguments(driver, request):
    fixture, kw, grids = _CONFIG_CALLS[driver]
    run = getattr(X, driver)
    signature = inspect.signature(run)
    assert {p.name for p in signature.parameters.values() if p.annotation.endswith("Grid")} == set(grids)
    rep = run(request.getfixturevalue(fixture), **kw)
    bound = signature.bind(None, **kw)
    bound.apply_defaults()
    subject, *_ = bound.arguments
    want = {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in bound.arguments.items()
        if k not in (subject, "seed", "workers")
    }
    want |= grids
    if driver == "run_stubborn":
        assert want["mesh_density"] is None
        want["mesh_density"] = 16  # resolved for d = 1
    assert rep.config == want
    assert rep.seed == kw["seed"]


_GRIDS = [
    (driver, p.name)
    for driver in sorted(X.EXPERIMENTS.values())
    for p in inspect.signature(getattr(X, driver)).parameters.values()
    if p.annotation.endswith("Grid")
]


def _grid_domain(driver: str, key: str) -> str:
    positive = inspect.signature(getattr(X, driver)).parameters[key].annotation == "PositiveGrid"
    return f"a non-empty list of {'positive ' if positive else ''}finite numbers"


@pytest.mark.parametrize("driver, key", _GRIDS)
def test_empty_grid_refused_before_sampling(driver, key, request, monkeypatch):
    sampled = []
    monkeypatch.setattr(X, "sample_potential", lambda *a, **k: sampled.append(a))
    subject = request.getfixturevalue(_CONFIG_CALLS[driver][0])
    with pytest.raises(X.PreconditionError, match=rf"^{key} must be {_grid_domain(driver, key)}, got \(\)$"):
        getattr(X, driver)(subject, **{key: ()})
    assert sampled == []


@pytest.mark.parametrize("driver, key", _GRIDS)
def test_a_nan_grid_point_refused_before_sampling(driver, key, request, monkeypatch):
    sampled = []
    monkeypatch.setattr(X, "sample_potential", lambda *a, **k: sampled.append(a))
    subject = request.getfixturevalue(_CONFIG_CALLS[driver][0])
    with pytest.raises(X.PreconditionError, match=rf"^{key} must be {_grid_domain(driver, key)}, got \[4.0, nan\]$"):
        getattr(X, driver)(subject, **{key: [4.0, math.nan]})
    assert sampled == []


class TestUncertaintyWithLittleData:
    def test_two_energies_fit_no_rate(self, stripes_third):
        rep = X.run_uncertainty(stripes_third, E_list=(25.0, 100.0), L_list=(2.0, 3.0), mesh_density=16)
        assert not [r for r in rep.records if r["statistic"] == "sqrt_energy_corr"]
        assert rep.verdicts["sqrt_energy_rate"] == "INFORMATIONAL"
        assert rep.verdicts["positivity"] == "PASS"

    def test_no_subspace_at_the_lowest_energy_checks_no_identity(self, stripes_third):
        # the first Dirichlet level of a 2-box is (pi/2)^2 > 1
        rep = X.run_uncertainty(stripes_third, E_list=(1.0, 25.0), L_list=(2.0,), mesh_density=16)
        assert not [r for r in rep.records if r["point"] == [2.0, 1.0]]
        assert rep.verdicts["full_set_identity"] == "INFORMATIONAL"

    def test_a_set_between_the_grid_nodes_fails_positivity(self):
        # a negative control: the stripes certify gamma 0.2, but no node of these Neumann grids lies in one
        rep = X.run_uncertainty(stripes_raster(0.2, 1.0, 10), L_list=(2.0, 4.0), mesh_density=2, bc="neumann")
        assert rep.fitted["gamma_certified"] == pytest.approx(0.2)
        lams = [r["value"] for r in rep.records if r["statistic"] == "lambda_min"]
        assert len(lams) == 8 and all(v == 0.0 for v in lams)
        assert rep.verdicts["positivity"] == "FAIL"

    def test_no_subspace_anywhere_refused(self, stripes_third):
        with pytest.raises(X.PreconditionError, match="no box has an eigenvalue at or below any E"):
            X.run_uncertainty(stripes_third, E_list=(1.0, 2.0), L_list=(2.0,), mesh_density=16)


def _bisected_rate_constant(log_inv_lambda, E, a_sum, d, gamma):
    """Smallest K >= 1 with K sqrt(E) (a_sum + d) log(K^d / gamma) >= log(1/lambda),
    by doubling and 200 bisection steps: the search the closed form replaced."""

    def g(K):
        return K * math.sqrt(E) * (a_sum + d) * math.log(K**d / gamma) - log_inv_lambda

    if g(1.0) >= 0:
        return 1.0
    lo, hi = 1.0, 2.0
    while g(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


class TestRateConstant:
    @given(
        E=st.floats(1e-3, 1e4),
        a_sum=st.floats(0.1, 8.0),
        d=st.integers(1, 3),
        gamma=st.floats(1e-4, 1.0),
        excess=st.floats(1e-6, 60.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_the_bisection(self, E, a_sum, d, gamma, excess):
        # log(1/lambda) past the K = 1 level by `excess` in units of sqrt(E) (a_sum + d)
        log_inv_lambda = math.sqrt(E) * (a_sum + d) * (math.log(1.0 / gamma) + excess)
        want = _bisected_rate_constant(log_inv_lambda, E, a_sum, d, gamma)
        assert want > 1.0
        assert X._solve_rate_constant(log_inv_lambda, E, a_sum, d, gamma) == pytest.approx(want, rel=1e-12)

    @given(E=st.floats(1e-3, 1e4), a_sum=st.floats(0.1, 8.0), d=st.integers(1, 3), gamma=st.floats(1e-4, 1.0),
           frac=st.floats(0.0, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_one_at_or_below_the_unit_level(self, E, a_sum, d, gamma, frac):
        log_inv_lambda = frac * math.sqrt(E) * (a_sum + d) * math.log(1.0 / gamma)
        assert X._solve_rate_constant(log_inv_lambda, E, a_sum, d, gamma) == 1.0

    def test_a_driver_run_past_one(self, stripes_third):
        # E = 0.01 on a Neumann box keeps only the constant mode: lambda is the
        # stripes' share of the nodes, and sqrt(E) is too small for K = 1
        rep = X.run_uncertainty(stripes_third, E_list=(0.01, 25.0), L_list=(2.0,), mesh_density=16, bc="neumann")
        lams = {r["point"][1]: r["value"] for r in rep.records if r["statistic"] == "lambda_min"}
        gamma = rep.fitted["gamma_certified"]
        k_hat = rep.fitted["K_hat"]
        assert k_hat > 1.0
        want = max(_bisected_rate_constant(math.log(1.0 / lam), E, 1.0, 1, gamma) for E, lam in lams.items())
        assert k_hat == pytest.approx(want, rel=1e-12)
        # the binding energy meets the relation with equality
        lhs = k_hat * math.sqrt(0.01) * 2.0 * math.log(k_hat / gamma)
        assert lhs == pytest.approx(math.log(1.0 / lams[0.01]), rel=1e-12)
