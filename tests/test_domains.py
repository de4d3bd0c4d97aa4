"""Every numeric driver parameter, swept across the edges of its kind's domain.

A value outside the domain its annotation declares is refused by name before
any coupling is drawn; a value inside it runs to a report that strict JSON
reads, or meets a precondition of the model or the data.  The domains here
are written out again, apart from experiments.DOMAINS, so that they check it.
"""

import inspect
import json
import math

import pytest

from wegner_lab import experiments as X
from wegner_lab import random_model
from wegner_lab.grids import GridError
from wegner_lab.reports import ExperimentReport

SWEEP = (math.nan, math.inf, -math.inf, 0, -1)


def _positive(v) -> bool:
    return isinstance(v, int) and v > 0 or isinstance(v, float) and 0 < v < math.inf


# kind -> whether one swept value lies in its domain; a list kind holds the value as its one entry
IN_DOMAIN = {
    "float": lambda v: math.isfinite(v),
    "Positive": _positive,
    "Count": lambda v: isinstance(v, int) and v >= 1,
    "Index": lambda v: isinstance(v, int) and v >= 0,
    "Grid": lambda v: math.isfinite(v),
    "PositiveGrid": _positive,
    "Positives": _positive,
}
LISTS = ("Grid", "PositiveGrid", "Positives")

# per driver: its subject and a small, quick call around which each parameter is swept
SMALL = {
    "run_wegner": ("covering", dict(L_list=(4.0,), eps_list=(0.4,), replicas=2, mesh_density=8)),
    "estimate_ids": ("covering", dict(L=4.0, E_list=(2.0,), replicas=2, mesh_density=8)),
    "run_stubborn": ("geometric", dict(L_list=(8.0,), replicas=1, min_boxes=1)),
    "run_stubborn_exponential": ("geometric", dict(L=4.0, eigen_index=1, replicas=1, mesh_density=8)),
    "run_uncertainty": ("stripes_third", dict(E_list=(25.0,), L_list=(2.0,), mesh_density=16)),
    "run_ise": ("covering", dict(L_list=(4.0,), replicas=2, mesh_density=8)),
    "run_spectral_minimum": ("covering", dict(eps_list=(0.5,), replicas=2, L=4.0, mesh_density=8)),
    "localisation_probe": ("covering", dict(L=4.0, replicas=2, mesh_density=8)),
    "run_minorant_check": ("covering", dict(L=4.0, replicas=2, box_length=4.0, mesh_density=8)),
}


def _numeric(driver: str) -> list[tuple[str, str]]:
    """(name, kind) of each parameter of the driver after its subject but the boundary condition."""
    _, *params = inspect.signature(getattr(X, driver)).parameters.values()
    return [(p.name, p.annotation.removesuffix(" | None")) for p in params if p.annotation != "Bc"]


CASES = [
    (driver, name, kind, value)
    for driver in sorted(X.EXPERIMENTS.values())
    for name, kind in _numeric(driver)
    for value in SWEEP
]


def _id(case) -> str:
    driver, name, _, value = case
    return f"{driver}-{name}={value}"


def test_every_driver_parameter_has_a_kind():
    for driver in X.EXPERIMENTS.values():
        assert {kind for _, kind in _numeric(driver)} <= IN_DOMAIN.keys(), driver
    assert sorted(SMALL) == sorted(X.EXPERIMENTS.values())


def test_each_kind_parses_from_a_run_file():
    assert X.DOMAINS.keys() <= random_model.KINDS.keys()


@pytest.mark.parametrize(
    "driver, name, value",
    [
        ("estimate_ids", "c_w", math.nan),
        ("estimate_ids", "L", math.nan),
        ("run_spectral_minimum", "L", math.nan),
        ("localisation_probe", "L", math.nan),
        ("run_stubborn_exponential", "L", math.nan),
        ("estimate_ids", "L", math.inf),
        ("run_wegner", "e_ref", math.inf),
        ("localisation_probe", "E_hi", math.inf),
        ("estimate_ids", "seed", -1),
        ("run_ise", "mesh_density", 0),
    ],
)
def test_a_value_once_let_through_is_refused_by_name(driver, name, value, request):
    # before the kinds: NaN or Infinity in report.json, or ValueError, OverflowError, ModelError or GridError
    fixture, small = SMALL[driver]
    with pytest.raises(X.PreconditionError, match=f"^{name} must be "):
        getattr(X, driver)(request.getfixturevalue(fixture), **small | {name: value})


@pytest.mark.parametrize("driver, name, kind, value", CASES, ids=map(_id, CASES))
def test_sweep(driver, name, kind, value, request, monkeypatch):
    fixture, small = SMALL[driver]
    subject = request.getfixturevalue(fixture)
    call = small | {name: (value,) if kind in LISTS else value}
    if not IN_DOMAIN[kind](value):

        def drawn(*args, **kwargs):
            raise AssertionError("couplings drawn before the refusal")

        monkeypatch.setattr(random_model, "_couplings", drawn)
        with pytest.raises(X.PreconditionError) as refusal:
            getattr(X, driver)(subject, **call)
        assert str(refusal.value).startswith(f"{name} must be ")
        return
    try:
        rep = getattr(X, driver)(subject, **call)
    except X.PreconditionError:
        return  # a precondition of the model, the data or two parameters together

    def refuse(constant):
        raise AssertionError(f"{constant} in report.json")

    json.loads(rep.to_json(), parse_constant=refuse)


@pytest.mark.parametrize(
    "driver, call, message",
    [
        ("estimate_ids", dict(L=0.1, replicas=2), "L = 0.1 at mesh_density = 16 makes no grid: "
         "need at least two grid points per axis"),
        ("run_wegner", dict(L_list=(1e6,), replicas=1), "L = 1000000.0 at mesh_density = 16 makes no grid: "
         "15999999^1 grid points exceed the dof budget 2000000"),
    ],
)
def test_a_box_the_grid_cannot_hold_is_refused_by_name(driver, call, message, covering):
    # each value lies in its kind's domain; the pair with mesh_density makes no grid (it once raised GridError)
    with pytest.raises(X.PreconditionError) as refusal:
        getattr(X, driver)(covering, **call)
    assert str(refusal.value) == message
    assert isinstance(refusal.value.__cause__, GridError)


@pytest.mark.parametrize("bc", ["dirichlett", "", 0, None])
def test_an_unknown_boundary_condition_is_refused_by_name(bc, stripes_third):
    # it once reached the grid, which raised GridError("unknown boundary condition ...")
    with pytest.raises(X.PreconditionError, match=f"^bc must be one of dirichlet, neumann, periodic, got {bc}$"):
        X.run_uncertainty(stripes_third, **SMALL["run_uncertainty"][1], bc=bc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_report_holding_a_non_finite_value_is_not_written(value, tmp_path):
    rep = ExperimentReport(experiment="ids", fitted={"implied_c_w": value})
    with pytest.raises(ValueError, match="not JSON compliant"):
        rep.to_json()
    with pytest.raises(ValueError):
        rep.write(tmp_path)
    assert not (tmp_path / "report.json").exists()
