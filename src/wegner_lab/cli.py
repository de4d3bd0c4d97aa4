"""Command-line front end.

Subcommands:
  run       execute one experiment from a run config (and usually a model file)
  make-set  build and save a raster set (stripes or a fat Cantor stage)
  certify   certify thickness of a raster, or a model's structural claims
            (an option the chosen mode would not read is an error)
  report    re-render a stored report as a human summary

An experiment's driver in the experiments module is its one declaration: the
experiment's name is the one its decorator registers (EXPERIMENTS), a run
file's [parameters] keys are the driver's keyword arguments lowercased, with
the driver's defaults and the kinds its annotations give (plus those of
build_set when the driver takes a set, not a model).  [run] holds the
experiment, the seed, and those of replicas, workers and mesh_density the
driver takes; workers = 1 is the serial run of any driver.  A model file's
keys are random_model.build_model's keywords.  One table, random_model.KINDS,
parses the values of both kinds of file and the certify options, and each
input refuses by name a value outside its kind's domain, as a Python call
does: the driver, the model file and build_model, build_set (run-file set_*
keys and make-set) and the certify options.

Exit codes: 0 when every verdict is PASS or INFORMATIONAL, 1 when any
verdict is FAIL, 2 on execution errors (bad config, failed preconditions,
missing files, a box the grid or the eigensolver cannot handle).  Run
outputs are written as report.json and records.csv (byte-stable, no
timing), summary.txt (human text, timing allowed), and config.resolved.ini
(the fully resolved configuration actually used).  The output directory may
also be set through WEGNER_LAB_OUT; no other behavior is
environment-dependent.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import experiments
from .experiments import PreconditionError
from .grids import GridError
from .random_model import (
    KINDS, Count, Index, ModelError, Positive, load_model_config, parse_as, read_ini, refuse_arguments, refuse_outside,
    verify_NoPi, verify_Pi,
)
from .reports import ExperimentReport
from .spectral import EigensolverError, ResonantSampleError
from .thick_sets import (
    RasterError,
    RasterSet,
    WindowSpec,
    build_fat_cantor,
    certify_thickness,
    load_raster,
    save_raster,
    smith_volterra_spec,
    stripes_raster,
)


class ConfigError(ValueError):
    pass


# [run] keys besides the experiment, in the resolved file's order
_RUN_KEYS = ("seed", "workers", "replicas", "mesh_density")


def build_set(
    set_kind: str = "stripes",
    set_width: Positive = 1.0 / 3.0,
    set_period: Positive = 1.0,
    set_resolution: Count = 48,
    set_depth: Index = 4,
    set_path: str | None = None,
    *,
    base: Path = Path("."),
) -> RasterSet:
    """Stripes, a fat Cantor stage, or a raster file (set_path, relative to base)."""
    refuse_arguments(build_set, locals(), ConfigError)  # locals() is the call's arguments here
    if set_kind == "stripes":
        return stripes_raster(set_width, set_period, set_resolution)
    if set_kind == "cantor":
        return build_fat_cantor(smith_volterra_spec(set_depth), set_resolution)
    if set_kind == "file":
        if not set_path:
            raise ConfigError("set_kind = file needs set_path")
        return load_raster(base / set_path)
    raise ConfigError(f"unknown set_kind {set_kind!r}")


def _keys(fn) -> dict[str, inspect.Parameter]:
    """fn's keyword arguments by lowercased name (keyword-only ones are not config keys)."""
    params = inspect.signature(fn).parameters.values()
    return {p.name.lower(): p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}


def _schema(experiment: str) -> tuple[Any, dict[str, inspect.Parameter], dict[str, inspect.Parameter] | None]:
    """The experiment's driver, the keys the driver reads after its first argument,
    and the keys of build_set when that first argument is a set, not a model."""
    driver = getattr(experiments, experiments.EXPERIMENTS[experiment])
    (first, _), *rest = _keys(driver).items()
    return driver, dict(rest), None if first == "model" else _keys(build_set)


@dataclass
class RunConfig:
    experiment: str
    # the call's keyword values by lowercased key: the [run] keys set (seed and workers always) and every
    # [parameters] key, defaults included
    params: dict[str, Any] = field(default_factory=lambda: {"seed": 0, "workers": 1})


def parse_run_config(path: str | Path) -> RunConfig:
    """Strict run-file parser: every key must be one the experiment's driver reads."""
    path = Path(path)
    parser = read_ini(path, ("run", "parameters"), ConfigError)
    if "run" not in parser:
        raise ConfigError(f"{path}: missing [run] section")
    run = parser["run"]
    experiment = run.pop("experiment", "").strip()
    if experiment not in experiments.EXPERIMENTS:
        known = ", ".join(sorted(experiments.EXPERIMENTS))
        raise ConfigError(f"{path}: experiment must be one of {known}, got {experiment!r}")
    _, keys, set_keys = _schema(experiment)
    cfg = RunConfig(experiment=experiment)
    for key, raw in run.items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r} in [run]")
        value = parse_as("int", raw, path, key, ConfigError)
        if key not in keys and (key, value) != ("workers", 1):
            raise ConfigError(f"{path}: experiment {experiment} takes no {key!r} in [run]")
        cfg.params[key] = value
    params = {k: p for k, p in keys.items() if k not in _RUN_KEYS} | (set_keys or {})
    if "parameters" in parser:
        for key, raw in parser["parameters"].items():
            if key not in params:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [parameters] for experiment {experiment}"
                )
            cfg.params[key] = parse_as(params[key].annotation, raw, path, key, ConfigError)
    for key, p in params.items():
        cfg.params.setdefault(key, p.default)
    return cfg


def resolved_ini(cfg: RunConfig) -> str:
    lines = ["[run]", f"experiment = {cfg.experiment}"]
    lines += [f"{key} = {cfg.params[key]}" for key in _RUN_KEYS if key in cfg.params] + ["", "[parameters]"]
    for key in sorted(cfg.params.keys() - _RUN_KEYS):
        val = cfg.params[key]
        if val is None:
            continue
        if isinstance(val, tuple):
            lines.append(f"{key} = {','.join(repr(v) for v in val)}")
        else:
            lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _flag(kind: str, name: str):
    """An option's argparse type: the value read as kind, refused outside the kind's domain."""

    def value(raw: str) -> Any:
        return refuse_outside(kind, name, KINDS[kind][0](raw), argparse.ArgumentTypeError)

    value.__name__ = kind  # argparse's "invalid <kind> value" when the value does not parse
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_run_config(args.config)
    driver, keys, set_keys = _schema(cfg.experiment)
    if set_keys is not None:
        if args.model is not None:
            raise ConfigError(f"experiment {cfg.experiment} takes no model file")
        subject = build_set(**{k: cfg.params[k] for k in set_keys}, base=Path(args.config).parent)
    elif args.model is None:
        raise ConfigError(f"experiment {cfg.experiment} needs a model file (--model)")
    else:
        subject = load_model_config(args.model)
    out_dir = Path(os.environ.get("WEGNER_LAB_OUT", args.out or "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    # unset replicas and mesh_density, and an unset c_w, leave the driver's default
    rep = driver(subject, **{p.name: cfg.params[k] for k, p in keys.items() if cfg.params.get(k) is not None})
    rep.write(out_dir)
    (out_dir / "config.resolved.ini").write_text(resolved_ini(cfg))
    sys.stdout.write(rep.human_summary())
    return 0 if rep.overall in ("PASS", "INFORMATIONAL") else 1


def _cmd_make_set(args: argparse.Namespace) -> int:
    S = build_set(args.kind, args.width, args.period, args.resolution, args.depth)
    save_raster(S, args.out)
    sys.stdout.write(f"wrote {args.out}: measure {S.measure!r} of period {S.geometry.extent[0]!r}\n")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    if (args.raster is None) == (args.model is None):
        raise ConfigError("certify needs --raster or --model, not both")
    model = None if args.model is None else load_model_config(args.model)
    claim = None if model is None else model.claimed_window  # set exactly when the model claims a thick set
    if args.gamma is not None and model is not None:
        raise ConfigError("--gamma is the claimed thickness of a --raster; a model file states its own gamma")
    if args.kappa is not None and (model is None or claim is not None):
        raise ConfigError("--kappa is read only for a model with a sup-norm bound and no thickness claim")
    if args.window is not None and claim is not None and args.window != claim.a:
        raise ConfigError(f"--window {args.window} differs from the window {claim.a} of the model's thickness claim")
    if model is None:
        S = load_raster(args.raster)
        cert = certify_thickness(S, WindowSpec(args.window or (1.0,) * S.d))
        sys.stdout.write(
            f"gamma_star = {cert.gamma_star!r}\nerror_bound = {cert.error_bound!r}\n"
            f"argmin_anchor = {cert.argmin!r}\n"
        )
        if args.gamma is None:
            return 0
        ok = cert.certifies(args.gamma)
        sys.stdout.write(f"claimed gamma {args.gamma!r}: {'CERTIFIED' if ok else 'REFUSED'}\n")
        return 0 if ok else 1
    if claim is not None:
        cert = verify_Pi(model)
        sys.stdout.write(
            f"covering lower bound: {'ok' if cert.lower_bound_ok else f'violated at {cert.first_violation}'}\n"
            f"gamma_star = {cert.gamma_star!r} (claimed {cert.gamma_claimed!r}, "
            f"error {cert.thickness_error!r})\nverdict: {'PASS' if cert.passed else 'FAIL'}\n"
        )
        return 0 if cert.passed else 1
    if model.claimed_bound is not None:
        cert2 = verify_NoPi(model, args.kappa or [0.5], [args.window or (1.0,) * model.d])
        sys.stdout.write(f"sup potential = {cert2.sup_u!r} (claimed bound {cert2.bound_claimed!r})\n")
        for key, spot in sorted(cert2.witnesses.items()):
            anchor = tuple(float(v) for v in spot)
            sys.stdout.write(f"empty window at {anchor!r} for kappa={key[0]!r} a={key[1]!r}\n")
        sys.stdout.write(f"verdict: {'PASS' if cert2.passed else 'FAIL'}\n")
        return 0 if cert2.passed else 1
    raise ConfigError("model declares neither a thickness claim nor a sup-norm bound")


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        rep = ExperimentReport.from_json(Path(args.json).read_text())
    except ValueError as exc:  # malformed JSON, undecodable bytes, or JSON that is no report
        raise ConfigError(f"{args.json}: {exc}") from exc
    if args.csv:
        sys.stdout.write(rep.to_records_csv())
    else:
        sys.stdout.write(rep.human_summary())
    return 0 if rep.overall in ("PASS", "INFORMATIONAL") else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="wegner-lab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment from a run config")
    run_p.add_argument("--config", required=True, help="run configuration file (INI)")
    run_p.add_argument("--model", help="model description file (INI)")
    run_p.add_argument("--out", help="output directory (default: current; env WEGNER_LAB_OUT overrides)")
    run_p.set_defaults(fn=_cmd_run)

    mk = sub.add_parser("make-set", help="build and save a raster set")
    mk.add_argument("--kind", choices=("stripes", "cantor"), required=True)
    mk.add_argument("--width", type=float, default=1.0 / 3.0, help="stripe width (stripes)")
    mk.add_argument("--period", type=float, default=1.0, help="period (stripes)")
    mk.add_argument("--depth", type=int, default=4, help="construction depth (cantor)")
    mk.add_argument("--resolution", type=int, default=1024, help="cells per unit length")
    mk.add_argument("--out", required=True, help="output path of the .npz archive, written under exactly this name")
    mk.set_defaults(fn=_cmd_make_set)

    ct = sub.add_parser("certify", help="certify thickness or structural claims")
    ct.add_argument("--raster", help="raster file to certify")
    ct.add_argument("--model", help="model file whose claims to verify")
    ct.add_argument("--window", type=_flag("Positives", "window"), help="window sides, comma separated (default: the unit cube)")
    ct.add_argument("--gamma", type=_flag("Positive", "gamma"), help="claimed thickness to check (raster mode)")
    ct.add_argument("--kappa", type=_flag("Sequence[float]", "kappa"),
                    help="level list for refutation, comma separated (bound-only model)")
    ct.set_defaults(fn=_cmd_certify)

    rp = sub.add_parser("report", help="re-render a stored report")
    rp.add_argument("--json", required=True, help="path to report.json")
    rp.add_argument("--csv", action="store_true", help="emit records CSV instead of the summary")
    rp.set_defaults(fn=_cmd_report)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (
        ConfigError, ModelError, RasterError, GridError, EigensolverError, ResonantSampleError,
        PreconditionError, OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
