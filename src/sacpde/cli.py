"""Command line front end.

Subcommands: simulate, rate-time, rate-space, moments, increments, check.
Settings merge in precedence order
    built-in defaults < config file (--config) < flags.
Every artifact a run writes (config.txt, report.json, the per-sample CSV)
is deterministic: rerunning the same configuration reproduces the same
bytes.  config.txt is itself a --config file for the same subcommand, so
`sacpde KIND --config DIR/config.txt` replays a run.

Exit codes: 0 success, 1 a numerical contract failed (a machine-readable
JSON line is printed), 2 usage or configuration error.
"""

import argparse
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from .errors import ConfigError, ContractError, SolverError, ValidationError
from .harness import (
    STUDY_KINDS,
    ExperimentPlan,
    identity_suite,
    increment_study,
    moment_study,
    simulate_study,
    spatial_rate_study,
    temporal_rate_study,
)
from .reports import VERSION, csv_cell, json17, write_csv, write_json

# name -> (type tag, help); applicability is ALL kinds (harness validation
# rejects combinations that make no sense for a kind).
SCHEMA = {
    "d": ("int", "space dimension (1, 2 or 3)"),
    "R": ("float", "side length of the periodic box"),
    "T": ("float", "final time"),
    "J": ("int", "number of time steps (k = T/J)"),
    "n": ("int", "vertices per axis of the element mesh"),
    "sigma": ("str", "noise coefficient: zero, sine or rational"),
    "sigma_amplitude": ("float", "scale of the noise coefficient"),
    "x0": ("str", "initial datum: cos, tanh-layer or constant:<c>"),
    "seed": ("int", "master seed; path i uses counter key (seed, i)"),
    "n_paths": ("int", "number of Monte Carlo paths"),
    "solver": ("str", "fem or spectral (spectral needs d=1)"),
    "spectral_modes": ("int", "mode cut N of the spectral solver"),
    "lumped": ("bool", "use the vertex rule everywhere (mass lumping)"),
    "newton_tol": ("float", "relative residual tolerance of the implicit solve"),
    "j_fine": ("int", "steps of the fine (reference) time grid"),
    "levels": ("levels", "comma list: J values (rate-time), n values (rate-space), J:n pairs (moments)"),
    "reference": ("int", "reference mesh cells per axis (rate-space only)"),
    "taus": ("floats", "comma list of time offsets for the increment study"),
    "with_identity": ("bool", "record the per-step energy-identity residual (simulate)"),
}

# The studies default to the 2*pi torus: there the `cos` preset is the
# marginal wavenumber-1 mode, the solution stays order-one over T = 0.25,
# and the multiplicative noise remains active (on the unit torus the same
# datum collapses to the unstable zero state, where sigma(u) ~ 0 and every
# increment statistic degenerates to its deterministic value).
_TWO_PI = 2.0 * np.pi

KIND_DEFAULTS = {
    "simulate": {"solver": "fem"},
    "rate-time": {
        "solver": "spectral",
        "R": _TWO_PI,
        "levels": (16, 32, 64, 128, 256, 512),
    },
    "rate-space": {
        "solver": "fem",
        "R": _TWO_PI,
        "levels": (8, 16, 32, 64, 128),
        "reference": 512,
        "J": 1024,
        "n_paths": 32,
    },
    "moments": {"solver": "fem", "R": _TWO_PI, "levels": ((256, 64), (1024, 256))},
    "increments": {
        "solver": "spectral",
        "R": _TWO_PI,
        "n_paths": 256,
        "taus": (0.0625, 0.03125, 0.015625, 0.0078125),
    },
    "check": {"solver": "fem", "J": 100},
}

_BOOL_WORDS = {
    "true": True,
    "false": False,
    "1": True,
    "0": False,
    "yes": True,
    "no": False,
}


def _parse_value(key, raw, kind, where):
    tag = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "str":
            return raw
        if tag == "bool":
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError("expected true/false")
            return _BOOL_WORDS[raw.lower()]
        if tag == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if tag == "levels":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if kind == "moments":
                pairs = []
                for p in parts:
                    a, sep, b = p.partition(":")
                    if not sep:
                        raise ValueError(f"moments level {p!r} is not J:n")
                    pairs.append((int(a), int(b)))
                return tuple(pairs)
            return tuple(int(p) for p in parts)
        raise ValueError(f"unhandled type tag {tag!r}")
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r} ({exc})") from None


def _format_value(value):
    """The inverse of _parse_value: comma lists, moments levels as J:n."""
    if not isinstance(value, (list, tuple)):
        return csv_cell(value)
    return ",".join(
        ":".join(map(csv_cell, v)) if isinstance(v, (list, tuple)) else csv_cell(v)
        for v in value
    )


def config_text(cfg):
    """The resolved settings as the `key = value` lines load_config_file reads."""
    return "".join(f"{key} = {_format_value(cfg[key])}\n" for key in sorted(cfg))


def load_config_file(path, kind):
    """Flat `key = value` file; `#` comments.  All problems reported at once.

    A `kind` line, as config_text writes it, must name the subcommand run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    issues = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key:
            issues.append(f"{path}:{lineno}: expected `key = value`, got {line.strip()!r}")
        elif key == "kind":
            if raw.strip() != kind:
                issues.append(
                    f"{path}:{lineno}: config file is for {raw.strip()!r}, not {kind!r}"
                )
        elif key not in SCHEMA:
            issues.append(f"{path}:{lineno}: unknown key {key!r}")
        else:
            try:
                out[key] = _parse_value(key, raw, kind, f"{path}:{lineno}")
            except ConfigError as exc:
                issues.append(str(exc))
    if issues:
        raise ConfigError("\n".join(issues))
    return out


def build_plan(kind, config_path=None, flag_values=None):
    cfg = {
        f.name: f.default
        for f in fields(ExperimentPlan)
        if f.name != "kind" and f.default is not MISSING
    }
    cfg.update(KIND_DEFAULTS.get(kind, {}))
    if config_path:
        cfg.update(load_config_file(config_path, kind))
    # a flag that does not parse keeps its earlier value, so the plan's own
    # problems are listed with it
    issues = []
    for key, raw in (flag_values or {}).items():
        try:
            cfg[key] = _parse_value(key, raw, kind, "--" + key.replace("_", "-"))
        except ConfigError as exc:
            issues.append(str(exc))
    try:
        plan = ExperimentPlan(kind=kind, **cfg).validate()
    except ValidationError as exc:
        issues.append(str(exc))
    if issues:
        raise ConfigError("\n".join(issues))
    return plan


_RUNNERS = {
    "simulate": simulate_study,
    "rate-time": temporal_rate_study,
    "rate-space": spatial_rate_study,
    "moments": moment_study,
    "increments": increment_study,
    "check": identity_suite,
}


def write_artifacts(outdir, plan, result):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(config_text(plan.config_dict()))
    write_json(os.path.join(outdir, "report.json"), result.report)
    if result.csv_name:
        write_csv(os.path.join(outdir, result.csv_name), result.csv_header, result.csv_rows)


def _fit_line(name, fit):
    if fit is None:
        return f"{name}: no fit (fewer than 2 usable levels)"
    ci = fit["ci95_halfwidth"]
    ci_text = f" +/- {ci:.3f} (95%)" if ci is not None else ""
    return f"{name}: slope {fit['slope']:.4f}{ci_text} over {fit['n_points']} levels"


def summarize(result, out=None):
    out = sys.stdout if out is None else out
    rep = result.report
    kind = rep["kind"]
    if kind == "simulate":
        line = (
            f"simulate: {rep['steps']} steps, terminal energy "
            f"{rep['energy_terminal']['total']:.6f}"
        )
        if "identity" in rep:
            line += (
                f", identity max residual {rep['identity']['max_residual']:.3e}"
                f" ({'ok' if rep['identity']['passed'] else 'VIOLATED'})"
            )
        print(line, file=out)
    elif kind in ("rate-time", "rate-space"):
        print(_fit_line(f"{kind} sup_l2_sq", rep["slope_l2"]), file=out)
        print(_fit_line(f"{kind} sum_h1_sq", rep["slope_h1"]), file=out)
        if rep["excluded_levels"]:
            print(f"excluded levels (noise floor): {rep['excluded_levels']}", file=out)
    elif kind == "moments":
        for entry in rep["levels"]:
            p1 = entry["moments"]["p1"]
            p2 = entry["moments"]["p2"]
            print(
                f"moments J={entry['J']} n={entry['n']}: "
                f"sup E[energy] = {p1['mean']:.6f} (j*={p1['argmax_j']}), "
                f"sup E[energy^2] = {p2['mean']:.6f}",
                file=out,
            )
    elif kind == "increments":
        for r in rep["ratios"]:
            ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.4f}"
            print(
                f"increments tau {r['tau_from']:g} -> {r['tau_to']:g}: ratio {ratio}",
                file=out,
            )
    elif kind == "check":
        for entry in rep["entries"]:
            print(f"{entry['name']}: {entry['status']}", file=out)
        print("check: PASS" if rep["passed"] else "check: FAIL", file=out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sacpde",
        description="Structure-preserving stochastic Allen-Cahn solver and studies.",
    )
    parser.add_argument("--version", action="version", version=f"sacpde {VERSION}")
    sub = parser.add_subparsers(dest="kind", required=True, metavar="command")
    briefs = {
        "simulate": "integrate a single trajectory",
        "rate-time": "strong rate in the time step (coupled paths)",
        "rate-space": "strong rate in the mesh width (coupled paths)",
        "moments": "sup-in-time energy moments across resolutions",
        "increments": "mean-square time increments at T/2",
        "check": "run the exactness and coupling checks",
    }
    for kind in STUDY_KINDS:
        p = sub.add_parser(kind, help=briefs[kind])
        p.add_argument("--config", metavar="FILE", help="flat key = value settings file")
        p.add_argument(
            "-o", "--output-dir", metavar="DIR",
            help="write config.txt (a --config file), report.json and the CSV here",
        )
        for key, (tag, help_text) in SCHEMA.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest="schema_" + key,
                metavar=tag.upper(),
                help=help_text,
            )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {
        key: getattr(args, "schema_" + key)
        for key in SCHEMA
        if getattr(args, "schema_" + key) is not None
    }
    try:
        plan = build_plan(args.kind, config_path=args.config, flag_values=flags)
        if args.output_dir:  # an unusable path fails before the study runs
            os.makedirs(args.output_dir, exist_ok=True)
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"sacpde: configuration error:\n{exc}", file=sys.stderr)
        return 2

    try:
        result = _RUNNERS[args.kind](plan)
    except (ContractError, SolverError) as exc:
        # a StepFailure's residual norm; None when absent or not finite
        residual = getattr(exc, "residual", None)
        if residual is not None and not np.isfinite(residual):
            residual = None
        print(json17({
            "failed": True, "kind": args.kind, "error": type(exc).__name__,
            "message": str(exc), "residual": residual,
        }))
        return 1

    if args.output_dir:
        write_artifacts(args.output_dir, plan, result)
    summarize(result)
    if args.output_dir:
        print(f"artifacts written to {args.output_dir}")
    if args.kind == "check" and not result.report["passed"]:
        print(json17({"failed": True, "kind": "check", "error": "ContractError", "message": "identity suite failed"}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
