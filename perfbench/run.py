#!/usr/bin/env python3
"""Benchmark of the sacpde studies, one named workload per call.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fem-check-3d --seed 1 --seconds 15 --trace 0

The study runs in this process through `sacpde.cli.main(argv)` with `-o`
into `perfbench/out/<workload>/study`, repeatedly until `--seconds` have
passed; every repeat is one operation, and its outputs are checked against
properties of the method (slopes, energy identity), not against stored
copies.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones (`wall_s`, `setup_s`, `peak_rss_mb`); with
`--trace 1` the study alternates untraced and traced repeats and the
metrics are the per-layer ones of `layers.METRICS`, and every span is
written to `perfbench/out/<workload>/trace.json`.  See perfbench/README.md.
"""

import os
import sys

# A run must not depend on the caller's thread settings or on SAC_* overrides
# of the study configuration, so both are fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("SAC_")]:
    del os.environ[_var]

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 3


# -- output checks: properties the method guarantees ---------------------------


def _check_rate_time(report):
    slope = (report["slope_l2"] or {}).get("slope")
    problems = []
    if slope is None or not 0.8 <= slope <= 1.2:
        problems.append(f"squared-error slope in k {slope} outside [0.8, 1.2]")
    if report["warnings"]:
        problems.append(f"refinement warnings: {report['warnings']}")
    return problems


def _check_rate_space(report):
    slope = (report["slope_l2"] or {}).get("slope")
    if slope is None or slope < 1.7:
        return [f"squared-error slope in h {slope} below 1.7"]
    return []


def _check_identity_suite(report):
    problems = []
    if not report["passed"]:
        problems.append("check suite reports passed = false")
    for entry in report["entries"]:
        if entry["status"] != "pass":
            problems.append(f"{entry['name']}: {entry['status']}")
        if "identity" in entry["name"] and not entry["max_residual"] <= 1e-10:
            problems.append(f"{entry['name']}: residual {entry['max_residual']!r} > 1e-10")
        if entry["name"] == "energy_dissipation_sigma_zero":
            e0 = entry["initial"]
            if not entry["max_increase"] <= 1e-12 * (1.0 + abs(e0)):
                problems.append(f"sigma=0 energy rose by {entry['max_increase']!r}")
            if not entry["terminal"] < e0:
                problems.append(f"sigma=0 energy ended at {entry['terminal']!r} >= {e0!r}")
    if not any(e["name"] == "energy_dissipation_sigma_zero" for e in report["entries"]):
        problems.append("no sigma=0 dissipation entry")
    return problems


# name -> (study argv without --seed and -o, output check, layer metrics that
# must record work; a traced run in which one of them reads 0 fails, so a
# renamed function cannot silently drop out of the trace)
WORKLOADS = {
    "spectral-rate-time": (
        ["rate-time", "--spectral-modes", "8", "--j-fine", "4096",
         "--levels", "16,32,64,128,256,512", "--n-paths", "64", "--sigma-amplitude", "1.0"],
        _check_rate_time,
        ("spectral.step_batch_s", "spectral.transforms", "spectral.newton_sweeps_per_step",
         "stochastic.sample_path_s", "stochastic.coarsen_s", "harness.study_s",
         "reports.bytes"),
    ),
    "fem-rate-space-1d": (
        ["rate-space", "--levels", "8,16,32", "--reference", "128", "--J", "64",
         "--n-paths", "8"],
        _check_rate_space,
        ("stepper.steps", "stepper.newton_iters_per_step", "mesh_fem.system_matrix_s",
         "mesh_fem.load_vector_s", "mesh_fem.element_values_s", "stepper.linear_solve_s",
         "stepper.lu_factorizations", "mesh_fem.setup_s", "stochastic.sample_path_s",
         "harness.study_s", "reports.bytes"),
    ),
    "fem-check-2d": (
        ["check", "--d", "2", "--n", "64", "--J", "20"],
        _check_identity_suite,
        ("stepper.steps", "stepper.newton_iters_per_step", "stepper.linear_solve_s",
         "stepper.lu_factorizations", "stepper.identity_s", "model.energy_s",
         "mesh_fem.setup_s", "mesh_fem.solve_mass_s"),
    ),
    "fem-check-3d": (
        ["check", "--d", "3", "--n", "16", "--J", "16"],
        _check_identity_suite,
        ("stepper.steps", "stepper.newton_iters_per_step", "stepper.cg_solves",
         "stepper.cg_s", "stepper.identity_s", "model.energy_s", "mesh_fem.setup_s",
         "mesh_fem.solve_mass_s"),
    ),
}

# Interpreter start, `import sacpde` and config resolution, as `sacpde`
# pays them before a study starts; prints the monotonic clock when done.
_SETUP_PROBE = """
import sys, time
import sacpde.cli as cli
args = cli.build_parser().parse_args(sys.argv[1:])
flags = {k: getattr(args, "schema_" + k) for k in cli.SCHEMA
         if getattr(args, "schema_" + k) is not None}
cli.build_plan(args.kind, config_path=args.config, flag_values=flags)
print(time.monotonic(), flush=True)
"""


def setup_seconds(argv):
    """Seconds from spawning a fresh interpreter until the study could start."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def run_study(cli, argv, outdir, tracer=None):
    """One operation: the study through cli.main.

    Returns (exit code, or None if it raised; layer metrics when traced;
    seconds of the call).
    """
    shutil.rmtree(outdir, ignore_errors=True)
    call = lambda: cli.main(argv + ["-o", outdir])
    rc = layer = None
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = call()
            else:
                rc, layer = tracer.run(argv[0], call)
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, layer, seconds


def check_outputs(check, outdir):
    """Problems with the study's report.json, and its SHA-256 (None if absent)."""
    path = os.path.join(outdir, "report.json")
    if not os.path.isfile(path):
        return ["no report.json"], None
    with open(path, "rb") as fh:
        data = fh.read()
    return check(json.loads(data)), hashlib.sha256(data).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sacpde", "cli.py")):
        sys.exit(f"run.py: no sacpde sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import sacpde.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported sacpde from {cli.__file__}, not from {SRC}")

    study_argv, check, must_work = WORKLOADS[args.workload]
    argv = study_argv + ["--seed", str(args.seed)]
    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    outdir = os.path.join(workdir, "study")

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers

        tracer = layers.Tracer()
    else:
        setups = [setup_seconds(argv) for _ in range(SETUP_REPEATS)]

    attempted = failed = 0
    correct = True
    digest = None
    plain, traced, layer_rows = [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        # the traced run alternates plain and traced repeats, so both see
        # the same host conditions and their difference is the overhead
        use_tracer = tracer is not None and attempted % 2 == 1
        rc, layer, seconds = run_study(cli, argv, outdir, tracer if use_tracer else None)
        attempted += 1
        problems, got = check_outputs(check, outdir)
        if got is not None and digest is not None and got != digest:
            problems.append(f"report.json digest {got} differs from the first repeat's {digest}")
        if got is not None and problems:
            correct = False  # the study wrote a report, and the report is wrong
        if rc != 0:
            problems.insert(0, f"study exited with {rc}")
        if problems:
            failed += 1
            print(f"operation {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        else:
            digest = digest or got
            (traced if use_tracer else plain).append(seconds)
            if use_tracer:
                layer_rows.append(layer)
        if time.monotonic() >= deadline and (tracer is None or attempted >= 2):
            break
    if digest:
        print(f"report_sha256 {args.workload} seed={args.seed} {digest}")

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(plain or [seconds]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    elif not (plain and traced):
        sys.exit(f"run.py: {args.workload} needs a plain and a traced repeat that pass")
    else:
        values = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in layers.METRICS
        }
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: (values[name], unit) for name, unit in layers.METRICS.items()}
        tracer.dump(
            os.path.join(workdir, "trace.json"),
            {"workload": args.workload, "seed": args.seed, "argv": argv},
        )
        idle = [name for name in must_work if not values[name] > 0]
        if idle:
            sys.exit(f"run.py: layers recorded no work on {args.workload}: {', '.join(idle)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
