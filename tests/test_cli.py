"""Config merging, artifact writing, and exit codes of the command line."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from sacpde import cli, mesh_fem, spectral, stepper
from sacpde.cli import (
    KIND_DEFAULTS,
    SCHEMA,
    build_plan,
    load_config_file,
    main,
)
from sacpde.errors import ConfigError, StepFailure
from sacpde.harness import ExperimentPlan


def test_schema_lists_every_plan_option():
    """Each plan field is settable from the command line, and nothing else."""
    assert set(SCHEMA) == {f.name for f in fields(ExperimentPlan)} - {"kind"}


def test_kind_defaults_applied():
    plan = build_plan("rate-time")
    assert plan.solver == "spectral"
    assert plan.levels == (16, 32, 64, 128, 256, 512)
    assert plan.R == pytest.approx(2 * np.pi)
    plan = build_plan("check")
    assert plan.solver == "fem" and plan.J == 100


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\nsigma-amplitude = 0.25  # trailing comment\n\n# full-line comment\nlumped = yes\n")
    plan = build_plan("simulate", config_path=str(cfg))
    assert plan.n == 32
    assert plan.sigma_amplitude == 0.25
    assert plan.lumped is True


def test_config_file_reports_every_issue_with_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\nn = lots\nJ 64\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(str(cfg), "simulate")
    msg = str(err.value)
    assert f"{cfg}:1" in msg and "frobnicate" in msg
    assert f"{cfg}:2" in msg and "bad value for n" in msg
    assert f"{cfg}:3" in msg


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config_file("/nonexistent/path.cfg", "simulate")


def test_environment_sets_nothing(monkeypatch):
    """Settings come from defaults, --config and flags only."""
    monkeypatch.setenv("SAC_N", "48")
    assert build_plan("simulate").n == 64


def test_precedence_file_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\nseed = 2\nT = 0.5\n")
    plan = build_plan("simulate", config_path=str(cfg), flag_values={"n": "64"})
    assert plan.n == 64       # flag beats file
    assert plan.seed == 2     # file beats default
    assert plan.T == 0.5


def test_moments_levels_parse_as_pairs():
    plan = build_plan("moments", flag_values={"levels": "64:16,256:32", "n_paths": "2"})
    assert plan.levels == ((64, 16), (256, 32))
    with pytest.raises(ConfigError):
        build_plan("moments", flag_values={"levels": "64,256"})


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option",
    ["--spectral-pad", "--quad-degree", "--record-stride", "--newton-max-iter", "--damping",
     "--path-index", "--t-anchor", "--x0-width"],
    ids=["spectral-pad", "quad-degree", "record-stride", "newton-max-iter", "damping",
         "path-index", "t-anchor", "x0-width"],
)
def test_removed_option_is_a_usage_error(capsys, option):
    """The pad factor, quadrature degree, record stride, the Newton iteration
    and halving caps, simulate's path (0), the increments anchor (T/2) and
    the tanh-layer width (0.1) are fixed, not options."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", option, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err


def test_bad_flag_value_exits_two(capsys):
    rc = main(["simulate", "--n", "many"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, problems",
    [
        (["rate-time", "--levels", "24"], ["does not divide"]),
        (["simulate", "--T", "2", "--J", "1"], ["T/1 = 2.0 must be below 1"]),
        (["rate-time", "--T", "16", "--levels", "8,16"], ["T/8 = 2.0", "T/16 = 1.0"]),
        (["increments", "--T", "8192"], ["T/4096 = 2.0 must be below 1"]),
        (["simulate", "--R", "-1"], ["R must be a positive"]),
        (["simulate", "--newton-tol", "-1"], ["newton_tol must be positive"]),
        (["simulate", "--newton-tol", "inf"], ["newton_tol must be positive and finite"]),
        (["simulate", "--solver", "spectral", "--spectral-modes", "0"],
         ["spectral_modes must be >= 1"]),
        (["simulate", "--n", "1"], ["n must be >= 2"]),
        (["rate-time", "--reference", "4096"], ["rate-time takes no reference"]),
        (["rate-space", "--levels", "1", "--reference", "4"], ["rate-space levels must be >= 2"]),
        (["rate-space", "--solver", "spectral"], ["rate-space runs on the element solver"]),
        (["moments", "--solver", "spectral"], ["moments runs on the element solver"]),
        (["check", "--solver", "spectral"], ["check runs on the element solver"]),
        (["simulate", "--sigma", "foo", "--x0", "bar"], ["sigma must be one of", "x0 must be one of"]),
        (["increments", "--j-fine", "0"], ["j_fine must be >= 1"]),
        (["increments", "--T", "0"], ["T must be positive"]),
        (["increments", "--taus=-0.0625,0.03125"], ["taus must be finite and nonnegative"]),
        (["increments", "--taus=nan,0.03125"], ["taus must be finite and nonnegative"]),
        (["increments", "--taus", "0.25"], ["max(tau) = 0.25 exceeds the anchor T/2 = 0.125"]),
        (["increments", "--j-fine", "4095"], ["the anchor T/2 needs an even j_fine (got 4095)"]),
        (["simulate", "--seed", str(2**64)], ["seed must be in [0, 2**64 - 1]"]),
        (["simulate", "--sigma-amplitude", "nan"], ["sigma_amplitude must be finite"]),
        (["simulate", "--sigma-amplitude", "inf"], ["sigma_amplitude must be finite"]),
        (["simulate", "--x0", "constant:nan"], ["constant initial datum must be finite"]),
        (["simulate", "--x0", "constant:inf"], ["constant initial datum must be finite"]),
        (
            ["simulate", "--T", "2", "--J", "1", "--R", "-1", "--newton-tol", "-1",
             "--n", "1", "--sigma", "foo", "--lumped", "maybe"],
            ["must be below 1", "R must be", "newton_tol must", "n must be >= 2",
             "sigma must be one of", "--lumped: bad value for lumped: 'maybe' (expected true/false)"],
        ),
    ],
    ids=[
        "level-not-dividing", "step-not-below-one", "level-step-not-below-one",
        "fine-step-not-below-one",
        "negative-R", "negative-newton-tol", "infinite-newton-tol", "no-spectral-modes",
        "one-cell-mesh", "rate-time-reference", "one-cell-level", "spectral-rate-space",
        "spectral-moments", "spectral-check", "unknown-presets",
        "zero-fine-steps", "zero-horizon", "negative-tau",
        "nan-tau", "tau-past-horizon", "odd-fine-steps", "seed-above-key", "nan-sigma-amplitude",
        "infinite-sigma-amplitude", "nan-constant-x0", "infinite-constant-x0",
        "all-at-once",
    ],
)
def test_invalid_plan_exits_two(capsys, argv, problems):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    for problem in problems:
        assert problem in captured.err
    assert captured.out == ""


def test_simulate_writes_deterministic_artifacts(tmp_path, capsys):
    args = [
        "simulate", "--n", "16", "--J", "8", "--T", "0.02",
        "--sigma", "sine", "--with-identity", "true",
    ]
    rc1 = main(args + ["-o", str(tmp_path / "a")])
    rc2 = main(args + ["-o", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    names = ("config.txt", "diagnostics.csv", "report.json")
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == list(names)
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["kind"] == "simulate"
    assert report["identity"]["passed"] is True
    assert report["steps"] == 8
    # csv: header + one row per step
    lines = (tmp_path / "a" / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("j,t,energy_total")
    assert "identity_residual" in lines[0]
    out = capsys.readouterr().out
    assert "terminal energy" in out


def test_simulate_constant_equilibrium_has_zero_energy(tmp_path):
    rc = main([
        "simulate", "--x0", "constant:1", "--sigma", "zero",
        "--n", "16", "--J", "4", "--T", "0.01", "-o", str(tmp_path / "run"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert abs(report["energy_terminal"]["total"]) < 1e-12
    assert abs(report["energy_initial"]) < 1e-12


_SMALL_RUNS = {
    "simulate": ["--n", "16", "--J", "4", "--T", "0.01", "--x0", "constant:0.5"],
    "rate-time": ["--spectral-modes", "8", "--j-fine", "64", "--levels", "8",
                  "--n-paths", "2"],
    "rate-space": ["--levels", "8", "--reference", "32", "--n-paths", "2",
                   "--J", "8", "--T", "0.02"],
    "moments": ["--levels", "4:4,8:8", "--n-paths", "2"],
    "increments": ["--spectral-modes", "8", "--j-fine", "64", "--n-paths", "2",
                   "--taus", "0.0625,0.03125"],
    "check": ["--n", "16", "--J", "8"],
}


def test_increments_anchor_follows_the_horizon(tmp_path, capsys):
    """The increment study anchors at T/2, so a shorter horizon needs no
    other setting."""
    rc = main(["increments", "--T", "0.125", "--taus", "0.0625,0.03125",
               "--spectral-modes", "8", "--j-fine", "64", "--n-paths", "2",
               "-o", str(tmp_path)])
    assert rc == 0
    assert "increments tau 0.0625 -> 0.03125" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["t_anchor"] == 0.0625


def test_config_echo_round_trips(tmp_path, capsys):
    """config.txt replays a run: `--config A/config.txt -o B` writes the same
    bytes as the run that wrote A.  A config file of another kind is a
    configuration error that names both kinds."""
    for kind, args in _SMALL_RUNS.items():
        a, b = tmp_path / kind / "a", tmp_path / kind / "b"
        assert main([kind, *args, "-o", str(a)]) == 0
        assert main([kind, "--config", str(a / "config.txt"), "-o", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert sorted(p.name for p in b.iterdir()) == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (kind, name)
    assert "levels = 4:4,8:8\n" in (tmp_path / "moments" / "a" / "config.txt").read_text()
    capsys.readouterr()

    rc = main(["rate-time", "--config", str(tmp_path / "moments" / "a" / "config.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "config file is for 'moments', not 'rate-time'" in err


def test_check_subcommand_passes(capsys):
    rc = main(["check", "--n", "32", "--J", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check: PASS" in out
    assert "energy_identity_sigma_zero: pass" in out


def test_check_with_loose_newton_fails_with_json_line(capsys):
    rc = main(["check", "--n", "32", "--J", "20", "--newton-tol", "1e-3"])
    assert rc == 1
    out = capsys.readouterr().out
    line = out.strip().splitlines()[-1]
    payload = json.loads(line)
    assert payload["failed"] is True
    assert payload["kind"] == "check"


@pytest.mark.parametrize(
    "argv,quiet,error",
    [
        # the FEM projection's mass solve finds the overflow before any step
        (["moments", "--levels", "4:4,8:8", "--n-paths", "2", "--x0", "constant:1e200"],
         True, "SolverError"),
        (["rate-time", "--spectral-modes", "8", "--j-fine", "64", "--levels", "8",
          "--n-paths", "2", "--x0", "constant:1e200"], True, "StepFailure"),
        # the datum projects, but its initial energy overflows
        (["simulate", "--J", "4", "--x0", "constant:1e100"], True, "StepFailure"),
        (["simulate", "--J", "4", "--x0", "constant:1e100", "--solver", "spectral"],
         True, "StepFailure"),
        (["moments", "--levels", "4:4,8:8", "--n-paths", "2", "--x0", "constant:1e100"],
         True, "StepFailure"),
        # here the gradient part of the spectral energy overflows too
        (["simulate", "--J", "4", "--x0", "constant:1e200", "--solver", "spectral"],
         True, "StepFailure"),
    ],
    ids=["fem-moments", "spectral-rate-time", "fem-simulate-energy",
         "spectral-simulate-energy", "fem-moments-energy", "spectral-simulate-gradient"],
)
def test_overflowing_state_is_a_step_failure(tmp_path, capsys, recwarn, argv, quiet, error):
    """A datum whose norm or energy overflows fails the study before or at
    the first step; it is no nan report, and no numpy warning is printed."""
    out_dir = tmp_path / "run"
    rc = main(argv + ["-o", str(out_dir)])
    assert rc == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["failed"] is True
    assert payload["error"] == error
    assert "nan" not in captured.out.lower()
    assert "Traceback" not in captured.err
    assert not (out_dir / "report.json").exists()
    if quiet:
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "argv,backend,call,prefix",
    [
        (["rate-space", "--levels", "8,16", "--reference", "64", "--J", "8",
          "--n-paths", "2"], None, None, "rate-space reference, step 1, path 0: "),
        # the level J=8 steps once every 8 reference steps: its step 2 is
        # batch call 18, after reference step 16
        (["rate-time", "--spectral-modes", "8", "--j-fine", "64", "--levels", "8",
          "--n-paths", "2"], "spectral", 18, "rate-time level J=8, step 2, path 1: "),
        # level 4:4 takes calls 1-4, level 8:8 calls 5-12
        (["moments", "--levels", "4:4,8:8", "--n-paths", "2"], "fem", 7,
         "moments level 8:8, step 3, path 1: "),
        (["increments", "--spectral-modes", "8", "--j-fine", "64", "--n-paths", "2",
          "--taus", "0.0625,0.03125"], "spectral", 5, "increments, step 5, path 1: "),
    ],
    ids=["reference", "level", "moments", "increments"],
)
def test_step_failure_names_the_study_step_and_path(monkeypatch, capsys, argv, backend, call,
                                                    prefix):
    """A StepFailure inside a study reaches the JSON record with the study,
    the level, that level's own step, the path and the residual.  The
    reference case fails in Newton; the others force batch call `call` of
    the backend's step to fail in row 1."""
    if backend is None:
        monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 0)
    else:
        cls = stepper.FemBackend if backend == "fem" else spectral.SpectralBackend
        batch_step, calls = cls.step, []

        def failing_step(self, C, dw, cfg):
            calls.append(1)
            if len(calls) == call:
                raise StepFailure("forced (batch row 1)", residual=0.5, row=1)
            return batch_step(self, C, dw, cfg)

        monkeypatch.setattr(cls, "step", failing_step)
    rc = main(argv)
    assert rc == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "StepFailure"
    assert payload["message"].startswith(prefix)
    assert payload["residual"] > 0


def test_failed_linear_solve_is_a_json_failure(monkeypatch, capsys):
    """A Newton LU that fails ends the study with one JSON record, exit 1."""

    def failing_splu(J, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    # only the stepper's view; the projection's mass solve is an FFT solve
    # and makes no LU, so the d = 1 Newton LU of J is the first to fail
    monkeypatch.setattr(stepper, "spla", SimpleNamespace(splu=failing_splu))
    rc = main(["simulate", "--n", "16", "--J", "4", "--T", "0.02"])
    assert rc == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "StepFailure"
    assert "linear solve failed" in payload["message"]
    assert "Traceback" not in captured.err


def test_unusable_output_directory_fails_before_the_study(monkeypatch, tmp_path, capsys):
    """-o under a regular file is a configuration error; no study runs."""
    (tmp_path / "file").write_text("")
    calls = []
    monkeypatch.setitem(cli._RUNNERS, "check", lambda plan: calls.append(plan))
    rc = main(["check", "--J", "5", "-o", str(tmp_path / "file" / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("sacpde: configuration error:")
    assert captured.out == ""
    assert calls == []


def test_spectral_simulate_smoke(tmp_path):
    rc = main([
        "simulate", "--solver", "spectral", "--spectral-modes", "16",
        "--J", "8", "--T", "0.02", "-o", str(tmp_path / "run"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["solver"] == "spectral"
    assert report["space"]["n_modes"] == 16


def _csv_column(path, name):
    lines = path.read_text().strip().splitlines()
    col = lines[0].split(",").index(name)
    return [float(line.split(",")[col]) for line in lines[1:]]


# a far-off constant state with strong noise at k = 0.9
_DAMPING_RUN = [
    "simulate", "--d", "1", "--n", "16", "--R", "1", "--T", "3.6", "--J", "4",
    "--x0", "constant:10", "--sigma-amplitude", "5", "--seed", "1", "--with-identity", "true",
]


def _failure_record(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_fem_simulate_reaches_damping(tmp_path):
    """The damping run needs halved Newton updates; it still meets the
    identity, and diagnostics.csv reports the halvings and the Jacobians
    formed in each step."""
    rc = main(_DAMPING_RUN + ["-o", str(tmp_path / "run")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["identity"]["passed"] is True
    csv = tmp_path / "run" / "diagnostics.csv"
    assert sum(_csv_column(csv, "damping_halvings")) > 0
    assert min(_csv_column(csv, "jacobians")) >= 1


@pytest.mark.parametrize(
    "solver,message",
    [
        ([], "simulate, step 3, path 0: Newton stalled with full damping after 3 iterations"),
        (["--solver", "spectral", "--spectral-modes", "12"],
         "simulate, step 3, path 0: spectral Newton stalled with full damping (batch row 0"),
    ],
    ids=["fem", "spectral"],
)
def test_newton_without_halvings_stalls_on_the_damping_run(monkeypatch, capsys, solver, message):
    """With no halving allowed, the damping run's Newton stalls: one JSON
    record, exit 1, naming the study, the step and the path."""
    monkeypatch.setattr(stepper, "DAMPING", 0)
    assert main(_DAMPING_RUN + solver) == 1
    payload = _failure_record(capsys)
    assert payload["error"] == "StepFailure"
    assert payload["message"].startswith(message)
    assert payload["residual"] > 0


def test_spectral_inner_cap_hands_open_rows_to_the_dense_solve(monkeypatch, tmp_path):
    """Rows that are still open when the inner sweeps reach their cap are
    solved densely; the spectral damping run then takes more dense solves
    and still meets the identity."""
    dense = []
    linsolve = spectral._dense_linsolve
    monkeypatch.setattr(
        spectral, "_dense_linsolve", lambda *args: dense.append(1) or linsolve(*args)
    )
    argv = _DAMPING_RUN + ["--solver", "spectral", "--spectral-modes", "12"]
    assert main(argv + ["-o", str(tmp_path / "default")]) == 0
    uncapped = len(dense)
    monkeypatch.setattr(spectral, "_INNER_CAP", 1)
    assert main(argv + ["-o", str(tmp_path / "capped")]) == 0
    capped = len(dense) - uncapped
    assert capped > uncapped
    report = json.loads((tmp_path / "capped" / "report.json").read_text())
    assert report["identity"]["passed"] is True


def test_mass_solve_over_its_contract_is_a_json_failure(monkeypatch, capsys):
    """A mass solve whose residual misses MASS_SOLVE_RTOL ends the study in
    one SolverError record, exit 1, with no residual."""
    monkeypatch.setattr(mesh_fem, "MASS_SOLVE_RTOL", 0.0)
    assert main(["simulate", "--n", "16", "--J", "4", "--T", "0.02"]) == 1
    payload = _failure_record(capsys)
    assert payload["error"] == "SolverError"
    assert "mass solve residual" in payload["message"]
    assert "exceeds contract" in payload["message"]
    assert payload["residual"] is None


def test_spectral_simulate_reaches_the_dense_solve(monkeypatch, tmp_path):
    """A constant state of 3 with no noise makes the spectral Newton system
    fall back to the dense per-row solve; the run still meets the identity."""
    dense = []
    linsolve = spectral._dense_linsolve
    monkeypatch.setattr(
        spectral, "_dense_linsolve", lambda *args: dense.append(1) or linsolve(*args)
    )
    rc = main([
        "simulate", "--solver", "spectral", "--spectral-modes", "12", "--T", "2",
        "--J", "4", "--x0", "constant:3", "--sigma", "zero", "--with-identity", "true",
        "-o", str(tmp_path / "run"),
    ])
    assert rc == 0
    assert len(dense) > 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["identity"]["passed"] is True


@pytest.mark.parametrize(
    "d,n", [(1, 512), (2, 64), (3, 16)], ids=["1-512", "2-64", "3-16"]
)
def test_check_at_half_the_horizon_meets_the_identity(tmp_path, d, n):
    """At k = T/2, where the held Jacobian contracts most weakly, every
    energy-identity residual of the check suite is at most 1e-10."""
    out = tmp_path / "run"
    rc = main(["check", "--d", str(d), "--n", str(n), "--J", "2", "-o", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    residuals = [e["max_residual"] for e in report["entries"] if "identity" in e["name"]]
    assert len(residuals) >= 2
    assert max(residuals) <= 1e-10


def test_check_report_is_the_same_at_one_and_two_blas_threads(tmp_path):
    """The d = 3 and d = 2 check suites write the same report.json bytes at
    1 and 2 OpenBLAS threads: the kernels' BLAS products reduce over the
    quadrature points only, and their integrals end in a numpy sum, not a
    BLAS dot of length E, whose split across threads moves the last bits."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    run = "import sys; from sacpde.cli import main; sys.exit(main(sys.argv[1:]))"
    for d, n in (("3", "16"), ("2", "64")):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / d / threads
            env = dict(os.environ, PYTHONPATH=src)
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            argv = ["check", "--d", d, "--n", n, "--J", "4", "-o", str(out)]
            proc = subprocess.run(
                [sys.executable, "-c", run, *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1], f"d = {d}"
