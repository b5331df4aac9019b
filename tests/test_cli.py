"""Config merging, artifact writing, and exit codes of the command line."""

import json
import os

import numpy as np
import pytest

from sacpde.cli import (
    KIND_DEFAULTS,
    build_plan,
    env_overrides,
    load_config_file,
    main,
)
from sacpde.errors import ConfigError


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


def test_env_overrides_only_known_keys():
    env = {"SAC_N": "48", "SAC_SEED": "9", "SAC_UNRELATED": "1", "PATH": "/bin"}
    got = env_overrides("simulate", environ=env)
    assert got == {"n": 48, "seed": 9}


def test_precedence_file_env_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\nseed = 2\nT = 0.5\n")
    env = {"SAC_N": "32", "SAC_SEED": "3"}
    plan = build_plan(
        "simulate", config_path=str(cfg), flag_values={"n": "64"}, environ=env
    )
    assert plan.n == 64       # flag beats env beats file
    assert plan.seed == 3     # env beats file
    assert plan.T == 0.5      # file beats default


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
        (["simulate", "--solver", "spectral", "--spectral-modes", "0"],
         ["spectral_modes must be >= 1"]),
        (["simulate", "--spectral-pad", "1.0"], ["spectral_pad must be >= 1.5"]),
        (["simulate", "--damping", "-1"], ["damping must be >= 0"]),
        (["simulate", "--n", "1"], ["n must be >= 2"]),
        (["rate-space", "--solver", "spectral"], ["rate-space runs on the element solver"]),
        (["moments", "--solver", "spectral"], ["moments runs on the element solver"]),
        (["check", "--d", "2", "--quad-degree", "6"], ["quad_degree=6 not available"]),
        (["simulate", "--sigma", "foo", "--x0", "bar"], ["sigma must be one of", "x0 must be one of"]),
        (
            ["simulate", "--T", "2", "--J", "1", "--R", "-1", "--newton-tol", "-1",
             "--damping", "-1", "--n", "1", "--newton-max-iter", "0"],
            ["must be below 1", "R must be", "newton_tol must", "damping must",
             "n must be >= 2", "newton_max_iter must"],
        ),
    ],
    ids=[
        "level-not-dividing", "step-not-below-one", "level-step-not-below-one",
        "fine-step-not-below-one",
        "negative-R", "negative-newton-tol", "no-spectral-modes", "small-spectral-pad",
        "negative-damping", "one-cell-mesh", "spectral-rate-space", "spectral-moments",
        "quad-degree-unavailable", "unknown-presets", "all-at-once",
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
    for name in ("config.txt", "report.json", "diagnostics.csv", "provenance.txt"):
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


def test_config_echo_round_trips(tmp_path):
    rc = main([
        "simulate", "--n", "16", "--J", "4", "--T", "0.01", "-o", str(tmp_path / "run"),
    ])
    assert rc == 0
    text = (tmp_path / "run" / "config.txt").read_text()
    cfg = dict(
        line.split(" = ", 1) for line in text.strip().splitlines()
    )
    assert cfg["n"] == "16"
    assert cfg["J"] == "4"
    assert "threads" not in cfg  # execution detail, not semantics
    prov = (tmp_path / "run" / "provenance.txt").read_text()
    assert "config_sha256" in prov and "seed" in prov


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


def test_spectral_simulate_smoke(tmp_path):
    rc = main([
        "simulate", "--solver", "spectral", "--spectral-modes", "16",
        "--J", "8", "--T", "0.02", "-o", str(tmp_path / "run"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["solver"] == "spectral"
    assert report["space"]["n_modes"] == 16


def test_env_vars_reach_main(tmp_path, monkeypatch):
    monkeypatch.setenv("SAC_N", "24")
    rc = main(["simulate", "--J", "4", "--T", "0.01", "-o", str(tmp_path / "run")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["space"]["n"] == 24
