"""Every must-work layer of each benchmark workload records work.

The benchmark (perfbench/run.py --trace 1) fails a workload whose must-work
layers record nothing, for instance after a change bypasses a function the
tracer wraps.  This runs each workload's study under the same tracer at a
tiny size, so such a change shows in the fast tests.  The benchmark files
are read, not imported: their bytecode is not cached beside them, and the
thread settings run.py makes at import are undone.
"""

import contextlib
import io
import os
import types

import pytest

import sacpde.cli as cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

TINY = {
    "spectral-rate-time": ["rate-time", "--spectral-modes", "4", "--j-fine", "128",
                           "--levels", "8,16", "--n-paths", "2"],
    "fem-rate-space-1d": ["rate-space", "--levels", "4,8", "--reference", "32", "--J", "4",
                          "--n-paths", "2"],
    "fem-check-2d": ["check", "--d", "2", "--n", "8", "--J", "2"],
    "fem-check-3d": ["check", "--d", "3", "--n", "4", "--J", "2"],
}


def _load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = path
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def bench():
    environ = dict(os.environ)
    try:
        run = _load("run")
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return run, _load("layers")


def test_tiny_sizes_cover_every_workload(bench):
    run, _ = bench
    assert set(TINY) == set(run.WORKLOADS)
    for name, argv in TINY.items():
        assert argv[0] == run.WORKLOADS[name][0][0]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_must_work_layers_record_work(bench, workload, tmp_path):
    run, layers = bench
    argv = TINY[workload] + ["--seed", "1", "-o", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc, metrics = layers.Tracer().run(argv[0], lambda: cli.main(argv))
    assert rc == 0
    idle = [name for name in run.WORKLOADS[workload][2] if not metrics[name] > 0]
    assert idle == []
