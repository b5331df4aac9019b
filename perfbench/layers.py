"""Spans around the calls into each layer of sacpde, and the per-layer metrics.

The wrappers live in the benchmark, not in the program: `Tracer.run()`
replaces module attributes and class methods for the duration of one study
and puts the originals back afterwards.  Names are replaced where the caller
looks them up: `harness` binds `step`, `step_batch`, `sample_path`,
`coarsen`, `l2_project` and `prolongation_matrix` at import time, so those
are patched in `harness` as well as in their home module, and `stepper`'s
view of `scipy.sparse.linalg` is swapped for a proxy that times `splu` and
`cg` without touching the mass-matrix factorization in `mesh_fem`.

Every span records its name, start, end, the index of its parent span and
the operation (study invocation) it belongs to.  Spans stay in memory; the
caller writes them once at the end.
"""

import collections
import functools
import json
import os
import time

import sacpde.cli as cli
import sacpde.harness as harness
import sacpde.mesh_fem as mesh_fem
import sacpde.model as model
import sacpde.spectral as spectral
import sacpde.stepper as stepper

# Per-layer metrics in the order BENCHMARK.json lists them, with their units.
METRICS = {
    "spectral.step_batch_s": "s",
    "spectral.transform_s": "s",
    "spectral.transforms": "count",
    "spectral.newton_sweeps_per_step": "count",
    "spectral.dense_fallbacks": "count",
    "stepper.step_s": "s",
    "stepper.steps": "count",
    "stepper.newton_iters_per_step": "count",
    "stepper.damping_halvings": "count",
    "stepper.picard_fallbacks": "count",
    "mesh_fem.system_matrix_s": "s",
    "mesh_fem.load_vector_s": "s",
    "mesh_fem.element_values_s": "s",
    "stepper.linear_solve_s": "s",
    "stepper.lu_factorizations": "count",
    "stepper.cg_solves": "count",
    "stepper.cg_s": "s",
    "stepper.cg_fallbacks": "count",
    "mesh_fem.setup_s": "s",
    "mesh_fem.solve_mass_s": "s",
    "stepper.identity_s": "s",
    "model.energy_s": "s",
    "stochastic.sample_path_s": "s",
    "stochastic.coarsen_s": "s",
    "harness.study_s": "s",
    "harness.self_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "bytes",
    "trace.overhead_s": "s",
}

# span name -> the layer metrics that count its calls and sum its time
_TIMED = {
    "spectral.step_batch": "spectral.step_batch_s",
    "spectral.transform": "spectral.transform_s",
    "stepper.step": "stepper.step_s",
    "mesh_fem.system_matrix": "mesh_fem.system_matrix_s",
    "mesh_fem.load_vector": "mesh_fem.load_vector_s",
    "mesh_fem.element_values": "mesh_fem.element_values_s",
    "stepper.linear_solve": "stepper.linear_solve_s",
    "stepper.cg": "stepper.cg_s",
    "mesh_fem.setup": "mesh_fem.setup_s",
    "mesh_fem.solve_mass": "mesh_fem.solve_mass_s",
    "stepper.identity": "stepper.identity_s",
    "model.energy": "model.energy_s",
    "stochastic.sample_path": "stochastic.sample_path_s",
    "stochastic.coarsen": "stochastic.coarsen_s",
    "harness.study": "harness.study_s",
    "reports.write": "reports.write_s",
}
_CALLS = {
    "spectral.transform": "spectral.transforms",
    "spectral.dense_linsolve": "spectral.dense_fallbacks",
    "stepper.step": "stepper.steps",
    "stepper.splu": "stepper.lu_factorizations",
    "stepper.cg": "stepper.cg_solves",
}


class _LinalgProxy:
    """`scipy.sparse.linalg` as `stepper` sees it, with `splu` and `cg` traced."""

    def __init__(self, module, tracer):
        self._module = module
        self.splu = tracer.wrap("stepper.splu", module.splu)
        self.cg = tracer.wrap("stepper.cg", module.cg)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        # rows of [name, start, end, parent index, op]; times from `origin`
        self.spans = []
        self.counts = collections.Counter()
        self.op = 0
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(result, args) adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, clock() - self.origin, None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock() - self.origin
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- counters read from what the layers return -------------------------

    def _after_step(self, result, args):
        diag = result[1]
        self.counts["newton_iters"] += diag.newton_iters
        self.counts["stepper.damping_halvings"] += diag.damping_halvings
        self.counts["stepper.picard_fallbacks"] += diag.picard_fallbacks

    def _after_step_batch(self, result, args):
        # step_batch loops until every row has converged, so the number of
        # batched Newton sweeps in the call is the largest row count
        iters = result[1]
        self.counts["spectral_calls"] += 1
        self.counts["newton_sweeps"] += int(iters.max()) if len(iters) else 0

    def _after_write(self, result, args):
        outdir = args[0]
        self.counts["reports.bytes"] += sum(
            os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir)
        )

    def _solve_linear(self, fn):
        """_solve_linear, counting the CG solves that fell back to LU."""
        spans = self.spans

        def solve_linear(space, J, rhs):
            start = len(spans)
            x = fn(space, J, rhs)
            names = {row[0] for row in spans[start:]}
            if "stepper.cg" in names and "stepper.splu" in names:
                self.counts["stepper.cg_fallbacks"] += 1
            return x

        return self.wrap("stepper.linear_solve", solve_linear)

    # -- installation --------------------------------------------------------

    def _patches(self, kind):
        w = self.wrap
        step = w("stepper.step", stepper.step, self._after_step)
        step_batch = w("spectral.step_batch", spectral.step_batch, self._after_step_batch)
        setup = lambda fn: w("mesh_fem.setup", fn)
        space_cls, fem_cls = spectral.SpectralSpace, mesh_fem.FemSpace
        return [
            (harness, "step", step),
            (stepper, "step", step),
            (harness, "step_batch", step_batch),
            (spectral, "step_batch", step_batch),
            (harness, "run_trajectory", w("stepper.run_trajectory", stepper.run_trajectory)),
            (space_cls, "to_grid", w("spectral.transform", space_cls.to_grid)),
            (space_cls, "to_modes", w("spectral.transform", space_cls.to_modes)),
            (spectral, "_dense_linsolve", w("spectral.dense_linsolve", spectral._dense_linsolve)),
            (fem_cls, "system_matrix", w("mesh_fem.system_matrix", fem_cls.system_matrix)),
            (fem_cls, "load_vector", w("mesh_fem.load_vector", fem_cls.load_vector)),
            (fem_cls, "element_values", w("mesh_fem.element_values", fem_cls.element_values)),
            (fem_cls, "solve_mass", w("mesh_fem.solve_mass", fem_cls.solve_mass)),
            (stepper, "_solve_linear", self._solve_linear(stepper._solve_linear)),
            (stepper, "spla", _LinalgProxy(stepper.spla, self)),
            (mesh_fem.PeriodicMesh, "__init__", setup(mesh_fem.PeriodicMesh.__init__)),
            (fem_cls, "__init__", setup(fem_cls.__init__)),
            (harness, "l2_project", setup(harness.l2_project)),
            (harness, "prolongation_matrix", setup(harness.prolongation_matrix)),
            (stepper, "energy_identity_residual",
             w("stepper.identity", stepper.energy_identity_residual)),
            (stepper, "energy", w("model.energy", model.energy)),
            (harness, "sample_path", w("stochastic.sample_path", harness.sample_path)),
            (harness, "coarsen", w("stochastic.coarsen", harness.coarsen)),
            (cli._RUNNERS, kind, w("harness.study", cli._RUNNERS[kind])),
            (cli, "write_artifacts", w("reports.write", cli.write_artifacts, self._after_write)),
        ]

    def run(self, kind, fn):
        """Call fn() as one traced operation of study `kind`; returns
        (result, per-layer metrics of this operation)."""
        patches = self._patches(kind)
        saved = []
        for target, name, value in patches:
            if isinstance(target, dict):
                saved.append((target, name, target[name]))
                target[name] = value
            else:
                saved.append((target, name, target.__dict__[name]))
                setattr(target, name, value)
        first = len(self.spans)
        self.counts.clear()
        try:
            result = fn()
        finally:
            for target, name, value in reversed(saved):
                if isinstance(target, dict):
                    target[name] = value
                else:
                    setattr(target, name, value)
        metrics = self._metrics(first)
        self.op += 1
        return result, metrics

    # -- aggregation ---------------------------------------------------------

    def self_times(self, first=0):
        """Per span name: (calls, inclusive time, self time) over spans[first:]."""
        rows = self.spans[first:]
        child = [0.0] * len(rows)
        for row in rows:
            if row[3] >= first:
                child[row[3] - first] += row[2] - row[1]
        out = {}
        for row, covered in zip(rows, child):
            calls, total, own = out.get(row[0], (0, 0.0, 0.0))
            dur = row[2] - row[1]
            out[row[0]] = (calls + 1, total + dur, own + dur - covered)
        return out

    def _metrics(self, first):
        per_name = self.self_times(first)
        m = {name: 0.0 for name in METRICS}
        for span, metric in _TIMED.items():
            m[metric] = per_name.get(span, (0, 0.0, 0.0))[1]
        for span, metric in _CALLS.items():
            m[metric] = per_name.get(span, (0, 0.0, 0.0))[0]
        m["harness.self_s"] = per_name.get("harness.study", (0, 0.0, 0.0))[2]
        for name in ("stepper.damping_halvings", "stepper.picard_fallbacks",
                     "stepper.cg_fallbacks", "reports.bytes"):
            m[name] = self.counts[name]
        if m["stepper.steps"]:
            m["stepper.newton_iters_per_step"] = self.counts["newton_iters"] / m["stepper.steps"]
        if self.counts["spectral_calls"]:
            m["spectral.newton_sweeps_per_step"] = (
                self.counts["newton_sweeps"] / self.counts["spectral_calls"]
            )
        return m

    def dump(self, path, extra):
        """Write every span, and the per-name self times, as one JSON file."""
        doc = dict(extra)
        doc["columns"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = self.spans
        doc["by_name"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.self_times().items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
