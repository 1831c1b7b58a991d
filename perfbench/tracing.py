"""Outside-in tracing of rrsmooth: spans and counts recorded by wrappers.

The wrappers are installed where the caller looks each name up. ``optim``
binds its collaborators with ``from ... import``, so those names are patched
on ``rrsmooth.optim``; ``assembly`` reaches ``is_connected`` through its own
module globals and ``abs_local_matrix`` through ``tetrahedra.<name>``.
Spans are kept in memory and written out when the run ends.
"""

import contextlib
import functools
import importlib
import time

import numpy as np


class Tracer:
    """Single-threaded span recorder with per-layer counters.

    A span is ``[name, start, end, parent, instance]`` where ``parent`` is
    the index of the enclosing span (-1 for a root) and ``instance`` is the
    index of the mesh being smoothed, shared by every span of that run.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.instance = -1
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """Return ``fn`` timed as span ``name``; ``count(tracer, args, result,
        error)`` runs after the span closes so its cost stays out of it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = error = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                if count is not None:
                    count(self, args, result, error)

        return traced

    def durations(self):
        """Per span: (inclusive seconds, self seconds)."""
        inclusive = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += inclusive[i]
        return [(inc, inc - cov) for inc, cov in zip(inclusive, covered)]

    def totals(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        out = {}
        for s, (inc, own) in zip(self.spans, self.durations()):
            row = out.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += inc
            row[2] += own
        return out

    def nesting_errors(self):
        """Spans that do not lie inside their parent, or end before they start."""
        bad = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                bad.append(f"span {i} ({name}) ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if not p_start <= start <= end <= p_end:
                    bad.append(f"span {i} ({name}) is not inside its parent {parent}")
        return bad

    def to_json(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"id": i, "name": s[0], "start_s": s[1] - t0, "end_s": s[2] - t0,
             "parent": s[3], "instance": s[4]}
            for i, s in enumerate(self.spans)
        ]


def _count_cap(tracer, args, result, error):
    mesh, direction = args
    cu = np.asarray(direction, dtype=float)[mesh.cells]
    moving = np.any(cu[:, 1:] != cu[:, :1], axis=(1, 2))
    tracer.add("mesh.cap.moving_cells", int(moving.sum()))


def _count_energy_gradient(tracer, args, result, error):
    from rrsmooth.errors import DegenerateElement

    tracer.add("assembly.energy_gradient.cells", args[0].n_cells)
    if isinstance(error, DegenerateElement):
        tracer.add("assembly.energy_gradient.degenerate", 1)


def _count_preconditioner(tracer, args, result, error):
    if result is not None:
        tracer.add("assembly.assemble_preconditioner.rows", result.P.shape[0])
        tracer.add("assembly.assemble_preconditioner.nnz", result.P.nnz)


def _count_cg(tracer, args, result, error):
    if result is not None:
        info = result[1]
        tracer.add("optim.cg_solve.iters", info.iterations)
        tracer.maximum("optim.cg_solve.max_residual", info.residual)
        tracer.add("optim.cg_solve.unconverged", 0 if info.converged else 1)


# Every key the counters below can set; absent keys read as 0.
COUNTERS = (
    "mesh.cap.moving_cells",
    "assembly.energy_gradient.cells",
    "assembly.energy_gradient.degenerate",
    "assembly.assemble_preconditioner.rows",
    "assembly.assemble_preconditioner.nnz",
    "optim.cg_solve.iters",
    "optim.cg_solve.max_residual",
    "optim.cg_solve.unconverged",
)

# (module the caller looks the name up in, attribute, span name, counter)
PATCHES = (
    ("rrsmooth.optim", "energy_gradient", "assembly.energy_gradient", _count_energy_gradient),
    ("rrsmooth.optim", "assemble", "assembly.assemble", None),
    ("rrsmooth.optim", "assemble_preconditioner", "assembly.assemble_preconditioner",
     _count_preconditioner),
    ("rrsmooth.optim", "max_step_before_inversion", "mesh.cap", _count_cap),
    ("rrsmooth.optim", "validate", "mesh.validate", None),
    ("rrsmooth.optim", "quality_stats", "mesh.quality_stats", None),
    ("rrsmooth.optim", "cg_solve", "optim.cg_solve", _count_cg),
    ("rrsmooth.assembly", "is_connected", "mesh.is_connected", None),
    ("rrsmooth.tetrahedra", "abs_local_matrix", "tetrahedra.abs_local_matrix", None),
)


@contextlib.contextmanager
def installed(tracer):
    """Patch every name in PATCHES with a traced wrapper; restore on exit."""
    originals = []
    try:
        for module_name, attr, span_name, count in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span_name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
