"""Energy minimizers: one descent driver, three direction strategies.

The five methods differ only in their search direction: the fixed point's
preconditioned gradient step -P^-1 g (in 2D the paper's frozen-off-diagonal
update), the LBFGS two-loop recursion or the Polak-Ribiere nonlinear-CG
update. Each reads one seed H0, the inexact P^-1 of the SPD preconditioner
P or the identity, chosen in one table (`_METHOD_TABLE`): lbfgs and nlcg
are plbfgs and pnlcg with H0 = I. The two-loop seed is scaled by
s.y / y.H0 y of the newest curvature pair. Everything else is shared by
:func:`_descend`: every direction is projected onto the
constraint set (fixed vertices never move, sliding vertices stay in their
planes), each step is capped so no cell can invert (the cap and its lazy
:class:`StepCap` are :mod:`rrsmooth.cap`'s) and accepted by an
Armijo (2D fixed point) or strong-Wolfe line search, a non-descent direction
or a failed search falls back once to -H0 g (the fixed point's own direction),
and the run stops on a gradient norm, an energy stall, the iteration
budget, or a named failure.
"""

import ctypes
import functools
import math
import numbers
import time
from collections import Counter, deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields

import numpy as np

# assemble is unused here but stays importable: perfbench/tracing.py patches it.
from .assembly import (
    assemble,
    assemble_preconditioner,
    energy_gradient,
    preconditioner_topology,
    scatter_index,
)
from .cap import StepCap, max_step_before_inversion, step_lower_bounds
from .errors import DegenerateElement, IndefiniteMatrix, LineSearchFailed, MeshError
from .mesh import quality_stats, validate

FIXED_POINT = "fixedpoint"
LBFGS = "lbfgs"
PLBFGS = "plbfgs"
NLCG = "nlcg"
PNLCG = "pnlcg"

_CURVATURE_PAIR_TOL = 1e-14
# Stop on an energy stall: a drop over _ENERGY_PATIENCE steps of at most
# ENERGY_TOL (finite, positive) relative to the energy.
_ENERGY_PATIENCE = 3
ENERGY_TOL = 1e-12
LBFGS_MEMORY = 10  # curvature pairs the two-loop recursion keeps (at least 1)
# Both searches' sufficient-decrease and curvature constants, read at each
# call (Nocedal and Wright's quasi-Newton values); 0 < c1 < c2 < 1.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
LAM_MIN = 1e-16  # backtracking fails below this step length (finite, positive)
# Steps are capped at this fraction of the step where the first cell reaches
# zero measure. Above 1 a cell could invert; at 1 the first trial is the step
# where a cell reaches zero measure, which evaluates to inf.
STEP_CAP_FACTOR = 0.9
_WOLFE_MAX_EVALS = 60  # trials one strong Wolfe search may spend
# A zoom trial stays this fraction of its bracket's width inside it. At 1e-12
# a search whose first trial overshot by orders of magnitude crept up from
# the low end until its trials ran out; ROADMAP.md lists the sweep behind 1e-4.
_ZOOM_SAFEGUARD = 1e-4
# Two zoom trials that leave the bracket wider than this fraction of its width
# make the next its geometric midpoint (More and Thuente, ACM TOMS 20, 1994).
_ZOOM_STALL = 2.0 / 3.0
# Relative residual at which the optimize path's P solves stop. A step needs
# a descent direction, not an exact P^-1 g (see cg_solve); tighter costs CG
# iterations for the same steps, much looser costs energy per step.
CG_RTOL = 1e-2
# Freed heap the allocator keeps mapped once optimize has run (glibc only).
# An evaluation frees its kernel temporaries (a few MB at cube n=10), and
# glibc's default trims them back to the OS, so the next evaluation faults
# them in again. Minor faults per optimize of 5-sliver cube inputs, third
# and fourth run in one process, default -> these values: cube6 lbfgs
# 7752-9793 -> 0-1, cube10 lbfgs 28108-41304 -> 0-1, cube16 plbfgs
# 0-16018 -> 0-206; square40 fixedpoint 440 -> 0. A 32 MiB trim threshold
# let cube16 fault again. Setting a threshold turns off glibc's dynamic mmap
# threshold, so that one is set too, to its 64-bit maximum: arrays below it
# come from the heap whatever the process allocated before, and the first
# optimize after load_mesh faults less (cube16 plbfgs 16608 by default,
# 11303 with the trim threshold alone, 9541 with both).
HEAP_TRIM_THRESHOLD = 64 << 20
HEAP_MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap():
    """Set the heap thresholds above, once per process; a silent no-op
    where the C library has no ``mallopt``. Numbers keep their bits: only
    where the allocator places memory changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


@dataclass
class CgInfo:
    iterations: int
    residual: float
    converged: bool


def cg_solve(A, b, tol=1e-8, max_iters=None):
    """Conjugate gradients for SPD A from x = 0; returns (x, CgInfo).

    A is anything with ``A @ vector``, such as a ``Preconditioner``, a scipy
    sparse matrix or a dense array. Stops once the relative residual
    ``|b - A x| / |b|`` is at most ``tol`` or after ``max_iters`` iterations.
    Every truncation descends: each iterate ``x_k`` with k >= 1 satisfies
    ``b @ x_k = x_k @ A @ x_k > 0`` (Steihaug 1983), so ``-x_k`` is a descent
    direction for a gradient b whenever b != 0. Raises IndefiniteMatrix if a search direction has
    non-positive curvature, which means A is not SPD. A b with a NaN or inf
    returns at once: an all-NaN x and ``CgInfo(0, nan, False)``. A finite b
    whose norm overflows is solved scaled by a power of two, which scales
    every iterate exactly, and x is scaled back.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iters is None:
        max_iters = n
    with np.errstate(over="ignore"):
        norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), CgInfo(0, 0.0, True)
    if not math.isfinite(norm_b):
        if not np.isfinite(b).all():
            return np.full(n, math.nan), CgInfo(0, math.nan, False)
        e = math.frexp(np.abs(b).max())[1]
        x, info = cg_solve(A, np.ldexp(b, -e), tol, max_iters)
        return np.ldexp(x, e), info
    res = norm_b
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    step = np.empty(n)
    rr = r @ r
    # The updates run in place, each with the bits of its plain form
    # (x += alpha * p, r -= alpha * Ap, p = r + beta * p).
    for k in range(1, max_iters + 1):
        Ap = A @ p
        curvature = p @ Ap
        if curvature <= 0.0:
            raise IndefiniteMatrix(
                f"non-positive curvature {curvature:.3e} in CG iteration {k}"
            )
        alpha = rr / curvature
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(Ap, alpha, out=step)
        rr_new = r @ r
        res = math.sqrt(rr_new)
        if res <= tol * norm_b:
            return x, CgInfo(k, res / norm_b, True)
        p *= rr_new / rr
        p += r
        rr = rr_new
    return x, CgInfo(max_iters, res / norm_b, False)


@dataclass
class LineSearchResult:
    lam: float
    f: float
    df: float
    evals: int


def strong_wolfe_search(phi, f0, df0, lam_cap=math.inf):
    """Strong Wolfe line search (Nocedal and Wright, *Numerical Optimization*,
    3.5) in one loop; the accepted step is always the last trial.

    ``phi(lam)`` returns ``(f, f')`` along the ray, ``(f0, df0)`` at 0; ``lo``
    is the best step with sufficient decrease so far. Trials double from
    ``min(1, lam_cap)`` until one overshoots (non-finite values do) or turns
    uphill, which brackets an acceptable step with lo. Inside the bracket a
    trial is the minimizer of the quadratic through lo's value and slope and
    hi's value, at least _ZOOM_SAFEGUARD of the width from either end, or else
    the midpoint; after two trials that shrank it too little (_ZOOM_STALL), its
    geometric midpoint (the midpoint from 0). The search fails once a trial
    misses in a bracket narrower than 1e-16 times its upper end, so steps scaled
    by a power of two give the same trials. ``lam_cap`` is a float or a
    :class:`StepCap`, read in the first trial ``min(1, cap)``, the doubling
    ``min(2 lam, cap)`` and the stop ``lam >= cap``; a StepCap computes it only
    where a trial passes its lower bound, so the trials are the float cap's.
    The constants are WOLFE_C1 and WOLFE_C2, read at each call.
    """
    if not df0 < 0.0:
        raise LineSearchFailed(f"not a descent direction (slope {df0:.3e})")
    cap = StepCap.of(lam_cap)
    lo, f_lo, df_lo = 0.0, f0, df0
    hi, f_hi, narrow, widths = None, None, False, (math.inf, math.inf)
    for evals in range(1, _WOLFE_MAX_EVALS + 1):
        if hi is None:
            lam = cap.clip(2.0 * lo if evals > 1 else 1.0)
        else:
            a, b = min(lo, hi), max(lo, hi)
            width, h = b - a, hi - lo
            narrow = width <= 1e-16 * b
            lam = 0.5 * (a + b)
            denom = f_hi - f_lo - df_lo * h
            stalled, widths = width > _ZOOM_STALL * widths[0], (widths[1], width)
            if stalled:  # b / a, and so lam, scales exactly by powers of two
                lam = a * math.sqrt(b / a) if a > 0.0 else lam
            elif denom > 0.0:  # else the quadratic's extremum lies outside
                q = lo - 0.5 * df_lo * h * h / denom
                if a < q < b:
                    guard = _ZOOM_SAFEGUARD * width
                    lam = min(max(q, a + guard), b - guard)
        f, df = phi(lam)
        # The first trial is exempt from f >= f_lo: at a rounding-level step f = f0.
        if not math.isfinite(f) or f > f0 + WOLFE_C1 * lam * df0 or (evals > 1 and f >= f_lo):
            hi, f_hi = lam, f
        elif abs(df) <= -WOLFE_C2 * df0:
            return LineSearchResult(lam, f, df, evals)
        else:
            if (df >= 0.0) if hi is None else (df * (hi - lo) >= 0.0):
                hi, f_hi = lo, f_lo
            elif hi is None and cap.reached(lam):
                raise LineSearchFailed("curvature condition unmet at the inversion cap")
            lo, f_lo, df_lo = lam, f, df
        if narrow:
            raise LineSearchFailed("the bracket shrank to rounding before a strong Wolfe step")
    raise LineSearchFailed(f"no strong Wolfe step in {_WOLFE_MAX_EVALS} trials")


def backtracking_search(phi, f0, df0, lam_cap=math.inf):
    """Armijo backtracking with WOLFE_C1, halving from ``min(1, lam_cap)``
    down to LAM_MIN; the accepted step is always the last trial.

    ``lam_cap`` is a float or a :class:`StepCap`, read only in the first
    trial, and there only when 1 passes a StepCap's lower bound.
    """
    if not df0 < 0.0:
        raise LineSearchFailed(f"not a descent direction (slope {df0:.3e})")
    evals = 0
    lam = StepCap.of(lam_cap).clip(1.0)
    while lam >= LAM_MIN:
        f, df = phi(lam)
        evals += 1
        if math.isfinite(f) and f <= f0 + WOLFE_C1 * lam * df0:
            return LineSearchResult(lam, f, df, evals)
        lam *= 0.5
    raise LineSearchFailed(f"step length underflowed {LAM_MIN:.1e}")


@dataclass
class OptimizeConfig:
    """A run's method, iteration budget and gradient stop.

    The gradient stop is ``|g|_inf <= max(grad_tol * |g0|_inf, grad_tol_abs)``;
    ``grad_tol_abs`` is an absolute floor in units of 1/length, not scale-free.
    The CLI reads its defaults from here. All methods share the module
    constants ENERGY_TOL, LBFGS_MEMORY, LAM_MIN and STEP_CAP_FACTOR, and
    both line searches read WOLFE_C1 and WOLFE_C2 at each call.
    """

    method: str = PLBFGS
    max_iters: int = 200
    grad_tol: float = 1e-8
    grad_tol_abs: float = 1e-10

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("grad_tol", "grad_tol_abs"):
            tol = getattr(self, name)
            real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
            if not (real and 0.0 < tol < math.inf):
                raise ValueError(f"{name} must be a number in (0, inf), not a bool, got {tol!r}")
        iters = self.max_iters
        if not isinstance(iters, numbers.Integral) or isinstance(iters, bool) or iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, not a bool, got {iters!r}")


@dataclass
class IterationRecord:
    """One accepted step (index 0 is the initial state)."""

    index: int
    F: float
    grad_norm: float
    lam: float
    ls_evals: int
    ls_kind: str = ""
    min_measure: float = math.nan
    slide_residual: float = 0.0
    # The step's inversion cap (an upper bound on lam: the exact cap, or its
    # lower bound where no trial passed that) and the cell that set the exact
    # cap, the lowest such cell on ties (-1 for the lower bound, or where no
    # cell bounds the step), the CG iterations of its P solves and their worst
    # relative residual, whether _descend replaced the strategy's direction by
    # its fallback, and seconds in its evaluations (record 0: the initial one),
    # its P builds, its P solves and its caps (the lower bound and the exact cap).
    cap: float = math.nan
    cap_cell: int = -1
    cg_iters: int = 0
    cg_residual: float = 0.0
    fallback: bool = False
    eval_s: float = 0.0
    p_build_s: float = 0.0
    cg_s: float = 0.0
    cap_s: float = 0.0


# The CSV report's column names where they are not the field's, and its
# formats where they are not str: floats exact in .17g, fallback as 0/1.
_CSV_NAMES = {"index": "iter", "lam": "lambda"}
_CSV_FORMATS = {float: "{:.17g}".format, bool: lambda b: str(int(b))}


@dataclass
class OptimizeReport:
    method: str
    records: list
    termination: str
    fun_evals: int
    quality_before: object = None
    quality_after: object = None

    @property
    def iterations(self):
        return len(self.records) - 1

    @property
    def final_energy(self):
        return self.records[-1].F

    def lines(self):
        out = [
            f"method       {self.method}",
            f"iterations   {self.iterations}",
            f"evaluations  {self.fun_evals} (energy and gradient)",
            f"termination  {self.termination}",
            f"energy       {self.records[0].F:.12g} -> {self.final_energy:.12g}",
        ]
        before, after = self.quality_before, self.quality_after
        if before is not None and after is not None:
            from .mesh import POOR_QUALITY_THRESHOLD  # read when printed, as quality_stats does

            out.append(f"min quality  {before.min_q:.6f} -> {after.min_q:.6f}")
            label = f"q < {POOR_QUALITY_THRESHOLD}"
            out.append(f"{label:<12} {before.below_threshold_count} -> "
                       f"{after.below_threshold_count}")
        return out

    def write_csv(self, path_or_file):
        """One row per record, a column per IterationRecord field, to a path
        or an open file (`_CSV_NAMES`, `_CSV_FORMATS`)."""
        columns = fields(IterationRecord)
        owned = not hasattr(path_or_file, "write")
        with open(path_or_file, "w") if owned else nullcontext(path_or_file) as fh:
            fh.write(",".join(_CSV_NAMES.get(c.name, c.name) for c in columns) + "\n")
            for r in self.records:
                cells = (_CSV_FORMATS.get(c.type, str)(getattr(r, c.name)) for c in columns)
                fh.write(",".join(cells) + "\n")


def _inf_norm(v):
    return float(np.abs(v).max()) if v.size else 0.0


class MeshProblem:
    """Mesh objective over the flattened (n_vertices * dim) coordinate array."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.nv = mesh.n_vertices
        self.dim = mesh.dim
        self.x0 = mesh.vertices.ravel().copy()
        self.index = scatter_index(mesh)
        self.fun_evals = 0
        # Built at the first P build: methods without P never need it, and a
        # mesh with a part that has no fixed vertex stops the run there.
        self.topology = None
        # (x, kernel geometry) of the last point evaluated.
        self.kept = None
        # The cells' mu at the first evaluation, which the driver makes at x0:
        # the quality before the run.
        self.start_mu = None
        # IterationRecord's work fields since the last take_work(): cg_iters,
        # eval_s, p_build_s, cg_s and cap_s summed, cg_residual the largest.
        self.work = Counter()

    def rows(self, x):
        """The flat vector x as an (n_vertices, dim) view, one row per vertex."""
        return x.reshape(self.nv, self.dim)

    def mesh_at(self, x):
        return self.mesh.with_vertices(self.rows(x))

    @contextmanager
    def _timed(self, name):
        """Add the wall-clock seconds of the block to the work field ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.work[name] += time.perf_counter() - start

    def eval(self, x):
        self.fun_evals += 1
        self.kept = None
        with self._timed("eval_s"):
            try:
                f, grad_field, geometry = energy_gradient(self.mesh_at(x), self.index)
            except DegenerateElement:
                return math.inf, None
            self.kept = (x, geometry)
            if self.start_mu is None:
                self.start_mu = geometry.mu
            return f, self.mesh.project(grad_field).ravel()

    def project(self, v):
        return self.mesh.project(self.rows(v)).ravel()

    def step(self, x, d, lam):
        out = x + lam * d
        self.mesh.keep_fixed(self.rows(out), self.rows(x))
        return out

    def geometry_at(self, x):
        """The kernel geometry at x: the kept one if x is the very array
        evaluated last (as always, except on the retry after a failed search;
        the driver never writes into an evaluated point), else a fresh pass."""
        if self.kept is not None and x is self.kept[0]:
            return self.kept[1]
        return self.mesh_at(x).geometry()

    def lam_cap(self, x, d):
        """The step cap along d from x, STEP_CAP_FACTOR times the inversion
        cap, as a :class:`StepCap` whose bound is STEP_CAP_FACTOR times the
        cells' smallest ``step_lower_bounds``. The exact cap is computed only
        if a trial passes the bound. Both read the geometry at x, taken now:
        the search's trials replace the kept one. Until then the exact cap
        holds only the edges, all it reads, so the trials' evaluations do not
        run beside a second full geometry.
        """
        mesh, direction = self.mesh_at(x), self.rows(d)
        with self._timed("cap_s"):
            geometry = self.geometry_at(x)
            lower = step_lower_bounds(mesh, direction, geometry)
            bound = STEP_CAP_FACTOR * float(lower.min())
            edges = geometry.edges

        def exact():
            with self._timed("cap_s"):
                # By keyword: perfbench/tracing.py unpacks (mesh, direction) = args.
                lam, cell = max_step_before_inversion(mesh, direction, edges=edges)
            return STEP_CAP_FACTOR * lam, cell

        return StepCap(bound, exact)

    def precond_factory(self, x):
        """The solve with P built at x, per coordinate, as a projected vector map.

        P is built from the kernel geometry at x (`geometry_at`). Each CG solve
        stops at the relative residual CG_RTOL, so the map is an inexact P^-1.
        For a projected g it still gives ``g @ solve(g) > 0`` (see cg_solve;
        the projector is symmetric and idempotent), so the steepest direction
        ``-solve(g)`` descends. As the two-loop seed H0 the map is not linear;
        a direction that does not descend is caught by `_descend`'s fallback.
        """
        with self._timed("p_build_s"):
            if self.topology is None:
                self.topology = preconditioner_topology(self.mesh)
            pre = assemble_preconditioner(self.mesh_at(x), self.topology, self.geometry_at(x))

        def solve(vec):
            with self._timed("cg_s"):
                rhs = self.rows(vec)
                out = np.zeros_like(rhs)
                for c in range(self.dim):
                    b = rhs[pre.active, c]
                    out[pre.active, c], info = cg_solve(pre, b, tol=CG_RTOL)
                    self.work["cg_iters"] += info.iterations
                    self.work["cg_residual"] = max(self.work["cg_residual"], info.residual)
            return self.mesh.project(out).ravel()

        return solve

    def take_work(self):
        """IterationRecord's work fields summed since the last call."""
        work, self.work = self.work, Counter()
        return work

    def step_metrics(self, x_old, x_new):
        """The accepted step's smallest cell measure and slide drift.

        The accepted trial is the last point the line search evaluated, so
        its measures are the kept geometry's field 0 (the area or volume,
        with the bits of ``signed_measures``).
        """
        return {
            "min_measure": float(self.geometry_at(x_new)[0].min()),
            "slide_residual": self.mesh.slide_drift(self.rows(x_old), self.rows(x_new)),
        }


def _grad_converged(gnorm, g0norm, config):
    return gnorm < math.inf and gnorm <= max(config.grad_tol * g0norm, config.grad_tol_abs)


def _energy_stalled(history):
    if len(history) <= _ENERGY_PATIENCE:
        return False
    drop = history[0] - history[-1]
    return drop <= ENERGY_TOL * max(abs(history[-1]), 1.0)


def _take_step(problem, x, f, g, d, k, kind):
    """Run one line search along d, keeping only its last trial, which both
    searches accept; returns (x_new, f_new, g_new, record)."""
    last = None

    def phi(lam):
        nonlocal last
        x_t = problem.step(x, d, lam)
        f_t, g_t = problem.eval(x_t)
        last = (x_t, f_t, g_t)
        return f_t, 0.0 if g_t is None else float(g_t @ d)

    df0 = float(g @ d)
    cap = problem.lam_cap(x, d)
    if kind == "armijo":
        ls = backtracking_search(phi, f, df0, lam_cap=cap)
    else:
        ls = strong_wolfe_search(phi, f, df0, lam_cap=cap)
    x_new, f_new, g_new = last
    record = IterationRecord(
        index=k + 1,
        F=f_new,
        grad_norm=_inf_norm(g_new),
        lam=ls.lam,
        ls_evals=ls.evals,
        ls_kind=kind,
        cap=cap.bound,
        cap_cell=cap.cell,
        **problem.take_work(),
        **problem.step_metrics(x, x_new),
    )
    return x_new, f_new, g_new, record


def _two_loop(g, pairs, seed):
    """LBFGS two-loop recursion; returns H @ g for the implicit inverse Hessian
    seeded by H0, the vector map ``seed`` (which may return its argument)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    r = seed(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ r)
        r += (a - b) * s
    return r


def _seed_scale(s, y, h0y):
    """The two-loop seed's scale gamma = s.y / y.H0 y, from a curvature pair.

    Nocedal and Wright, *Numerical Optimization*, eq. 7.20: scaled by gamma,
    H0 has the curvature the newest step measured along y, so the line
    search's unit first trial is mostly accepted (unscaled, 2D lbfgs spends
    2 evaluations per step, scaled about 1). Pairs pass `_CURVATURE_PAIR_TOL`,
    so s.y > 0; where y.H0 y underflows or is not positive (a seed that is
    not SPD) the ratio is not finite and positive, and the seed stays
    unscaled (gamma = 1).
    """
    yh0y = float(y @ h0y)
    gamma = float(y @ s) / yh0y if yh0y > 0.0 else math.nan
    return gamma if 0.0 < gamma < math.inf else 1.0


class _Strategy:
    """Defaults shared by the direction strategies that :func:`_descend` drives;
    ``seed(problem, x)`` is H0 at x as a vector map (`_METHOD_TABLE`)."""

    kind = "wolfe"

    def __init__(self, problem, seed):
        self.problem = problem
        self.seed = seed

    def accept(self, x, x_new, g, g_new):
        pass


class _Lbfgs(_Strategy):
    """(P)LBFGS directions over LBFGS_MEMORY pairs. The seed is scaled by
    `_seed_scale` of the newest pair, at one more seed solve per step (of y).
    Before the first pair it is unscaled, and so is the fallback, the seed's
    steepest direction."""

    def __init__(self, problem, seed):
        super().__init__(problem, seed)
        self.pairs = deque(maxlen=LBFGS_MEMORY)
        self.solve = None

    def direction(self, x, g):
        self.solve = self.seed(self.problem, x)
        d = self.problem.project(-_two_loop(g, self.pairs, self._scaled_seed()))
        # Without curvature pairs the two-loop result is the fallback itself.
        return d, not self.pairs

    def _scaled_seed(self):
        solve = self.solve
        if not self.pairs:
            return solve
        s, y, _ = self.pairs[-1]
        gamma = _seed_scale(s, y, solve(y))
        return lambda q: gamma * solve(q)

    def fallback(self, g):
        self.pairs.clear()
        return self.problem.project(-self.solve(g))

    def accept(self, x, x_new, g, g_new):
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > _CURVATURE_PAIR_TOL * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y, 1.0 / ys))


class _Nlcg(_Strategy):
    """(P)NLCG directions with the Polak-Ribiere+ beta."""

    def __init__(self, problem, seed):
        super().__init__(problem, seed)
        self.p = None
        self.beta = 0.0
        self.steepest = None

    def direction(self, x, g):
        self.steepest = self.problem.project(-self.seed(self.problem, x)(g))
        if self.p is None:
            self.p = self.steepest
            return self.p, True
        self.p = self.problem.project(self.steepest + self.beta * self.p)
        return self.p, False

    def fallback(self, g):
        self.p = self.steepest
        return self.p

    def accept(self, x, x_new, g, g_new):
        # Polak-Ribiere with the non-negativity clamp (restart when beta < 0).
        self.beta = max(0.0, float(g_new @ (g_new - g)) / float(g @ g))


class _FixedPoint(_Strategy):
    """The paper's fixed point, taken as one preconditioned gradient step.

    The fixed point freezes the off-diagonal blocks of G_F and solves with
    the SPD diagonal block. In 2D the reduced preconditioner P is that block
    on the free rows, so the frozen-off-diagonal update
    ``P V_new = -(B V) - A_fixed V_fixed`` is ``V_new = V - P^-1 g``, up to
    the CG residual CG_RTOL of the solve. The truncated solve still descends:
    g is projected and the projector is symmetric, so ``g @ solve(g) > 0``
    for any CG truncation (see cg_solve). The residual form
    ``project(-P^-1 g)`` is used everywhere: it descends whenever g != 0,
    while the coordinate form, with sliding vertices or the abs-clamped P of
    3D, settles where ``g = (A_ff - P) V_free``, not g = 0. As the seed's
    steepest direction it is its own fallback: a failed search ends the run.
    """

    def __init__(self, problem, seed):
        super().__init__(problem, seed)
        self.kind = "armijo" if problem.dim == 2 else "wolfe"

    def direction(self, x, g):
        return self.problem.project(-self.seed(self.problem, x)(g)), True


def _identity_seed(problem, x):
    return lambda v: v


def _p_inverse_seed(problem, x):
    return problem.precond_factory(x)


# Every method's direction strategy and its seed H0 at x: the identity (no P
# is built) or the inexact P^-1 built at x. Nothing else chooses between them.
_METHOD_TABLE = {
    FIXED_POINT: (_FixedPoint, _p_inverse_seed),
    LBFGS: (_Lbfgs, _identity_seed),
    PLBFGS: (_Lbfgs, _p_inverse_seed),
    NLCG: (_Nlcg, _identity_seed),
    PNLCG: (_Nlcg, _p_inverse_seed),
}
METHODS = tuple(_METHOD_TABLE)


def _descend(problem, config, strategy):
    """The descent loop shared by every method; returns (x, records, termination).

    ``strategy.direction(x, g)`` returns ``(d, d_is_the_fallback)``,
    ``fallback(g)`` the direction to retry with once (read only when d is
    not the fallback itself), and ``accept`` sees every accepted step. A
    record's ``fallback`` says whether its step was taken along
    ``fallback(g)`` in place of the strategy's direction; a fallback
    descends unless g has a NaN or inf (``no_descent_direction``).

    ``problem`` is a :class:`MeshProblem` or any object with the members
    that the loop, the strategies and :func:`_run` read:

    - ``x0``, the flat start vector, and ``fun_evals``, the ``eval`` count;
    - ``eval(x)``, ``(f, g)`` with g projected, or ``(inf, None)`` where x
      cannot be evaluated;
    - ``project(v)``, v on the constraint set, and ``step(x, d, lam)``,
      ``x + lam * d`` with what must not move kept;
    - ``lam_cap(x, d)``, the step cap along d as a :class:`StepCap`;
    - ``precond_factory(x)``, P^-1 built at x as a vector map (read only by
      the P seeds; the fixed point also reads ``dim``);
    - ``take_work()`` and ``step_metrics(x_old, x_new)``, dicts of
      :class:`IterationRecord` fields for the step's record.
    """
    x = problem.x0.copy()
    f, g = problem.eval(x)
    g0n = _inf_norm(g)
    records = [IterationRecord(0, f, g0n, 0.0, 0, **problem.take_work())]
    history = deque([f], maxlen=_ENERGY_PATIENCE + 1)
    for k in range(config.max_iters):
        if _grad_converged(records[-1].grad_norm, g0n, config):
            return x, records, "grad_tol"
        if _energy_stalled(history):
            return x, records, "energy_tol"
        try:
            d, is_fallback = strategy.direction(x, g)
        except MeshError as e:
            return x, records, f"preconditioner_error: {e}"
        own_direction = not is_fallback
        if not is_fallback and not -math.inf < float(g @ d) < 0.0:
            d, is_fallback = strategy.fallback(g), True
        if not -math.inf < float(g @ d) < 0.0:
            return x, records, "no_descent_direction"
        while True:
            try:
                x_new, f_new, g_new, rec = _take_step(problem, x, f, g, d, k, strategy.kind)
                break
            except LineSearchFailed:
                if is_fallback:
                    return x, records, "line_search_failed"
                d, is_fallback = strategy.fallback(g), True
        rec.fallback = own_direction and is_fallback
        strategy.accept(x, x_new, g, g_new)
        x, f, g = x_new, f_new, g_new
        records.append(rec)
        history.append(f)
    termination = "grad_tol" if _grad_converged(records[-1].grad_norm, g0n, config) else "max_iters"
    return x, records, termination


def _run(problem, config, method):
    """Descend with the method's direction strategy; returns (x, OptimizeReport)."""
    make_strategy, seed = _METHOD_TABLE[method]
    strategy = make_strategy(problem, seed)
    x, records, termination = _descend(problem, config, strategy)
    return x, OptimizeReport(method, records, termination, problem.fun_evals)


def optimize(mesh, config=None):
    """Minimize the mesh energy with the configured method.

    Returns ``(new_mesh, OptimizeReport)``. The input mesh is not modified;
    fixed vertices are bit-identical in the output and sliding vertices
    stay in their planes. The first call in a process raises glibc's heap
    thresholds (``HEAP_TRIM_THRESHOLD``), so evaluations reuse freed memory.
    """
    _keep_freed_heap()
    config = config or OptimizeConfig()
    violations = validate(mesh)
    if violations:
        raise MeshError(
            "refusing to optimize an invalid mesh: "
            + "; ".join(str(v) for v in violations[:5])
        )
    problem = MeshProblem(mesh)
    x, report = _run(problem, config, config.method)
    out = problem.mesh_at(x)
    # From the evaluations' geometry: x0's, and the kept one at x.
    report.quality_before = quality_stats(mesh, problem.start_mu)
    report.quality_after = quality_stats(out, problem.geometry_at(x).mu)
    return out, report
