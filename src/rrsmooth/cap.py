"""The inversion cap, on which the rule that no cell inverts rests: how far a
step may go before a cell reaches zero measure, the cells' lower bounds on
it, and the lazy :class:`StepCap` that :mod:`rrsmooth.optim`'s line
searches read. :mod:`rrsmooth.mesh` holds the mesh model."""

import numpy as np

from .errors import DegenerateElement
from .mesh import kernel

# A root of a cell's measure polynomial counts as real when its imaginary
# part is at most this fraction of its modulus. Rounding turns a third or
# more of the tangential double roots (a cell touching zero measure and
# coming back) into complex pairs, of relative size ~sqrt(eps) and up to
# 4e-6 from LAPACK's eigenvalues, which 1e-8 misses. A triple root (a tet
# contracting to a point) splits by ~cbrt(eps): on 100,000 random tets its
# pair reached 1.09e-4 (99.9% quantile 1.6e-5), and 1e-5 misses some of them.
# Counting a near-real pair as real only lowers the bound.
REAL_ROOT_RTOL = 1e-4

# The cap takes the largest root s found in the _CAP_FIRST_ROWS cubics p
# with the largest _root_estimate (an order).
# It then clears a cubic when q(u) = p(S + u), S = s (1 - CAP_MARGIN), has
# only positive coefficients, and solves every other one. Such a q has no
# root with |arg u| < pi/3, so every root of p right of S has
# |Im| >= sqrt(3) (Re - S). A root there is at least
# (sqrt(3) CAP_MARGIN - REAL_ROOT_RTOL) s / 2 = 8.2e-4 s away from every
# point that counts as real at or above s: 7.5 times the widest rounding
# split of a triple root (1.09e-4 s, see REAL_ROOT_RTOL), the largest error
# seen in a cell's roots. So no cleared cubic has a root counted real at or above s.
CAP_MARGIN = 1e-3
# A shifted coefficient clears only when it exceeds this fraction of the sum
# of its terms' moduli, far above the few ulps of rounding in its sum.
CAP_SHIFT_RTOL = 1e-13
# A cubic clears only when |c_k| <= (CAP_ROOT_SCALE S)**k, which puts its
# roots within 2 CAP_ROOT_SCALE S of 0 (Fujiwara's bound). LAPACK's error on
# a root grows with the largest root B of its cubic: about eps B for a simple
# root, and up to sqrt(eps B S), 2.1e-4 S here, for a double root near S. A
# cubic with only positive coefficients, such as a1 = 1e9, a2 = 1e-20,
# a3 = 1e-31, can return a positive real root near 1e-20.
CAP_ROOT_SCALE = 1e8
# Rows solved first while no root is known. Any count gives the same result; on
# cube n=6 and 10 directions the cell that sets the cap is among them on 95% of calls.
_CAP_FIRST_ROWS = 4
# step_lower_bounds lowers each cell's bound by this fraction (see
# TestLowerBound): its inputs, the kept measure, the squared edges and the
# direction's differences, are rounded, and on a flat cell pushed through its
# own plane the exact bound is within h**2 of the cap (h the cell's relative
# height), far below rounding.
LOWER_BOUND_RTOL = 1e-9
# A cell's ||D||_F**2 is raised to at least this: below 1e-154 in every
# entry a direction would underflow it to 0 and give the cell an infinite
# bound, though its cubic has a root.
_DIRECTION_SQ_FLOOR = 1e-300
# The cap is homogeneous: along c d it is the cap along d over c. A direction
# whose largest entry is more than 2**_SCALE_WINDOW times larger or smaller
# than the mesh's largest vertex coordinate is scaled by a power of two into
# that coordinate's binade, and its bounds and cap are scaled back. Far
# outside, the coefficients leave the float range: a regular tet contracting
# along c d got an infinite cap at c = 1e-150 and numpy's LinAlgError at
# c = 1e150. Inside, the direction is used as given, because the rescale is
# exact for the direction but not for LAPACK: scaling the coefficients of
# 20,000 random monic cubics by 2**-k, 2**-2k and 2**-3k moved the roots of
# 11-21% of them, by up to 1.2e-14 relative, for k = 1 to 60. The window
# keeps every direction that the benchmark's solves and jitter read (2**-21
# to 2**19 of the mesh on seeds 1-5). The largest coordinate costs one pass,
# a bounding box ten times more; it is at least half the box's largest side,
# and on a representable mesh at most 2**52 times it, so inside the window a
# cell's roots stay within 2**(64 + 52) times its shape's, far inside the
# float range.
_SCALE_WINDOW = 64
# A cell whose k-th coefficient exceeds _ROOT_LIMIT**k (or is not finite) has
# roots past about _ROOT_LIMIT, where the solve breaks down (LinAlgError near
# 1e150, see _SCALE_WINDOW), and raises DegenerateElement. After the rescale
# only a cell some 1e50 times smaller than its mesh gets there; the exact
# caps of the benchmark's solves (seeds 1-5) met at most 2.6e9**k.
_ROOT_LIMIT = 1e100


class StepCap:
    """A line search's step cap, read through a lower bound on it.

    ``bound`` is at most the cap. ``exact``, if given, returns
    ``(cap, cell)`` and is called at most once, the first time a trial
    passes ``bound``; from then on ``bound`` is the cap and ``cell`` the cell
    that set it (-1 while ``bound`` is only the lower bound, or when no cell
    bounds the step). Without ``exact``, ``bound`` is the cap itself, as for
    a float ``lam_cap``.
    """

    def __init__(self, bound, exact=None):
        self.bound = bound
        self.cell = -1
        self._exact = exact

    @classmethod
    def of(cls, lam_cap):
        """``lam_cap``, a float or a StepCap, as a StepCap."""
        return lam_cap if isinstance(lam_cap, cls) else cls(lam_cap)

    def value(self):
        """The cap, computed on first use."""
        if self._exact is not None:
            exact, self._exact = self._exact, None
            self.bound, self.cell = exact()
        return self.bound

    def clip(self, lam):
        """``min(lam, cap)``; the cap is read only when lam passes the bound."""
        return lam if lam <= self.bound else min(lam, self.value())

    def reached(self, lam):
        """``lam >= cap``; the cap is read only when lam reaches the bound."""
        return not lam < self.bound and lam >= self.value()


def step_lower_bounds(mesh, direction, geometry):
    """Per cell, a step length before which the cell cannot reach zero
    measure along ``direction``, from ``geometry`` (the kernel's pass at the
    start point); a lower bound on the cell's cap.

    E holds the cell's edges from vertex 0 and D the same differences of the
    direction. Then det(E + t D) = det E det(I + t E^-1 D), and every root t
    of it, real or complex, has |t| >= 1 / ||E^-1 D||_2 (I + F is nonsingular
    while ||F||_2 < 1; Golub and Van Loan, *Matrix Computations*, 2.3), with
    ||E^-1 D||_2 <= ||D||_F / sigma_min(E). The other singular values of E
    have a product of at most ||E||_F**2 / 2 in 3D and ||E||_F in 2D, so
    sigma_min(E) >= 2 |det E| / ||E||_F**2 (tets) or |det E| / ||E||_F
    (triangles). The cap takes 1 / Re(s) of roots s = 1/t, which is at least
    |t|, so no cell's cap is below its bound. ``|det E|`` is dim! times the
    kept measure and ``||E||_F**2`` the sum of the squared edges from vertex
    0; each bound is lowered by LOWER_BOUND_RTOL for rounding. A misshapen or
    non-finite direction raises ValueError.
    """
    direction, k = _scaled(mesh, direction)
    du = mesh.cell_coords(direction)
    f = du[:, 1:] - du[:, :1]
    # A norm past the float range gives the bound 0, which holds.
    with np.errstate(over="ignore"):
        f *= f
        dsq = f.reshape(-1, f.shape[-1]).sum(axis=0)
        np.maximum(dsq, _DIRECTION_SQ_FLOOR, out=dsq)
        if mesh.dim == 3:
            esq = geometry.edge_sq.sum(axis=0)
            lower = (12.0 * (1.0 - LOWER_BOUND_RTOL)) * geometry.volume / (esq * np.sqrt(dsq))
        else:
            e = geometry.edges[:, 1:]
            esq = (e * e).reshape(-1, e.shape[-1]).sum(axis=0)
            # Square roots taken apart: for a still cell (dsq at the floor) the
            # product esq * dsq underflows to 0 once its edges are below 1e-12.
            lower = (2.0 * (1.0 - LOWER_BOUND_RTOL)) * geometry.area / (np.sqrt(esq) * np.sqrt(dsq))
    return _unscaled(lower, k)


def max_step_before_inversion(mesh, direction, geometry=None):
    """``(lam, cell)``: the largest lam such that vertices + t*direction keeps
    every cell positive for all t in [0, lam), and the cell that sets it, the
    lowest such cell on ties (-1 when lam is inf: no cell's measure
    polynomial has a positive root, or the bound is past the float range).

    lam is 1 / (largest positive real root s of the cells' monic measure
    polynomials in s = 1/t, :func:`_measure_polynomials`), or inf when there
    is none. Roots count as real up to REAL_ROOT_RTOL. Every cell's
    coefficients are built, and only the cells whose roots can reach the
    largest root are solved (:func:`_binding_roots`). ``geometry`` is
    ``mesh.geometry()`` or its :func:`cap_geometry`, computed when not given.
    A misshapen or non-finite direction raises ValueError, and a cell whose
    roots pass _ROOT_LIMIT DegenerateElement.
    """
    direction, k = _scaled(mesh, direction)
    if geometry is None:
        geometry = mesh.geometry()
    roots, cells = _binding_roots(_measure_polynomials(mesh, direction, geometry))
    s = roots.max(initial=0.0)
    # A Python float: 1 / s past the float range is inf, no bound, unwarned.
    lam = float(_unscaled(1.0 / float(s) if s > 0 else np.inf, k))
    return lam, int(cells[roots == s].min()) if lam < np.inf else -1


def _scaled(mesh, direction):
    """``(2**k direction, k)``, k = 0 unless the direction lies outside
    _SCALE_WINDOW; a misshapen or non-finite direction raises ValueError."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != mesh.vertices.shape:
        raise ValueError("direction must match the vertex array shape")
    size = float(np.abs(direction).max(initial=0.0))
    if not size < np.inf:
        bad = np.flatnonzero(~np.isfinite(direction).all(axis=1))
        raise ValueError(f"direction is not finite at vertex {bad[0]}")
    if size == 0.0:
        return direction, 0
    reach = float(np.abs(mesh.vertices).max())
    if reach * 2.0**-_SCALE_WINDOW <= size <= reach * 2.0**_SCALE_WINDOW:
        return direction, 0
    k = int(np.frexp(reach)[1] - np.frexp(size)[1])
    return np.ldexp(direction, k), k


def _unscaled(x, k):
    """``x * 2**k``, inf past the float range, unwarned."""
    if k == 0:
        return x
    with np.errstate(over="ignore"):
        return np.ldexp(x, k)


def _measure_polynomials(mesh, direction, geometry):
    """The kernel's ``measure_polynomial`` of every cell. A cell whose
    coefficients pass _ROOT_LIMIT raises DegenerateElement."""
    du = np.take(np.ascontiguousarray(direction.T), mesh.cells.T, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        a = kernel(mesh.dim).measure_polynomial(geometry, du.T)
    solvable = np.abs(a) <= _ROOT_LIMIT ** np.arange(1.0, a.shape[1] + 1.0)
    if not solvable.all():
        row = np.flatnonzero(~solvable.all(axis=1))[0]
        raise DegenerateElement(
            f"its roots reach past {_ROOT_LIMIT:.0e} along the direction", int(row)
        )
    return a


def cap_geometry(geometry):
    """The fields of a kernel geometry that the inversion cap reads, the
    measure (field 0) and the edges; the other fields are None. A caller
    that holds a geometry for a later cap holds only these."""
    read = (geometry._fields[0], "edges")
    return geometry._make(
        field if name in read else None for name, field in zip(geometry._fields, geometry)
    )


def _root_estimate(a):
    """Each row's largest root with its constant term dropped: the larger root
    of s**2 + a1 s + a2, ``(-a1 + sqrt(a1**2 - 4 a2)) / 2`` (``-a1 / 2`` for a
    complex pair). ``a`` is (n, 3).

    In t = 1/s it is where the cell's measure, to second order in t, first
    reaches zero; the cap orders its cubics by it. A triangle's constant term
    is 0, so its estimate is exact.
    """
    c = a.T
    with np.errstate(over="ignore", invalid="ignore"):
        d = c[0] * c[0] - 4.0 * c[1]
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        d -= c[0]
    d *= 0.5
    return d


def _row_roots(a):
    """Largest positive real root of each row's monic cubic (0 when none)."""
    companion = np.zeros((len(a), 3, 3))
    companion[:, 0] = -a
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    real = np.abs(roots.imag) <= REAL_ROOT_RTOL * np.abs(roots)
    return np.where(real & (roots.real > 0), roots.real, 0.0).max(axis=1, initial=0.0)


def _binding_roots(a):
    """``(roots, rows)``: the largest positive real root (0 when none) of
    each row of ``a`` that it solves, and those rows. A row it does not solve
    has no root counted real at or above the largest root it returns, so
    every row that holds the largest root is among ``rows``.

    The rows are monic cubics, a triangle's with a zero constant term, solved
    few at a time: first the _CAP_FIRST_ROWS rows with the largest
    :func:`_root_estimate`, then every row that the Taylor shift at
    ``S = s (1 - CAP_MARGIN)``, s the largest of their roots, does not clear
    (see CAP_MARGIN). Every row is solved when S is 0 or so far from 1 that
    S**-3 is not a normal number, and a row with an inf or NaN is never
    cleared. LAPACK solves each companion matrix on its own, so a row's
    roots have the same bits in any batch.
    """
    if len(a) <= _CAP_FIRST_ROWS:
        return _row_roots(a), np.arange(len(a))
    first = _root_estimate(a).argpartition(-_CAP_FIRST_ROWS)[-_CAP_FIRST_ROWS:]
    roots = _row_roots(a[first])
    S = roots.max() * (1.0 - CAP_MARGIN)
    if 1e-100 < S < 1e100:
        rest = ~_shift_clears(a.T, S)
    else:
        rest = np.ones(len(a), dtype=bool)
    rest[first] = False
    rows = np.flatnonzero(rest)
    if not rows.size:
        return roots, first
    return np.concatenate([roots, _row_roots(a[rows])]), np.concatenate([first, rows])


def _shift_clears(c, S):
    """Whether each monic cubic, coefficients ``c`` (3, n), shifted to s = S + u
    has only positive coefficients, each above CAP_SHIFT_RTOL times the sum of
    its terms' moduli.

    With b_k = c_k / S**k, the shifted coefficients of u**2, u and 1 are, up
    to the factors S, S**2 and S**3, 3 + b1, 3 + 2 b1 + b2 and
    1 + b1 + b2 + b3: W c + k with W >= 0. The sums of their terms' moduli
    are W |c| + k, so the test is
    ``W (c - CAP_SHIFT_RTOL |c|) + (1 - CAP_SHIFT_RTOL) k > 0``. A cubic with
    a coefficient past CAP_ROOT_SCALE's limit does not clear.
    """
    r, t = 1.0 / S, CAP_ROOT_SCALE * S
    W = np.array([[r, 0.0, 0.0], [2.0 * r, r * r, 0.0], [r, r * r, r * r * r]])
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: not cleared
        mod = np.abs(c)
        q = W @ (c - CAP_SHIFT_RTOL * mod)
        q += (1.0 - CAP_SHIFT_RTOL) * np.array([[3.0], [3.0], [1.0]])
        clear = q > 0.0
        clear &= mod <= np.array([[t], [t * t], [t * t * t]])
        return np.logical_and.reduce(clear, axis=0)
