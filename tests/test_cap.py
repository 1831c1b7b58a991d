"""The inversion cap at every scale of the direction, and its entry checks.

The cap's soundness, tightness and pruning are checked in test_mesh.py's
TestStepBound, TestLowerBound, TestRootBound and TestLargestRealRoot.
"""

import numpy as np
import pytest

from rrsmooth import cap, mesh as m, optim
from rrsmooth.errors import DegenerateElement
from rrsmooth.generate import (
    CUBE, SQUARE, GeneratorSpec, PlantSliver, RandomJitter, gen_mesh, perturb_mesh,
)
from rrsmooth.optim import OptimizeConfig, optimize

from conftest import REGULAR, random_tets, stacked_cells
from test_mesh import batch_step, bits, jittered, one_cell, random_direction, unit_square_two_tris

W = cap._SCALE_WINDOW


@pytest.mark.parametrize("c", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("dim", [2, 3])
def test_a_cell_contracting_at_any_scale(dim, c):
    # Contracting to its centroid along c d, a regular cell reaches zero
    # measure at t = 1/c (a double root in 2D, a triple one in 3D). Before the
    # rescale the tet got inf at c = 1e-150 and LinAlgError at c = 1e150.
    P = REGULAR[dim]
    mesh, d = one_cell(P), c * (P.mean(axis=0) - P)
    lam, cell = cap.max_step_before_inversion(mesh, d)
    assert lam * c == pytest.approx(1.0, rel=cap.REAL_ROOT_RTOL)
    assert cell == 0
    lower = cap.step_lower_bounds(mesh, d, mesh.geometry())[0]
    assert lower <= lam
    assert lower * c == pytest.approx(cap.step_lower_bounds(mesh, d / c, mesh.geometry())[0])


def test_a_tet_contracting_to_a_point_is_capped_before_it_gets_there():
    # Each tet's vertices move straight to one random point, all arriving at
    # t = 1: its measure is (1 - t)**3 times its volume, a triple root at
    # s = 1. Rounding splits the root, the complex pair by up to 8.5e-5 of
    # its modulus on random tets. Where the lone real root is the smaller
    # one, only counting the pair as real keeps the cap at or below 1. With
    # REAL_ROOT_RTOL = 1e-5, 4 of these 500 tets got a cap past 1.
    rng = np.random.default_rng(1)
    for P in random_tets(500, seed=1):
        lam, _ = cap.max_step_before_inversion(one_cell(P), rng.normal(size=3) - P)
        assert lam <= 1.0


def binade_case(kind):
    """A jittered mesh whose largest vertex coordinate is 1, and a random
    direction whose largest entry is 1: 2**j times the direction is inside
    the window for |j| <= W."""
    mesh = jittered(kind)
    assert np.abs(mesh.vertices).max() == 1.0
    d = random_direction(mesh, 0.0, np.random.default_rng(8))
    return mesh, d / np.abs(d).max()


@pytest.mark.parametrize("kind", [SQUARE, CUBE])
def test_the_window_edges(monkeypatch, kind):
    # At the window's edges the direction 2**j d is solved as given; one
    # binade past them it is solved as d, and the cap scaled back by 2**-j.
    mesh, d = binade_case(kind)
    g = mesh.geometry()
    solved, build = [], cap._measure_polynomials

    def recorded(mesh, direction, *args):
        solved.append(np.abs(direction).max())
        return build(mesh, direction, *args)

    monkeypatch.setattr(cap, "_measure_polynomials", recorded)
    for j, i in ((-W, -W), (W, W), (-W - 1, 0), (W + 1, 0)):
        solved.clear()
        lam, _ = cap.max_step_before_inversion(mesh, np.ldexp(d, j), edges=g.edges)
        assert solved == [np.ldexp(1.0, i)]
        assert bits(lam) == bits(np.ldexp(batch_step(mesh, np.ldexp(d, i), g), i - j))
        lower = cap.step_lower_bounds(mesh, np.ldexp(d, j), g)
        assert lower.tobytes() == np.ldexp(cap.step_lower_bounds(mesh, d, g), -j).tobytes()


@pytest.mark.parametrize("j0", [W + 1, -W - 1])
def test_outside_the_window_the_cap_scales_exactly(j0):
    # The cap along 2**j d is 2**-j times the cap along d exactly: the
    # direction is rescaled to the same bits. Inside the window the cubic's
    # roots may differ in their last bits, as LAPACK's are not scaled exactly.
    mesh, d = binade_case(CUBE)
    g = mesh.geometry()
    ref, cell = cap.max_step_before_inversion(mesh, np.ldexp(d, j0), edges=g.edges)
    for j in np.sign(j0) * np.array([W + 2, 100, 300, 600, 900]):
        lam, at = cap.max_step_before_inversion(mesh, np.ldexp(d, j), edges=g.edges)
        assert (bits(lam), at) == (bits(np.ldexp(ref, j0 - j)), cell)


def test_in_2d_the_cap_scales_exactly_at_every_scale():
    # The quadratic formula scales exactly with its coefficients, so a
    # triangle mesh's cap keeps its bits inside the window too.
    mesh, d = binade_case(SQUARE)
    g = mesh.geometry()
    ref, cell = cap.max_step_before_inversion(mesh, d, edges=g.edges)
    for j in range(-900, 901):
        lam, at = cap.max_step_before_inversion(mesh, np.ldexp(d, j), edges=g.edges)
        assert (bits(lam), at) == (bits(np.ldexp(ref, -j)), cell)


@pytest.mark.parametrize("bad", ["extra row", "nan", "inf"])
def test_both_entry_points_check_the_direction(bad):
    # step_lower_bounds used to return the first rows' bounds for a direction
    # with extra rows, and NaN bounds for a NaN direction.
    for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
        d = np.ones_like(mesh.vertices)
        if bad == "extra row":
            d = np.vstack([d, d[:1]])
        else:
            d[2, 1] = float(bad)
        with pytest.raises(ValueError):
            cap.step_lower_bounds(mesh, d, mesh.geometry())
        with pytest.raises(ValueError):
            cap.max_step_before_inversion(mesh, d)


def test_roots_past_the_solvable_range_raise_with_the_cell():
    # A triangle 1e-60 across moved by the mesh's extent, 1e60 (a far
    # triangle sets it): its roots reach 1e120, past _ROOT_LIMIT. Past 1.3e154
    # the quadratic formula overflowed and the cap came back inf although the
    # cell inverts. Both cells are inside the kernels' range of scales.
    T = REGULAR[2]
    mesh = stacked_cells(np.stack([1e-60 * T, 1e60 + 1e50 * T]))
    d = np.zeros_like(mesh.vertices)
    d[:3] = 1e60 * np.random.default_rng(0).normal(size=(3, 2))
    assert cap.step_lower_bounds(mesh, d, mesh.geometry())[0] < 1e-110
    with pytest.raises(DegenerateElement) as exc:
        cap.max_step_before_inversion(mesh, d)
    assert exc.value.cell == 0


def test_no_cell_bounds_an_infinite_cap():
    # Along 1e-310 times a random direction the largest root s is near
    # 1e-310, and 1 / s overflows: the cap is inf, and it named cell 1 as
    # the one that set it.
    for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
        d = 1e-310 * np.random.default_rng(0).normal(size=mesh.vertices.shape)
        assert cap.max_step_before_inversion(mesh, d) == (np.inf, -1)


def test_a_small_triangle_mesh_has_unwarned_bounds():
    # Fixed boundary cells have ||D||_F**2 raised to _DIRECTION_SQ_FLOOR; in
    # a square 1e-13 across, their squared edges times it underflowed to 0,
    # and the 2D bound divided by zero: optimize stopped on the RuntimeWarning.
    base = jittered(SQUARE)
    mesh = m.classify_boundary(base.with_vertices(1e-13 * base.vertices), m.FIX_ALL)
    d = mesh.project(np.random.default_rng(0).normal(size=mesh.vertices.shape))
    lower = cap.step_lower_bounds(mesh, d, mesh.geometry())
    still = (d[mesh.cells] == 0.0).all(axis=(1, 2))
    assert still.any() and np.isfinite(lower).all()
    assert lower[still].min() > 1e100 * lower[~still].max()
    report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=5))[1]
    assert report.termination == "max_iters"


def test_every_exact_cap_names_the_lowest_binding_cell(monkeypatch):
    # Along the 4th exact cap of this lbfgs solve, cells 190 and 192 have the
    # same largest root. The row pruning solves 192 first, and a cap that
    # kept the first binding cell it solved named 192.
    mesh = m.classify_boundary(
        perturb_mesh(perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 6)), RandomJitter(0.1, 16)),
                     PlantSliver(5, 0.01)),
        m.FIX_ALL,
    )
    caps, exact = [], optim.max_step_before_inversion

    def recorded(at, direction, **kwargs):
        caps.append((at, direction, kwargs["edges"], exact(at, direction, **kwargs)))
        return caps[-1][-1]

    monkeypatch.setattr(optim, "max_step_before_inversion", recorded)
    optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=50, grad_tol=1e-300,
                                  grad_tol_abs=1e-5))
    ties = 0
    for at, d, edges, (lam, cell) in caps:
        roots = cap._row_roots(cap._measure_polynomials(at, cap._scaled(at, d)[0], edges))
        assert (lam, cell) == (1.0 / roots.max(), roots.argmax())
        ties += np.count_nonzero(roots == roots.max()) > 1
    assert ties >= 2
