import numpy as np
import pytest

from rrsmooth import tetrahedra
from rrsmooth.errors import DegenerateElement

from conftest import CORNER_TET, REGULAR_TET, central_diff, dense_blocks, random_tets


def radii(g):
    """Circumradius R = |d0| / (12 vol) and inradius r = 3 vol / s from ``geometry``."""
    return np.sqrt(g.d0_sq) / (12.0 * g.volume), 3.0 * g.volume / g.surface


class TestMeasures:
    def test_regular_tet_is_equilateral(self):
        R, r = radii(tetrahedra.geometry(REGULAR_TET[None]))
        assert R[0] == pytest.approx(3.0 * r[0], rel=1e-12)
        assert tetrahedra.geometry(REGULAR_TET[None]).mu[0] == pytest.approx(1.0, abs=1e-12)

    def test_corner_tet_against_direct_solve(self):
        # Oracle: circumcenter c solves |c - x_i| = |c - x_0| (linear system),
        # inradius r = 3 V / s.
        P = CORNER_TET
        A = 2.0 * (P[1:] - P[0])
        b = np.sum(P[1:] ** 2, axis=1) - np.sum(P[0] ** 2)
        center = np.linalg.solve(A, b)
        R_oracle = np.linalg.norm(center - P[0])

        g = tetrahedra.geometry(P[None])
        (R,), (r,) = radii(g)
        assert g.volume[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert g.surface[0] == pytest.approx((3.0 + np.sqrt(3.0)) / 2.0, rel=1e-14)
        assert R == pytest.approx(R_oracle, rel=1e-12)
        assert R == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
        assert r == pytest.approx(1.0 / (3.0 + np.sqrt(3.0)), rel=1e-12)
        # d0 ties back to the circumradius definition.
        assert np.linalg.norm(g.d0[:, 0]) / (12.0 * g.volume[0]) == pytest.approx(
            R_oracle, rel=1e-13
        )

    def test_flat_tet_raises(self):
        with pytest.raises(DegenerateElement):
            tetrahedra.geometry(np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]]]))

    def test_circumradius_at_least_three_inradius(self):
        pts = random_tets(300, seed=11)
        R, r = radii(tetrahedra.geometry(pts))
        assert np.all(R >= 3.0 * r - 1e-12)


class TestRadiusRatio:
    def test_corner_tet_value(self):
        expected = (1.0 + np.sqrt(3.0)) / 2.0
        assert tetrahedra.geometry(CORNER_TET[None]).mu[0] == pytest.approx(expected, rel=1e-12)

    def test_sliver_family_monotone_blowup(self):
        def sliver(eps):
            return np.array(
                [[1, 0, 0], [-1, 0, 0], [0, -1, eps], [0, 1, eps]], dtype=float
            )

        mus = [tetrahedra.geometry(sliver(e)[None]).mu[0] for e in (0.5, 0.1, 0.01)]
        assert mus[0] < mus[1] < mus[2]
        assert mus[2] > 10.0


class TestGradient:
    def test_regular_tet_gradient_vanishes(self):
        grad = tetrahedra.gradient(tetrahedra.geometry(REGULAR_TET[None]))[0]
        assert np.abs(grad).max() < 1e-12

    def test_matches_central_differences(self):
        pts = random_tets(200, seed=14)
        grads = tetrahedra.gradient(tetrahedra.geometry(pts))
        for P, g in zip(pts, grads):
            h = 1e-6 * np.ptp(P, axis=0).max()
            gfd = central_diff(lambda Q: tetrahedra.geometry(Q[None]).mu[0], P, h)
            rel = np.linalg.norm(g - gfd) / np.linalg.norm(gfd)
            assert rel <= 1e-6

    def test_block_structure(self):
        pts = random_tets(100, seed=15)
        _, A, B0, B1, B2 = dense_blocks(tetrahedra, pts)
        At = np.transpose(A, (0, 2, 1))
        np.testing.assert_allclose(A, At, atol=1e-13 * np.abs(A).max())
        for B in (B0, B1, B2):
            np.testing.assert_allclose(
                B + np.transpose(B, (0, 2, 1)), 0.0, atol=1e-13 * np.abs(B).max()
            )
        # One weight per edge: A symmetric and every B antisymmetric exactly.
        np.testing.assert_array_equal(A, np.transpose(A, (0, 2, 1)))
        for B in (B0, B1, B2):
            np.testing.assert_array_equal(B, -np.transpose(B, (0, 2, 1)))


class TestAbsLocalMatrix:
    def test_symmetric_exactly(self):
        pts = random_tets(200, seed=18)
        _, A = tetrahedra.abs_local_matrix(pts)
        np.testing.assert_array_equal(A, np.transpose(A, (0, 2, 1)))

    def test_weak_diagonal_dominance_on_random_tets(self):
        # Oracle: direct row-sum check over 1000 random tets.
        pts = random_tets(1000, seed=19)
        _, A = tetrahedra.abs_local_matrix(pts)
        diag = np.abs(A[:, np.arange(4), np.arange(4)])
        off = np.abs(A).sum(axis=2) - diag
        scale = np.abs(A).max(axis=(1, 2))
        assert np.all(diag >= off - 1e-12 * scale[:, None])

    def test_regular_tet_positive_semidefinite(self):
        A = tetrahedra.abs_local_matrix(REGULAR_TET[None])[1][0]
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-12 * np.abs(A).max()

    def test_random_tets_positive_semidefinite(self):
        pts = random_tets(200, seed=20)
        _, A = tetrahedra.abs_local_matrix(pts)
        w = np.linalg.eigvalsh(A)
        assert np.all(w[:, 0] >= -1e-12 * np.abs(A).max(axis=(1, 2)))
