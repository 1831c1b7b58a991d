import numpy as np
import pytest

from rrsmooth import tetrahedra
from rrsmooth.errors import DegenerateElement
from rrsmooth.tetrahedra import Tetrahedron, local_gradient_matrix

from conftest import CORNER_TET, REGULAR_TET, central_diff, random_tets


class TestMeasures:
    def test_regular_tet_is_equilateral(self):
        m = Tetrahedron(REGULAR_TET).measures()
        assert m.circumradius == pytest.approx(3.0 * m.inradius, rel=1e-12)
        assert Tetrahedron(REGULAR_TET).radius_ratio() == pytest.approx(1.0, abs=1e-12)

    def test_corner_tet_against_direct_solve(self):
        # Oracle: circumcenter c solves |c - x_i| = |c - x_0| (linear system),
        # inradius r = 3 V / s.
        P = CORNER_TET
        A = 2.0 * (P[1:] - P[0])
        b = np.sum(P[1:] ** 2, axis=1) - np.sum(P[0] ** 2)
        center = np.linalg.solve(A, b)
        R_oracle = np.linalg.norm(center - P[0])

        m = Tetrahedron(P).measures()
        assert m.volume == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert m.surface == pytest.approx((3.0 + np.sqrt(3.0)) / 2.0, rel=1e-14)
        assert m.circumradius == pytest.approx(R_oracle, rel=1e-12)
        assert m.circumradius == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
        assert m.inradius == pytest.approx(1.0 / (3.0 + np.sqrt(3.0)), rel=1e-12)
        # d0 ties back to the circumradius definition.
        assert np.linalg.norm(m.d0) / (12.0 * m.volume) == pytest.approx(
            m.circumradius, rel=1e-13
        )

    def test_flat_tet_raises(self):
        with pytest.raises(DegenerateElement):
            Tetrahedron([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]]).measures()

    def test_circumradius_at_least_three_inradius(self):
        pts = random_tets(300, seed=11)
        m = tetrahedra.measures(pts)
        assert np.all(m.circumradius >= 3.0 * m.inradius - 1e-12)


class TestRadiusRatio:
    def test_corner_tet_value(self):
        expected = (1.0 + np.sqrt(3.0)) / 2.0
        assert Tetrahedron(CORNER_TET).radius_ratio() == pytest.approx(expected, rel=1e-12)

    def test_sliver_family_monotone_blowup(self):
        def sliver(eps):
            return np.array(
                [[1, 0, 0], [-1, 0, 0], [0, -1, eps], [0, 1, eps]], dtype=float
            )

        mus = [Tetrahedron(sliver(e)).radius_ratio() for e in (0.5, 0.1, 0.01)]
        assert mus[0] < mus[1] < mus[2]
        assert mus[2] > 10.0

    def test_scale_and_rotation_invariance(self, rng):
        pts = random_tets(50, seed=12)
        mu = tetrahedra.radius_ratio(pts)
        axis = np.array([1.0, 2.0, 3.0])
        axis /= np.linalg.norm(axis)
        th = 0.9
        Kx = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        Q = np.eye(3) + np.sin(th) * Kx + (1 - np.cos(th)) * (Kx @ Kx)
        moved = 0.37 * pts @ Q.T + np.array([5.0, -2.0, 0.5])
        np.testing.assert_allclose(tetrahedra.radius_ratio(moved), mu, rtol=1e-11)


class TestGradient:
    def test_regular_tet_gradient_vanishes(self):
        lg = Tetrahedron(REGULAR_TET).gradient()
        assert np.abs(lg.grad).max() < 1e-12

    def test_matches_central_differences(self):
        pts = random_tets(200, seed=14)
        _, grads = tetrahedra.radius_ratio_gradient(pts)
        for P, g in zip(pts, grads):
            h = 1e-6 * np.ptp(P, axis=0).max()
            gfd = central_diff(lambda Q: tetrahedra.radius_ratio(Q[None])[0], P, h)
            rel = np.linalg.norm(g - gfd) / np.linalg.norm(gfd)
            assert rel <= 1e-6

    def test_block_structure(self):
        pts = random_tets(100, seed=15)
        _, A, B0, B1, B2 = tetrahedra.local_blocks(pts)
        At = np.transpose(A, (0, 2, 1))
        np.testing.assert_allclose(A, At, atol=1e-13 * np.abs(A).max())
        for B in (B0, B1, B2):
            np.testing.assert_allclose(
                B + np.transpose(B, (0, 2, 1)), 0.0, atol=1e-13 * np.abs(B).max()
            )
        # A symmetric and K antisymmetric by construction.
        g = tetrahedra.geometry(pts)
        np.testing.assert_array_equal(A, np.transpose(A, (0, 2, 1)))
        K = tetrahedra._k_matrix(g)
        np.testing.assert_array_equal(K, -np.transpose(K, (0, 2, 1)))

    def test_gradient_equals_block_product(self):
        pts = random_tets(100, seed=16)
        for P in pts:
            lg = Tetrahedron(P).gradient()
            V = np.concatenate([P[:, 0], P[:, 1], P[:, 2]])
            gv = lg.mu * (local_gradient_matrix(lg) @ V)
            stacked = np.stack([gv[:4], gv[4:8], gv[8:]], axis=1)
            rel = np.linalg.norm(stacked - lg.grad) / np.linalg.norm(lg.grad)
            assert rel <= 1e-12


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
        A = Tetrahedron(REGULAR_TET).abs_local_matrix()
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-12 * np.abs(A).max()

    def test_random_tets_positive_semidefinite(self):
        pts = random_tets(200, seed=20)
        _, A = tetrahedra.abs_local_matrix(pts)
        w = np.linalg.eigvalsh(A)
        assert np.all(w[:, 0] >= -1e-12 * np.abs(A).max(axis=(1, 2)))
