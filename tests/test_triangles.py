import numpy as np
import pytest

from rrsmooth import triangles
from rrsmooth.errors import DegenerateElement

from conftest import EQUILATERAL_TRI, RIGHT_TRI, central_diff, random_triangles


class TestRadiusRatio:
    def test_equilateral_is_one(self):
        assert triangles.radius_ratio(EQUILATERAL_TRI[None])[0] == pytest.approx(1.0, abs=1e-12)

    def test_right_isoceles_matches_classical_oracle(self):
        # Oracle: R = abc / (4 area), r = 2 area / p, mu = R / (2 r).
        a, b, c = np.sqrt(2.0), 1.0, 1.0
        area = 0.5
        R = a * b * c / (4.0 * area)
        r = 2.0 * area / (a + b + c)
        expected = R / (2.0 * r)
        assert expected == pytest.approx(1.2071067811865475)
        assert triangles.radius_ratio(RIGHT_TRI[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateElement):
            triangles.radius_ratio(np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]]))

    def test_inverted_raises(self):
        with pytest.raises(DegenerateElement):
            triangles.radius_ratio(RIGHT_TRI[[0, 2, 1]][None])

    def test_mu_at_least_one(self):
        pts = random_triangles(300, seed=3)
        assert np.all(triangles.radius_ratio(pts) >= 1.0 - 1e-12)


class TestGradient:
    def test_equilateral_gradient_vanishes(self):
        grad = triangles.gradient(triangles.geometry(EQUILATERAL_TRI[None]))[0]
        assert np.abs(grad).max() < 1e-12

    def test_matches_central_differences(self):
        pts = random_triangles(200, seed=5)
        _, grads = triangles.radius_ratio_gradient(pts)
        for P, g in zip(pts, grads):
            h = 1e-6 * np.ptp(P, axis=0).max()
            gfd = central_diff(lambda Q: triangles.radius_ratio(Q[None])[0], P, h)
            rel = np.linalg.norm(g - gfd) / np.linalg.norm(gfd)
            assert rel <= 1e-6

    def test_block_structure(self):
        pts = random_triangles(100, seed=6)
        _, A, B = triangles.local_blocks(pts)
        np.testing.assert_allclose(A.sum(axis=2), 0.0, atol=1e-12 * np.abs(A).max())
        np.testing.assert_array_equal(B + np.transpose(B, (0, 2, 1)), 0.0)
        # Laplacian off-diagonals are strictly negative (c_i > 0 always).
        off = A[:, ~np.eye(3, dtype=bool)]
        assert np.all(off < 0.0)

    def test_gradient_scales_inversely(self):
        P = random_triangles(1, seed=8)[0]
        _, g1 = triangles.radius_ratio_gradient(P[None])
        _, g2 = triangles.radius_ratio_gradient((4.0 * P)[None])
        np.testing.assert_allclose(g2, g1 / 4.0, rtol=1e-10)

    def test_gradient_rotates_covariantly(self):
        P = random_triangles(1, seed=9)[0]
        theta = 1.1
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        _, g = triangles.radius_ratio_gradient(P[None])
        _, gr = triangles.radius_ratio_gradient((P @ Q.T)[None])
        np.testing.assert_allclose(gr, g @ Q.T, rtol=1e-9, atol=1e-12)
