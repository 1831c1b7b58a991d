import io
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse

from rrsmooth import assembly, simplex, tetrahedra, triangles
from rrsmooth import mesh as m
from rrsmooth import optim
from rrsmooth.cap import max_step_before_inversion
from rrsmooth.errors import IndefiniteMatrix, LineSearchFailed
from rrsmooth.generate import (
    CUBE,
    EQUILATERAL,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    SQUARE,
    gen_mesh,
    perturb_mesh,
)
from rrsmooth.optim import (
    WOLFE_C2,
    CgInfo,
    OptimizeConfig,
    _two_loop,
    backtracking_search,
    cg_solve,
    optimize,
    strong_wolfe_search,
)

from conftest import (
    FunctionProblem, minimize_lbfgs, minimize_nlcg, perturbed_lattice, record_betas, spy_wolfe,
)


class TestCgSolve:
    def test_identity_converges_in_one_iteration(self, rng):
        b = rng.normal(size=17)
        x, info = cg_solve(sparse.eye(17).tocsr(), b)
        np.testing.assert_allclose(x, b, rtol=1e-14)
        assert info.iterations == 1
        assert info.converged

    def test_small_spd_system(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        x, info = cg_solve(A, np.array([1.0, 2.0]), tol=1e-14)
        np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)
        assert info.converged

    def test_negative_diagonal_raises(self):
        A = np.diag([1.0, -1.0, 2.0])
        b = np.array([0.0, 1.0, 0.0])  # excites the negative-curvature axis
        with pytest.raises(IndefiniteMatrix):
            cg_solve(A, b)

    def test_zero_rhs(self):
        x, info = cg_solve(np.eye(3), np.zeros(3))
        assert np.all(x == 0.0)
        assert info.iterations == 0

    def test_max_iters_reported(self, rng):
        A = np.diag(np.linspace(1.0, 1e4, 50))
        b = rng.normal(size=50)
        x, info = cg_solve(A, b, tol=1e-14, max_iters=3)
        assert not info.converged
        assert info.iterations == 3

    def test_zero_iterations_return_the_start(self, rng):
        x, info = cg_solve(np.eye(4), rng.normal(size=4), max_iters=0)
        assert np.all(x == 0.0)
        assert info == CgInfo(0, 1.0, False)

    def test_every_truncation_descends(self, rng):
        # Stopped after any k >= 1 iterations, CG from 0 returns x_k with
        # b @ x_k = x_k @ P @ x_k > 0 (Steihaug 1983), so -x_k descends for
        # the gradient b. The identity holds to rounding; past convergence
        # its error grows slowly with k as orthogonality is lost.
        for _ in range(20):
            P = reduced_laplacian(rng, 16)
            b = rng.normal(size=P.shape[0])
            for k in range(1, P.shape[0] + 1):
                x, info = cg_solve(P, b, tol=0.0, max_iters=k)
                assert info.iterations == k
                assert b @ x > 0.0
                assert b @ x == pytest.approx(x @ (P @ x), rel=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_rhs_stops_at_once(self, bad):
        # Iterating would run all n iterations on NaNs, and an inf makes the
        # matrix product warn (inf * 0).
        b = np.ones(800)
        b[3] = bad
        x, info = cg_solve(sparse.diags(np.linspace(1.0, 2.0, 800)).tocsr(), b)
        assert np.isnan(x).all() and x.shape == b.shape
        assert (info.iterations, info.converged) == (0, False)
        assert math.isnan(info.residual)

    def test_a_finite_rhs_whose_norm_overflows_is_solved(self):
        # |b| = 1e200 * sqrt(10) overflows; a power-of-two scaling does not.
        b = np.full(10, 1e200)
        x, info = cg_solve(np.eye(10), b)
        assert (x == b).all() and info.converged

    def test_in_place_updates_keep_the_plain_loop_bits(self, rng):
        for _ in range(10):
            P = reduced_laplacian(rng, 40)
            b = rng.normal(size=P.shape[0])
            for tol in (1e-2, 1e-8, 0.0):
                x, info = cg_solve(P, b, tol=tol)
                ref, iterations = plain_cg(P, b, tol)
                assert info.iterations == iterations
                assert x.tobytes() == ref.tobytes()


def plain_cg(A, b, tol):
    """cg_solve's loop with freshly allocated updates: (x, iterations)."""
    x, r = np.zeros(len(b)), b.copy()
    p, rr = r.copy(), r @ r
    for k in range(1, len(b) + 1):
        Ap = A @ p
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        if math.sqrt(rr_new) <= tol * np.linalg.norm(b):
            return x, k
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, len(b)


def reduced_laplacian(rng, n):
    """A connected weighted graph Laplacian on n vertices with 1-3 of them
    fixed, reduced to the free rows and columns: SPD, like P."""
    tail, head = np.arange(n - 1), np.arange(1, n)
    extra = rng.integers(0, n, size=(2, 2 * n))
    extra = extra[:, extra[0] != extra[1]]
    i, j = np.concatenate([tail, extra[0]]), np.concatenate([head, extra[1]])
    w = rng.uniform(0.1, 1.0, size=i.size)
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
    L = sparse.coo_matrix((np.concatenate([-w, -w, w, w]), (rows, cols)), shape=(n, n)).tocsr()
    free = np.setdiff1d(np.arange(n), rng.choice(n, size=rng.integers(1, 4), replace=False))
    return L[free][:, free]


def creeping_zoom(kind, s):
    """``(phi, f0, df0)`` of a search whose first trial overshoots and whose
    clamped quadratic trials then keep their sufficient decrease, in units
    u = lam / s: exp(u) - 3 u, or 10 u**4 - u."""
    if kind == "exp":
        def phi(lam):
            u = lam / s
            if u > 700.0:
                return math.inf, math.inf
            return math.exp(u) - 3.0 * u, (math.exp(u) - 3.0) / s

        return phi, 1.0, -2.0 / s

    def phi(lam):
        u = lam / s
        return 10.0 * u**4 - u, (40.0 * u**3 - 1.0) / s

    return phi, 0.0, -1.0 / s


class TestStrongWolfe:
    def test_quadratic_accepts_unit_step(self):
        def phi(lam):
            return (lam - 1.0) ** 2, 2.0 * (lam - 1.0)

        res = strong_wolfe_search(phi, f0=1.0, df0=-2.0)
        assert res.lam == 1.0
        assert res.evals == 1

    def test_cubic_satisfies_curvature(self):
        c1, c2 = optim.WOLFE_C1, optim.WOLFE_C2

        def phi(lam):
            return lam**3 - lam, 3.0 * lam**2 - 1.0

        res = strong_wolfe_search(phi, f0=0.0, df0=-1.0)
        assert abs(3.0 * res.lam**2 - 1.0) <= c2
        assert res.f <= 0.0 + c1 * res.lam * (-1.0)
        # Oracle: dense lambda scan for the Wolfe-acceptable set.
        grid = np.linspace(1e-4, 2.0, 4000)
        ok = ((grid**3 - grid) <= c1 * grid * (-1.0)) & (
            np.abs(3.0 * grid**2 - 1.0) <= c2
        )
        lo, hi = grid[ok].min(), grid[ok].max()
        assert lo - 1e-3 <= res.lam <= hi + 1e-3

    def test_ascent_direction_fails(self):
        def phi(lam):
            return lam, 1.0

        with pytest.raises(LineSearchFailed):
            strong_wolfe_search(phi, f0=0.0, df0=1.0)

    def test_respects_cap(self):
        # Minimum at 5; inside the cap |phi'| never drops below c2 |phi'(0)|.
        def phi(lam):
            return (lam - 5.0) ** 2, 2.0 * (lam - 5.0)

        with pytest.raises(LineSearchFailed):
            strong_wolfe_search(phi, lam_cap=0.1, f0=25.0, df0=-10.0)
        res = strong_wolfe_search(phi, lam_cap=4.0, f0=25.0, df0=-10.0)
        assert res.lam <= 4.0

    def test_handles_infinite_trial_values(self):
        def phi(lam):
            if lam > 0.7:
                return math.inf, 0.0
            return (lam - 0.5) ** 2, 2.0 * (lam - 0.5)

        res = strong_wolfe_search(phi, lam_cap=2.0, f0=0.25, df0=-1.0)
        assert res.lam <= 0.7
        assert abs(res.lam - 0.5) < 1e-6

    @settings(max_examples=40, deadline=None, database=None)
    @given(k=st.integers(-100, 100))
    def test_steps_scaled_by_a_power_of_two_give_the_same_search(self, k):
        # phi = 10 u**4 - u in units u = lam / L of the cap L = 2**(k - 101),
        # below 1 at every k, so the first trial is the cap. It overshoots,
        # and the first zoom trial (the quadratic's minimizer, u = 0.05)
        # misses the curvature condition.
        def search(k):
            L = 2.0 ** (k - 101)

            def phi(lam):
                u = lam / L
                return 10.0 * u**4 - u, (40.0 * u**3 - 1.0) / L

            return strong_wolfe_search(phi, 0.0, -1.0 / L, lam_cap=L)

        base, scaled = search(0), search(k)
        assert base.evals > 2
        assert scaled.lam == math.ldexp(base.lam, k)
        assert (scaled.f, scaled.evals) == (base.f, base.evals)

    @pytest.mark.parametrize("kind, evals", [("exp", 20), ("quartic", 8)])
    def test_a_stalled_zoom_takes_the_geometric_midpoint(self, kind, evals):
        # At s = 1e-6 the first trial overshoots by 1e6 and bisection brings
        # the bracket near s. Then each clamped quadratic trial moved lo up by
        # only _ZOOM_SAFEGUARD of the width: exp's trials crept from u = 0.171
        # by 0.003 until no strong Wolfe step in 60 trials, the quartic's from
        # u = 0.01 by 0.01 to 0.14, 16 trials in all.
        phi, f0, df0 = creeping_zoom(kind, 1e-6)
        res = strong_wolfe_search(phi, f0, df0)
        assert res.evals == evals
        assert abs(res.df) <= -WOLFE_C2 * df0

    @settings(max_examples=30, deadline=None, database=None)
    @given(kind=st.sampled_from(["exp", "quartic"]), k=st.integers(-60, 60))
    def test_a_zoom_finds_a_step_at_every_scale(self, kind, k):
        # exp(u) - 3 u is accepted near u = 1. Past s = 2**56, f(1) and f(2)
        # round to f0 (the first trial is not scale-free): the unit trial keeps
        # its sufficient decrease, the second has f >= f_lo, and the bracket
        # [1, 2] holds no acceptable step, so exp stops there. The trials do
        # not run out.
        assume(kind == "quartic" or k <= 56)
        phi, f0, df0 = creeping_zoom(kind, 2.0**k)
        res = strong_wolfe_search(phi, f0, df0)
        assert res.evals <= optim._WOLFE_MAX_EVALS
        assert res.f <= f0 + optim.WOLFE_C1 * res.lam * df0
        assert abs(res.df) <= -WOLFE_C2 * df0

    def test_a_bracket_shrunk_to_rounding_fails(self):
        # Past s = 2**56, f(1) and f(2) round to f0 and [1, 2] holds no acceptable step.
        phi, f0, df0 = creeping_zoom("exp", 2.0**57)
        with pytest.raises(LineSearchFailed, match="the bracket shrank to rounding"):
            strong_wolfe_search(phi, f0, df0)

    def test_trials_run_out_on_an_unbounded_ray(self):
        trials = []

        def phi(lam):
            trials.append(lam)
            return -lam, -1.0  # sufficient decrease, never the curvature condition

        message = f"no strong Wolfe step in {optim._WOLFE_MAX_EVALS} trials"
        with pytest.raises(LineSearchFailed, match=message):
            strong_wolfe_search(phi, 0.0, -1.0)
        assert trials == [2.0**k for k in range(optim._WOLFE_MAX_EVALS)]

    def test_the_constants_lie_in_the_wolfe_range(self):
        # Both searches read these at each call and check them nowhere else:
        # c1 > c2 would end in "the bracket shrank to rounding", and a
        # negative c1 would accept steps that raise f.
        assert 0.0 < optim.WOLFE_C1 < optim.WOLFE_C2 < 1.0

    def test_the_constants_are_read_at_call_time(self, monkeypatch):
        # On test_cubic_satisfies_curvature's cubic, WOLFE_C2 = 0.9 accepts
        # lam = 0.5 at slope -0.25; patched to 0.1, the same call goes on.
        def phi(lam):
            return lam**3 - lam, 3.0 * lam**2 - 1.0

        assert strong_wolfe_search(phi, f0=0.0, df0=-1.0).df == -0.25
        monkeypatch.setattr(optim, "WOLFE_C2", 0.1)
        assert abs(strong_wolfe_search(phi, f0=0.0, df0=-1.0).df) <= 0.1


class TestBacktracking:
    def test_quadratic_accepts_unit_step(self):
        def phi(lam):
            return (lam - 1.0) ** 2, 2.0 * (lam - 1.0)

        res = backtracking_search(phi, f0=1.0, df0=-2.0)
        assert res.lam == 1.0

    def test_ascent_fails_immediately(self):
        def phi(lam):
            return lam, 1.0

        with pytest.raises(LineSearchFailed):
            backtracking_search(phi, f0=0.0, df0=1.0)

    def test_exp_objective_satisfies_armijo(self):
        def phi(lam):
            return math.exp(lam) - 2.0 * lam, math.exp(lam) - 2.0

        res = backtracking_search(phi, f0=1.0, df0=-1.0)
        assert 0.0 < res.lam <= 1.0
        assert math.exp(res.lam) - 2.0 * res.lam <= 1.0 + 1e-4 * res.lam * (-1.0)

    def test_underflow_raises(self, monkeypatch):
        monkeypatch.setattr(optim, "LAM_MIN", 1e-4)
        trials = []

        def phi(lam):
            trials.append(lam)
            return 1.0, 0.0  # never satisfies Armijo

        with pytest.raises(LineSearchFailed):
            backtracking_search(phi, f0=0.0, df0=-1.0)
        assert min(trials) == 2.0**-13 >= optim.LAM_MIN


def quadratic_problem(Q, b=None):
    n = Q.shape[0]
    b = np.zeros(n) if b is None else b

    def fun_grad(x):
        return 0.5 * x @ (Q @ x) - b @ x, Q @ x - b

    return fun_grad


class TestTwoLoop:
    def test_matches_dense_bfgs_on_quadratic(self, rng):
        # Classical identity: with H0 = I and full memory the two-loop result
        # equals the dense BFGS inverse-Hessian product.
        n = 8
        A = rng.normal(size=(n, n))
        Q = A @ A.T + n * np.eye(n)
        fun_grad = quadratic_problem(Q)
        x = rng.normal(size=n)
        H = np.eye(n)
        pairs = []
        for k in range(n):
            _, g = fun_grad(x)
            if np.linalg.norm(g) < 1e-12:
                break
            d_dense = -H @ g
            d_two_loop = -_two_loop(g, pairs, lambda v: v)
            rel = np.linalg.norm(d_dense - d_two_loop) / np.linalg.norm(d_dense)
            assert rel <= 1e-8
            lam = -(g @ d_dense) / (d_dense @ (Q @ d_dense))  # exact line search
            x_new = x + lam * d_dense
            _, g_new = fun_grad(x_new)
            s, y = x_new - x, g_new - g
            rho = 1.0 / (y @ s)
            V = np.eye(n) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
            pairs.append((s, y, rho))
            x = x_new


def next_directions_after_flat_pairs(count=200):
    """LBFGS's next direction after one curvature pair of rounding-level y.s.

    Each case is an exact line search (the new gradient g is orthogonal to
    the step s) along which the gradient changed only across s, so y.s is
    rounding noise. Returns ``(g, d)`` per case.
    """
    rng = np.random.default_rng(5)
    out = []
    for _ in range(count):
        s, y, g = rng.normal(size=(3, 2))
        y += (1e-17 - (y @ s) / (s @ s)) * s
        g -= (g @ s) / (s @ s) * s
        problem = FunctionProblem(lambda x: (0.0, g), np.zeros(2))
        strategy = optim._Lbfgs(problem, optim._identity_seed)
        strategy.accept(np.zeros(2), s, g - y, g)
        out.append((g, strategy.direction(s, g)[0]))
    return out


class TestCurvaturePairTolerance:
    def test_rounding_level_pairs_are_skipped(self):
        # Without a pair the direction is -g, which always descends.
        for g, d in next_directions_after_flat_pairs():
            assert np.isfinite(d).all() and g @ d < 0

    def test_without_the_tolerance_some_direction_ascends(self, monkeypatch):
        # y.s of either sign is rounding noise; a positive one passes a zero
        # tolerance, and rho = 1 / y.s then swamps g: the direction is all
        # but orthogonal to g, and in some cases points uphill.
        monkeypatch.setattr(optim, "_CURVATURE_PAIR_TOL", 0.0)
        cases = next_directions_after_flat_pairs()
        failed = [not (np.isfinite(d).all() and g @ d < 0) for g, d in cases]
        assert any(failed)

    def test_rounding_level_pairs_leave_a_measurable_slope(self):
        # A pair that passes the tolerance swamps g with rho = 1 / y.s, and
        # the direction is all but orthogonal to g: its slope g.d is rounding
        # noise, which no line search can follow. At 1e-15, 4 of these 200
        # pairs pass and give slopes of 1.4e-15 to 2.2e-15 |g||d|.
        for g, d in next_directions_after_flat_pairs():
            assert -(g @ d) >= 1e-8 * np.linalg.norm(g) * np.linalg.norm(d)


@pytest.mark.usefixtures("exact_line_search")
class TestLbfgsOnQuadratics:
    def test_converges_within_dimension_plus_two(self, rng, monkeypatch):
        for n in (2, 4, 7):
            A = rng.normal(size=(n, n))
            Q = A @ A.T + 0.5 * np.eye(n)
            fun_grad = quadratic_problem(Q)
            x0 = rng.normal(size=n)
            monkeypatch.setattr(optim, "LBFGS_MEMORY", n + 2)
            cfg = OptimizeConfig(max_iters=n + 2)
            x, report = minimize_lbfgs(fun_grad, x0, cfg)
            assert np.linalg.norm(Q @ x, np.inf) <= 1e-10
            assert report.iterations <= n + 2

    def test_skips_tiny_curvature_pairs(self, monkeypatch):
        # A flat direction produces y ~ 0; the pair must be dropped, not
        # poison rho.
        Q = np.diag([1.0, 1e-18])
        fun_grad = quadratic_problem(Q)
        monkeypatch.setattr(optim, "LBFGS_MEMORY", 4)
        cfg = OptimizeConfig(max_iters=5, grad_tol_abs=1e-9)
        x, report = minimize_lbfgs(fun_grad, np.array([1.0, 1.0]), cfg)
        assert abs(x[0]) < 1e-9


def lbfgs_evaluations_per_iteration(n, seed):
    """lbfgs on a jittered square n, run to |g|_inf <= 1e-5."""
    mesh = perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, n)), RandomJitter(0.3, seed))
    mesh = m.classify_boundary(mesh, m.FIX_ALL)
    _, report = optimize(mesh, OptimizeConfig(method="lbfgs", grad_tol_abs=1e-5))
    assert report.termination == "grad_tol"
    return report.fun_evals / report.iterations


class TestSeedScale:
    # The two-loop seed scaled by gamma = s.y / y.H0 y of the newest pair.
    @pytest.mark.parametrize("n", [10, 20])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_unit_first_trial_is_mostly_accepted(self, monkeypatch, n, seed):
        # Scaled, 2D lbfgs spends 1.01-1.07 evaluations per iteration on
        # these squares; unscaled (gamma = 1) its first trial is too long and
        # the search pays a second evaluation on nearly every step (2.00-2.02).
        assert lbfgs_evaluations_per_iteration(n, seed) <= 1.2
        monkeypatch.setattr(optim, "_seed_scale", lambda s, y, h0y: 1.0)
        assert lbfgs_evaluations_per_iteration(n, seed) >= 1.8

    @pytest.mark.parametrize("method", ["lbfgs", "plbfgs"])
    @pytest.mark.parametrize("shape", ["square", "cube"])
    def test_the_scale_used_is_finite_and_positive(self, monkeypatch, method, shape):
        # gamma comes only from stored pairs, which passed the curvature-pair
        # rule, and from H0 y: y itself, or a truncated CG solve of y, for
        # which y @ solve(y) > 0 (see cg_solve).
        mesh = slivered_cube(n=3, count=1) if shape == "cube" else jittered_square(8, 0.3, m.SLIDE_PLANAR)
        scales = recording(monkeypatch, optim, "_seed_scale")
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=20))
        # Every step after the first had a pair.
        assert len(scales) == report.iterations - 1 >= 10
        for (s, y, h0y), gamma in scales:
            assert float(y @ s) > optim._CURVATURE_PAIR_TOL * np.linalg.norm(s) * np.linalg.norm(y)
            assert 0.0 < gamma < math.inf
            assert gamma == float(y @ s) / float(y @ h0y)

    def test_a_scale_that_is_not_finite_and_positive_is_not_used(self):
        # y.y underflows to 0 on a pair that passes the curvature-pair rule,
        # and a seed that is not SPD gives y.H0 y < 0: the seed stays unscaled.
        s, y = np.array([1.0, 0.0]), np.array([1e-170, 0.0])
        assert y @ s > optim._CURVATURE_PAIR_TOL * np.linalg.norm(s) * np.linalg.norm(y)
        assert optim._seed_scale(s, y, y) == 1.0
        assert optim._seed_scale(s, s, -s) == 1.0
        g = np.array([0.0, -2.0])
        problem = FunctionProblem(lambda x: (0.0, g), np.zeros(2))
        strategy = optim._Lbfgs(problem, optim._identity_seed)
        strategy.accept(np.zeros(2), s, g - y, g)
        d, _ = strategy.direction(s, g)
        assert len(strategy.pairs) == 1
        assert np.array_equal(d, -_two_loop(g, strategy.pairs, lambda v: v))


def extended_rosenbrock(x):
    a, b = x[:-1], x[1:]
    f = float(np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    g[1:] += 200.0 * (b - a * a)
    return f, g


class TestSeedMap:
    """lbfgs and nlcg are plbfgs and pnlcg with the seed H0 = I."""

    # From the linspace and the 0.5 starts the first trial along -g
    # overshoots the minimizer by orders of magnitude. nlcg needs 574-685
    # iterations to converge from these starts.
    @pytest.mark.parametrize(
        "minimize, x0",
        [
            pytest.param(minimize, x0, id=minimize.__name__ + start)
            for start, x0 in [
                ("", np.zeros(6)),
                ("-linspace", np.linspace(-0.5, 0.5, 6)),
                ("-half", np.full(6, 0.5)),
            ]
            for minimize in (minimize_lbfgs, minimize_nlcg)
        ],
    )
    def test_an_identity_solve_keeps_every_bit(self, minimize, x0):
        config = OptimizeConfig(max_iters=1000)
        x, plain = minimize(extended_rosenbrock, x0, config)
        x_seeded, seeded = minimize(extended_rosenbrock, x0, config, precond_solve=lambda v: v)
        assert (plain.method, seeded.method) in (("lbfgs", "plbfgs"), ("nlcg", "pnlcg"))
        assert plain.iterations > 10
        assert plain.termination in ("grad_tol", "energy_tol")
        assert x_seeded.tobytes() == x.tobytes()
        assert (seeded.iterations, seeded.fun_evals, seeded.termination) == (
            plain.iterations, plain.fun_evals, plain.termination
        )


@pytest.mark.usefixtures("exact_line_search")
class TestNlcgOnQuadratics:
    def test_two_variable_quadratic_two_iterations(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        fun_grad = quadratic_problem(Q)
        cfg = OptimizeConfig(max_iters=3)
        x, report = minimize_nlcg(fun_grad, np.array([1.0, -2.0]), cfg)
        assert np.linalg.norm(Q @ x, np.inf) <= 1e-9
        assert report.iterations <= 2 + 1

    def test_pr_beta_equals_linear_cg_beta(self, rng, monkeypatch):
        n = 6
        A = rng.normal(size=(n, n))
        Q = A @ A.T + np.eye(n)
        b = rng.normal(size=n)
        fun_grad = quadratic_problem(Q, b)
        x0 = np.zeros(n)
        cfg = OptimizeConfig(max_iters=n, grad_tol_abs=1e-13, grad_tol=1e-13)
        betas = record_betas(monkeypatch)
        minimize_nlcg(fun_grad, x0, cfg)

        # Textbook linear CG betas on the same system.
        x = x0.copy()
        r = b - Q @ x
        p = r.copy()
        cg_betas = []
        for _ in range(len(betas)):
            alpha = (r @ r) / (p @ (Q @ p))
            x = x + alpha * p
            r_new = r - alpha * (Q @ p)
            beta = (r_new @ r_new) / (r @ r)
            cg_betas.append(beta)
            p = r_new + beta * p
            r = r_new
        for ours, cg in zip(betas[:-1], cg_betas[:-1]):
            assert abs(ours - cg) <= 1e-10 * max(1.0, abs(cg))

    def test_beta_restart_when_gradients_repeat(self):
        # beta^PR vanishes when g_{k+1} = g_k and equals 1 for orthogonal
        # gradients of equal norm.
        g = np.array([1.0, 0.0])
        g_same = g.copy()
        beta = g_same @ (g_same - g) / (g @ g)
        assert beta == 0.0
        g_next = np.array([0.0, 1.0])
        assert g_next @ (g_next - g) / (g @ g) == 1.0


def optimal_square_mesh():
    mesh = gen_mesh(GeneratorSpec(EQUILATERAL, 4))
    return m.classify_boundary(mesh, m.FIX_ALL)


def slivered_cube(n=4, count=3, eps=0.01, policy=m.FIX_ALL):
    mesh = gen_mesh(GeneratorSpec(CUBE, n))
    mesh = perturb_mesh(mesh, PlantSliver(count=count, eps=eps))
    return m.classify_boundary(mesh, policy)


def jittered_square(n, amplitude, policy):
    mesh = perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, n)), RandomJitter(amplitude, seed=1))
    return m.classify_boundary(mesh, policy)


def first_fixed_point_direction(mesh):
    """The fixed point's first direction field, projected -P^-1 g at the input."""
    problem = optim.MeshProblem(mesh)
    x = problem.x0
    _, g = problem.eval(x)
    d, _ = optim._FixedPoint(problem, optim._p_inverse_seed).direction(x, g)
    return d.reshape(problem.nv, problem.dim)


class TestFixedPoint:
    def test_stationary_mesh_terminates_immediately(self):
        mesh = optimal_square_mesh()
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint"))
        assert report.termination == "grad_tol"
        assert report.iterations <= 1
        np.testing.assert_array_equal(out.vertices, mesh.vertices)

    def test_step_on_stationary_mesh_is_zero(self):
        mesh = optimal_square_mesh()
        assert np.abs(first_fixed_point_direction(mesh)).max() <= 1e-10

    def test_perturbed_lattice_recovers_quality(self):
        mesh = perturbed_lattice()
        cfg = OptimizeConfig(method="fixedpoint", max_iters=30)
        out, report = optimize(mesh, cfg)
        stats = m.quality_stats(out)
        assert stats.min_q >= 0.99
        assert report.iterations <= 30

    def test_perturbed_lattice_gradient_convergence(self, monkeypatch):
        # Reaches an absolute free-gradient norm of 1e-8 within 30 iterations.
        from rrsmooth.assembly import energy_gradient

        monkeypatch.setattr(optim, "ENERGY_TOL", 1e-16)
        mesh = perturbed_lattice()
        cfg = OptimizeConfig(method="fixedpoint", max_iters=30, grad_tol_abs=1e-8)
        out, report = optimize(mesh, cfg)
        assert report.termination == "grad_tol"
        _, g, _ = energy_gradient(out)
        assert np.abs(g[~out.fixed_mask()]).max() <= 1e-8

    def test_first_step_decreases_energy_on_sliver_mesh(self):
        mesh = slivered_cube(n=3, count=1)
        from rrsmooth.assembly import energy_gradient

        f0, _, _ = energy_gradient(mesh)
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=1))
        assert report.iterations == 1
        f1, _, _ = energy_gradient(out)
        assert f1 < f0

    def test_report_prints_the_poor_quality_threshold(self, monkeypatch):
        # The count and its label read one constant.
        mesh = slivered_cube(n=3, count=1)
        for threshold in (m.POOR_QUALITY_THRESHOLD, 0.75):
            monkeypatch.setattr(m, "POOR_QUALITY_THRESHOLD", threshold)
            _, report = optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=2))
            before, after = report.quality_before, report.quality_after
            q = 1.0 / mesh.geometry().mu
            assert before.below_threshold_count == np.count_nonzero(q < threshold) > 0
            assert report.lines()[-1] == (f"{f'q < {threshold}':<12} "
                                          f"{before.below_threshold_count} -> "
                                          f"{after.below_threshold_count}")
        assert report.lines()[-1].startswith("q < 0.75     ")

    def test_monotone_energy(self):
        mesh = perturbed_lattice(6)
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=15))
        energies = [r.F for r in report.records]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("n", [8, 16])
    def test_2d_direction_is_the_frozen_off_diagonal_solve(self, n, monkeypatch):
        # Reference: freeze B, solve the diagonal block A on the free rows
        # with the true A acting on the fixed coordinates. The paper's
        # algebra is checked under an exact P solve; at CG_RTOL the
        # direction solves P d = -g to that relative residual per coordinate.
        from rrsmooth.assembly import assemble

        mesh = jittered_square(n, 0.3, m.FIX_ALL)
        A, B = assemble(mesh)
        X, Y = mesh.vertices.T
        fixed = mesh.fixed_mask()
        free = np.flatnonzero(~fixed)
        P = A[free][:, free].tocsr()
        rhs = [-(B @ Y) - A @ (X * fixed), (B @ X) - A @ (Y * fixed)]
        ref = np.zeros_like(mesh.vertices)
        for c in range(2):
            sol, info = cg_solve(P, rhs[c][free], tol=1e-13)
            assert info.converged
            ref[free, c] = sol - mesh.vertices[free, c]
        with monkeypatch.context() as exact:
            exact.setattr(optim, "CG_RTOL", 1e-13)
            d = first_fixed_point_direction(mesh)
        assert np.linalg.norm(d - ref) <= 1e-6 * np.linalg.norm(ref)

        problem = optim.MeshProblem(mesh)
        _, g = problem.eval(problem.x0)
        g = g.reshape(-1, 2)
        d = first_fixed_point_direction(mesh)
        for c in range(2):
            residual = P @ d[free, c] + g[free, c]
            assert np.linalg.norm(residual) <= optim.CG_RTOL * np.linalg.norm(g[free, c])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: slivered_cube(n=4, count=1),
            lambda: slivered_cube(n=5, count=3, policy=m.SLIDE_PLANAR),
            lambda: jittered_square(16, 0.3, m.SLIDE_PLANAR),
        ],
        ids=["cube4-fix-all", "cube5-slide-planar", "square16-slide-planar"],
    )
    def test_directions_never_fall_back(self, monkeypatch, make):
        # -P^-1 g descends whenever g != 0, also with the abs-clamped P of 3D
        # and with sliding vertices, and it is the fixed point's own
        # fallback: every step takes one line search, and none is marked.
        mesh = make()
        searches = [counting(monkeypatch, name)
                    for name in ("backtracking_search", "strong_wolfe_search")]
        _, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=30))
        assert sum(map(len, searches)) == report.iterations > 0
        assert not any(r.fallback for r in report.records)
        if mesh.dim == 3:
            assert report.termination == "grad_tol"

    def test_a_failed_search_ends_the_run(self, monkeypatch):
        # The direction is its own fallback, so nothing is left to retry.
        calls = []

        def failing(phi, f0, df0, lam_cap=math.inf):
            calls.append(1)
            raise LineSearchFailed("refused")

        monkeypatch.setattr(optim, "backtracking_search", failing)
        mesh = jittered_square(6, 0.3, m.FIX_ALL)
        _, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=4))
        assert (report.termination, report.iterations, len(calls)) == ("line_search_failed", 0, 1)


class TestInexactSolves:
    """The optimize path solves P only to the relative residual CG_RTOL."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: jittered_square(8, 0.3, m.SLIDE_PLANAR),
            lambda: slivered_cube(n=4, count=1, policy=m.SLIDE_PLANAR),
        ],
        ids=["square8-slide-planar", "cube4-slide-planar"],
    )
    @pytest.mark.parametrize("k", [1, 2, 5, None])
    def test_truncated_solves_descend(self, monkeypatch, make, k):
        # g is projected and the projector is symmetric, so g @ solve(g) is
        # the sum over coordinates of b @ x_k > 0: the fixed point's and
        # PNLCG's steepest direction descend for every CG truncation.
        if k is not None:
            solve = optim.cg_solve
            monkeypatch.setattr(
                optim, "cg_solve", lambda A, b, **_: solve(A, b, tol=0.0, max_iters=k)
            )
        problem = optim.MeshProblem(make())
        x = problem.x0
        _, g = problem.eval(x)
        d, _ = optim._FixedPoint(problem, optim._p_inverse_seed).direction(x, g)
        assert g @ d < 0.0
        nlcg = optim._Nlcg(problem, optim._p_inverse_seed)
        nlcg.direction(x, g)
        assert g @ nlcg.steepest < 0.0

    def test_why_cg_rtol_is_loose_but_not_looser(self, monkeypatch):
        # An exact solve spends several times the CG iterations for the same
        # 30 steps; a much looser one (0.1) ends measurably higher in energy.
        # The test shows that some bound is needed, not that it must be 1e-2.
        mesh = jittered_square(16, 0.3, m.FIX_ALL)
        runs = {}
        for name, tol in (("exact", 1e-8), ("default", optim.CG_RTOL), ("loose", 0.1)):
            monkeypatch.setattr(optim, "CG_RTOL", tol)
            _, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=30))
            assert report.iterations == 30
            runs[name] = (sum(r.cg_iters for r in report.records), report.final_energy)
        assert runs["exact"][0] >= 4 * runs["default"][0]
        floor = runs["exact"][1]
        assert runs["loose"][1] - floor > 3 * (runs["default"][1] - floor)


class TestStepMetrics:
    @pytest.mark.parametrize("method", ["fixedpoint", "plbfgs"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: jittered_square(8, 0.3, m.FIX_ALL),
            lambda: jittered_square(8, 0.3, m.SLIDE_PLANAR),
            lambda: slivered_cube(n=4, count=1),
            lambda: slivered_cube(n=4, count=1, policy=m.SLIDE_PLANAR),
        ],
        ids=["square-fix-all", "square-slide-planar", "cube-fix-all", "cube-slide-planar"],
    )
    def test_min_measure_is_read_from_the_kept_geometry(self, monkeypatch, make, method):
        problem = optim.MeshProblem(make())
        passes = recording(monkeypatch, m.SimplexMesh, "signed_measures")
        metrics = recording(monkeypatch, problem, "step_metrics")
        _, report = optim._run(problem, OptimizeConfig(method=method, max_iters=8), method)
        assert passes == []
        assert len(metrics) == report.iterations > 0
        for record, ((_, x_new), _) in zip(report.records[1:], metrics):
            fresh = problem.mesh_at(x_new).signed_measures().min()
            assert record.min_measure == fresh

    def test_a_point_not_evaluated_last_gets_a_fresh_pass(self, monkeypatch):
        problem = optim.MeshProblem(jittered_square(6, 0.3, m.FIX_ALL))
        x = problem.x0
        problem.eval(x)
        other = problem.step(x, problem.project(np.ones_like(x)), 1e-3)
        passes = recording(monkeypatch, triangles, "geometry")
        metrics = problem.step_metrics(x, other)
        assert len(passes) == 1
        assert metrics["min_measure"] == problem.mesh_at(other).signed_measures().min()
        problem.step_metrics(other, x)
        assert len(passes) == 1


class TestMeshOptimizers:
    @pytest.mark.parametrize("method", ["lbfgs", "plbfgs", "nlcg", "pnlcg", "fixedpoint"])
    def test_already_optimal_terminates_fast(self, method):
        mesh = optimal_square_mesh()
        out, report = optimize(mesh, OptimizeConfig(method=method))
        assert report.termination == "grad_tol"
        assert report.iterations <= 1

    @pytest.mark.parametrize("method", ["plbfgs", "pnlcg"])
    def test_sliver_cube_improves(self, method):
        mesh = slivered_cube()
        before = m.quality_stats(mesh)
        assert before.min_q < 0.05
        out, report = optimize(mesh, OptimizeConfig(method=method, max_iters=50))
        after = m.quality_stats(out)
        assert after.min_q >= 0.2
        assert report.fun_evals >= report.iterations

    def test_fixed_vertices_bit_identical(self):
        mesh = slivered_cube(n=3, count=1)
        out, _ = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=10))
        fixed = mesh.fixed_mask()
        assert np.array_equal(out.vertices[fixed], mesh.vertices[fixed])

    @pytest.mark.parametrize("method", ["fixedpoint", "lbfgs", "plbfgs"])
    @pytest.mark.parametrize("name", ["square", "cube"])
    def test_a_fixed_negative_zero_keeps_its_sign(self, name, method):
        # A step x + lam * d moves a fixed -0.0 to -0.0 + lam * 0.0 = +0.0:
        # only the copy of the fixed rows back into each trial keeps its bits.
        base = jittered_meshes()[name]
        vertices = base.vertices.copy()
        vertices[0] = -0.0  # the origin corner
        mesh = m.classify_boundary(base.with_vertices(vertices), m.FIX_ALL)
        assert mesh.constraint_kind[0] == m.FIXED
        out, report = optimize(mesh, OptimizeConfig(method=method, max_iters=5))
        assert report.iterations > 0
        assert np.signbit(out.vertices[0]).all()

    def test_slide_plane_constraints_respected(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 3))
        mesh = perturb_mesh(mesh, PlantSliver(count=1, eps=0.05))
        mesh = m.classify_boundary(mesh, m.SLIDE_PLANAR)
        out, report = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=10))
        slide = mesh.slide_mask()
        disp = out.vertices[slide] - mesh.vertices[slide]
        norms = np.linalg.norm(disp, axis=1)
        dots = np.abs(np.einsum("ij,ij->i", disp, mesh.slide_normals[slide]))
        moved = norms > 0
        assert np.all(dots[moved] <= 1e-12 * norms[moved])
        for r in report.records[1:]:
            assert r.slide_residual <= 1e-12

    def test_no_inversion_across_all_methods(self):
        mesh = slivered_cube(n=3, count=1)
        for method in ("fixedpoint", "lbfgs", "plbfgs", "nlcg", "pnlcg"):
            out, report = optimize(mesh, OptimizeConfig(method=method, max_iters=8))
            assert np.all(out.signed_measures() > 0)
            for r in report.records[1:]:
                assert r.min_measure > 0

    def test_monotone_descent_and_wolfe_flags(self, monkeypatch):
        mesh = slivered_cube(n=3, count=1)
        searches = spy_wolfe(monkeypatch)
        out, report = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=15))
        energies = [r.F for r in report.records]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        # Every accepted Wolfe step meets the strong curvature condition.
        assert len(searches) == sum(r.ls_kind == "wolfe" for r in report.records) > 0
        for df0, res in searches:
            assert abs(res.df) <= -WOLFE_C2 * df0

    def test_deterministic_reports(self):
        mesh = slivered_cube(n=3, count=1)
        cfg = OptimizeConfig(method="pnlcg", max_iters=6)
        out1, rep1 = optimize(mesh, cfg)
        out2, rep2 = optimize(mesh, cfg)
        np.testing.assert_array_equal(out1.vertices, out2.vertices)
        assert [r.F for r in rep1.records] == [r.F for r in rep2.records]

    def test_evaluation_counts_at_least_iterations(self):
        mesh = slivered_cube(n=3, count=1)
        for method in ("fixedpoint", "plbfgs", "nlcg"):
            _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=10))
            assert report.fun_evals >= report.iterations

    def test_invalid_mesh_rejected(self):
        from rrsmooth.errors import MeshError

        mesh = slivered_cube(n=3, count=1).copy()
        mesh.cells[0] = mesh.cells[0][[0, 1, 3, 2]]  # invert one cell
        with pytest.raises(MeshError):
            optimize(mesh, OptimizeConfig(method="plbfgs"))

    def test_report_csv_bytes(self):
        # A header and rows as the hand-written CSV writer wrote them, with
        # nan, inf, -0.0, a subnormal, an int 0 in a float field and both
        # fallback values.
        records = [
            optim.IterationRecord(0, 1.2345678901234567, 0.1, 0.0, 0, eval_s=0.001),
            optim.IterationRecord(
                1, 0.1 + 0.2, 3e-300, 1 / 3, 2, "wolfe", 1e-5, 2.5e-17, math.inf, -1, 12,
                0.0093, True, 0.5, 0.25, 1e-3, 7e-4,
            ),
            optim.IterationRecord(2, math.nan, 5.0, 0.9, 1, "armijo", -0.0, 0.0, 0.45, 17, 0, 0),
        ]
        buf = io.StringIO()
        optim.OptimizeReport("plbfgs", records, "grad_tol", 4).write_csv(buf)
        assert buf.getvalue() == (
            "iter,F,grad_norm,lambda,ls_evals,ls_kind,min_measure,slide_residual,cap,"
            "cap_cell,cg_iters,cg_residual,fallback,eval_s,p_build_s,cg_s,cap_s\n"
            "0,1.2345678901234567,0.10000000000000001,0,0,,nan,0,nan,-1,0,0,0,0.001,0,0,0\n"
            "1,0.30000000000000004,3.0000000000000002e-300,0.33333333333333331,2,wolfe,"
            "1.0000000000000001e-05,2.4999999999999999e-17,inf,-1,12,0.0092999999999999992,"
            "1,0.5,0.25,0.001,0.00069999999999999999\n"
            "2,nan,5,0.90000000000000002,1,armijo,-0,0,0.45000000000000001,17,0,0,0,0,0,0,0\n"
        )

    def test_report_csv_shape(self, tmp_path):
        mesh = perturbed_lattice(6)
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=10))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "iter,F,grad_norm,lambda,ls_evals,ls_kind,min_measure,"
            "slide_residual,cap,cap_cell,cg_iters,cg_residual,fallback,"
            "eval_s,p_build_s,cg_s,cap_s"
        )
        assert len(lines) - 1 == report.iterations + 1
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        # Every record field is written, in full precision.
        last, row = report.records[-1], lines[-1].split(",")
        assert row[5] == last.ls_kind
        assert float(row[6]) == last.min_measure
        assert float(row[7]) == last.slide_residual
        # The fixed point solves with P every step, under a finite cap.
        assert float(row[8]) == last.cap and np.isfinite(last.cap)
        assert int(row[9]) == last.cap_cell
        assert [int(line.split(",")[9]) for line in lines[1:]] == [
            r.cap_cell for r in report.records
        ]
        assert int(row[10]) == last.cg_iters > 0
        assert float(row[11]) == last.cg_residual > 0.0
        assert row[12] == str(int(last.fallback))
        assert float(row[13]) == last.eval_s > 0.0
        assert float(row[14]) == last.p_build_s > 0.0
        assert float(row[15]) == last.cg_s > 0.0
        assert float(row[16]) == last.cap_s > 0.0


def jittered_meshes():
    """Unclassified (every vertex free) square n=6 and cube n=3 with jitter."""
    square = perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, 6)), RandomJitter(0.3, seed=1))
    cube = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), RandomJitter(0.1, seed=1))
    return {"square": square, "cube": cube}


class TestAbnormalStops:
    """Every abnormal stop ends in a named termination, in every method."""

    @pytest.fixture(scope="class")
    def meshes(self):
        return jittered_meshes()

    @pytest.mark.parametrize("shape", ["square", "cube"])
    @pytest.mark.parametrize("method", optim.METHODS)
    def test_zero_step_cap_fails_the_line_search(self, meshes, shape, method, monkeypatch):
        mesh = m.classify_boundary(meshes[shape], m.FIX_ALL)
        monkeypatch.setattr(optim, "STEP_CAP_FACTOR", 1e-300)
        out, report = optimize(mesh, OptimizeConfig(method=method))
        assert report.termination == "line_search_failed"
        assert report.iterations == 0
        np.testing.assert_array_equal(out.vertices, mesh.vertices)

    @pytest.mark.parametrize("shape", ["square", "cube"])
    @pytest.mark.parametrize("method", optim.METHODS)
    def test_no_fixed_vertices(self, meshes, shape, method):
        # Without a fixed vertex the reduced matrix is only semi-definite:
        # methods that need it stop by name, the others are unaffected.
        out, report = optimize(meshes[shape], OptimizeConfig(method=method, max_iters=5))
        if method in ("fixedpoint", "plbfgs", "pnlcg"):
            assert report.termination.startswith("preconditioner_error: ")
            assert report.iterations == 0
        else:
            assert report.termination == "max_iters"
            assert report.iterations == 5
        assert np.all(out.signed_measures() > 0)

    @pytest.mark.parametrize("shape", ["square", "cube"])
    @pytest.mark.parametrize("method", optim.METHODS)
    def test_energy_stall(self, meshes, shape, method, monkeypatch):
        mesh = m.classify_boundary(meshes[shape], m.FIX_ALL)
        monkeypatch.setattr(optim, "ENERGY_TOL", 0.5)
        _, report = optimize(mesh, OptimizeConfig(method=method))
        assert report.termination == "energy_tol"
        assert report.iterations == 3

    @pytest.mark.parametrize("method", ["lbfgs", "plbfgs"])
    def test_failed_search_is_not_retried_along_the_same_direction(
        self, meshes, method, monkeypatch
    ):
        # With no curvature pairs the quasi-Newton direction already is the
        # steepest one: one evaluation at x0, one failed trial, then stop.
        mesh = m.classify_boundary(meshes["cube"], m.FIX_ALL)
        monkeypatch.setattr(optim, "STEP_CAP_FACTOR", 1e-300)
        _, report = optimize(mesh, OptimizeConfig(method=method))
        assert report.termination == "line_search_failed"
        assert report.fun_evals == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("minimize", [minimize_lbfgs, minimize_nlcg])
    def test_a_non_finite_gradient_is_no_descent_direction(self, minimize, bad):
        # Neither the strategy's direction nor -g has a finite negative
        # slope, which for a finite gradient cannot happen: the run stops by
        # name, not as converged.
        x, report = minimize(lambda x: (x @ x, np.array([bad, 1.0])), [1.0, 2.0])
        assert report.termination == "no_descent_direction"
        assert report.iterations == 0
        np.testing.assert_array_equal(x, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_non_finite_gradient_spends_no_cg_iteration(self, bad):
        # The same stop with the seed a CG solve: each solve of the bad
        # gradient returns at once, where it ran all n iterations on NaNs.
        A = np.diag(np.linspace(1.0, 2.0, 50))
        infos = []

        def solve(v):
            out, info = cg_solve(A, v)
            infos.append(info)
            return out

        g = np.ones(50)
        g[0] = bad
        x0 = np.ones(50)
        x, report = minimize_lbfgs(lambda x: (x @ x, g), x0, precond_solve=solve)
        assert report.termination == "no_descent_direction"
        assert report.iterations == 0
        assert infos and all(info.iterations == 0 for info in infos)
        np.testing.assert_array_equal(x, x0)


def test_a_small_mesh_smooths_as_at_unit_scale():
    # A random Delaunay mesh at 2**-30: steps are some 1e-18 times those at
    # unit scale, and nlcg needs the zoom on them.
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(25)
    points = np.vstack([rng.random((30, 2)), [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]])
    cells, _ = m.repair_orientation(points, Delaunay(points).simplices)
    config = OptimizeConfig(method="nlcg", max_iters=60)
    unit, small = (
        optimize(m.classify_boundary(m.SimplexMesh(points * scale, cells), m.FIX_ALL), config)[1]
        for scale in (1.0, 2.0**-30)
    )
    assert unit.termination == "grad_tol"
    assert (small.termination, small.iterations) == (unit.termination, unit.iterations)


class TestEnergyPatience:
    """Why a stall is judged over _ENERGY_PATIENCE = 3 steps: near the
    minimum PLBFGS takes single steps, and pairs of steps, whose energy drop
    is below ENERGY_TOL before the gradient has converged. With a shorter
    window this run stops early (after 23 and 24 steps, with the largest
    gradient entry at 3.4e-7 and 9.9e-8); with 3 it reaches grad_tol after
    25. The test shows that 3 is needed here, not that more is never needed.
    """

    @pytest.mark.parametrize(
        "patience, termination",
        [(1, "energy_tol"), (2, "energy_tol"), (3, "grad_tol")],
    )
    def test_shorter_windows_stop_before_the_gradient_converges(
        self, monkeypatch, patience, termination
    ):
        monkeypatch.setattr(optim, "_ENERGY_PATIENCE", patience)
        mesh = jittered_square(8, 0.3, m.SLIDE_PLANAR)
        _, report = optimize(mesh, OptimizeConfig(method="plbfgs"))
        assert report.termination == termination


def counting(monkeypatch, name):
    """Replace rrsmooth.optim.<name> with a wrapper that counts its calls."""
    calls = []
    fn = getattr(optim, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(optim, name, counted)
    return calls


class TestWorkPerIteration:
    @pytest.mark.parametrize(
        "method, name",
        [("fixedpoint", "assemble_preconditioner"), ("pnlcg", "assemble_preconditioner")],
    )
    def test_one_build_per_iteration(self, monkeypatch, method, name):
        mesh = slivered_cube(n=3, count=1)
        calls = counting(monkeypatch, name)
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=6))
        assert report.iterations == 6
        assert len(calls) == report.iterations

    @pytest.mark.parametrize("method", ["lbfgs", "nlcg"])
    def test_the_identity_seed_builds_no_preconditioner(self, monkeypatch, method):
        mesh = slivered_cube(n=3, count=1)
        builds = counting(monkeypatch, "assemble_preconditioner")
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=6))
        assert report.iterations > 0
        assert builds == []

    def test_fixed_point_needs_no_full_block_assembly(self, monkeypatch):
        # The direction comes from the shared P solve, so the blocks B are
        # never assembled and every evaluation is one energy_gradient call.
        mesh = slivered_cube(n=3, count=1)
        assembles = counting(monkeypatch, "assemble")
        evals = counting(monkeypatch, "energy_gradient")
        _, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=6))
        assert report.iterations == 6
        assert len(assembles) == 0
        assert len(evals) == report.fun_evals


def bits(x):
    return np.float64(x).tobytes()


def recording(monkeypatch, module, name):
    """Replace module.<name> with a wrapper that records (args, result) per call."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


def same_stats(a, b):
    """QualityStats equal field by field, bit for bit."""
    return all(
        np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        for name in ("n_cells", "min_q", "max_q", "mean_q", "histogram", "below_threshold_count")
    )


class TestQualityFromTheRun:
    """optimize reads its quality statistics from the evaluations' geometry."""

    @pytest.mark.parametrize(
        "method, make",
        [("lbfgs", lambda: slivered_cube(n=3, count=1)),
         ("fixedpoint", lambda: jittered_square(6, 0.3, m.FIX_ALL))],
        ids=["cube", "square"],
    )
    def test_bits_of_quality_stats(self, method, make):
        mesh = make()
        out, report = optimize(mesh, OptimizeConfig(method=method, max_iters=6))
        assert same_stats(report.quality_before, m.quality_stats(mesh))
        assert same_stats(report.quality_after, m.quality_stats(out))

    def test_a_failed_search_leaves_a_fresh_pass_at_the_result(self, monkeypatch):
        # The third search evaluates a trial and fails twice, so the run
        # returns the point before it, which is not the one evaluated last.
        search, searches = optim.strong_wolfe_search, []

        def failing(phi, f0, df0, **kwargs):
            searches.append(1)
            if len(searches) > 2:
                phi(1e-3)
                raise LineSearchFailed("forced")
            return search(phi, f0, df0, **kwargs)

        monkeypatch.setattr(optim, "strong_wolfe_search", failing)
        passes = recording(monkeypatch, tetrahedra, "geometry")
        mesh = slivered_cube(n=3, count=1)
        out, report = optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=6))
        assert report.termination == "line_search_failed"
        # One pass per evaluation, then two at the returned point, where the
        # kept geometry is the failed trial's: the retry's step cap, and the
        # quality after the run.
        assert len(passes) == report.fun_evals + 2
        assert np.array_equal(passes[-1][0][0], out.cell_coords().T)
        assert same_stats(report.quality_after, m.quality_stats(out))


class TestPreconditionerReuse:
    @pytest.mark.parametrize("method", ["fixedpoint", "plbfgs", "pnlcg"])
    def test_connectivity_is_checked_once_per_run(self, monkeypatch, method):
        mesh = slivered_cube(n=3, count=1)
        checks = recording(monkeypatch, assembly, "is_connected")
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=6))
        assert report.iterations == 6
        assert len(checks) == 1

    def test_one_geometry_pass_per_evaluation(self, monkeypatch):
        # P, the cap and the step record read the geometry of the evaluation
        # at the same point. Inside the descent nothing makes a measure pass
        # of its own.
        passes = {k: recording(monkeypatch, k, "geometry") for k in (triangles, tetrahedra)}
        builds = counting(monkeypatch, "assemble_preconditioner")
        problems, measures, caps, exact, bounds = [], [], [], [], []
        run = optim._run

        def tracked_run(problem, *args):
            problems.append(problem)
            try:
                return run(problem, *args)
            finally:
                problems.append(None)

        def spy(self, fn=m.SimplexMesh.signed_measures):
            if problems and problems[-1] is not None:
                measures.append(self)
            return fn(self)

        monkeypatch.setattr(m.SimplexMesh, "signed_measures", spy)
        cap, bound = optim.max_step_before_inversion, optim.step_lower_bounds

        def kept_bound(mesh, direction, geometry):
            caps.append(geometry is problems[-1].kept[1])
            bounds.append(geometry)
            return bound(mesh, direction, geometry)

        # The exact cap runs after some of the search's trials, which replace
        # the kept geometry: it reads the edges of the one its step's bound
        # read.
        def kept_cap(mesh, direction, edges=None, **kwargs):
            exact.append(edges is bounds[-1].edges)
            return cap(mesh, direction, edges=edges, **kwargs)

        monkeypatch.setattr(optim, "_run", tracked_run)
        monkeypatch.setattr(optim, "step_lower_bounds", kept_bound)
        monkeypatch.setattr(optim, "max_step_before_inversion", kept_cap)
        for method, mesh, kernel in (
            ("plbfgs", slivered_cube(n=3, count=1), tetrahedra),
            ("fixedpoint", jittered_square(6, 0.3, m.FIX_ALL), triangles),
        ):
            for calls in (passes[kernel], builds, caps, exact):
                calls.clear()
            _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=6))
            assert measures == []
            assert len(builds) == report.iterations == 6
            # The quality statistics before and after the run read the first
            # evaluation's geometry and the kept one at the returned point.
            assert len(passes[kernel]) == report.fun_evals
            # One bound per step (no search failed here), each on the kept
            # geometry, and an exact cap on the steps that record its cell.
            assert caps == [True] * report.iterations
            assert exact == [True] * sum(r.cap_cell >= 0 for r in report.records)

    @pytest.mark.parametrize("shape", ["square", "cube"])
    def test_factory_builds_the_fresh_preconditioner(self, monkeypatch, shape):
        # P, the cap and the step record equal the plain public calls bit
        # for bit, at the point evaluated last (the kept geometry) and at
        # another one (a fresh pass).
        mesh = m.classify_boundary(jittered_meshes()[shape], m.FIX_ALL)
        problem = optim.MeshProblem(mesh)
        built = recording(monkeypatch, optim, "assemble_preconditioner")
        x = problem.x0
        other = problem.step(x, problem.project(np.ones_like(x)), 1e-3)
        d = problem.project(np.random.default_rng(3).normal(size=x.shape))
        problem.eval(other)
        problem.eval(x)
        for point in (x, other):
            at = problem.mesh_at(point)
            problem.precond_factory(point)
            fresh = assembly.assemble_preconditioner(at)
            assert built[-1][1].P.data.tobytes() == fresh.P.data.tobytes()
            bound, _ = max_step_before_inversion(at, d.reshape(at.vertices.shape))
            cap = problem.lam_cap(point, d)
            assert cap.bound <= optim.STEP_CAP_FACTOR * bound
            assert bits(cap.value()) == bits(optim.STEP_CAP_FACTOR * bound)
            cell = at.with_vertices(at.vertices + bound * d.reshape(at.vertices.shape))
            binding = np.argmin(np.abs(cell.signed_measures()))
            assert cap.cell == binding
            min_measure = problem.step_metrics(x, point)["min_measure"]
            assert bits(min_measure) == bits(at.signed_measures().min())


    @pytest.mark.parametrize("shape", ["square", "cube"])
    def test_the_lazy_exact_cap_keeps_only_the_edges_alive(self, shape):
        # Once a trial replaces the kept geometry, every field of the one the
        # cap was taken on but its edges is freed (holding the whole geometry
        # raised cube10's first-solve high-water by 2.0 MB), and the exact cap
        # still reads the edges. The first evaluation, at another point, holds
        # the run's start mu.
        mesh = m.classify_boundary(jittered_meshes()[shape], m.FIX_ALL)
        problem = optim.MeshProblem(mesh)
        x = problem.x0
        d = problem.project(np.random.default_rng(3).normal(size=x.shape))
        problem.eval(problem.step(x, d, 1e-3))
        problem.eval(x)
        unread = {
            name: weakref.ref(field)
            for name, field in zip(problem.kept[1]._fields, problem.kept[1])
            if name != "edges"
        }
        cap = problem.lam_cap(x, d)
        problem.eval(problem.step(x, d, 0.5 * cap.bound))
        assert [name for name, ref in unread.items() if ref() is not None] == []
        lam, cell = max_step_before_inversion(mesh, d.reshape(mesh.vertices.shape))
        assert bits(cap.value()) == bits(optim.STEP_CAP_FACTOR * lam)
        assert cap.cell == cell

    @pytest.mark.parametrize(
        "method, shape",
        [("plbfgs", "cube"), ("fixedpoint", "cube"), ("plbfgs", "square"), ("fixedpoint", "square")],
    )
    def test_no_dense_local_matrix_is_built(self, monkeypatch, method, shape):
        # P and G_F's blocks are scatters of edge weights; neither builds a
        # dense local Laplacian.
        mesh = slivered_cube(n=3, count=1) if shape == "cube" else jittered_square(6, 0.3, m.FIX_ALL)
        dense = recording(monkeypatch, simplex, "laplacian")
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=4))
        assert report.iterations == 4
        assert dense == []
        assembly.assemble(mesh)
        assert dense == []


class TestMeshInParts:
    # nlcg, which reads no P, is left out: its unit first trial is not
    # scale-free, and the pair's gradient is half of one part's.
    @pytest.mark.parametrize("method", ["fixedpoint", "lbfgs", "plbfgs", "pnlcg"])
    def test_two_parts_smooth_as_one(self, method):
        one = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), RandomJitter(0.1, seed=1))
        one = perturb_mesh(one, PlantSliver(count=1, eps=0.01))
        two = m.SimplexMesh(np.vstack([one.vertices, one.vertices + [2.0, 0.0, 0.0]]),
                            np.vstack([one.cells, one.cells + one.n_vertices]))
        runs = [optimize(m.classify_boundary(mesh, m.FIX_ALL), OptimizeConfig(method=method))
                for mesh in (one, two)]
        (_, alone), (_, paired) = runs
        assert paired.termination == alone.termination == "grad_tol"
        assert paired.iterations == alone.iterations
        assert paired.quality_after.min_q == pytest.approx(alone.quality_after.min_q, abs=1e-4)

    @pytest.mark.parametrize("method", optim.METHODS)
    def test_a_vertex_no_cell_uses_stays_put(self, method):
        # P leaves such a vertex out, as it leaves out the fixed ones: its
        # gradient row is zero, so the run is the one without it.
        mesh = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), PlantSliver(count=1, eps=0.01))
        extra = m.SimplexMesh(np.vstack([mesh.vertices, [5.0, 5.0, 5.0]]), mesh.cells)
        config = OptimizeConfig(method=method, max_iters=30)
        (_, alone), (out, report) = (optimize(m.classify_boundary(x, m.FIX_ALL), config)
                                     for x in (mesh, extra))
        assert report.termination == alone.termination == "grad_tol"
        assert report.iterations == alone.iterations
        assert report.quality_after.min_q == pytest.approx(alone.quality_after.min_q, abs=1e-4)
        assert out.vertices[-1].tolist() == [5.0, 5.0, 5.0]


class TestRecordedWork:
    @pytest.mark.parametrize("method", optim.METHODS)
    def test_records_carry_the_cap_and_cg_iterations(self, monkeypatch, method):
        mesh = slivered_cube(n=3, count=1)
        solves = recording(monkeypatch, optim, "cg_solve")
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=5))
        assert report.iterations == 5
        assert math.isnan(report.records[0].cap)
        for r in report.records[1:]:
            assert 0.0 < r.lam <= r.cap
        iterations = sum(info.iterations for _, (_, info) in solves)
        assert sum(r.cg_iters for r in report.records) == iterations
        assert (iterations > 0) == (method in ("fixedpoint", "plbfgs", "pnlcg"))
        # Each step's worst relative residual; 0 where no P solve was made.
        residuals = [r.cg_residual for r in report.records]
        assert residuals[0] == 0.0
        assert max(residuals) == max((info.residual for _, (_, info) in solves), default=0.0)
        assert all((0.0 < r <= optim.CG_RTOL) == (iterations > 0) for r in residuals[1:])

    def test_records_mark_the_steps_taken_along_the_fallback(self, monkeypatch):
        # An ascent direction from the two-loop is replaced by -P^-1 g. Step 1
        # has no curvature pair, so its direction is the fallback itself.
        direction = optim._Lbfgs.direction

        def ascent(self, x, g):
            d, is_fallback = direction(self, x, g)
            return (d, True) if is_fallback else (-d, False)

        monkeypatch.setattr(optim._Lbfgs, "direction", ascent)
        mesh = jittered_square(6, 0.3, m.FIX_ALL)
        _, report = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=4))
        assert report.iterations == 4
        assert [r.fallback for r in report.records] == [False, False, True, True, True]

    @pytest.mark.parametrize("method", ["lbfgs", "plbfgs"])
    def test_eval_seconds_fit_in_the_wall_time(self, method):
        mesh = slivered_cube(n=3, count=1)
        start = time.perf_counter()
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=5))
        wall = time.perf_counter() - start
        eval_s = [r.eval_s for r in report.records]
        # Record 0 holds the initial evaluation, every step its line search.
        assert all(t > 0.0 for t in eval_s)
        assert 0.0 < sum(eval_s) <= wall

    def test_function_problems_record_no_eval_seconds(self):
        _, report = minimize_lbfgs(lambda x: (float(x @ x), 2.0 * x), np.ones(3))
        assert all(r.eval_s == r.p_build_s == r.cg_s == r.cap_s == 0.0 for r in report.records)

    @pytest.mark.parametrize("method", optim.METHODS)
    def test_cap_seconds_time_every_cap(self, monkeypatch, method):
        mesh = slivered_cube(n=3, count=1)
        caps = recording(monkeypatch, optim, "max_step_before_inversion")
        start = time.perf_counter()
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=5))
        wall = time.perf_counter() - start
        # A timed lower bound per step (no search failed here), none before
        # the first, and an exact cap on the steps whose record names its cell.
        assert report.iterations == 5
        assert len(caps) == sum(r.cap_cell >= 0 for r in report.records)
        assert report.records[0].cap_s == 0.0
        assert all(r.cap_s > 0.0 for r in report.records[1:])
        # Caps, evaluations, P builds and P solves never overlap.
        fields = ("cap_s", "eval_s", "p_build_s", "cg_s")
        assert sum(getattr(r, f) for r in report.records for f in fields) <= wall

    def test_p_build_and_cg_seconds_fit_in_the_wall_time(self):
        mesh = slivered_cube(n=3, count=1)
        start = time.perf_counter()
        _, report = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=5))
        wall = time.perf_counter() - start
        build = sum(r.p_build_s for r in report.records)
        cg = sum(r.cg_s for r in report.records)
        # One P build and solve per step; none before the first.
        assert report.records[0].p_build_s == report.records[0].cg_s == 0.0
        assert all(r.p_build_s > 0.0 and r.cg_s > 0.0 for r in report.records[1:])
        assert build > 0.0 and cg > 0.0
        assert build + cg + sum(r.eval_s for r in report.records) <= wall

    @pytest.mark.parametrize("method", ["lbfgs", "nlcg"])
    def test_methods_without_p_record_no_p_seconds(self, method):
        mesh = slivered_cube(n=3, count=1)
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=5))
        assert report.iterations == 5
        assert all(r.p_build_s == r.cg_s == 0.0 for r in report.records)


class TestLazyCap:
    """The search reads the exact cap only where a trial passes the lower
    bound, so every trial, and every step, is the one of the eager cap."""

    def counted_cap(self, bound, cap, cell=3):
        calls = []

        def exact():
            calls.append(1)
            return cap, cell

        return optim.StepCap(bound, exact), calls

    @pytest.mark.parametrize("search", ["wolfe", "armijo"])
    @pytest.mark.parametrize(
        "minimum, bound, cap, reads",
        [(1.0, 2.0, 3.0, 0), (1.0, 0.5, 0.8, 1), (50.0, 3.0, 4.0, 1), (50.0, 4.0, 9.0, 1)],
    )
    def test_trials_equal_the_float_caps(self, search, minimum, bound, cap, reads):
        # phi(lam) = (lam - minimum)**2: the first trial, the doubling and the
        # stop at the cap are the float cap's, and the cap is read at most
        # once, only when a trial passes the bound.
        def run(lam_cap):
            trials = []

            def phi(lam):
                trials.append(lam)
                return (lam - minimum) ** 2, 2.0 * (lam - minimum)

            f0, df0 = minimum**2, -2.0 * minimum
            try:
                if search == "wolfe":
                    strong_wolfe_search(phi, f0, df0, lam_cap=lam_cap)
                else:
                    backtracking_search(phi, f0, df0, lam_cap=lam_cap)
            except LineSearchFailed as e:
                trials.append(str(e))
            return trials

        lazy, calls = self.counted_cap(bound, cap)
        assert run(lazy) == run(cap)
        assert len(calls) == (reads if search == "wolfe" or bound < 1.0 else 0)
        assert (lazy.bound, lazy.cell) == ((cap, 3) if calls else (bound, -1))

    @pytest.mark.parametrize(
        "method, shape",
        [("lbfgs", "cube"), ("plbfgs", "cube"), ("nlcg", "cube"), ("fixedpoint", "square"),
         ("plbfgs", "square")],
    )
    def test_lazy_and_eager_caps_take_the_same_steps(self, monkeypatch, method, shape):
        mesh = slivered_cube(n=3, count=1) if shape == "cube" else jittered_square(6, 0.3, m.FIX_ALL)
        config = OptimizeConfig(method=method, max_iters=8)
        out, lazy = optimize(mesh, config)
        lam_cap = optim.MeshProblem.lam_cap

        def eager(problem, x, d):
            cap = lam_cap(problem, x, d)
            cap.value()
            return cap

        monkeypatch.setattr(optim.MeshProblem, "lam_cap", eager)
        eager_out, eager = optimize(mesh, config)
        assert eager_out.vertices.tobytes() == out.vertices.tobytes()
        assert lazy.fun_evals == eager.fun_evals
        for a, b in zip(lazy.records[1:], eager.records[1:], strict=True):
            assert (bits(a.lam), bits(a.F), a.ls_evals) == (bits(b.lam), bits(b.F), b.ls_evals)
            assert b.cap_cell >= 0
            if a.cap_cell >= 0:
                assert (bits(a.cap), a.cap_cell) == (bits(b.cap), b.cap_cell)
            else:
                assert a.lam <= a.cap <= b.cap
        # Some steps never read the exact cap.
        assert any(r.cap_cell < 0 for r in lazy.records[1:])


class TestSlidePlanarSafety:
    @settings(max_examples=12, deadline=None, database=None)
    @given(
        kind=st.sampled_from([SQUARE, CUBE]),
        n=st.integers(2, 5),
        amplitude=st.floats(0.05, 0.3),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(optim.METHODS),
    )
    def test_steps_keep_the_safety_rules(self, kind, n, amplitude, seed, method):
        # A few steps on a small jittered mesh with sliding boundary vertices,
        # then one step along the steepest direction scaled so that its unit
        # trial passes the lower bound: the exact cap is read. No cell
        # inverts, fixed vertices keep their bits and sliding vertices stay
        # in their planes.
        base = gen_mesh(GeneratorSpec(kind, n if kind == SQUARE else min(n, 3)))
        mesh = m.classify_boundary(perturb_mesh(base, RandomJitter(amplitude, seed)),
                                   m.SLIDE_PLANAR)
        with pytest.MonkeyPatch.context() as patch:
            exact = recording(patch, optim, "max_step_before_inversion")
            out, report = optimize(mesh, OptimizeConfig(method=method, max_iters=3))
            assert all(r.min_measure > 0.0 for r in report.records[1:])
            problem = optim.MeshProblem(out)
            x = problem.x0
            f, g = problem.eval(x)
            d = -g * (2.0 * problem.lam_cap(x, -g).bound)
            try:
                x = optim._take_step(problem, x, f, g, d, 0, "wolfe")[0]
            except LineSearchFailed:
                pass
        assert exact
        assert_safe(mesh, problem.mesh_at(x))

    @pytest.mark.parametrize("method", optim.METHODS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", [SQUARE, CUBE])
    def test_turned_inputs_keep_their_planes(self, kind, seed, method):
        # Off the axes the projection is not exact. Each sliding vertex's
        # distance from its start plane is measured directly, in units of the
        # coordinate spread: slide_residual is relative to each vertex's own
        # step and reads up to about 1e-7 on these runs.
        if kind == SQUARE:
            mesh = perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, 8)), RandomJitter(0.3, seed=1))
        else:
            mesh = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 4)), PlantSliver(count=3, eps=0.01))
        axis = m.classify_boundary(mesh, m.SLIDE_PLANAR)
        mesh = m.classify_boundary(turned(mesh, seed), m.SLIDE_PLANAR)
        assert mesh.constraint_kind.tolist() == axis.constraint_kind.tolist()
        out, _ = optimize(mesh, OptimizeConfig(method=method, max_iters=30))
        slide, fixed = mesh.slide_mask(), mesh.fixed_mask()
        disp = out.vertices[slide] - mesh.vertices[slide]
        off_plane = np.abs(np.einsum("ij,ij->i", disp, mesh.slide_normals[slide]))
        assert np.abs(disp).max() > 0.0
        assert off_plane.max() <= 1e-13 * np.ptp(mesh.vertices, axis=0).max()
        assert out.vertices[fixed].tobytes() == mesh.vertices[fixed].tobytes()
        assert np.all(out.signed_measures() > 0.0)


def turned(mesh, seed):
    """The mesh turned by a seeded rotation (det +1) and shifted off the origin."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(mesh.dim, mesh.dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    shift = np.array([0.3, -1.7, 2.2][: mesh.dim])
    return m.SimplexMesh(mesh.vertices @ q.T + shift, mesh.cells)


def assert_safe(mesh, out):
    assert np.all(out.signed_measures() > 0.0)
    fixed = mesh.fixed_mask()
    assert out.vertices[fixed].tobytes() == mesh.vertices[fixed].tobytes()
    slide = mesh.slide_mask()
    disp = out.vertices[slide] - mesh.vertices[slide]
    off_plane = np.abs(np.einsum("ij,ij->i", disp, mesh.slide_normals[slide]))
    assert np.all(off_plane <= 1e-12 * np.linalg.norm(disp, axis=1) + 1e-300)


def contracting_direction():
    """A square n=4 with one near-sliver and a descent direction whose cap is 1/2.

    An interior vertex v is moved 90% of the way to the opposite edge of one
    of its cells; the direction moves v back across its star to the midpoint
    of the opposite edge of the cell facing the other way, which reaches zero
    area at t = 0.5.
    """
    mesh = jittered_square(4, 0.2, m.FIX_ALL)
    v = np.flatnonzero(~mesh.fixed_mask())[4]
    star = np.flatnonzero((mesh.cells == v).any(axis=1))
    verts = mesh.vertices.copy()

    def to_opposite_midpoint(c):
        return verts[[u for u in mesh.cells[c] if u != v]].mean(axis=0) - verts[v]

    to_mid = {c: to_opposite_midpoint(c) for c in star}
    first = star[0]
    facing = min(star, key=lambda c: to_mid[c] @ to_mid[first] / np.linalg.norm(to_mid[c]))
    verts[v] += 0.9 * to_mid[first]
    d = np.zeros_like(verts)
    d[v] = 2.0 * to_opposite_midpoint(facing)
    return mesh.with_vertices(verts), d.ravel()


class TestStepCapFactor:
    """Why the cap is scaled below 1: the bound itself is where a cell reaches
    zero measure, so a first trial there evaluates to inf and is wasted. The
    test shows that some factor below 1 is needed, not that it must be 0.9."""

    @pytest.mark.parametrize("factor", [1.0, 0.9])
    def test_first_trial_at_the_cap(self, monkeypatch, factor):
        mesh, d = contracting_direction()
        bound, _ = max_step_before_inversion(mesh, d.reshape(-1, 2))
        assert bound == pytest.approx(0.5, rel=1e-12)
        monkeypatch.setattr(optim, "STEP_CAP_FACTOR", factor)
        problem = optim.MeshProblem(mesh)
        x = problem.x0
        f, g = problem.eval(x)
        assert g @ d < 0.0
        trials = recording(monkeypatch, problem, "eval")
        _, f_new, _, record = optim._take_step(problem, x, f, g, d, 0, "armijo")
        assert record.cap == factor * bound < 1.0
        # Both searches try min(1, cap) first: the cap itself.
        (first_x,), (first_f, _) = trials[0]
        np.testing.assert_array_equal(first_x, problem.step(x, d, record.cap))
        assert math.isfinite(first_f) == (factor < 1.0)
        assert record.ls_evals == (1 if factor < 1.0 else 2)
        assert f_new < f


class TestConfigValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            OptimizeConfig(method="newton")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_tol", math.nan),
            ("grad_tol_abs", math.inf),
            ("max_iters", -1),
            ("max_iters", 2.5),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizeConfig(**{field: value})

    @pytest.mark.parametrize("field", ["grad_tol", "grad_tol_abs"])
    @pytest.mark.parametrize("value", [True, "1e-8"], ids=repr)
    def test_rejects_a_tolerance_that_is_no_number(self, field, value):
        # True is a Real; unchecked, it reads as a tolerance of 1.
        with pytest.raises(ValueError, match=field):
            OptimizeConfig(**{field: value})

    def test_accepts_numpy_float_tolerances(self):
        config = OptimizeConfig(grad_tol=np.float64(1e-6), grad_tol_abs=np.float32(1e-9))
        assert config.grad_tol == 1e-6

    def test_rejects_a_bool_max_iters(self):
        # True is an Integral; unchecked, it runs one iteration.
        with pytest.raises(ValueError, match="max_iters"):
            OptimizeConfig(max_iters=True)
