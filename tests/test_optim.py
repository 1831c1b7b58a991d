import math
import time

import numpy as np
import pytest
from scipy import sparse

from rrsmooth import assembly, tetrahedra
from rrsmooth import mesh as m
from rrsmooth import optim
from rrsmooth.errors import IndefiniteMatrix, LineSearchFailed
from rrsmooth.generate import (
    CUBE,
    EQUILATERAL,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    SQUARE,
    VertexDisplace,
    gen_mesh,
    perturb_mesh,
)
from rrsmooth.optim import (
    CgInfo,
    FunctionProblem,
    OptimizeConfig,
    _two_loop,
    backtracking_search,
    cg_solve,
    fixed_point_step,
    minimize_lbfgs,
    minimize_nlcg,
    optimize,
    strong_wolfe_search,
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


class TestStrongWolfe:
    def test_quadratic_accepts_unit_step(self):
        def phi(lam):
            return (lam - 1.0) ** 2, 2.0 * (lam - 1.0)

        res = strong_wolfe_search(phi, f0=1.0, df0=-2.0)
        assert res.lam == 1.0
        assert res.evals == 1

    def test_cubic_satisfies_curvature(self):
        c2 = 0.9

        def phi(lam):
            return lam**3 - lam, 3.0 * lam**2 - 1.0

        res = strong_wolfe_search(phi, c2=c2, f0=0.0, df0=-1.0)
        assert abs(3.0 * res.lam**2 - 1.0) <= c2
        assert res.f <= 0.0 + 1e-4 * res.lam * (-1.0)
        # Oracle: dense lambda scan for the Wolfe-acceptable set.
        grid = np.linspace(1e-4, 2.0, 4000)
        ok = ((grid**3 - grid) <= 1e-4 * grid * (-1.0)) & (
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

    def test_underflow_raises(self):
        def phi(lam):
            return 1.0, 0.0  # never satisfies Armijo

        with pytest.raises(LineSearchFailed):
            backtracking_search(phi, f0=0.0, df0=-1.0, lam_min=1e-4)


def quadratic_problem(Q, b=None):
    n = Q.shape[0]
    b = np.zeros(n) if b is None else b

    def fun_grad(x):
        return 0.5 * x @ (Q @ x) - b @ x, Q @ x - b

    return fun_grad


def exact_ls_config(**kw):
    kw.setdefault("grad_tol_abs", 1e-10)
    return OptimizeConfig(method="lbfgs", wolfe_c1=1e-13, wolfe_c2=1e-10, **kw)


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
            d_two_loop = -_two_loop(g, pairs, None)
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
        strategy = optim._Lbfgs(problem, memory=5, precondition=False)
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


class TestLbfgsOnQuadratics:
    def test_converges_within_dimension_plus_two(self, rng):
        for n in (2, 4, 7):
            A = rng.normal(size=(n, n))
            Q = A @ A.T + 0.5 * np.eye(n)
            fun_grad = quadratic_problem(Q)
            x0 = rng.normal(size=n)
            cfg = exact_ls_config(max_iters=n + 2, lbfgs_memory=n + 2)
            x, report = minimize_lbfgs(fun_grad, x0, cfg)
            assert np.linalg.norm(Q @ x, np.inf) <= 1e-10
            assert report.iterations <= n + 2

    def test_skips_tiny_curvature_pairs(self):
        # A flat direction produces y ~ 0; the pair must be dropped, not
        # poison rho.
        Q = np.diag([1.0, 1e-18])
        fun_grad = quadratic_problem(Q)
        cfg = exact_ls_config(max_iters=5, lbfgs_memory=4, grad_tol_abs=1e-9)
        x, report = minimize_lbfgs(fun_grad, np.array([1.0, 1.0]), cfg)
        assert abs(x[0]) < 1e-9


class TestNlcgOnQuadratics:
    def test_two_variable_quadratic_two_iterations(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        fun_grad = quadratic_problem(Q)
        cfg = exact_ls_config(max_iters=3)
        x, report = minimize_nlcg(fun_grad, np.array([1.0, -2.0]), cfg)
        assert np.linalg.norm(Q @ x, np.inf) <= 1e-9
        assert report.iterations <= 2 + 1

    def test_pr_beta_equals_linear_cg_beta(self, rng):
        n = 6
        A = rng.normal(size=(n, n))
        Q = A @ A.T + np.eye(n)
        b = rng.normal(size=n)
        fun_grad = quadratic_problem(Q, b)
        x0 = np.zeros(n)
        cfg = exact_ls_config(max_iters=n, grad_tol_abs=1e-13, grad_tol=1e-13)
        _, report = minimize_nlcg(fun_grad, x0, cfg)
        betas = report.extras["betas"]

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


def perturbed_lattice(n=8):
    mesh = gen_mesh(GeneratorSpec(EQUILATERAL, n))
    interior = np.flatnonzero(
        ~np.isin(np.arange(mesh.n_vertices), np.unique(m.boundary_facets(mesh)[0]))
    )
    a, b = interior[len(interior) // 3], interior[2 * len(interior) // 3]
    d = (0.3 * np.cos(np.pi / 6), 0.3 * np.sin(np.pi / 6))
    moved = perturb_mesh(mesh, VertexDisplace(((int(a), d), (int(b), (-d[0], -d[1])))))
    return m.classify_boundary(moved, m.FIX_ALL)


def slivered_cube(n=4, count=3, eps=0.01, policy=m.FIX_ALL):
    mesh = gen_mesh(GeneratorSpec(CUBE, n))
    mesh = perturb_mesh(mesh, PlantSliver(count=count, eps=eps))
    return m.classify_boundary(mesh, policy)


def jittered_square(n, amplitude, policy):
    mesh = perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, n)), RandomJitter(amplitude, seed=1))
    return m.classify_boundary(mesh, policy)


class TestFixedPoint:
    def test_stationary_mesh_terminates_immediately(self):
        mesh = optimal_square_mesh()
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint"))
        assert report.termination == "grad_tol"
        assert report.iterations <= 1
        np.testing.assert_array_equal(out.vertices, mesh.vertices)

    def test_step_on_stationary_mesh_is_zero(self):
        mesh = optimal_square_mesh()
        d, out, record = fixed_point_step(mesh)
        assert np.abs(d).max() <= 1e-10
        assert record.lam == 0.0 or record.ls_evals <= 2

    def test_perturbed_lattice_recovers_quality(self):
        mesh = perturbed_lattice()
        cfg = OptimizeConfig(method="fixedpoint", max_iters=30)
        out, report = optimize(mesh, cfg)
        stats = m.quality_stats(out)
        assert stats.min_q >= 0.99
        assert report.iterations <= 30

    def test_perturbed_lattice_gradient_convergence(self):
        # Reaches an absolute free-gradient norm of 1e-8 within 30 iterations.
        from rrsmooth.assembly import assemble

        mesh = perturbed_lattice()
        cfg = OptimizeConfig(
            method="fixedpoint", max_iters=30, grad_tol_abs=1e-8, energy_tol=1e-16
        )
        out, report = optimize(mesh, cfg)
        assert report.termination == "grad_tol"
        g = assemble(out).gradient_field()
        assert np.abs(g[out.free_mask()]).max() <= 1e-8

    def test_first_step_decreases_energy_on_sliver_mesh(self):
        mesh = slivered_cube(n=3, count=1)
        from rrsmooth.assembly import assemble

        f0 = assemble(mesh).F
        d, out, record = fixed_point_step(mesh)
        f1 = assemble(out).F
        assert f1 < f0

    def test_monotone_energy(self):
        mesh = perturbed_lattice(6)
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=15))
        energies = [r.F for r in report.records]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("n", [8, 16])
    def test_2d_direction_is_the_frozen_off_diagonal_solve(self, n):
        # Reference: freeze B, solve the diagonal block A on the free rows
        # with the true A acting on the fixed coordinates.
        from rrsmooth.assembly import assemble

        mesh = jittered_square(n, 0.3, m.FIX_ALL)
        system = assemble(mesh)
        (B,) = system.B_blocks
        A = system.A
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
        d, _, _ = fixed_point_step(mesh)
        assert np.linalg.norm(d - ref) <= 1e-6 * np.linalg.norm(ref)

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
        # and with sliding vertices, so -g is never needed.
        mesh = make()
        fallbacks = []
        fallback = optim._FixedPoint.fallback

        def counted(self, g):
            fallbacks.append(1)
            return fallback(self, g)

        monkeypatch.setattr(optim._FixedPoint, "fallback", counted)
        _, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=30))
        assert len(fallbacks) == 0
        if mesh.dim == 3:
            assert report.termination == "grad_tol"


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

    def test_monotone_descent_and_wolfe_flags(self):
        mesh = slivered_cube(n=3, count=1)
        out, report = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=15))
        energies = [r.F for r in report.records]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        for r in report.records[1:]:
            assert r.armijo_ok
            if r.ls_kind == "wolfe":
                assert r.curvature_ok

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
            assert report.grad_evals >= report.iterations

    def test_invalid_mesh_rejected(self):
        from rrsmooth.errors import MeshError

        mesh = slivered_cube(n=3, count=1).copy()
        mesh.cells[0] = mesh.cells[0][[0, 1, 3, 2]]  # invert one cell
        with pytest.raises(MeshError):
            optimize(mesh, OptimizeConfig(method="plbfgs"))

    def test_fixed_point_step_propagates_line_search_failure(self):
        # An ascent-only situation is impossible on a valid mesh, but a cap
        # of effectively zero forces the search to fail and propagate.
        mesh = slivered_cube(n=3, count=1)
        cfg = OptimizeConfig(method="fixedpoint", step_cap_factor=1e-300)
        with pytest.raises(LineSearchFailed):
            fixed_point_step(mesh, config=cfg)

    def test_report_csv_shape(self, tmp_path):
        mesh = perturbed_lattice(6)
        out, report = optimize(mesh, OptimizeConfig(method="fixedpoint", max_iters=10))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "iter,F,grad_norm,lambda,ls_evals,ls_kind,armijo_ok,curvature_ok,"
            "min_measure,slide_residual,cap,cg_iters,eval_s"
        )
        assert len(lines) - 1 == report.iterations + 1
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        # Every record field is written, in full precision.
        last, row = report.records[-1], lines[-1].split(",")
        assert row[5:8] == [last.ls_kind, str(int(last.armijo_ok)), str(int(last.curvature_ok))]
        assert float(row[8]) == last.min_measure
        assert float(row[9]) == last.slide_residual
        # The fixed point solves with P every step, under a finite cap.
        assert float(row[10]) == last.cap and np.isfinite(last.cap)
        assert int(row[11]) == last.cg_iters > 0
        assert float(row[12]) == last.eval_s > 0.0


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
    def test_zero_step_cap_fails_the_line_search(self, meshes, shape, method):
        mesh = m.classify_boundary(meshes[shape], m.FIX_ALL)
        cfg = OptimizeConfig(method=method, step_cap_factor=1e-300)
        out, report = optimize(mesh, cfg)
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
    def test_energy_stall(self, meshes, shape, method):
        mesh = m.classify_boundary(meshes[shape], m.FIX_ALL)
        _, report = optimize(mesh, OptimizeConfig(method=method, energy_tol=0.5))
        assert report.termination == "energy_tol"
        assert report.iterations == 3

    @pytest.mark.parametrize("method", ["lbfgs", "plbfgs"])
    def test_failed_search_is_not_retried_along_the_same_direction(self, meshes, method):
        # With no curvature pairs the quasi-Newton direction already is the
        # steepest one: one evaluation at x0, one failed trial, then stop.
        mesh = m.classify_boundary(meshes["cube"], m.FIX_ALL)
        _, report = optimize(mesh, OptimizeConfig(method=method, step_cap_factor=1e-300))
        assert report.termination == "line_search_failed"
        assert report.fun_evals == 2


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


class TestPreconditionerReuse:
    @pytest.mark.parametrize("method", ["fixedpoint", "plbfgs", "pnlcg"])
    def test_connectivity_is_checked_once_per_run(self, monkeypatch, method):
        mesh = slivered_cube(n=3, count=1)
        checks = recording(monkeypatch, assembly, "is_connected")
        _, report = optimize(mesh, OptimizeConfig(method=method, max_iters=6))
        assert report.iterations == 6
        assert len(checks) == 1

    def test_one_geometry_pass_per_evaluation(self, monkeypatch):
        # P is built from the geometry of the evaluation at the same point.
        mesh = slivered_cube(n=3, count=1)
        passes = recording(monkeypatch, tetrahedra, "geometry")
        builds = counting(monkeypatch, "assemble_preconditioner")
        _, report = optimize(mesh, OptimizeConfig(method="plbfgs", max_iters=6))
        assert len(builds) == report.iterations == 6
        # Plus the quality statistics before and after the run.
        assert len(passes) == report.fun_evals + 2

    @pytest.mark.parametrize("shape", ["square", "cube"])
    def test_factory_builds_the_fresh_preconditioner(self, monkeypatch, shape):
        mesh = m.classify_boundary(jittered_meshes()[shape], m.FIX_ALL)
        problem = optim.MeshProblem(mesh, OptimizeConfig())
        built = recording(monkeypatch, optim, "assemble_preconditioner")
        x = problem.x0
        other = problem.step(x, problem.project(np.ones_like(x)), 1e-3)
        problem.eval(other)
        problem.eval(x)
        for point in (x, other):
            problem.precond_factory(point)
            fresh = assembly.assemble_preconditioner(problem.mesh_at(point))
            assert built[-1][1].P.data.tobytes() == fresh.P.data.tobytes()
        # Only the build at the point evaluated last reads the kept geometry.
        assert [args[2] is not None for args, _ in built] == [True, False]


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
        assert all(r.eval_s == 0.0 for r in report.records)


class TestConfigValidation:
    def test_rejects_bad_wolfe_constants(self):
        with pytest.raises(ValueError):
            OptimizeConfig(wolfe_c1=0.5, wolfe_c2=0.1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            OptimizeConfig(method="newton")

    def test_rejects_zero_memory(self):
        with pytest.raises(ValueError):
            OptimizeConfig(lbfgs_memory=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_tol", math.nan),
            ("grad_tol_abs", math.inf),
            ("energy_tol", -1.0),
            ("lam_min", math.nan),
            ("lam_min", 0.0),
            ("step_cap_factor", 0.0),
            ("step_cap_factor", 1.5),
            ("step_cap_factor", math.nan),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizeConfig(**{field: value})

    def test_accepts_a_full_step_cap(self):
        assert OptimizeConfig(step_cap_factor=1.0).step_cap_factor == 1.0
