"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete. Optimization runs are shared between criteria through
module-scoped fixtures and re-checked by the cross-cutting criteria
(line-search conditions, safety invariants, report fidelity).
"""

import io
import time

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from rrsmooth import mesh as m
from rrsmooth import tetrahedra, triangles
from rrsmooth.assembly import assemble_preconditioner, energy_gradient
from rrsmooth.generate import (
    CUBE,
    EQUILATERAL,
    SQUARE,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    gen_mesh,
    perturb_mesh,
)
from rrsmooth.meshio import load_mesh, save_mesh
from rrsmooth.optim import (
    WOLFE_C2, OptimizeConfig, _two_loop, cg_solve, optimize,
)

from conftest import (
    assert_spd_structure, central_diff, minimize_nlcg, perturbed_lattice, random_tets,
    random_triangles, record_betas, spy_wolfe,
)

# Completed optimization runs: name -> (mesh_in, mesh_out, report), and the
# (df0, result) of every strong-Wolfe search they made.
RUNS = {}
WOLFE_SEARCHES = []


def run(name, mesh, config):
    """optimize, kept in RUNS with its strong-Wolfe searches."""
    with pytest.MonkeyPatch.context() as mp:
        searches = spy_wolfe(mp)
        out, report = optimize(mesh, config)
    RUNS[name] = (mesh, out, report)
    WOLFE_SEARCHES.extend(searches)
    return out, report


def note(criterion, message):
    print(f"\n[acceptance] criterion {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def lattice_run():
    mesh = perturbed_lattice()
    t0 = time.monotonic()
    config = OptimizeConfig(method="fixedpoint", max_iters=30)
    out, report = run("fixedpoint-lattice", mesh, config)
    elapsed = time.monotonic() - t0
    return mesh, out, report, elapsed


@pytest.fixture(scope="module")
def sliver_mesh():
    mesh = gen_mesh(GeneratorSpec(CUBE, 6))
    mesh = perturb_mesh(mesh, PlantSliver(count=5, eps=0.01))
    return m.classify_boundary(mesh, m.FIX_ALL)


@pytest.fixture(scope="module")
def sliver_runs(sliver_mesh):
    runs = {}
    for method in ("plbfgs", "lbfgs", "pnlcg", "nlcg"):
        t0 = time.monotonic()
        out, report = run(
            f"{method}-slivercube", sliver_mesh, OptimizeConfig(method=method, max_iters=50)
        )
        elapsed = time.monotonic() - t0
        runs[method] = (out, report, elapsed)
    return runs


@pytest.fixture(scope="module")
def slide_run():
    mesh = gen_mesh(GeneratorSpec(CUBE, 4))
    mesh = perturb_mesh(mesh, PlantSliver(count=2, eps=0.02))
    mesh = m.classify_boundary(mesh, m.SLIDE_PLANAR)
    out, report = run("plbfgs-slideplanar", mesh, OptimizeConfig(method="plbfgs", max_iters=25))
    return mesh, out, report


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()

    tris = random_triangles(500, seed=101)
    tri_grads = triangles.gradient(triangles.geometry(tris))
    worst_tri = 0.0
    for P, g in zip(tris, tri_grads):
        h = 1e-6 * np.ptp(P, axis=0).max()
        gfd = central_diff(lambda Q: triangles.geometry(Q[None]).mu[0], P, h)
        worst_tri = max(worst_tri, np.linalg.norm(g - gfd) / np.linalg.norm(gfd))
    assert worst_tri <= 1e-6

    tets = random_tets(500, seed=102)
    tet_grads = tetrahedra.gradient(tetrahedra.geometry(tets))
    worst_tet = 0.0
    for P, g in zip(tets, tet_grads):
        h = 1e-6 * np.ptp(P, axis=0).max()
        gfd = central_diff(lambda Q: tetrahedra.geometry(Q[None]).mu[0], P, h)
        worst_tet = max(worst_tet, np.linalg.norm(g - gfd) / np.linalg.norm(gfd))
    assert worst_tet <= 1e-6

    worst_mesh = 0.0
    for kind, n, seed in ((SQUARE, 7, 11), (EQUILATERAL, 6, 12), (CUBE, 4, 13)):
        mesh = perturb_mesh(
            gen_mesh(GeneratorSpec(kind, n)), RandomJitter(amplitude=0.2, seed=seed)
        )
        mesh = m.classify_boundary(mesh, m.FIX_ALL)
        assert mesh.n_vertices <= 500
        _, g, _ = energy_gradient(mesh)
        h = 1e-6 * mesh.mean_edge_length()
        free = np.flatnonzero(~mesh.fixed_mask())
        gfd = np.zeros_like(g)
        for v in free:
            for d in range(mesh.dim):
                up = mesh.vertices.copy()
                up[v, d] += h
                dn = mesh.vertices.copy()
                dn[v, d] -= h
                gfd[v, d] = (
                    energy_gradient(mesh.with_vertices(up))[0]
                    - energy_gradient(mesh.with_vertices(dn))[0]
                ) / (2 * h)
        rel = np.linalg.norm(g[free] - gfd[free]) / np.linalg.norm(gfd[free])
        worst_mesh = max(worst_mesh, rel)
    assert worst_mesh <= 1e-6

    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    note(
        1,
        f"500+500 element gradients (worst rel {max(worst_tri, worst_tet):.2e}) and "
        f"3 assembled meshes (worst rel {worst_mesh:.2e}) match finite differences "
        f"in {elapsed:.1f}s",
    )


def test_criterion_2_stationarity():
    mesh = m.classify_boundary(gen_mesh(GeneratorSpec(EQUILATERAL, 8)), m.FIX_ALL)
    _, g, _ = energy_gradient(mesh)
    gnorm = np.abs(g[~mesh.fixed_mask()]).max()
    assert gnorm <= 1e-10
    iteration_counts = {}
    for method in ("fixedpoint", "lbfgs", "plbfgs", "nlcg", "pnlcg"):
        out, report = optimize(mesh, OptimizeConfig(method=method))
        assert report.iterations <= 1
        assert report.termination == "grad_tol"
        iteration_counts[method] = report.iterations
    note(
        2,
        f"free-gradient inf-norm {gnorm:.2e} <= 1e-10; iterations per method "
        f"{iteration_counts}",
    )


def test_criterion_3_fixed_point_recovery(lattice_run):
    mesh, out, report, elapsed = lattice_run
    before = m.quality_stats(mesh)
    after = m.quality_stats(out)
    assert before.min_q < 0.9
    assert report.iterations <= 30
    assert after.min_q >= 0.99
    assert elapsed <= 5.0
    note(
        3,
        f"fixed-point: min q {before.min_q:.4f} -> {after.min_q:.6f} in "
        f"{report.iterations} iterations ({elapsed:.2f}s)",
    )


def test_criterion_4_sliver_elimination(sliver_mesh, sliver_runs):
    before = m.quality_stats(sliver_mesh)
    assert sliver_mesh.n_cells == 6 * 6**3
    assert before.min_q < 0.05
    assert before.below_threshold_count >= 5
    out, report, elapsed = sliver_runs["plbfgs"]
    after = m.quality_stats(out)
    assert report.iterations <= 50
    assert after.min_q >= 0.2
    reduction = 1.0 - after.below_threshold_count / before.below_threshold_count
    assert reduction >= 0.9
    assert elapsed <= 120.0
    note(
        4,
        f"PLBFGS on 6x6^3 cube with 5 slivers: min q {before.min_q:.4f} -> "
        f"{after.min_q:.4f}, q<0.3 count {before.below_threshold_count} -> "
        f"{after.below_threshold_count} ({reduction:.0%} reduction) in "
        f"{report.iterations} iterations ({elapsed:.1f}s)",
    )


def test_criterion_5_spd_preconditioner():
    rng = np.random.default_rng(55)
    checked = 0
    audited_dofs = []
    cases = [
        (EQUILATERAL, 4, m.FIX_ALL),
        (EQUILATERAL, 8, m.FIX_ALL),
        (SQUARE, 4, m.FIX_ALL),
        (SQUARE, 6, m.FIX_ALL),
        (CUBE, 2, m.FIX_ALL),
        (CUBE, 3, m.FIX_ALL),
        (CUBE, 4, m.FIX_ALL),
        (CUBE, 3, m.SLIDE_PLANAR),
    ]
    for kind, n, policy in cases:
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(kind, n)), policy)
        pre = assemble_preconditioner(mesh)
        assert_spd_structure(pre.P)
        b = rng.normal(size=pre.n)
        x, info = cg_solve(pre.P, b, tol=1e-10, max_iters=pre.n)
        assert info.converged and info.iterations <= pre.n
        if pre.n <= 300:
            lu = splu(pre.P.tocsc())
            v = np.ones(pre.n)
            v /= np.linalg.norm(v)
            lam = None
            for _ in range(500):
                v = lu.solve(v)
                v /= np.linalg.norm(v)
                lam_new = float(v @ (pre.P @ v))
                if lam is not None and abs(lam_new - lam) <= 1e-12 * abs(lam_new):
                    lam = lam_new
                    break
                lam = lam_new
            assert lam > 0.0
            audited_dofs.append((pre.n, lam))
        checked += 1
    note(
        5,
        f"{checked} generated meshes audited: symmetric, weakly dominant, CG "
        f"converged at 1e-10; smallest eigenvalues via inverse power iteration "
        f"all positive on {len(audited_dofs)} instances <= 300 DOFs",
    )


def test_criterion_6_preconditioning_efficiency(sliver_runs):
    ratios = {}
    for pre_name, plain_name in (("plbfgs", "lbfgs"), ("pnlcg", "nlcg")):
        out_p, rep_p, _ = sliver_runs[pre_name]
        out_u, rep_u, _ = sliver_runs[plain_name]
        ratio = rep_p.fun_evals / rep_u.fun_evals
        assert ratio <= 0.8
        q_p = m.quality_stats(out_p).min_q
        q_u = m.quality_stats(out_u).min_q
        assert q_p >= q_u - 0.01
        ratios[f"{pre_name}/{plain_name}"] = round(ratio, 3)
    note(6, f"evaluation ratios {ratios} (<= 0.8) with final min q within 0.01")


def test_criterion_7_optimizer_identities(
    lattice_run, sliver_runs, slide_run, exact_line_search, monkeypatch
):
    # Two-loop recursion vs dense BFGS on a small quadratic.
    rng = np.random.default_rng(77)
    n = 9
    A = rng.normal(size=(n, n))
    Q = A @ A.T + n * np.eye(n)
    x = rng.normal(size=n)
    H = np.eye(n)
    pairs = []
    worst_dir = 0.0
    for _ in range(n):
        g = Q @ x
        if np.linalg.norm(g) < 1e-13:
            break
        d_dense = -H @ g
        d_two = -_two_loop(g, pairs, lambda v: v)
        worst_dir = max(
            worst_dir, np.linalg.norm(d_dense - d_two) / np.linalg.norm(d_dense)
        )
        lam = -(g @ d_dense) / (d_dense @ (Q @ d_dense))
        x_new = x + lam * d_dense
        s, y = x_new - x, Q @ x_new - g
        rho = 1.0 / (y @ s)
        V = np.eye(n) - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
        pairs.append((s, y, rho))
        x = x_new
    assert worst_dir <= 1e-8

    # Polak-Ribiere beta equals the linear CG beta on a quadratic.
    nq = 6
    A = rng.normal(size=(nq, nq))
    Q = A @ A.T + np.eye(nq)
    b = rng.normal(size=nq)
    cfg = OptimizeConfig(method="nlcg", grad_tol=1e-13, grad_tol_abs=1e-13, max_iters=nq)
    betas = record_betas(monkeypatch)
    minimize_nlcg(lambda v: (0.5 * v @ (Q @ v) - b @ v, Q @ v - b), np.zeros(nq), cfg)
    xk = np.zeros(nq)
    r = b.copy()
    p = r.copy()
    worst_beta = 0.0
    for ours in betas[:-1]:
        alpha = (r @ r) / (p @ (Q @ p))
        xk = xk + alpha * p
        r_new = r - alpha * (Q @ p)
        beta_cg = (r_new @ r_new) / (r @ r)
        worst_beta = max(worst_beta, abs(ours - beta_cg) / max(1.0, abs(beta_cg)))
        p = r_new + beta_cg * p
        r = r_new
    assert worst_beta <= 1e-10

    # Every accepted step met Armijo, so no step raised the energy, and every
    # accepted Wolfe step meets the strong curvature condition.
    steps = wolfe_steps = 0
    for name, (_, _, report) in RUNS.items():
        for prev, rec in zip(report.records, report.records[1:]):
            assert rec.F <= prev.F, f"{name}: energy rose at iteration {rec.index}"
            wolfe_steps += rec.ls_kind == "wolfe"
            steps += 1
    assert len(WOLFE_SEARCHES) == wolfe_steps > 0
    for df0, res in WOLFE_SEARCHES:
        assert abs(res.df) <= -WOLFE_C2 * df0
    note(
        7,
        f"two-loop vs dense BFGS rel err {worst_dir:.2e}; PR-beta vs CG beta "
        f"{worst_beta:.2e}; descent verified on {steps} accepted steps and the "
        f"curvature condition on their {wolfe_steps} Wolfe steps "
        f"across {len(RUNS)} runs",
    )


def test_criterion_8_safety_invariants(lattice_run, sliver_runs, slide_run):
    checked_steps = 0
    for name, (mesh_in, mesh_out, report) in RUNS.items():
        for rec in report.records[1:]:
            assert rec.min_measure > 0.0, f"{name}: inverted cell at {rec.index}"
            assert rec.slide_residual <= 1e-12, f"{name}: slide drift at {rec.index}"
            checked_steps += 1
        fixed = mesh_in.fixed_mask()
        assert (
            mesh_out.vertices[fixed].tobytes() == mesh_in.vertices[fixed].tobytes()
        ), f"{name}: fixed vertices moved"
        assert np.all(mesh_out.signed_measures() > 0.0)
    mesh_in, mesh_out, _ = slide_run
    slide = mesh_in.slide_mask()
    disp = mesh_out.vertices[slide] - mesh_in.vertices[slide]
    norms = np.linalg.norm(disp, axis=1)
    dots = np.abs(np.einsum("ij,ij->i", disp, mesh_in.slide_normals[slide]))
    moved = norms > 0
    assert moved.any()
    assert np.all(dots[moved] <= 1e-12 * norms[moved])
    note(
        8,
        f"{checked_steps} accepted steps kept all measures positive; fixed "
        f"vertices bit-identical; {int(moved.sum())} sliding vertices stayed "
        f"in-plane to 1e-12",
    )


def test_criterion_9_io_fidelity(tmp_path, lattice_run, sliver_runs, slide_run):
    # Native round trip is byte-exact, including constraint tags.
    mesh = RUNS["plbfgs-slideplanar"][1]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_mesh(mesh, p1)
    save_mesh(load_mesh(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # MSH 2.2: load -> save -> load preserves connectivity and coordinates.
    src = tmp_path / "c.msh"
    save_mesh(RUNS["plbfgs-slivercube"][1], src)
    first = load_mesh(src)
    dst = tmp_path / "d.msh"
    save_mesh(first, dst)
    second = load_mesh(dst)
    assert np.array_equal(first.cells, second.cells)
    assert np.array_equal(first.vertices, second.vertices)

    # Every run's CSV report has non-increasing energy.
    for name, (_, _, report) in RUNS.items():
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "iter,F,grad_norm,lambda,ls_evals,ls_kind,min_measure,"
            "slide_residual,cap,cap_cell,cg_iters,cg_residual,fallback,"
            "eval_s,p_build_s,cg_s,cap_s"
        )
        F = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(F) == report.iterations + 1
        assert all(b <= a + 1e-15 for a, b in zip(F, F[1:]))
    note(
        9,
        f"native round trip byte-exact; MSH round trip exact to 17 significant "
        f"digits; {len(RUNS)} CSV reports all non-increasing in F",
    )
