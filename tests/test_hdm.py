"""Model-problem surfaces: residuals, Jacobians, solvers, adjoint gradient."""

import numpy as np
import pytest

from conftest import band_to_dense
from sgromtr import kernels
from sgromtr.hdm import (BurgersControl, LinearDiffusion,
                         QueryCounters, SolverError, adjoint_gradient,
                         adjoint_residual, make_problem, primal_sensitivities,
                         solve_adjoint, solve_primal)


def sample_point(problem, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, problem.n_y)
    mu = rng.uniform(-problem.mu_sample_halfwidth, problem.mu_sample_halfwidth,
                     problem.n_mu)
    return y, mu


def restricted_qoi(problem, y, mu):
    sol = solve_primal(problem, y, mu)
    return problem.qoi(sol.u, y, mu)


# ---------------------------------------------------------------------------
# residual and Jacobians
# ---------------------------------------------------------------------------

def test_burgers_zero_data_zero_residual():
    # zero boundary values and zero source annihilate every term
    n = 31
    r = kernels.burgers_residual(np.zeros(n), 0.0, 0.0, 0.05, 1.0 / (n + 1),
                                 np.zeros(n))
    np.testing.assert_array_equal(r, np.zeros(n))


def test_diffusion_residual_is_affine(lin):
    y, mu = sample_point(lin, 1)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(lin.n_u)
    r_u = lin.residual(u, y, mu)
    r_0 = lin.residual(np.zeros(lin.n_u), y, mu)
    a = band_to_dense(*lin.jac_bands(u, y, mu))
    np.testing.assert_allclose(r_u - r_0, a @ u, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("prob_name", ["linear-diffusion", "burgers-control"])
def test_jacobian_taylor_consistency(prob_name, lin, bur):
    problem = lin if prob_name == "linear-diffusion" else bur
    rng = np.random.default_rng(5)
    y, mu = sample_point(problem, 3)
    u = rng.standard_normal(problem.n_u)
    v = rng.standard_normal(problem.n_u)
    jv = problem.jac_u_mul(u, y, mu, v)
    for h in (1e-3, 1e-4):
        lhs = problem.residual(u + h * v, y, mu) - problem.residual(u, y, mu) \
            - h * jv
        # second-order remainder of a Taylor expansion
        assert np.linalg.norm(lhs) <= 10.0 * h**2 * np.linalg.norm(v) ** 2


@pytest.mark.parametrize("prob_name", ["linear-diffusion", "burgers-control"])
def test_jacobian_central_difference(prob_name, lin, bur):
    problem = lin if prob_name == "linear-diffusion" else bur
    rng = np.random.default_rng(7)
    y, mu = sample_point(problem, 11)
    sol = solve_primal(problem, y, mu)
    h = 1e-5
    for _ in range(3):
        v = rng.standard_normal(problem.n_u)
        fd = (problem.residual(sol.u + h * v, y, mu)
              - problem.residual(sol.u - h * v, y, mu)) / (2 * h)
        jv = problem.jac_u_mul(sol.u, y, mu, v)
        assert np.linalg.norm(fd - jv) <= 1e-6 * np.linalg.norm(jv)


def test_dimension_mismatch_rejected(lin):
    with pytest.raises(ValueError):
        lin.residual(np.zeros(10), np.zeros(2), np.zeros(8))
    with pytest.raises(ValueError):
        lin.residual(np.zeros(lin.n_u), np.zeros(3), np.zeros(8))


# ---------------------------------------------------------------------------
# primal solver
# ---------------------------------------------------------------------------

def test_linear_problem_one_newton_step(lin):
    y, mu = sample_point(lin, 13)
    sol = solve_primal(lin, y, mu)
    assert sol.newton_iters == 1


def test_burgers_zero_data_solution_is_zero():
    class ZeroInflow(BurgersControl):
        def bc_left(self, y):
            return 0.0

    prob = ZeroInflow()
    sol = solve_primal(prob, np.zeros(2), np.zeros(8))
    np.testing.assert_allclose(sol.u, np.zeros(prob.n_u), atol=1e-12)


def test_burgers_mesh_self_convergence():
    # second-order scheme: the coarse/fine discrepancy restricted to
    # shared nodes shrinks by ~4x per refinement
    y = np.array([0.2, -0.3])
    mu = np.full(8, 0.2)
    sols = {}
    for n in (63, 127, 255):
        p = BurgersControl(n_u=n, ref_level=1)
        sols[n] = solve_primal(p, y, mu).u
    err_coarse = np.max(np.abs(sols[63] - sols[127][1::2]))
    err_fine = np.max(np.abs(sols[127] - sols[255][1::2]))
    assert err_fine <= 0.35 * err_coarse


def test_primal_failure_carries_last_iterate(bur):
    with pytest.raises(SolverError) as err:
        solve_primal(bur, np.array([1.0, 0.0], dtype=float), np.zeros(8),
                     max_iters=1)
    assert err.value.u is not None
    assert err.value.residual_norm > 0


class CorruptFirstRow(LinearDiffusion):
    """Linear diffusion whose Jacobian's first row is ``(pivot, 0, ..., 0)``."""

    def __init__(self, pivot, **kwargs):
        super().__init__(**kwargs)
        self.pivot = pivot

    def jac_bands(self, u, y, mu):
        lo, dg, up = super().jac_bands(u, y, mu)
        dg[0], up[0] = self.pivot, 0.0
        return lo, dg, up


@pytest.mark.parametrize("pivot", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_jacobian_is_solver_error(tmp_path, monkeypatch, lin, pivot):
    # a zero pivot or a non-finite solution ends each linear solve as a
    # SolverError, which a run reports with exit 3 and error.txt
    from sgromtr import config
    from sgromtr.cli import EXIT_SOLVER_FAILURE, run_optimize

    prob = CorruptFirstRow(pivot)
    y, mu = sample_point(prob, 59)
    with pytest.raises(SolverError, match="Newton did not converge") as err:
        solve_primal(prob, y, mu)
    assert err.value.u is not None
    u = solve_primal(lin, y, mu).u
    with pytest.raises(SolverError, match="singular"):
        solve_adjoint(prob, u, y, mu)
    with pytest.raises(SolverError, match="singular"):
        primal_sensitivities(prob, u, y, mu)

    monkeypatch.setattr(config, "make_problem",
                        lambda name, **kwargs: CorruptFirstRow(pivot, **kwargs))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[run]\nproblem = linear-diffusion\n"
                        "[init]\nmu0 = 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n")
    out = tmp_path / "singular"
    assert run_optimize(config.load_config(cfg_path), out) == EXIT_SOLVER_FAILURE
    assert (out / "error.txt").read_text().startswith(
        "SolverError: Newton did not converge after 0 iterations")


def test_counters_track_newton_iterations(bur):
    counters = QueryCounters()
    y, mu = sample_point(bur, 17)
    sol = solve_primal(bur, y, mu, counters=counters)
    assert counters.n_hp == 1
    assert counters.newton_iters == max(sol.newton_iters, 1)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def test_adjoint_residual_definition(bur):
    y, mu = sample_point(bur, 19)
    sol = solve_primal(bur, y, mu)
    adj = solve_adjoint(bur, sol.u, y, mu)
    res = adjoint_residual(bur, adj.lam, sol.u, y, mu)
    assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(bur.qoi_u(sol.u, y, mu)))


def test_adjoint_residual_zero_when_qoi_flat(bur):
    # at u = ref the tracking gradient vanishes, so lambda = 0 solves it
    y, mu = np.zeros(2), np.zeros(8)
    res = adjoint_residual(bur, np.zeros(bur.n_u), bur.ref, y, mu)
    np.testing.assert_allclose(res, np.zeros(bur.n_u), atol=1e-14)
    adj = solve_adjoint(bur, bur.ref, y, mu)
    np.testing.assert_allclose(adj.lam, np.zeros(bur.n_u), atol=1e-12)


def test_qoi_u_matches_finite_differences(bur):
    y, mu = sample_point(bur, 23)
    rng = np.random.default_rng(29)
    u = bur.ref + 0.1 * rng.standard_normal(bur.n_u)
    g = bur.qoi_u(u, y, mu)
    h = 1e-6
    for j in (0, bur.n_u // 2, bur.n_u - 1):
        e = np.zeros(bur.n_u)
        e[j] = h
        fd = (bur.qoi(u + e, y, mu) - bur.qoi(u - e, y, mu)) / (2 * h)
        assert abs(fd - g[j]) <= 1e-6 * (1 + abs(g[j]))


def test_diffusion_adjoint_self_adjoint(lin):
    y, mu = sample_point(lin, 31)
    sol = solve_primal(lin, y, mu)
    a = band_to_dense(*lin.jac_bands(sol.u, y, mu))
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    adj = solve_adjoint(lin, sol.u, y, mu)
    lam = np.linalg.solve(a, lin.qoi_u(sol.u, y, mu))
    np.testing.assert_allclose(adj.lam, lam, rtol=1e-10)


# ---------------------------------------------------------------------------
# adjoint gradient
# ---------------------------------------------------------------------------

def test_regularizer_gradient_component(lin):
    # alpha = 0.1 on the quadratic penalty: with a zero adjoint the
    # gradient reduces to the regularizer slope
    mu = np.eye(8)[0]
    g = adjoint_gradient(lin, np.zeros(lin.n_u), np.zeros(lin.n_u),
                         np.zeros(2), mu)
    np.testing.assert_allclose(g, 0.1 * mu, atol=1e-15)


def test_gradient_zero_without_parameter_coupling():
    prob = LinearDiffusion(alpha=0.0)
    g = adjoint_gradient(prob, np.zeros(prob.n_u), np.ones(prob.n_u),
                         np.zeros(2), np.ones(8))
    np.testing.assert_array_equal(g, np.zeros(8))


@pytest.mark.parametrize("cls", [LinearDiffusion, BurgersControl],
                         ids=lambda c: f"{c.name}-{c.fd_gradient_tol:g}")
def test_adjoint_gradient_vs_fd(cls, lin, bur):
    problem = lin if cls is LinearDiffusion else bur
    rng = np.random.default_rng(37)
    h = 1e-5
    for _ in range(5):
        y = rng.uniform(-1, 1, 2)
        mu = rng.uniform(-problem.mu_sample_halfwidth,
                         problem.mu_sample_halfwidth, 8)
        sol = solve_primal(problem, y, mu)
        adj = solve_adjoint(problem, sol.u, y, mu)
        g = adjoint_gradient(problem, adj.lam, sol.u, y, mu)
        gfd = np.array([
            (restricted_qoi(problem, y, mu + h * e)
             - restricted_qoi(problem, y, mu - h * e)) / (2 * h)
            for e in np.eye(8)])
        assert (np.linalg.norm(g - gfd)
                <= problem.fd_gradient_tol * np.linalg.norm(gfd))


# ---------------------------------------------------------------------------
# sensitivities
# ---------------------------------------------------------------------------

def test_sensitivity_solves_load_system(lin):
    y, mu = sample_point(lin, 41)
    sol = solve_primal(lin, y, mu)
    s0 = primal_sensitivities(lin, sol.u, y, mu)[:, 0]
    a = band_to_dense(*lin.jac_bands(sol.u, y, mu))
    np.testing.assert_allclose(a @ s0, lin.source_basis[:, 0],
                               rtol=1e-10, atol=1e-10)


def test_sensitivity_fd_consistency(bur):
    y, mu = sample_point(bur, 43)
    sol = solve_primal(bur, y, mu)
    sens = primal_sensitivities(bur, sol.u, y, mu)
    h = 1e-5
    for j in (0, 4):
        e = np.zeros(8)
        e[j] = h
        fd = (restricted_qoi(bur, y, mu + e)
              - restricted_qoi(bur, y, mu - e)) / (2 * h)
        pred = float(bur.qoi_u(sol.u, y, mu) @ sens[:, j]
                     + bur.qoi_mu(sol.u, y, mu)[j])
        assert abs(fd - pred) <= 1e-5 * (1 + abs(fd))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_determinism(bur):
    y, mu = sample_point(bur, 47)
    u1 = solve_primal(bur, y, mu).u
    u2 = solve_primal(bur, y, mu).u
    np.testing.assert_array_equal(u1, u2)


def test_make_problem():
    assert isinstance(make_problem("linear-diffusion"), LinearDiffusion)
    assert isinstance(make_problem("burgers-control", n_u=31), BurgersControl)
    with pytest.raises(ValueError):
        make_problem("heat-3d")

