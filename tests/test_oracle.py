"""Finite-difference, tensor-quadrature, and baseline-optimizer oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import quadratic_minimizer, stub_tensor_reference
from sgromtr.cli import validation_seed_basis
from sgromtr import hdm, oracle
from sgromtr.hdm import (LinearDiffusion, QueryCounters, SolverError,
                         adjoint_gradient, solve_adjoint, solve_primal)
from sgromtr.oracle import (cost_metric, fd_gradient, sg_iso_baseline,
                            tensor_reference, validate_bounds)
from sgromtr.rom import ReducedBasis
from sgromtr.sparse_grid import MultiIndexSet, assemble, integrate, tensor_nodes


# ---------------------------------------------------------------------------
# finite-difference gradient
# ---------------------------------------------------------------------------

def test_fd_matches_adjoint_gradient(lin):
    rng = np.random.default_rng(51)
    for _ in range(20):
        y = rng.uniform(-1, 1, 2)
        mu = rng.uniform(-1, 1, 8)
        sol = solve_primal(lin, y[None], mu)
        lam = solve_adjoint(lin, sol.u, y[None], mu)
        g = adjoint_gradient(lin, lam, sol.u, y[None], mu)[0]
        gfd = fd_gradient(lin, y, mu, h=1e-5)
        assert np.linalg.norm(g - gfd) <= 1e-6 * np.linalg.norm(gfd)


def test_fd_on_pure_regularizer():
    # with a state-independent tracking error the restricted QoI keeps
    # only the quadratic penalty up to O(h^2)
    prob = LinearDiffusion(kappa_amp=(0.0, 0.0))
    prob.ref = np.zeros(prob.n_u)
    prob.source_basis = np.zeros_like(prob.source_basis)  # r independent of mu
    mu = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 0.0, 3.0])
    gfd = fd_gradient(prob, np.zeros(2), mu, h=1e-5)
    np.testing.assert_allclose(gfd, prob.alpha * mu, atol=1e-9)


def test_fd_error_v_shape(bur):
    # central differences: truncation shrinks then roundoff takes over
    y = np.array([0.3, -0.2])
    mu = np.full(8, 0.2)
    sol = solve_primal(bur, y[None], mu)
    lam = solve_adjoint(bur, sol.u, y[None], mu)
    g = adjoint_gradient(bur, lam, sol.u, y[None], mu)[0]
    errs = {h: np.linalg.norm(fd_gradient(bur, y, mu, h=h) - g)
            for h in (1e-3, 1e-5, 1e-8)}
    assert errs[1e-5] < errs[1e-3]
    assert errs[1e-5] < errs[1e-8]


def test_fd_rejects_bad_step(lin):
    with pytest.raises(ValueError):
        fd_gradient(lin, np.zeros(2), np.zeros(8), h=0.0)


# ---------------------------------------------------------------------------
# tensor reference
# ---------------------------------------------------------------------------

def test_level_one_is_single_mean_node(lin):
    mu = np.full(8, 0.2)
    j1, g1 = tensor_reference(lin, mu, 1)
    y = np.zeros((1, 2))
    sol = solve_primal(lin, y, mu)
    lam = solve_adjoint(lin, sol.u, y, mu)
    assert j1 == pytest.approx(lin.qoi(sol.u, y, mu)[0])
    np.testing.assert_allclose(g1, adjoint_gradient(lin, lam, sol.u, y, mu)[0])


def test_tensor_matches_rectangular_sparse_assembly(lin):
    mu = np.full(8, 0.2)
    for level in (2, 3):
        j_t, _ = tensor_reference(lin, mu, level)
        rect = MultiIndexSet.from_indices(
            [(i, j) for i in range(1, level + 1) for j in range(1, level + 1)])
        quad = assemble(rect)

        def f_node(y):
            sol = solve_primal(lin, y[None], mu)
            return lin.qoi(sol.u, y[None], mu)[0]

        assert abs(j_t - integrate(quad, f_node)) <= 1e-12


def test_tensor_polynomial_exactness():
    # the quadrature path is exercised through a polynomial "QoI" whose
    # analytic expectation is a product of uniform moments
    class PolyQoI(LinearDiffusion):
        def qoi(self, u, y, mu):
            return y[..., 0] ** 4 * y[..., 1] ** 2

        def qoi_u(self, u, y, mu):
            return np.zeros(u.shape)

        def qoi_mu(self, u, y, mu):
            return np.zeros(self.n_mu)

    prob = PolyQoI(n_u=15)
    j3, _ = tensor_reference(prob, np.zeros(8), 3)
    assert j3 == pytest.approx((1 / 5) * (1 / 3), abs=1e-10)


def test_tensor_self_convergence(lin):
    mu = np.full(8, 0.2)
    j4, _ = tensor_reference(lin, mu, 4)
    j5, _ = tensor_reference(lin, mu, 5)
    assert abs(j5 - j4) <= 1e-9 * (1 + abs(j5))


def test_tensor_reference_equals_node_loop(bur):
    # the stacked solves and node_sum give, bit for bit, what stacks of
    # one summed node by node give: the objective, the gradient, the
    # counters and the Burgers tracking target
    mu = np.linspace(-0.3, 0.3, 8)
    counters = QueryCounters()
    j_stack, g_stack = tensor_reference(bur, mu, 3, counters=counters)
    _, nodes, weights = tensor_nodes((3, 3))
    loop = QueryCounters()
    j_val, grad, mean = 0.0, np.zeros(8), np.zeros(bur.n_u)
    for y, w in zip(nodes[:, None], weights):
        prim = solve_primal(bur, y, mu)
        loop.count_primals(prim)
        lam = solve_adjoint(bur, prim.u, y, mu)
        loop.n_ha += 1
        j_val += w * bur.qoi(prim.u, y, mu)[0]
        grad += w * adjoint_gradient(bur, lam, prim.u, y, mu)[0]
        mean += w * solve_primal(bur, y, np.zeros(8)).u[0]
    assert j_stack == j_val
    np.testing.assert_array_equal(g_stack, grad)
    assert counters.snapshot() == loop.snapshot()
    np.testing.assert_array_equal(bur.ref, mean)     # ref_level 3


def test_tensor_reference_starts_from_its_warm_map(bur):
    # a second evaluation at a nearby mu starts every node from its solve
    # at the first: fewer Newton steps than a cold start, the same J
    mu = np.full(8, 0.1)
    warm = {}
    tensor_reference(bur, mu, 3, warm=warm)
    near = mu + 1e-3
    c_warm, c_cold = QueryCounters(), QueryCounters()
    j_warm, _ = tensor_reference(bur, near, 3, counters=c_warm, warm=warm)
    j_cold, _ = tensor_reference(bur, near, 3, counters=c_cold)
    assert c_warm.n_hp == c_cold.n_hp == 25
    assert c_warm.newton_iters < c_cold.newton_iters
    assert abs(j_warm - j_cold) <= 1e-10


def test_failed_tensor_reference_moves_no_counter(bur, monkeypatch):
    # a solve is tallied only once it returns
    monkeypatch.setattr(hdm, "NEWTON_MAX_ITERS", 0)
    counters = QueryCounters()
    with pytest.raises(SolverError):
        tensor_reference(bur, np.zeros(8), 2, counters=counters)
    assert counters == QueryCounters()


def test_failed_adjoint_moves_no_counter_and_keeps_warm_states(bur, monkeypatch):
    # a primal stack whose adjoint fails is not tallied either, and the
    # next evaluation starts from the states of the last that returned
    warm = {}
    tensor_reference(bur, np.zeros(8), 2, warm=warm)
    kept = warm[2]

    def failing(*args):
        raise SolverError("injected")

    monkeypatch.setattr(oracle, "solve_adjoint", failing)
    counters = QueryCounters()
    with pytest.raises(SolverError):
        tensor_reference(bur, np.full(8, 0.1), 2, counters=counters, warm=warm)
    assert counters == QueryCounters()
    assert warm[2] is kept


def test_tensor_reference_caps():
    lin = LinearDiffusion(n_u=15)
    with pytest.raises(ValueError):
        tensor_reference(lin, np.zeros(8), 7)


# ---------------------------------------------------------------------------
# SG-ISO baseline
# ---------------------------------------------------------------------------

def test_baseline_solves_deterministic_quadratic(lin_deterministic):
    mu_star = quadratic_minimizer(lin_deterministic)
    counters = QueryCounters()
    mu_f, info = sg_iso_baseline(lin_deterministic, np.zeros(8), level=2,
                                 gtol=1e-9, max_iters=100, counters=counters)
    assert info["status"] == "converged"
    assert np.linalg.norm(mu_f - mu_star) <= 1e-6
    assert counters.n_hp > 0 and counters.n_rp == 0


def test_baseline_zero_initial_gradient(lin_deterministic):
    mu_star = quadratic_minimizer(lin_deterministic)
    counters = QueryCounters()
    mu_f, info = sg_iso_baseline(lin_deterministic, mu_star, level=2,
                                 gtol=1e-5, max_iters=100, counters=counters)
    assert len(info["history"]) == 1
    np.testing.assert_array_equal(mu_f, mu_star)


def _quadratic(diag, b):
    """``J = mu'A mu / 2 - b'mu`` with ``A = diag(diag)``, and its gradient."""
    def objective(mu):
        g = diag * mu - b
        return float(0.5 * mu @ (diag * mu) - b @ mu), g
    return objective


def _bfgs_update(hinv, s, y):
    rho = 1.0 / (s @ y)
    v = np.eye(len(s)) - rho * np.outer(s, y)
    return v @ hinv @ v.T + rho * np.outer(s, s)


def test_baseline_scales_its_first_inverse_hessian(monkeypatch):
    # the first step is -g0; the second trial point is mu1 - H1 g1, where
    # H1 is the BFGS update of (s0'y0 / y0'y0) I, not of I
    diag = np.array([0.1, 0.15, 0.2, 0.25, 0.3, 0.12, 0.18, 0.22])
    b = np.linspace(-1.0, 1.0, 8)
    objective = _quadratic(diag, b)
    points = stub_tensor_reference(monkeypatch, objective)
    sg_iso_baseline(SimpleNamespace(n_mu=8), np.zeros(8), QueryCounters(),
                    level=5, gtol=0.0, max_iters=2)
    mu0 = np.zeros(8)
    g0 = objective(mu0)[1]
    mu1 = mu0 - g0
    np.testing.assert_array_equal(points[1], mu1)
    g1 = objective(mu1)[1]
    s0, y0 = mu1 - mu0, g1 - g0
    h1 = _bfgs_update((s0 @ y0) / (y0 @ y0) * np.eye(8), s0, y0)
    np.testing.assert_allclose(points[2], mu1 - h1 @ g1, rtol=1e-12, atol=1e-14)
    # the unscaled start would have tried another point
    unscaled = mu1 - _bfgs_update(np.eye(8), s0, y0) @ g1
    assert np.linalg.norm(unscaled - points[2]) > 0.1 * np.linalg.norm(points[2] - mu1)


def test_baseline_backtracks_from_a_failed_trial_solve(monkeypatch):
    # the full solve fails beyond a radius the first trial point lies
    # past: the line search halves the step and the run converges, the
    # failed solves tallying nothing
    diag = np.array([1.6, 1.7, 1.8, 1.9, 1.65, 1.75, 1.85, 1.95])
    b = np.full(8, 0.5)
    mu_star = b / diag
    radius = 1.2 * np.linalg.norm(mu_star)
    points = stub_tensor_reference(monkeypatch, _quadratic(diag, b),
                                   fails=lambda mu: np.linalg.norm(mu) > radius)
    counters = QueryCounters()
    mu_f, info = sg_iso_baseline(SimpleNamespace(n_mu=8), np.zeros(8), counters,
                                 level=5, gtol=1e-8, max_iters=100)
    assert info["status"] == "converged"
    np.testing.assert_allclose(mu_f, mu_star, atol=1e-8)
    failed = sum(np.linalg.norm(p) > radius for p in points)
    assert failed >= 1
    np.testing.assert_array_equal(points[2], points[1] / 2)
    assert counters.n_hp == counters.n_ha == len(points) - failed
    assert info["history"][-1]["n_hp"] == counters.n_hp


def test_baseline_stops_where_the_objective_cannot_decrease(monkeypatch):
    # gtol 1e-10 lies below what the quadratic's round-off resolves:
    # after 8 steps (gradient 1.2e-8) no trial point lowers J.  A trial
    # of equal J once passed the Armijo test, whose 1e-4 t slope is then
    # below J's last bit, and the run took all 100 steps (2213
    # evaluations, the gradient stalled at 4e-10); now it ends in a
    # failed line search, every accepted step a strict decrease
    diag = np.array([1.6, 1.7, 1.8, 1.9, 1.65, 1.75, 1.85, 1.95])
    objective = _quadratic(diag, np.full(8, 0.5))
    points = stub_tensor_reference(monkeypatch, objective)
    mu_f, info = sg_iso_baseline(SimpleNamespace(n_mu=8), np.zeros(8), QueryCounters(),
                                 level=5, gtol=1e-10, max_iters=100)
    assert info["status"] == "line_search_failed"
    history = info["history"]
    assert len(history) == 9 and len(points) == 55
    assert all(b["J"] < a["J"] for a, b in zip(history, history[1:]))
    assert 1e-10 < history[-1]["gnorm"] < 1e-7
    assert objective(mu_f)[0] == history[-1]["J"]


def test_baseline_line_search_failure(monkeypatch):
    # J = ||mu|| has its minimum at mu0 = 0, but the stub's gradient says
    # it descends along -1: no trial point meets the Armijo test, and
    # after mu0 and 40 trials the run stops at mu0
    stub_tensor_reference(monkeypatch,
                          lambda mu: (float(np.linalg.norm(mu)), np.ones(8)))
    counters = QueryCounters()
    mu_f, info = sg_iso_baseline(SimpleNamespace(n_mu=8), np.zeros(8), counters,
                                 level=5, gtol=1e-6, max_iters=100)
    assert info["status"] == "line_search_failed"
    np.testing.assert_array_equal(mu_f, np.zeros(8))
    assert len(info["history"]) == 1
    assert counters.n_hp == counters.n_ha == 41


# ---------------------------------------------------------------------------
# bound validation
# ---------------------------------------------------------------------------

def test_full_space_basis_excludes_everything():
    prob = LinearDiffusion(n_u=9)
    rng = np.random.default_rng(53)
    basis = ReducedBasis(prob.n_u)
    basis.append_snapshots(rng.standard_normal((prob.n_u, prob.n_u)),
                           ["primal"] * prob.n_u, np.zeros(2), np.zeros(8))
    assert basis.k == prob.n_u
    qe, ge = validate_bounds(prob, basis, 10, seed=2024)
    assert qe.n_samples == 0 and qe.n_excluded == 10
    assert math.isnan(qe.max_ratio)


def test_seed_basis_ratio_statistics(lin):
    qe, ge = validate_bounds(lin, validation_seed_basis(lin), 100, seed=2024)
    assert qe.n_samples == 100
    assert np.all(np.isfinite(qe.ratios)) and np.all(np.isfinite(ge.ratios))
    assert qe.max_ratio <= 10 * qe.median_ratio
    assert ge.max_ratio <= 10 * ge.median_ratio


def test_qoi_scaling_covariance():
    class ScaledQoI(LinearDiffusion):
        def qoi(self, u, y, mu):
            return 10.0 * super().qoi(u, y, mu)

        def qoi_u(self, u, y, mu):
            return 10.0 * super().qoi_u(u, y, mu)

        def qoi_mu(self, u, y, mu):
            return 10.0 * super().qoi_mu(u, y, mu)

    base = LinearDiffusion(n_u=31)
    scaled = ScaledQoI(n_u=31)
    scaled.ref = base.ref.copy()

    qe1, _ = validate_bounds(base, validation_seed_basis(base), 25, seed=5)
    qe10, _ = validate_bounds(scaled, validation_seed_basis(scaled), 25, seed=5)
    np.testing.assert_allclose(qe10.ratios, 10.0 * np.asarray(qe1.ratios),
                               rtol=1e-9)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_cost_metric_arithmetic():
    c = QueryCounters(n_hp=10, n_ha=10, newton_iters=50)
    assert c.nbar_h() == 5.0
    assert cost_metric(c, 10.0) == pytest.approx(12.0)
    assert cost_metric(c, math.inf) == pytest.approx(12.0)


def test_cost_metric_rom_term():
    c = QueryCounters(n_hp=10, n_ha=10, newton_iters=50,
                      n_rp=100, n_ra=100, gn_iters=500)
    assert c.nbar_r() == 5.0
    assert cost_metric(c, math.inf) == pytest.approx(12.0)
    assert cost_metric(c, 10.0) == pytest.approx(12.0 + 12.0)
    with pytest.raises(ValueError):
        cost_metric(c, 0.0)
