"""Finite-difference, tensor-quadrature, and baseline-optimizer oracles."""

import math

import numpy as np
import pytest

from conftest import quadratic_minimizer
from sgromtr.hdm import (LinearDiffusion, QueryCounters, adjoint_gradient,
                         solve_adjoint, solve_primal)
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
        adj = solve_adjoint(lin, sol.u, y[None], mu)
        g = adjoint_gradient(lin, adj.lam, sol.u, y[None], mu)[0]
        gfd = fd_gradient(lin, y, mu)
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
    adj = solve_adjoint(bur, sol.u, y[None], mu)
    g = adjoint_gradient(bur, adj.lam, sol.u, y[None], mu)[0]
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
    adj = solve_adjoint(lin, sol.u, y, mu)
    assert j1 == pytest.approx(lin.qoi(sol.u, y, mu)[0])
    np.testing.assert_allclose(g1, adjoint_gradient(lin, adj.lam, sol.u, y, mu)[0])


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
        prim = solve_primal(bur, y, mu, counters=loop)
        adj = solve_adjoint(bur, prim.u, y, mu, counters=loop)
        j_val += w * bur.qoi(prim.u, y, mu)[0]
        grad += w * adjoint_gradient(bur, adj.lam, prim.u, y, mu)[0]
        mean += w * solve_primal(bur, y, np.zeros(8)).u[0]
    assert j_stack == j_val
    np.testing.assert_array_equal(g_stack, grad)
    assert counters.snapshot() == loop.snapshot()
    np.testing.assert_array_equal(bur.ref, mean)     # ref_level 3


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
                                 gtol=1e-9, counters=counters)
    assert info["status"] == "converged"
    assert np.linalg.norm(mu_f - mu_star) <= 1e-6
    assert counters.n_hp > 0 and counters.n_rp == 0


def test_baseline_zero_initial_gradient(lin_deterministic):
    mu_star = quadratic_minimizer(lin_deterministic)
    counters = QueryCounters()
    mu_f, info = sg_iso_baseline(lin_deterministic, mu_star, level=2,
                                 gtol=1e-5, counters=counters)
    assert len(info["history"]) == 1
    np.testing.assert_array_equal(mu_f, mu_star)


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
    qe, ge = validate_bounds(prob, basis, 10)
    assert qe.n_samples == 0 and qe.n_excluded == 10
    assert math.isnan(qe.max_ratio)


def test_seed_basis_ratio_statistics(lin):
    basis = ReducedBasis(lin.n_u)
    mu_seed = 0.3 * np.linspace(-1, 1, 8)
    sol = solve_primal(lin, np.zeros((1, 2)), mu_seed)
    basis.append_snapshots([sol.u[0]], ["primal"], np.zeros(2), mu_seed)
    qe, ge = validate_bounds(lin, basis, 100)
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

    def k1(prob):
        b = ReducedBasis(prob.n_u)
        mu_seed = 0.3 * np.linspace(-1, 1, 8)
        sol = solve_primal(prob, np.zeros((1, 2)), mu_seed)
        b.append_snapshots([sol.u[0]], ["primal"], np.zeros(2), mu_seed)
        return b

    qe1, _ = validate_bounds(base, k1(base), 25, seed=5)
    qe10, _ = validate_bounds(scaled, k1(scaled), 25, seed=5)
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
