"""Model value and gradient of the sparse-grid/ROM pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgromtr.hdm import (LinearDiffusion, QueryCounters, adjoint_gradient,
                         solve_adjoint, solve_primal)
from sgromtr.oracle import tensor_reference
from sgromtr.rom import ReducedBasis
from sgromtr.sparse_grid import MultiIndexSet, assemble
from sgromtr.adapt import SgRomPair


def exact_pair(problem, mu, level=2):
    """Pair whose basis spans the truth at every node of a full tensor grid."""
    grid = MultiIndexSet.from_indices(
        [(i, j) for i in range(1, level + 1) for j in range(1, level + 1)])
    counters = QueryCounters()
    basis = ReducedBasis(problem.n_u)
    pair = SgRomPair(problem, grid, basis, counters)
    quad = pair.union_quad()
    for coord in quad.coords:
        sol = solve_primal(problem, coord[None], mu)
        lam = solve_adjoint(problem, sol.u, coord[None], mu)
        basis.append_snapshots([sol.u[0], lam[0]], ["primal", "adjoint"],
                               coord, mu)
    return pair


def test_model_value_matches_tensor_reference(lin):
    mu = np.full(8, 0.2)
    pair = exact_pair(lin, mu, level=2)
    j_ref, g_ref = tensor_reference(lin, mu, 2)
    assert pair.model_value(mu) == pytest.approx(j_ref, abs=1e-8)
    np.testing.assert_allclose(pair.model_gradient(mu), g_ref, atol=1e-8)


def test_model_gradient_fd_consistency(lin):
    # for the affine problem the exact-subspace model is smooth in mu;
    # its gradient must match finite differences of its value
    mu = np.full(8, 0.2)
    pair = exact_pair(lin, mu, level=2)
    g = pair.model_gradient(mu)
    h = 1e-6
    for j in (0, 3, 7):
        e = np.zeros(8)
        e[j] = h
        fd = (pair.model_value(mu + e) - pair.model_value(mu - e)) / (2 * h)
        assert abs(fd - g[j]) <= 1e-5 * (1 + abs(g[j]))


def test_regularizer_only_gradient(lin):
    # QoI independent of the state and grid weights summing to one:
    # the model gradient is the regularizer slope alpha * mu
    class FlatTracking(LinearDiffusion):
        def qoi(self, u, y, mu):
            return np.full(u.shape[:-1], 0.5 * self.alpha * float(np.dot(mu, mu)))

        def qoi_u(self, u, y, mu):
            return np.zeros_like(u)

    prob = FlatTracking(n_u=31)
    mu = np.full(8, 0.4)
    pair = exact_pair(prob, mu, level=2)
    np.testing.assert_allclose(pair.model_gradient(mu), prob.alpha * mu,
                               atol=1e-10)


def test_odd_integrand_cancels_on_symmetric_grid():
    class OddQoI(LinearDiffusion):
        def qoi(self, u, y, mu):
            return y[..., 0] * (1.0 + y[..., 1] ** 2)

        def qoi_u(self, u, y, mu):
            return np.zeros_like(u)

        def qoi_mu(self, u, y, mu):
            return np.zeros(self.n_mu)

    prob = OddQoI(n_u=15)
    mu = np.full(8, 0.2)
    pair = exact_pair(prob, mu, level=3)
    assert abs(pair.model_value(mu)) <= 1e-12


def interpolating_pair(problem, mu, grid):
    """Pair on ``grid`` whose basis holds the full-model solutions at its nodes.

    Also returns the grid's quadrature of the full-model objective and
    gradient.
    """
    basis = ReducedBasis(problem.n_u)
    f_quad, g_quad = 0.0, np.zeros(problem.n_mu)
    quad = assemble(grid)
    for coord, w in zip(quad.coords, quad.weights):
        sol = solve_primal(problem, coord[None], mu)
        lam = solve_adjoint(problem, sol.u, coord[None], mu)
        basis.append_snapshots([sol.u[0], lam[0]], ["primal", "adjoint"],
                               coord, mu)
        f_quad += w * problem.qoi(sol.u, coord[None], mu)[0]
        g_quad += w * adjoint_gradient(problem, lam, sol.u, coord[None], mu)[0]
    return SgRomPair(problem, grid, basis, QueryCounters()), f_quad, g_quad


def downward_closure(tops):
    return MultiIndexSet.from_indices(
        {(i, j) for a, b in tops for i in range(1, a + 1)
         for j in range(1, b + 1)})


@settings(max_examples=30, deadline=None)
@given(tops=st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                    min_size=1, max_size=4),
       mu=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_interpolating_basis_reproduces_quadrature(lin_small, tops, mu):
    # any admissible 2D grid with levels <= 3: the model is the grid's
    # quadrature of the full model, and on {1..L}^2 the tensor reference
    mu = np.array(mu)
    grid = downward_closure(tops)
    pair, f_quad, g_quad = interpolating_pair(lin_small, mu, grid)
    assert pair.model_value(mu) == pytest.approx(f_quad, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(pair.model_gradient(mu), g_quad,
                               rtol=1e-9, atol=1e-12)

    level = max(map(max, grid))
    square, _, _ = interpolating_pair(lin_small, mu,
                                      downward_closure([(level, level)]))
    j_ref, g_ref = tensor_reference(lin_small, mu, level)
    assert square.model_value(mu) == pytest.approx(j_ref, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(square.model_gradient(mu), g_ref,
                               rtol=1e-9, atol=1e-12)
