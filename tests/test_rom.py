"""Reduced-basis bookkeeping and minimum-residual solve properties."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import band_to_dense, recorded_stack_sizes
from sgromtr.hdm import (adjoint_gradient, adjoint_residual,
                         solve_adjoint, solve_primal)
from sgromtr import kernels, rom
from sgromtr.cli import suite_rom_properties
from sgromtr.rom import (ReducedBasis, RomSolveError, solve_rom_adjoint,
                         solve_rom_primal)


def hdm_pair(problem, y, mu):
    """Full primal and adjoint states at one node ``y`` of length ``n_y``."""
    sol = solve_primal(problem, y[None], mu)
    lam = solve_adjoint(problem, sol.u, y[None], mu)
    return sol.u[0], lam[0]


def seeded_basis(problem, seed=0, n_snaps=1):
    rng = np.random.default_rng(seed)
    basis = ReducedBasis(problem.n_u)
    for _ in range(n_snaps):
        y = rng.uniform(-1, 1, problem.n_y)
        mu = rng.uniform(-0.4, 0.4, problem.n_mu)
        u, lam = hdm_pair(problem, y, mu)
        basis.append_snapshots([u, lam], ["primal", "adjoint"], y, mu)
    return basis


# ---------------------------------------------------------------------------
# basis management
# ---------------------------------------------------------------------------

def test_append_single_vector_normalizes():
    basis = ReducedBasis(20)
    v = np.arange(1.0, 21.0)
    basis.append_snapshots([v], ["primal"], np.zeros(2), np.zeros(3))
    assert basis.k == 1
    np.testing.assert_allclose(basis.columns[:, 0], v / np.linalg.norm(v))


def test_append_duplicate_is_dropped():
    basis = ReducedBasis(20)
    v = np.arange(1.0, 21.0)
    basis.append_snapshots([v], ["primal"], np.zeros(2), np.zeros(3))
    basis.append_snapshots([2.0 * v], ["primal"], np.ones(2), np.zeros(3))
    assert basis.k == 1
    assert [s.kept for s in basis.provenance] == [True, False]


def _span_and_normal(n=127, k=40, seed=3):
    """A basis of ``k`` random orthonormal columns, a unit vector of
    their span and a unit vector orthogonal to it."""
    rng = np.random.default_rng(seed)
    basis = ReducedBasis(n)
    basis.append_snapshots(rng.standard_normal((k, n)), ["primal"] * k,
                           np.zeros(2), np.zeros(3))
    assert basis.k == k
    phi = basis.columns
    inside = phi @ rng.standard_normal(k)
    normal = rng.standard_normal(n)
    for _ in range(2):
        normal -= phi @ (phi.T @ normal)
    return basis, inside / np.linalg.norm(inside), normal / np.linalg.norm(normal)


def test_keep_rule_floor():
    # eps k^(3/2): no pass, no error, at k = 0
    assert rom.gram_schmidt_floor(0) == 0.0
    assert rom.gram_schmidt_floor(4) == 8.0 * np.finfo(float).eps


def test_keep_rule_keeps_a_small_remainder():
    # a remainder of 1e-11 of the vector's norm is far above round-off,
    # and the second pass keeps the basis orthonormal
    basis, inside, normal = _span_and_normal()
    k = basis.k
    assert basis.append_snapshots([inside + 1e-11 * normal], ["adjoint"],
                                  np.ones(2), np.zeros(3)) == 1
    assert basis.k == k + 1
    gram = basis.columns.T @ basis.columns
    assert np.abs(gram - np.eye(basis.k)).max() <= 1e-14
    assert abs(basis.columns[:, -1] @ normal) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("factor, kept", [(0.0, False), (0.5, False), (2.0, True)])
def test_keep_rule_at_the_floor(factor, kept):
    # the two passes leave at most half the floor in a vector of the
    # span: with a remainder of half the floor added it is dropped, with
    # twice the floor it is kept, and the basis stays orthonormal
    basis, inside, normal = _span_and_normal()
    k = basis.k
    v = inside + factor * rom.gram_schmidt_floor(k) * normal
    assert basis.append_snapshots([v], ["primal"], np.ones(2), np.zeros(3)) == kept
    assert basis.k == k + kept
    gram = basis.columns.T @ basis.columns
    assert np.abs(gram - np.eye(basis.k)).max() <= 1e-14


def test_keep_rule_provenance():
    # the kept flag of each snapshot follows the rule: a vector of the
    # span perturbed below the floor, a 1e-11 remainder, and the zero vector
    basis, inside, normal = _span_and_normal()
    k = basis.k
    below = inside + 0.5 * rom.gram_schmidt_floor(k) * normal
    kept = basis.append_snapshots(
        [below, inside + 1e-11 * normal, np.zeros(basis.n_u)],
        ["adjoint", "primal", "sensitivity"], np.ones(2), np.zeros(3))
    assert kept == 1 and basis.k == k + 1
    assert [(s.kind, s.kept) for s in basis.provenance[k:]] == [
        ("adjoint", False), ("primal", True), ("sensitivity", False)]


def test_zero_vector_is_dropped():
    basis = ReducedBasis(20)
    assert basis.append_snapshots([np.zeros(20)], ["primal"], np.zeros(2),
                                  np.zeros(3)) == 0
    assert basis.k == 0 and [s.kept for s in basis.provenance] == [False]


def test_three_random_vectors_orthonormal():
    rng = np.random.default_rng(4)
    basis = ReducedBasis(30)
    basis.append_snapshots(rng.standard_normal((3, 30)),
                           ["primal", "adjoint", "sensitivity"],
                           np.zeros(2), np.zeros(3))
    gram = basis.columns.T @ basis.columns
    assert np.abs(gram - np.eye(3)).max() <= 1e-12


def test_orthonormality_preserved_across_many_appends(lin):
    basis = seeded_basis(lin, seed=1, n_snaps=6)
    gram = basis.columns.T @ basis.columns
    assert np.abs(gram - np.eye(basis.k)).max() <= 1e-12


def test_clone_is_independent(lin):
    basis = seeded_basis(lin, seed=2)
    k = basis.k
    other = basis.clone()
    other.append_snapshots([np.ones(lin.n_u)], ["primal"], np.zeros(2),
                           np.zeros(8))
    assert other.k == k + 1
    assert basis.k == k and len(basis.provenance) == len(other.provenance) - 1


# ---------------------------------------------------------------------------
# primal ROM
# ---------------------------------------------------------------------------

def test_empty_basis_rejected(lin):
    with pytest.raises(RomSolveError):
        solve_rom_primal(lin, ReducedBasis(lin.n_u), np.zeros((1, 2)), np.zeros(8))


@pytest.mark.parametrize("solver, shape", [
    ("solve_rom_primal", (1, 1)), ("solve_rom_primal", (2, 2)),
    ("solve_rom_adjoint", (1, 3)), ("solve_rom_adjoint", (2,)),
], ids=["primal-short", "primal-2-rows", "adjoint-long", "adjoint-1d"])
def test_reduced_stack_of_another_shape_is_named(bur, solver, shape):
    # a reduced start or state stack is (m, k) for m nodes: any other
    # shape is a ValueError that names the argument and both shapes, where
    # a matrix product failed or broadcast without naming either
    basis = seeded_basis(bur)
    ys, mu = np.array([[0.2, -0.3]]), np.zeros(8)
    assert basis.k == 2
    q = np.full(shape, 0.1)
    name = "q0" if solver == "solve_rom_primal" else "q"
    with pytest.raises(ValueError, match=re.escape(
            f"{name} has shape {shape}, expected (1, 2)")):
        if solver == "solve_rom_primal":
            solve_rom_primal(bur, basis, ys, mu, q0=q)
        else:
            solve_rom_adjoint(bur, basis, q, ys, mu)


def test_interpolation_property(lin, bur):
    for problem in (lin, bur):
        rng = np.random.default_rng(8)
        y = rng.uniform(-1, 1, 2)
        mu = rng.uniform(-0.3, 0.3, 8)
        u, lam = hdm_pair(problem, y, mu)
        basis = seeded_basis(problem, seed=9)
        basis.append_snapshots([u, lam], ["primal", "adjoint"], y, mu)
        prim = solve_rom_primal(problem, basis, y[None], mu)
        assert prim.residual_norm[0] <= 1e-8 * (1 + np.linalg.norm(u))
        rec = basis.columns @ prim.q[0]
        assert np.linalg.norm(rec - u) <= 1e-6 * (1 + np.linalg.norm(u))
        adj_rom = solve_rom_adjoint(problem, basis, prim.q, y[None], mu)
        assert adj_rom.residual_norm[0] <= 1e-8 * (
            1 + np.linalg.norm(problem.qoi_u(u[None], y[None], mu)))


def test_linear_problem_single_gauss_newton_step(lin):
    basis = seeded_basis(lin, seed=10, n_snaps=3)
    prim = solve_rom_primal(lin, basis, np.array([[0.1, -0.2]]), np.full(8, 0.1))
    assert prim.gn_iters == 1


def test_optimality_beats_projection(lin, bur):
    # the minimum-residual solution cannot lose to the orthogonal
    # projection coefficients of the truth
    for problem in (lin, bur):
        rng = np.random.default_rng(12)
        y = rng.uniform(-1, 1, 2)
        mu = rng.uniform(-0.3, 0.3, 8)
        u, _ = hdm_pair(problem, y, mu)
        basis = seeded_basis(problem, seed=13, n_snaps=2)
        prim = solve_rom_primal(problem, basis, y[None], mu)
        q_proj = basis.project(u)
        res_proj = np.linalg.norm(
            problem.residual((basis.columns @ q_proj)[None], y[None], mu))
        assert prim.residual_norm[0] <= res_proj * (1 + 1e-10)


def test_monotonicity_under_appends(lin):
    rng = np.random.default_rng(14)
    y = rng.uniform(-1, 1, 2)
    mu = rng.uniform(-0.5, 0.5, 8)
    basis = seeded_basis(lin, seed=15)
    prev = None
    q_prev = None
    for i in range(8):
        q0 = None
        if q_prev is not None:
            q0 = np.zeros((1, basis.k))
            q0[0, :len(q_prev)] = q_prev
        prim = solve_rom_primal(lin, basis, y[None], mu, q0=q0)
        if prev is not None:
            assert prim.residual_norm[0] <= prev * (1 + 1e-12) + 1e-12
        prev, q_prev = prim.residual_norm[0], prim.q[0]
        ys = rng.uniform(-1, 1, 2)
        u, lam = hdm_pair(lin, ys, mu)
        basis.append_snapshots([u, lam], ["primal", "adjoint"], ys, mu)


@pytest.mark.parametrize("n, k", [(127, 48), (63, 25), (30, 1), (40, 39)])
def test_qr_step_matches_lstsq(n, k):
    # the step of the residual -b is the least-squares x of a x ~ b, and
    # its decrease ||b||^2 minus the squared residual norm left
    rng = np.random.default_rng(n + k)
    for _ in range(5):
        a = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        x, drop = rom._qr_steps(a[None], -b[None], np.linalg.norm(b)[None],
                                np.array([0]))
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(x[0] - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        drop_ref = b @ b - np.linalg.norm(a @ x_ref - b) ** 2
        assert abs(drop[0] - drop_ref) <= 1e-12 * (b @ b)


@pytest.mark.parametrize("n, k", [(127, 48), (63, 25), (30, 1), (40, 39)])
def test_normal_step_matches_lstsq(n, k):
    # the step of a G = a^T a within the bound keeps the digits the bound
    # is derived from: about cond(G) eps, and at most sqrt(eps), of the
    # step and of the model decrease ||a x||^2 of the least-squares x
    rng = np.random.default_rng(n + k)
    for _ in range(5):
        a = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        gram = rom._gram(a[None])
        assert gram[1][0] <= rom._COND_G_MAX
        # within the bound no row takes the QR step
        delta, drop = rom._lstsq_steps(a[None], -b[None], np.linalg.norm(b)[None],
                                       -(a.T @ b)[None])
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        drop_ref = np.linalg.norm(a @ x_ref) ** 2
        tol = min(10.0 * np.linalg.cond(a) ** 2 * rom._EPS, rom._COND_G_MAX * rom._EPS)
        assert np.linalg.norm(delta[0] - x_ref) <= tol * np.linalg.norm(x_ref)
        assert abs(drop[0] - drop_ref) <= tol * drop_ref


def _unit_basis(n, k):
    basis = ReducedBasis(n)
    basis.append_snapshots(np.eye(n)[:k], ["primal"] * k,
                           np.zeros(2), np.zeros(3))
    return basis


class _AffineProblem:
    """``r(u) = u - b`` in n dimensions, for a stack of states ``u``.

    The Jacobian is the identity and ``b`` the source.  Counts its
    residual calls and the rows (trial states) they evaluate.
    """

    def __init__(self, b):
        self.b = b
        self.residual_calls = 0
        self.residual_rows = 0

    def residual(self, u, y, mu):
        self.residual_calls += 1
        self.residual_rows += len(u)
        return u - self.b

    def jac_bands(self, u, y, mu):
        return np.zeros(u.shape), np.ones(u.shape), np.zeros(u.shape)

    def source(self, mu):
        return self.b

    def _check_stack(self, y, name, x, width):
        assert y.ndim == 2


def test_predicted_stagnation_spends_no_line_search():
    # the start is 1e-7 off the minimizer and the residual left at the
    # minimizer has norm 1: the model predicts a relative decrease of
    # ||r||^2 near 1e-14, below the stagnation threshold
    n = 20
    basis = _unit_basis(n, 2)
    q_star = np.array([0.5, -0.25])
    far = np.zeros(n)
    far[5] = 1.0
    problem = _AffineProblem(basis.columns @ q_star + far)
    q0 = q_star + np.array([1e-7, 0.0])
    prim = solve_rom_primal(problem, basis, np.zeros((1, 2)), np.zeros(3),
                            q0=q0[None])
    assert problem.residual_calls == 1  # the initial residual only
    assert prim.gn_iters == 0
    np.testing.assert_array_equal(prim.q[0], q0)


def test_stall_branch_exit_is_reported():
    # the start of the test above: the node ends on the stall branch
    # with its gradient 1e-7 accepted, the one node of the stack to do so
    n = 20
    basis = _unit_basis(n, 2)
    q_star = np.array([0.5, -0.25])
    far = np.zeros(n)
    far[5] = 1.0
    problem = _AffineProblem(basis.columns @ q_star + far)
    q0 = q_star + np.array([1e-7, 0.0])
    prim = solve_rom_primal(problem, basis, np.zeros((1, 2)), np.zeros(3),
                            q0=q0[None])
    assert prim.stalled.sum() == 1


class _NoisyAffineProblem(_AffineProblem):
    """Every trial residual is inflated: no step ever decreases ``||r||``."""

    def residual(self, u, y, mu):
        r = super().residual(u, y, mu)
        return r if self.residual_calls == 1 else 1.01 * r


def test_backtracking_stops_where_the_model_predicts_stagnation():
    # a start 1e-4 off the minimizer of a unit residual: the model
    # decrease (2t - t^2) * 1e-8 of ||r||^2 meets the 2e-12 threshold
    # at t = 2^-14, so the trial steps are t = 1, ..., 2^-13 and the
    # cap of 29 halvings is never reached
    n = 20
    basis = _unit_basis(n, 2)
    far = np.zeros(n)
    far[5] = 1.0
    problem = _NoisyAffineProblem(far)
    q0 = np.array([[1e-4, 0.0]])
    prim = solve_rom_primal(problem, basis, np.zeros((1, 2)), np.zeros(3), q0=q0)
    # the initial residual, the full step, then the 13 halvings, one
    # residual call per step length
    assert problem.residual_rows == 1 + 14
    assert problem.residual_calls == 1 + 14
    # the gradient 1e-4 is above 1e-6 of its bound: the node stagnated
    # and is returned at its start, with the residual there
    np.testing.assert_array_equal(prim.failed, [True])
    np.testing.assert_array_equal(prim.stalled, [False])
    np.testing.assert_array_equal(prim.iters, [0])
    np.testing.assert_array_equal(prim.q, q0)
    np.testing.assert_allclose(prim.residual_norm, np.hypot(1.0, 1e-4), rtol=1e-15)


class _TrialNoiseProblem(_AffineProblem):
    """``r(u) = u - b`` at the listed start states, ``1.01 (u - b)`` elsewhere.

    The noise depends on the state alone, so a node sees the same
    residuals whatever stack it is solved in.
    """

    def __init__(self, b, starts):
        super().__init__(b)
        self.starts = starts

    def residual(self, u, y, mu):
        r = super().residual(u, y, mu)
        at_start = (u[:, None, :] == self.starts[None]).all(-1).any(-1)
        return np.where(at_start[:, None], r, 1.01 * r)


def test_mixed_stack_matches_stacks_of_one(monkeypatch):
    # the minimizer leaves a unit residual.  Node 0 starts far off and
    # takes one full step; node 1 starts 2e-6 off, so its full step and
    # its one halving above the model cut-off are rejected and it stops
    # on the stagnation branch with a gradient below 1e-6 of its bound;
    # node 2 starts 1e-7 off, where the model predicts stagnation
    n = 20
    basis = _unit_basis(n, 2)
    q_star = np.array([0.5, -0.25])
    far = np.zeros(n)
    far[5] = 1.0
    q0 = q_star + np.array([[0.3, -0.2], [2e-6, 0.0], [1e-7, 0.0]])
    ys = np.zeros((3, 2))

    def solve(rows):
        problem = _TrialNoiseProblem(basis.columns @ q_star + far,
                                     basis.expand(q0))
        return solve_rom_primal(problem, basis, ys[rows], np.zeros(3),
                                q0=q0[rows]), problem

    stack, problem = solve([0, 1, 2])
    # initial residuals, full steps, and node 1's single halving
    assert problem.residual_rows == 3 + 2 + 1
    np.testing.assert_array_equal(stack.iters, [1, 0, 0])
    np.testing.assert_array_equal(stack.failed, [False, False, False])
    np.testing.assert_array_equal(stack.stalled, [False, True, True])
    np.testing.assert_array_equal(stack.q[1:], q0[1:])
    for i in range(3):
        alone, _ = solve([i])
        np.testing.assert_array_equal(stack.q[i], alone.q[0])
        np.testing.assert_array_equal(stack.residual_norm[i],
                                      alone.residual_norm[0])
        assert stack.iters[i] == alone.gn_iters
        assert stack.failed[i] == alone.failed[0]
        assert stack.stalled[i] == alone.stalled[0]
    monkeypatch.setattr(kernels, "STACK_BYTES", 1)   # one node per chunk
    split, _ = solve([0, 1, 2])
    np.testing.assert_array_equal(split.q, stack.q)
    np.testing.assert_array_equal(split.residual_norm, stack.residual_norm)
    np.testing.assert_array_equal(split.iters, stack.iters)
    np.testing.assert_array_equal(split.failed, stack.failed)
    np.testing.assert_array_equal(split.stalled, stack.stalled)


def test_iteration_cap_carries_every_last_iterate(monkeypatch):
    # the mixed stack above with a cap of one step: node 0 moves and is
    # cut off before its stationarity check, the others end as before
    n = 20
    basis = _unit_basis(n, 2)
    q_star = np.array([0.5, -0.25])
    far = np.zeros(n)
    far[5] = 1.0
    q0 = q_star + np.array([[0.3, -0.2], [2e-6, 0.0], [1e-7, 0.0]])
    problem = _TrialNoiseProblem(basis.columns @ q_star + far, basis.expand(q0))
    monkeypatch.setattr(rom, "GN_MAX_ITERS", 1)
    result = solve_rom_primal(problem, basis, np.zeros((3, 2)), np.zeros(3), q0=q0)
    np.testing.assert_array_equal(result.failed, [True, False, False])
    np.testing.assert_array_equal(result.stalled, [False, True, True])
    np.testing.assert_array_equal(result.iters, [1, 0, 0])
    np.testing.assert_allclose(result.q[0], q_star, atol=1e-15)
    np.testing.assert_array_equal(result.q[1:], q0[1:])
    # the true residual norms at the returned iterates
    true = np.linalg.norm(problem.residual(basis.expand(result.q), None, None), axis=1)
    np.testing.assert_allclose(result.residual_norm, true, rtol=1e-15)


def test_rom_properties_suite_fails_on_a_capped_solve(bur, monkeypatch):
    ok, detail = suite_rom_properties(bur, 2024)
    assert ok and "Gauss-Newton failed" not in detail
    # a cap of one step cuts off every cold solve before its
    # stationarity check, so every node is named
    monkeypatch.setattr(rom, "GN_MAX_ITERS", 1)
    ok, detail = suite_rom_properties(bur, 2024)
    assert not ok
    assert detail.endswith(", Gauss-Newton failed at interpolation node, "
                           + ", ".join(f"monotonicity node {i}" for i in range(5)))


def test_interpolation_converges_from_cold_and_exact_starts(bur):
    rng = np.random.default_rng(27)
    y = rng.uniform(-1, 1, 2)
    mu = rng.uniform(-0.3, 0.3, 8)
    u, lam = hdm_pair(bur, y, mu)
    basis = seeded_basis(bur, seed=28, n_snaps=2)
    basis.append_snapshots([u, lam], ["primal", "adjoint"], y, mu)
    cold = solve_rom_primal(bur, basis, y[None], mu)
    warm = solve_rom_primal(bur, basis, y[None], mu, q0=basis.project(u)[None])
    for prim in (cold, warm):
        assert prim.residual_norm[0] <= 1e-8 * (1 + np.linalg.norm(u))
        rec = basis.columns @ prim.q[0]
        assert np.linalg.norm(rec - u) <= 1e-6 * (1 + np.linalg.norm(u))
    assert warm.gn_iters <= 1


def _interpolating_stack(bur):
    """Four Burgers nodes on a basis holding the solution at the first."""
    rng = np.random.default_rng(40)
    ys = rng.uniform(-1, 1, (4, 2))
    mu = rng.uniform(-0.3, 0.3, 8)
    basis = seeded_basis(bur, seed=41, n_snaps=2)
    u, lam = hdm_pair(bur, ys[0], mu)
    basis.append_snapshots([u, lam], ["primal", "adjoint"], ys[0], mu)
    return basis, ys, mu


def test_converged_node_restarts_without_a_step(bur, monkeypatch):
    # a node started at its own converged reduced state meets the
    # round-off test at once: one residual call and no QR
    basis, ys, mu = _interpolating_stack(bur)
    cold = solve_rom_primal(bur, basis, ys[:1], mu)
    assert cold.gn_iters > 0 and not cold.stalled[0] and not cold.failed[0]
    calls = {"residual": 0, "qr": 0}
    residual, qr = bur.residual, np.linalg.qr

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(bur, "residual", counted("residual", residual))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", qr))
    warm = solve_rom_primal(bur, basis, ys[:1], mu, q0=cold.q)
    assert calls == {"residual": 1, "qr": 0}
    assert warm.gn_iters == 0
    np.testing.assert_array_equal(warm.q, cold.q)
    np.testing.assert_array_equal(warm.residual_norm, cold.residual_norm)


def _chunk_sizes(monkeypatch):
    """Record the node count of every ``J Phi`` and ``J^T Phi`` product."""
    sizes = []
    for name in ("band_matmat", "band_t_matmat"):
        def record(lo, *args, _product=getattr(kernels, name)):
            sizes.append(len(lo))
            return _product(lo, *args)
        monkeypatch.setattr(kernels, name, record)
    return sizes


def test_cuts_into_chunks_leave_every_row_unchanged(bur, monkeypatch):
    # five nodes that leave the stack at different iterations, nodes 0
    # and 2 at the round-off test while the others go on, solved whole
    # and in chunks of two and of one.  Every row, primal and adjoint, is
    # bitwise equal in the three, and to its node solved as a stack of one
    basis, ys, mu = _interpolating_stack(bur)
    converged = solve_rom_primal(bur, basis, ys[:1], mu).q[0]
    ys = ys[[0, 1, 0, 2, 3]]
    q0 = np.zeros((5, basis.k))
    q0[0] = converged
    chunk = rom._chunk_bytes(basis)
    solves = {}
    for size in (None, 2, 1):
        with monkeypatch.context() as patch:
            if size:
                patch.setattr(kernels, "STACK_BYTES", size * chunk)
            sizes = _chunk_sizes(patch)
            prim = solve_rom_primal(bur, basis, ys, mu, q0=q0)
            adj = solve_rom_adjoint(bur, basis, prim.q, ys, mu)
        assert max(sizes) == (size or 5)
        solves[size] = prim, adj
    prim, adj = solves[None]
    assert prim.q.shape == adj.eta.shape == (5, basis.k)
    assert prim.iters[0] == 0 and 0 < prim.iters[2] < prim.iters[3]
    assert not prim.stalled[[0, 2]].any() and prim.stalled[[1, 3]].all()
    assert not prim.failed.any()
    for cut, cut_adj in (solves[2], solves[1]):
        for field in ("q", "residual_norm", "iters", "stalled", "failed"):
            np.testing.assert_array_equal(getattr(cut, field), getattr(prim, field))
        np.testing.assert_array_equal(cut_adj.eta, adj.eta)
        np.testing.assert_array_equal(cut_adj.residual_norm, adj.residual_norm)
    for i in range(5):
        one = solve_rom_primal(bur, basis, ys[[i]], mu, q0=q0[[i]])
        np.testing.assert_array_equal(prim.q[i], one.q[0])
        np.testing.assert_array_equal(prim.residual_norm[i], one.residual_norm[0])
        assert prim.iters[i] == one.iters[0]
        assert prim.stalled[i] == one.stalled[0]
        assert prim.failed[i] == one.failed[0]
        one_adj = solve_rom_adjoint(bur, basis, one.q, ys[[i]], mu)
        np.testing.assert_array_equal(adj.eta[i], one_adj.eta[0])
        np.testing.assert_array_equal(adj.residual_norm[i], one_adj.residual_norm[0])


def _converged_stack(problem, seed):
    """A seeded basis and the Jacobian bands and residuals of three nodes
    solved on it, ``(basis, (lo, dg, up, r))``."""
    rng = np.random.default_rng(seed)
    basis = seeded_basis(problem, seed=seed, n_snaps=3)
    ys = rng.uniform(-1, 1, (3, problem.n_y))
    mu = rng.uniform(-0.3, 0.3, problem.n_mu)
    prim = solve_rom_primal(problem, basis, ys, mu)
    assert not prim.failed.any()
    u = basis.expand(prim.q)
    return basis, (*problem.jac_bands(u, ys, mu), problem.residual(u, ys, mu))


def test_window_is_cached_per_basis_size():
    # W[i] holds rows i - 1, i, i + 1 of the zero-padded columns.  A
    # clone shares the window until it grows and builds its own; the
    # original's window stays equal to a fresh build
    rng = np.random.default_rng(61)
    n = 20
    basis = ReducedBasis(n)
    basis.append_snapshots(rng.standard_normal((3, n)), ["primal"] * 3,
                           np.zeros(2), np.zeros(3))
    W = basis.window()
    pad = np.zeros((n + 2, 3))
    pad[1:-1] = basis.columns
    assert W.shape == (n, 3, 3) and basis.window() is W
    for i in range(n):
        np.testing.assert_array_equal(W[i], pad[i:i + 3])
    clone = basis.clone()
    assert clone.window() is W
    clone.append_snapshots(rng.standard_normal((1, n)), ["primal"],
                           np.zeros(2), np.zeros(3))
    grown = clone.window()
    assert grown.shape == (n, 3, 4) and not np.shares_memory(grown, W)
    np.testing.assert_array_equal(grown, kernels.row_window(clone.columns))
    assert basis.window() is W
    np.testing.assert_array_equal(W, kernels.row_window(basis.columns))


def test_gradient_and_norm_match_dense_j_phi(lin, bur):
    # g = Phi^T (J^T r) and ||J Phi||_F from the basis rows' Gram against
    # the dense J Phi, on random bands (whose unused corners are not
    # zero) and at converged diffusion and Burgers states.  There the
    # gradient is round-off, so every gradient is compared at its
    # natural scale ||J Phi||_F ||r||, and the random one also to itself.
    # The random basis grows by a column after its Gram matrices were
    # cached, in a clone that shares them
    rng = np.random.default_rng(30)
    n, m, k = 41, 4, 6
    random = ReducedBasis(n)
    random.append_snapshots(rng.standard_normal((k - 1, n)), ["primal"] * (k - 1),
                            np.zeros(2), np.zeros(3))
    random.row_grams()
    random = random.clone()
    random.append_snapshots(rng.standard_normal((1, n)), ["primal"],
                            np.zeros(2), np.zeros(3))
    assert random.k == k
    cases = [(random, tuple(rng.standard_normal((4, m, n)))),
             _converged_stack(lin, 31), _converged_stack(bur, 32)]
    for case, (basis, (lo, dg, up, r)) in enumerate(cases):
        grad = basis.project(kernels.band_t_matvec(lo, dg, up, r))
        jnorm = rom._jphi_norms(basis, lo, dg, up)
        jphi = np.stack([band_to_dense(*b) @ basis.columns for b in zip(lo, dg, up)])
        grad_ref = (jphi.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0]
        jnorm_ref = np.linalg.norm(jphi, axis=(1, 2))
        assert np.all(np.abs(jnorm - jnorm_ref) <= 1e-12 * jnorm_ref)
        err = np.linalg.norm(grad - grad_ref, axis=1)
        assert np.all(err <= 1e-12 * jnorm_ref * np.linalg.norm(r, axis=1))
        if case == 0:
            assert np.all(err <= 1e-12 * np.linalg.norm(grad_ref, axis=1))
        for i in range(len(r)):
            one = lo[[i]], dg[[i]], up[[i]]
            np.testing.assert_array_equal(
                basis.project(kernels.band_t_matvec(*one, r[[i]]))[0], grad[i])
            np.testing.assert_array_equal(rom._jphi_norms(basis, *one)[0], jnorm[i])


def test_only_stepping_nodes_form_j_phi(bur, monkeypatch):
    # J Phi is formed for a node only in an iteration where it steps.  A
    # stack whose nodes all start stationary forms none.  A mixed stack
    # forms one row per accepted step and one per stall-branch node, for
    # its last, rejected step, and none for a final stationary check
    basis, ys, mu = _interpolating_stack(bur)
    cold = solve_rom_primal(bur, basis, ys, mu)
    clean = ~cold.stalled & ~cold.failed
    assert 0 < clean.sum() < len(ys) and not cold.failed.any()
    rows = _chunk_sizes(monkeypatch)
    warm = solve_rom_primal(bur, basis, ys[clean], mu, q0=cold.q[clean])
    assert not rows and warm.gn_iters == 0 and not warm.stalled.any()
    q0 = np.zeros((len(ys), basis.k))
    q0[clean] = cold.q[clean]
    mixed = solve_rom_primal(bur, basis, ys, mu, q0=q0)
    assert not mixed.failed.any() and mixed.stalled.any()
    np.testing.assert_array_equal(mixed.iters[clean], 0)
    assert sum(rows) == mixed.gn_iters + mixed.stalled.sum()


def test_reduced_solves_sweep_their_whole_stack(bur, monkeypatch):
    # the 150 nodes at n_u = 127 are one stack in the Gauss-Newton loop
    # and in the adjoint solve (a cut at eleven arrays of n_u per node
    # into STACK_BYTES made two parts of 75): the start's residual and the
    # first iteration's bands see every node, and the adjoint forms the
    # bands of all of them at once
    basis = seeded_basis(bur, seed=5, n_snaps=10)
    rng = np.random.default_rng(6)
    ys = rng.uniform(-1, 1, (150, bur.n_y))
    mu = rng.uniform(-0.3, 0.3, bur.n_mu)
    sizes = recorded_stack_sizes(bur, monkeypatch)
    prim = solve_rom_primal(bur, basis, ys, mu)
    assert bur.n_u == 127
    assert sizes["residual"][0] == sizes["jac_bands"][0] == 150
    assert max(sizes["residual"] + sizes["jac_bands"]) == 150
    sizes.clear()
    solve_rom_adjoint(bur, basis, prim.q, ys, mu)
    assert sizes == {"jac_bands": [150]}


def test_whole_stack_peaks_fit_their_arrays_per_node(bur):
    # a cold solve holds its arrays of n_u for the whole stack and one
    # chunk of the n_u x k algebra: the traced peak of the primal solve
    # is at most 11 arrays of n_u per node and one chunk, of the adjoint
    # solve with the states it reads at most 6.5 and one chunk (the peaks
    # grow by about 9.6 and 5.3 arrays per node here, 10.3 and 5.9 at
    # k = 48).  Holding J Phi (k = 20 columns of n_u) for the whole stack
    # would break both
    basis = seeded_basis(bur, seed=5, n_snaps=10)
    basis.window(), basis.row_grams()      # cached before tracing
    n_u = bur.n_u
    rng = np.random.default_rng(6)
    mu = rng.uniform(-0.3, 0.3, bur.n_mu)
    m = 400
    ys = rng.uniform(-1, 1, (m, bur.n_y))
    tracemalloc.start()
    q = solve_rom_primal(bur, basis, ys, mu).q
    primal_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    q = q.copy()                          # the states the adjoint reads
    solve_rom_adjoint(bur, basis, q, ys, mu)
    adjoint_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert basis.k == 20
    assert primal_peak <= m * 11 * 8 * n_u + kernels.STACK_BYTES
    assert adjoint_peak <= m * 6.5 * 8 * n_u + kernels.STACK_BYTES


def test_chunks_hold_one_block_at_a_time(bur, monkeypatch):
    # a cold stack of 2c nodes, solved in two chunks of c
    # and in one chunk of 2c.  A chunk drops its J Phi (J^T Phi) before
    # the next forms one, so the one-chunk peak is higher by at least the
    # c nodes' block, c n_u k floats.  Were two chunks' blocks alive at
    # once, both peaks would hold 2c nodes' blocks and differ only by
    # the chunk's other arrays, about half a block at this k
    basis = seeded_basis(bur, seed=5, n_snaps=10)
    basis.window(), basis.row_grams()      # cached before tracing
    k, n_u, c = basis.k, bur.n_u, 8
    rng = np.random.default_rng(6)
    mu = rng.uniform(-0.3, 0.3, bur.n_mu)
    ys = rng.uniform(-1, 1, (2 * c, bur.n_y))
    peaks = []
    for size in (c, 2 * c):
        monkeypatch.setattr(kernels, "STACK_BYTES", size * rom._chunk_bytes(basis))
        tracemalloc.start()
        prim = solve_rom_primal(bur, basis, ys, mu)
        primal = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solve_rom_adjoint(bur, basis, prim.q, ys, mu)
        peaks.append((primal, tracemalloc.get_traced_memory()[1]))
        tracemalloc.stop()
        del prim
    assert k == 20
    for small, large in zip(*peaks):
        assert large - small >= c * n_u * k * 8


class _Scaled:
    """A problem whose residual, Jacobian and source are multiplied by ``c``."""

    def __init__(self, problem, c):
        self.problem, self.c = problem, c

    def residual(self, u, y, mu):
        return self.c * self.problem.residual(u, y, mu)

    def jac_bands(self, u, y, mu):
        return tuple(self.c * b for b in self.problem.jac_bands(u, y, mu))

    def source(self, mu):
        return self.c * self.problem.source(mu)

    def _check_stack(self, *args):
        self.problem._check_stack(*args)


def test_stop_depends_on_no_absolute_scale(bur):
    # 2^20 scales every quantity exactly: the same steps and stops follow
    basis, ys, mu = _interpolating_stack(bur)
    plain = solve_rom_primal(bur, basis, ys, mu)
    scaled = solve_rom_primal(_Scaled(bur, 2.0 ** 20), basis, ys, mu)
    assert not plain.stalled[0] and plain.iters.min() > 1
    np.testing.assert_array_equal(scaled.q, plain.q)
    np.testing.assert_array_equal(scaled.iters, plain.iters)
    np.testing.assert_array_equal(scaled.stalled, plain.stalled)
    np.testing.assert_array_equal(scaled.failed, plain.failed)
    assert not plain.failed.any()
    np.testing.assert_array_equal(scaled.residual_norm,
                                  2.0 ** 20 * plain.residual_norm)


def _counting_qr(monkeypatch):
    """Count the calls of ``np.linalg.qr`` in a list of one entry."""
    calls, qr = [0], np.linalg.qr

    def counted(*args, **kwargs):
        calls[0] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def test_near_representable_burgers_step_is_a_qr_step(bur, monkeypatch):
    # a greedy-sampled node: its full solution is in a basis of 42
    # columns, and it starts 1e-7 off its projection.  The step's model
    # residual is far below the error of the normal equations, so the
    # step is a QR step, and it reproduces the node at the round-off of
    # its residual, as the full solve does
    rng = np.random.default_rng(40)
    y, mu = rng.uniform(-1, 1, (1, 2)), rng.uniform(-0.3, 0.3, 8)
    basis = seeded_basis(bur, seed=41, n_snaps=20)
    u, lam = hdm_pair(bur, y[0], mu)
    basis.append_snapshots([u, lam], ["primal", "adjoint"], y[0], mu)
    q0 = basis.project(u) + 1e-7 * np.random.default_rng(1).standard_normal(basis.k)
    calls = _counting_qr(monkeypatch)
    prim = solve_rom_primal(bur, basis, y, mu, q0=q0[None])
    assert basis.k == 42 and calls[0] == 1
    assert prim.iters[0] == 1 and not prim.stalled[0] and not prim.failed[0]
    lo, dg, up = bur.jac_bands(u[None], y, mu)
    floor = rom._EPS * kernels.roundoff_scale(lo, dg, up, u[None], bur.source(mu))[0]
    assert prim.residual_norm[0] <= floor
    assert np.linalg.norm(basis.expand(prim.q)[0] - u) <= 1e-10 * np.linalg.norm(u)


def _scaled_column_step(lin, monkeypatch, factor, kernel="band_matmat"):
    """A diffusion node whose ``J Phi`` (``kernel`` ``band_matmat``), or
    ``J^T Phi`` (``band_t_matmat``), has column 1 scaled by ``factor``
    (``kernels.<kernel>`` patched), started off its reduced minimizer in
    the other coordinates only, so that the exact step of the scaled
    ``J Phi``, like the true one, leaves coordinate 1 unchanged.  Returns
    ``(basis, y, mu, q0, a, r0)``: the start, and the scaled matrix and
    the residual there."""
    basis = seeded_basis(lin, seed=29, n_snaps=2)
    y, mu = np.array([[0.1, 0.3]]), np.full(8, -0.1)
    q0 = solve_rom_primal(lin, basis, y, mu).q
    q0[0, 0] += 3e-3
    q0[0, 2:] -= 2e-3
    product = getattr(kernels, kernel)

    def scaled_column(*args):
        a = product(*args)
        a[..., 1] *= factor
        return a

    monkeypatch.setattr(kernels, kernel, scaled_column)
    u0 = basis.expand(q0)
    a = getattr(kernels, kernel)(*lin.jac_bands(u0, y, mu), basis.window())[0]
    return basis, y, mu, q0, a, lin.residual(u0, y, mu)[0]


def test_ill_conditioned_gram_takes_the_qr_step(lin, monkeypatch):
    # cond(G) near 1e14: the Cholesky pivots put it past the bound, while
    # the model residual alone would keep the normal equations
    basis, y, mu, q0, a, r0 = _scaled_column_step(lin, monkeypatch, 1e-7)
    kappa2 = rom._gram(a[None])[1]
    assert kappa2[0] > rom._COND_G_MAX
    g = a.T @ r0
    model = r0 @ r0 - g @ np.linalg.solve(a.T @ a, g)
    assert model > kappa2[0] * rom._EPS * (r0 @ r0)
    calls = _counting_qr(monkeypatch)
    monkeypatch.setattr(rom, "GN_MAX_ITERS", 1)
    prim = solve_rom_primal(lin, basis, y, mu, q0=q0)
    assert calls[0] == 1 and prim.iters[0] == 1
    # Householder QR resolves the step up to the column scaling: compare
    # it to the least-squares reference in the scaled coordinates
    ref = np.linalg.lstsq(a, -r0, rcond=None)[0]
    scale = np.ones(basis.k)
    scale[1] = 1e-7
    step = prim.q[0] - q0[0]
    assert np.linalg.norm(scale * (step - ref)) <= 1e-12 * np.linalg.norm(scale * ref)


def test_singular_reduced_jacobian_raises(lin, monkeypatch):
    # a zero column fails the Cholesky factorization, and the QR step
    # that replaces it finds the triangular factor rank-deficient
    basis, y, mu, q0, a, r0 = _scaled_column_step(lin, monkeypatch, 0.0)
    assert np.isnan(rom._gram(a[None])[1][0])
    with pytest.raises(RomSolveError, match="rank-deficient"):
        solve_rom_primal(lin, basis, y, mu, q0=q0)


# ---------------------------------------------------------------------------
# adjoint ROM
# ---------------------------------------------------------------------------

def test_full_space_reproduces_adjoint(lin_small):
    # span the whole state space: the least-squares adjoint is exact
    rng = np.random.default_rng(16)
    basis = ReducedBasis(lin_small.n_u)
    basis.append_snapshots(rng.standard_normal((lin_small.n_u, lin_small.n_u)).T,
                           ["primal"] * lin_small.n_u,
                           np.zeros(2), np.zeros(8))
    assert basis.k == lin_small.n_u
    y = rng.uniform(-1, 1, 2)
    mu = rng.uniform(-0.5, 0.5, 8)
    _, lam = hdm_pair(lin_small, y, mu)
    prim = solve_rom_primal(lin_small, basis, y[None], mu)
    adj_rom = solve_rom_adjoint(lin_small, basis, prim.q, y[None], mu)
    np.testing.assert_allclose(basis.columns @ adj_rom.eta[0], lam,
                               rtol=1e-7, atol=1e-10)


def test_adjoint_optimality_over_candidates(lin):
    rng = np.random.default_rng(17)
    y = rng.uniform(-1, 1, 2)
    mu = rng.uniform(-0.5, 0.5, 8)
    basis = seeded_basis(lin, seed=18, n_snaps=2)
    prim = solve_rom_primal(lin, basis, y[None], mu)
    adj_rom = solve_rom_adjoint(lin, basis, prim.q, y[None], mu)
    u = basis.expand(prim.q)
    for _ in range(10):
        eta = adj_rom.eta + rng.standard_normal(basis.k)
        res = np.linalg.norm(adjoint_residual(
            lin, basis.expand(eta), u, y[None], mu))
        assert adj_rom.residual_norm[0] <= res * (1 + 1e-12)


def test_adjoint_reaches_the_least_squares_minimum(bur):
    # a node whose primal and adjoint solutions are in a basis of 42
    # columns: its adjoint residual is at round-off, which the error
    # cond(G) eps of one normal-equations step (cond(G) near 4e6) would
    # leave several times above the least-squares minimum.  The second
    # step, from the true residual, reaches the minimum
    rng = np.random.default_rng(44)
    y, mu = rng.uniform(-1, 1, (1, 2)), rng.uniform(-0.3, 0.3, 8)
    basis = seeded_basis(bur, seed=45, n_snaps=20)
    u, lam = hdm_pair(bur, y[0], mu)
    basis.append_snapshots([u, lam], ["primal", "adjoint"], y[0], mu)
    prim = solve_rom_primal(bur, basis, y, mu)
    adj = solve_rom_adjoint(bur, basis, prim.q, y, mu)
    uq = basis.expand(prim.q)
    a = kernels.band_t_matmat(*bur.jac_bands(uq, y, mu), basis.window())[0]
    b = bur.qoi_u(uq, y, mu)[0]
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    assert basis.k == 42
    assert adj.residual_norm[0] <= 1.01 * np.linalg.norm(a @ ref - b)
    assert np.linalg.norm(adj.eta[0] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ill_conditioned_adjoint_takes_the_qr_step(lin, monkeypatch):
    # J^T Phi of full rank with column 1 scaled by 1e-7: its G is past
    # the pivot-ratio bound, so both adjoint steps are QR steps, and the
    # adjoint is solved, not raised
    basis, y, mu, q0, a, _ = _scaled_column_step(lin, monkeypatch, 1e-7,
                                                 "band_t_matmat")
    assert rom._gram(a[None])[1][0] > rom._COND_G_MAX
    calls = _counting_qr(monkeypatch)
    adj = solve_rom_adjoint(lin, basis, q0, y, mu)
    assert calls[0] == 2
    # Householder QR resolves eta up to the column scaling: compare
    # scale * eta to the least-squares reference of the unscaled matrix
    b = lin.qoi_u(basis.expand(q0), y, mu)[0]
    scale = np.ones(basis.k)
    scale[1] = 1e-7
    ref = np.linalg.lstsq(a / scale, b, rcond=None)[0]
    assert np.linalg.norm(scale * adj.eta[0] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert adj.residual_norm[0] <= (1 + 1e-12) * np.linalg.norm(a / scale @ ref - b)


def test_adjoint_rank_deficiency_raises(lin, monkeypatch):
    basis = seeded_basis(lin, seed=29, n_snaps=2)
    y, mu = np.array([0.1, 0.3]), np.full(8, -0.1)
    prim = solve_rom_primal(lin, basis, y[None], mu)
    band_t_matmat = kernels.band_t_matmat

    def zero_column(*args):
        a = band_t_matmat(*args)
        a[..., 1] = 0.0
        return a

    monkeypatch.setattr(kernels, "band_t_matmat", zero_column)
    with pytest.raises(RomSolveError, match="rank-deficient"):
        solve_rom_adjoint(lin, basis, prim.q, y[None], mu)


# ---------------------------------------------------------------------------
# reduced QoI and gradient
# ---------------------------------------------------------------------------

def test_rom_qoi_at_zero_coordinates(lin):
    basis = seeded_basis(lin, seed=19)
    y, mu = np.zeros((1, 2)), np.full(8, 0.2)
    assert lin.qoi(basis.expand(np.zeros((1, basis.k))), y, mu)[0] == pytest.approx(
        lin.qoi(np.zeros((1, lin.n_u)), y, mu)[0])


def test_rom_gradient_exact_subspace(bur):
    rng = np.random.default_rng(20)
    y = rng.uniform(-1, 1, 2)
    mu = rng.uniform(-0.3, 0.3, 8)
    u, lam = hdm_pair(bur, y, mu)
    basis = seeded_basis(bur, seed=21)
    basis.append_snapshots([u, lam], ["primal", "adjoint"], y, mu)
    prim = solve_rom_primal(bur, basis, y[None], mu)
    adj_rom = solve_rom_adjoint(bur, basis, prim.q, y[None], mu)
    g = adjoint_gradient(bur, basis.expand(adj_rom.eta),
                         basis.expand(prim.q), y[None], mu)
    g_exact = adjoint_gradient(bur, lam[None], u[None], y[None], mu)
    assert np.linalg.norm(g - g_exact) <= 1e-8 * (1 + np.linalg.norm(g_exact))
    f_rom = bur.qoi(basis.expand(prim.q), y[None], mu)[0]
    assert abs(f_rom - bur.qoi(u[None], y[None], mu)[0]) <= 1e-8


def test_rom_gradient_regularizer_only(lin):
    basis = seeded_basis(lin, seed=22)
    mu = np.full(8, 0.5)
    q = np.zeros((1, basis.k))
    g = adjoint_gradient(lin, basis.expand(q), basis.expand(q), np.zeros((1, 2)), mu)
    np.testing.assert_allclose(g, lin.alpha * mu[None], atol=1e-15)


def test_qoi_error_within_empirical_bound(lin):
    # measure the bound constant on one sample set, then check fresh
    # samples stay within an order of magnitude of it
    from sgromtr.oracle import validate_bounds

    basis = seeded_basis(lin, seed=23)
    est, _ = validate_bounds(lin, basis, 50, seed=101)
    kappa_hat = est.max_ratio
    rng = np.random.default_rng(24)
    for _ in range(20):
        y = rng.uniform(-1, 1, 2)
        mu = rng.uniform(-1, 1, 8)
        prim = solve_rom_primal(lin, basis, y[None], mu)
        sol = solve_primal(lin, y[None], mu)
        err = abs(lin.qoi(sol.u, y[None], mu)[0]
                  - lin.qoi(basis.expand(prim.q), y[None], mu)[0])
        assert err <= 10.0 * kappa_hat * prim.residual_norm[0]
