"""Reduced-basis bookkeeping and minimum-residual solve properties."""

import numpy as np
import pytest

from sgromtr.hdm import (adjoint_gradient, adjoint_residual,
                         solve_adjoint, solve_primal)
from sgromtr import kernels, rom
from sgromtr.rom import (ReducedBasis, RomSolveError, _augmented_r,
                         solve_rom_adjoint, solve_rom_primal)


def hdm_pair(problem, y, mu):
    """Full primal and adjoint states at one node ``y`` of length ``n_y``."""
    sol = solve_primal(problem, y[None], mu)
    adj = solve_adjoint(problem, sol.u, y[None], mu)
    return sol.u[0], adj.lam[0]


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
    rng = np.random.default_rng(n + k)
    for _ in range(5):
        a = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        R = _augmented_r(a, b)
        x = np.linalg.solve(R[:k, :k], R[:k, k])
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        res_ref = np.linalg.norm(a @ x_ref - b)
        assert abs(abs(R[k, k]) - res_ref) <= 1e-12 * res_ref


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
    with pytest.raises(RomSolveError, match="stagnated"):
        solve_rom_primal(problem, basis, np.zeros((1, 2)), np.zeros(3),
                         q0=np.array([[1e-4, 0.0]]))
    # the initial residual, the full step, then the 13 halvings at once
    assert problem.residual_rows == 1 + 14
    assert problem.residual_calls == 3


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
    np.testing.assert_array_equal(stack.q[1:], q0[1:])
    for i in range(3):
        alone, _ = solve([i])
        np.testing.assert_array_equal(stack.q[i], alone.q[0])
        np.testing.assert_array_equal(stack.residual_norm[i],
                                      alone.residual_norm[0])
        assert stack.iters[i] == alone.gn_iters
    monkeypatch.setattr(kernels, "STACK_BYTES", 1)   # one node per part
    split, _ = solve([0, 1, 2])
    np.testing.assert_array_equal(split.q, stack.q)
    np.testing.assert_array_equal(split.residual_norm, stack.residual_norm)
    np.testing.assert_array_equal(split.iters, stack.iters)


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
    with pytest.raises(RomSolveError, match="did not converge in 1 iterations") as info:
        solve_rom_primal(problem, basis, np.zeros((3, 2)), np.zeros(3), q0=q0)
    result, failed = info.value.result, info.value.failed
    np.testing.assert_array_equal(failed, [True, False, False])
    np.testing.assert_array_equal(result.iters, [1, 0, 0])
    np.testing.assert_allclose(result.q[0], q_star, atol=1e-15)
    np.testing.assert_array_equal(result.q[1:], q0[1:])
    # the true residual norms at the returned iterates
    true = np.linalg.norm(problem.residual(basis.expand(result.q), None, None), axis=1)
    np.testing.assert_allclose(result.residual_norm, true, rtol=1e-15)


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
    assert cold.gn_iters > 0 and not cold.stalled[0]
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


def test_stop_depends_on_no_absolute_scale(bur):
    # 2^20 scales every quantity exactly: the same steps and stops follow
    basis, ys, mu = _interpolating_stack(bur)
    plain = solve_rom_primal(bur, basis, ys, mu)
    scaled = solve_rom_primal(_Scaled(bur, 2.0 ** 20), basis, ys, mu)
    assert not plain.stalled[0] and plain.iters.min() > 1
    np.testing.assert_array_equal(scaled.q, plain.q)
    np.testing.assert_array_equal(scaled.iters, plain.iters)
    np.testing.assert_array_equal(scaled.stalled, plain.stalled)
    np.testing.assert_array_equal(scaled.residual_norm,
                                  2.0 ** 20 * plain.residual_norm)


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


def test_adjoint_rank_deficiency_raises(lin, monkeypatch):
    basis = seeded_basis(lin, seed=29, n_snaps=2)
    y, mu = np.array([0.1, 0.3]), np.full(8, -0.1)
    prim = solve_rom_primal(lin, basis, y[None], mu)
    jac_uT_mul = lin.jac_uT_mul

    def zero_column(u, y, mu, v):
        a = jac_uT_mul(u, y, mu, v).copy()
        a[..., 1] = 0.0
        return a

    monkeypatch.setattr(lin, "jac_uT_mul", zero_column)
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
