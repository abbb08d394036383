"""Indicators, the node cache, and the two refinement drivers."""

import itertools

import numpy as np
import pytest

from sgromtr.adapt import (GradientIndicator, SgRomPair, eval_gradient_indicator,
                           eval_objective_indicator, objective_thresholds,
                           refine_for_gradient, refine_for_objective,
                           LevelCapError)
from sgromtr.hdm import (LinearDiffusion, QueryCounters, solve_adjoint,
                         solve_primal)
from sgromtr.rom import ReducedBasis, solve_rom_primal
from sgromtr.sparse_grid import MultiIndexSet, cc_rule, is_admissible
from sgromtr.trust_opt import TrustRegionConfig, tr_init


def make_pair(problem, mu_seed=None, grid_indices=None):
    mu_seed = np.zeros(problem.n_mu) if mu_seed is None else mu_seed
    counters = QueryCounters()
    sol = solve_primal(problem, np.zeros(problem.n_y), mu_seed,
                       counters=counters)
    adj = solve_adjoint(problem, sol.u, np.zeros(problem.n_y), mu_seed,
                        counters=counters)
    basis = ReducedBasis(problem.n_u)
    basis.append_snapshots([sol.u, adj.lam], ["primal", "adjoint"],
                           np.zeros(problem.n_y), mu_seed)
    grid = (MultiIndexSet.unit(problem.n_y) if grid_indices is None
            else MultiIndexSet.from_indices(grid_indices))
    return SgRomPair(problem, grid, basis, counters)


def sample_everywhere(pair, mu):
    """Append HDM snapshots at every node of grid union neighbors."""
    quad = pair.sweep(mu)
    for key, coord in zip(quad.keys, quad.coords):
        sol = solve_primal(pair.problem, coord, mu)
        adj = solve_adjoint(pair.problem, sol.u, coord, mu)
        pair.basis.append_snapshots([sol.u, adj.lam], ["primal", "adjoint"],
                                    coord, mu)
        pair.basis.sampled_points.add((key, np.asarray(mu, float).tobytes()))


@pytest.fixture()
def lin_pair(lin):
    return make_pair(lin, mu_seed=np.linspace(-0.3, 0.3, lin.n_mu))


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def test_phi_combines_terms_with_betas():
    ind = GradientIndicator(0.5, 0.25, 0.125, (1.0, 1.0, 1.0))
    assert ind.phi == pytest.approx(0.875)
    ind2 = GradientIndicator(0.5, 0.25, 0.125, (2.0, 4.0, 8.0))
    assert ind2.phi == pytest.approx(1.0 + 1.0 + 1.0)


def test_saturation_on_two_level_grid(lin):
    # exhaustive sampling of a 2-level grid's nodes and neighbors drives
    # both residual terms to the interpolation floor
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu,
                     grid_indices=[(1, 1), (2, 1), (1, 2), (2, 2)])
    sample_everywhere(pair, mu)
    ind = eval_gradient_indicator(pair, mu, (1.0, 1.0, 1.0))
    assert ind.e1 <= 1e-7
    assert ind.e3 <= 1e-7


def test_e4_matches_brute_force_expansion(lin, lin_pair):
    # independent summation: expand each neighbor difference into its
    # signed tensor rules directly from the 1D rules
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    ind = eval_gradient_indicator(lin_pair, mu, (1.0, 1.0, 1.0))
    quad = lin_pair.sweep(mu)
    cache = {key: lin_pair.node_eval(key, coord, mu)
             for key, coord in zip(quad.keys, quad.coords)}

    total = 0.0
    for idx in lin_pair.grid.neighbors():
        active = [d for d, lev in enumerate(idx) if lev > 1]
        acc = 0.0
        for bump in itertools.product((0, 1), repeat=len(active)):
            levels = list(idx)
            for d, b in zip(active, bump):
                levels[d] -= b
            sign = -1.0 if sum(bump) % 2 else 1.0
            rules = [cc_rule(l) for l in levels]
            for combo in itertools.product(*[range(len(r.keys)) for r in rules]):
                key = tuple(rules[d].keys[i] for d, i in enumerate(combo))
                w = np.prod([rules[d].weights[i] for d, i in enumerate(combo)])
                acc += sign * w * np.linalg.norm(cache[key].ghat)
        total += acc
    assert abs(ind.e4 - abs(total)) <= 1e-12


def test_objective_indicator_symmetry(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    ind = eval_objective_indicator(lin_pair, mu, mu, (1e-2, 1e-2))
    ck = tuple(mu)
    assert ind.theta == pytest.approx(
        2 * (1e-2 * ind.e1_at[ck] + 1e-2 * ind.e2_at[ck]))


def test_objective_indicator_alpha_homogeneity(lin, lin_pair):
    mu_c = np.linspace(-0.3, 0.3, lin.n_mu)
    mu_t = mu_c + 0.05
    a = eval_objective_indicator(lin_pair, mu_c, mu_t, (1e-2, 1e-2))
    b = eval_objective_indicator(lin_pair, mu_c, mu_t, (3e-2, 3e-2))
    assert b.theta == pytest.approx(3.0 * a.theta, rel=1e-12)


def test_exact_subspace_objective_terms(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    sample_everywhere(lin_pair, mu)
    ind = eval_objective_indicator(lin_pair, mu, mu, (1e-2, 1e-2))
    assert ind.e1_at[tuple(mu)] <= 1e-7


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------

def test_cache_invalidated_on_append(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    quad = lin_pair.sweep(mu)
    before = {key: lin_pair.node_eval(key, coord, mu).prim_res
              for key, coord in zip(quad.keys, quad.coords)}
    sample_everywhere(lin_pair, mu)
    after = {key: lin_pair.node_eval(key, coord, mu).prim_res
             for key, coord in zip(quad.keys, quad.coords)}
    # every stale value was recomputed against the enriched basis
    assert all(after[k] <= before[k] * (1 + 1e-12) + 1e-12 for k in before)
    assert any(after[k] < before[k] * 0.5 for k in before)


def test_no_repeated_hdm_sampling(lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    refine_for_gradient(pair, mu, 1.0, 1e-3, (1.0, 1.0, 1.0), events=events)
    sampled = [ev.detail for ev in events if ev.kind == "add_snapshot"]
    assert len(sampled) == len(set(sampled))


# ---------------------------------------------------------------------------
# gradient-condition driver
# ---------------------------------------------------------------------------

def test_refine_gradient_noop_when_gradient_flat(lin):
    class FlatQoI(LinearDiffusion):
        def qoi(self, u, y, mu):
            return 1.0

        def qoi_u(self, u, y, mu):
            return np.zeros(self.n_u)

        def qoi_mu(self, u, y, mu):
            return np.zeros(self.n_mu)

    prob = FlatQoI()
    pair = make_pair(prob, mu_seed=np.full(prob.n_mu, 0.2))
    grid_before, k_before = pair.grid, pair.basis.k
    events = []
    out = refine_for_gradient(pair, np.full(prob.n_mu, 0.2), 1.0, 1.0,
                              (1.0, 1.0, 1.0), events=events)
    assert out.grid is grid_before and out.basis.k == k_before
    assert events == []


def test_refine_gradient_cold_start_samples(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    refine_for_gradient(pair, mu, 1.0, 1e-2, (1.0, 1.0, 1.0), events=events)
    kinds = {ev.kind for ev in events}
    assert "add_snapshot" in kinds
    checks = [ev for ev in events if ev.kind == "exit_check"]
    assert len(checks) == 1 and checks[0].ok


def test_refine_gradient_exit_conditions_hold(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    betas = (1.0, 1.0, 1.0)
    kappa_phi = 0.1
    delta = 0.5
    refine_for_gradient(pair, mu, delta, kappa_phi, betas)
    ind = eval_gradient_indicator(pair, mu, betas)
    guard = min(np.linalg.norm(pair.model_gradient(mu)), delta)
    assert ind.e1 <= kappa_phi / 3 * guard
    assert ind.e3 <= kappa_phi / 3 * guard
    assert ind.e4 <= kappa_phi / 3 * guard
    assert is_admissible(pair.grid)


def test_refine_gradient_respects_level_cap(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    with pytest.raises(LevelCapError):
        refine_for_gradient(pair, mu, 1e-12, 1e-9, (1.0, 1.0, 1.0),
                            level_cap=2)


# ---------------------------------------------------------------------------
# objective-condition driver
# ---------------------------------------------------------------------------

def test_objective_threshold_arithmetic():
    thr1, thr2 = objective_thresholds(0.5, 1.0, eta=0.1, omega=0.1,
                                      alphas=(1e-2, 1e-2))
    expected = (0.1 * 0.5) ** 10 / (2 * 1e-2)
    assert thr1 == pytest.approx(expected) and thr2 == pytest.approx(expected)
    thr1f, _ = objective_thresholds(0.5, 1.0, 0.1, 0.1, (1e-2, 1e-2),
                                    floor=1e-6)
    assert thr1f == 1e-6


def test_refine_objective_noop_when_satisfied(lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    grid_before, k_before = pair.grid, pair.basis.k
    # enormous floor: both inequalities hold at entry, so psi == m and
    # the actual-to-predicted ratio of the enclosing step would be one
    out = refine_for_objective(pair, mu, mu + 0.01, m_decrease=1e-3, r_k=1.0,
                               eta=0.1, omega=0.1, alphas=(1e-2, 1e-2),
                               threshold_floor=1e6)
    assert out.grid is grid_before and out.basis.k == k_before


def test_refine_objective_rejects_nonpositive_decrease(lin_pair, lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    with pytest.raises(ValueError):
        refine_for_objective(lin_pair, mu, mu, m_decrease=0.0, r_k=1.0,
                             eta=0.1, omega=0.1, alphas=(1e-2, 1e-2))


def test_refine_objective_exit_conditions_hold(lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    mu_hat = mu + 0.02
    pair = make_pair(lin, mu_seed=mu)
    floor = 1e-5
    refine_for_objective(pair, mu, mu_hat, m_decrease=1e-3, r_k=1.0,
                         eta=0.1, omega=0.1, alphas=(1e-2, 1e-2),
                         threshold_floor=floor)
    ind = eval_objective_indicator(pair, mu, mu_hat, (1e-2, 1e-2))
    thr1, thr2 = objective_thresholds(1e-3, 1.0, 0.1, 0.1, (1e-2, 1e-2),
                                      floor=floor)
    assert ind.e1_sum <= thr1
    assert ind.e2_sum <= thr2
    assert is_admissible(pair.grid)


def test_seed_pair_from_tr_init_reproduces_qoi(lin):
    mu0 = np.full(lin.n_mu, 0.25)
    state = tr_init(lin, TrustRegionConfig(), mu0)
    sol = solve_primal(lin, np.zeros(2), mu0)
    f_true = lin.qoi(sol.u, np.zeros(2), mu0)
    assert state.pair.model_value(mu0) == pytest.approx(f_true, abs=1e-8)


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------

def _mu_key(mu):
    return np.asarray(mu, dtype=float).tobytes()


def test_fresh_mu_near_cached_mu_starts_warm(bur):
    # a finite-difference Hessian point next to the center: every node
    # starts from its own center solution.  The seed basis leaves large
    # residuals, whose minimizers are flat to about 1e-7 in q, so the
    # minimized residual norm is what matches to 1e-10
    mu0 = np.zeros(bur.n_mu)
    pair = tr_init(bur, TrustRegionConfig(), mu0).pair
    quad = pair.sweep(mu0)
    mu = mu0 + 1e-7 * np.linspace(-1.0, 1.0, bur.n_mu)
    pair.ensure(mu, quad.keys, quad.coords)
    for key, coord in zip(quad.keys, quad.coords):
        ev = pair.node_eval(key, coord, mu)
        assert ev.gn_iters <= 2
        cold = solve_rom_primal(bur, pair.basis, coord, mu)
        assert cold.gn_iters > 2
        assert abs(ev.prim_res - cold.residual_norm) <= 1e-10 * (
            1 + cold.residual_norm)
        assert np.linalg.norm(ev.q - cold.q) <= 1e-6 * np.linalg.norm(cold.q)


def test_cached_mu_warm_start_is_nearest_node(lin):
    # the choice must equal a scan over every (node, mu) entry in the
    # order the nodes were first solved, keeping the first nearest one
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu, grid_indices=[(1, 1), (2, 1), (1, 2)])
    order = []
    solve_node = pair._solve_node

    def logged(key, coord, mu_, q0):
        order.append((key, _mu_key(mu_)))
        return solve_node(key, coord, mu_, q0)

    pair._solve_node = logged
    pair.sweep(mu)
    pair.sweep(0.5 * mu)
    pair.grid = pair.grid.with_index((2, 2)).with_index((3, 1))
    mk = _mu_key(mu)
    quad = pair.union_quad()
    flat = {(key, wmk): pair._warm[wmk][key] for key, wmk in order}
    # the centers of the level-2 cells are equidistant from four nodes
    centers = [(None, np.array([sx, sy]))
               for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)]
    checked = 0
    for key, coord in list(zip(quad.keys, quad.coords)) + centers:
        best, best_d = None, np.inf
        for (_, wmk), (wy, wq) in flat.items():
            if wmk != mk:
                continue
            d = float(np.linalg.norm(coord - wy))
            if d < best_d:
                best_d, best = d, wq
        np.testing.assert_array_equal(
            pair._warm_starts([(key, coord)], mk, [])[0], best)
        checked += key is not None and (key, mk) not in flat
    assert checked > 0  # some grid nodes were not yet solved at mu


def test_fresh_mu_takes_own_node_at_nearest_mu(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu, grid_indices=[(1, 1), (2, 1)])
    quad = pair.sweep(mu)
    pair.sweep(-mu)
    near = pair._mus_by_distance(0.9 * mu)
    assert near == [_mu_key(mu), _mu_key(-mu)]
    for key, coord in zip(quad.keys, quad.coords):
        np.testing.assert_array_equal(
            pair._warm_starts([(key, coord)], _mu_key(0.9 * mu), near)[0],
            pair._warm[_mu_key(mu)][key][1])


def test_clone_copies_warm_starts_per_mu(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    lin_pair.sweep(mu)
    mk = _mu_key(mu)
    other = lin_pair.clone()
    assert other._warm[mk] == lin_pair._warm[mk]
    assert other._warm[mk] is not lin_pair._warm[mk]
    n_before = len(lin_pair._warm[mk])
    other.grid = other.grid.with_index((2, 1))
    other.sweep(mu)
    other.sweep(0.5 * mu)
    assert len(other._warm[mk]) > n_before
    assert len(lin_pair._warm[mk]) == n_before
    assert _mu_key(0.5 * mu) not in lin_pair._warm
