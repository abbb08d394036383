"""Indicators, the node-solve store, and the two refinement drivers."""

import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sgromtr import adapt, kernels
from sgromtr.adapt import (SgRomPair, eval_gradient_indicator,
                           eval_objective_indicator, objective_thresholds,
                           refine_for_gradient, refine_for_objective,
                           LevelCapError)
from sgromtr.hdm import (LinearDiffusion, QueryCounters, solve_adjoint,
                         solve_primal)
from sgromtr.rom import ReducedBasis, solve_rom_adjoint, solve_rom_primal
from sgromtr.sparse_grid import (MultiIndexSet, assemble, cc_rule,
                                 interpolation_weights, is_admissible)
from sgromtr.trust_opt import TrustRegionConfig, tr_init, tr_run


def _mu_key(mu):
    return np.asarray(mu, dtype=float).tobytes()


def make_pair(problem, mu_seed=None, grid_indices=None):
    mu_seed = np.zeros(problem.n_mu) if mu_seed is None else mu_seed
    counters = QueryCounters()
    sol = solve_primal(problem, np.zeros((1, problem.n_y)), mu_seed)
    counters.count_primals(sol)
    lam = solve_adjoint(problem, sol.u, np.zeros((1, problem.n_y)), mu_seed)
    counters.n_ha += 1
    basis = ReducedBasis(problem.n_u)
    basis.append_snapshots([sol.u[0], lam[0]], ["primal", "adjoint"],
                           np.zeros(problem.n_y), mu_seed)
    grid = (MultiIndexSet.unit(problem.n_y) if grid_indices is None
            else MultiIndexSet.from_indices(grid_indices))
    return SgRomPair(problem, grid, basis, counters)


def sample_everywhere(pair, mu):
    """Append HDM snapshots at every node of grid union neighbors."""
    quad = pair.union_quad()
    for key, coord in zip(quad.keys, quad.coords):
        sol = solve_primal(pair.problem, coord[None], mu)
        lam = solve_adjoint(pair.problem, sol.u, coord[None], mu)
        pair.basis.append_snapshots([sol.u[0], lam[0]], ["primal", "adjoint"],
                                    coord, mu)
        pair.basis.sampled_points.add((key, _mu_key(mu)))


@pytest.fixture()
def lin_pair(lin):
    return make_pair(lin, mu_seed=np.linspace(-0.3, 0.3, lin.n_mu))


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def test_phi_combines_terms_with_betas(lin, monkeypatch):
    # the gradient stage's exit row reports phi = sum_i beta_i e_i of the
    # last indicator evaluation
    seen = []
    real = adapt.eval_gradient_indicator

    def logged(*args):
        out = real(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(adapt, "eval_gradient_indicator", logged)
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    cfg = TrustRegionConfig(kappa_phi=1e-2, betas=(2.0, 4.0, 8.0), gtol=0.0)
    refine_for_gradient(pair, mu, 1.0, cfg, events=events)
    check = events[-1]
    assert check.kind == "exit_check" and len(seen) > 1
    last = seen[-1]
    assert check.before == pytest.approx(
        2.0 * last["e1"] + 4.0 * last["e3"] + 8.0 * last["e4"], rel=1e-15)


def test_saturation_on_two_level_grid(lin):
    # exhaustive sampling of a 2-level grid's nodes and neighbors drives
    # both residual terms to the interpolation floor
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu,
                     grid_indices=[(1, 1), (2, 1), (1, 2), (2, 2)])
    sample_everywhere(pair, mu)
    terms, _ = eval_gradient_indicator(pair, mu)
    assert terms["e1"] <= 1e-7
    assert terms["e3"] <= 1e-7


def test_e4_matches_brute_force_expansion(lin, lin_pair):
    # independent summation: expand each neighbor difference into its
    # signed tensor rules directly from the 1D rules
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    terms, (diffs,) = eval_gradient_indicator(lin_pair, mu)
    quad = lin_pair.union_quad()
    cache = dict(zip(quad.keys, lin_pair.evals(quad, mu)))

    assert sorted(diffs) == sorted(lin_pair.grid.neighbors())
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
        assert abs(diffs[idx] - acc) <= 1e-12
        total += acc
    assert abs(terms["e4"] - abs(total)) <= 1e-12


def test_objective_indicator_symmetry(lin, lin_pair):
    # with the trial point at the center, each term is twice its
    # one-point value and both difference dicts are the one-point dict
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    terms, (diffs_c, diffs_t) = eval_objective_indicator(lin_pair, mu, mu)
    quad = lin_pair.union_quad()
    evs = lin_pair.evals(quad, mu)
    e1 = abs(float(np.dot(quad.weights, [ev.prim_res for ev in evs])))
    diffs = lin_pair.neighbor_differences(quad, evs, lambda ev: abs(ev.fval))
    assert diffs_c == diffs == diffs_t
    assert terms["e1'"] == 2.0 * e1
    assert terms["e2'"] == 2.0 * abs(sum(diffs.values()))


@pytest.mark.parametrize("stage, sweeps", [("gradient", 1), ("objective", 2)])
def test_indicator_reads_one_sweep_per_point(lin, lin_pair, monkeypatch,
                                             stage, sweeps):
    # one evaluation assembles the union quadrature once and reads its
    # node solves once per parameter point: once at the center on the
    # gradient stage, once at the center and once at the trial point on
    # the objective stage
    calls = {"union_quad": 0, "evals": 0}
    for name in calls:
        def counted(self, *args, _real=getattr(SgRomPair, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(SgRomPair, name, counted)
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    if stage == "gradient":
        eval_gradient_indicator(lin_pair, mu)
    else:
        eval_objective_indicator(lin_pair, mu, 0.5 * mu)
    assert calls == {"union_quad": 1, "evals": sweeps}


def test_union_quadrature_assembled_once_per_grid(lin, lin_pair, monkeypatch):
    assembled = []
    real = adapt.assemble
    monkeypatch.setattr(adapt, "assemble",
                        lambda mis: assembled.append(mis) or real(mis))
    first = lin_pair.union_quad()
    assert lin_pair.union_quad() is first
    assert lin_pair.clone([]).union_quad() is first
    lin_pair.grid = lin_pair.grid.with_index((2, 1))
    grown = lin_pair.union_quad()
    assert grown.keys == real(lin_pair.grid.union_with_neighbors()).keys
    assert lin_pair.union_quad() is grown
    assert len(assembled) == 2


def test_exact_subspace_objective_terms(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    sample_everywhere(lin_pair, mu)
    terms, _ = eval_objective_indicator(lin_pair, mu, mu)
    assert terms["e1'"] <= 2e-7   # twice the one-point term


# ---------------------------------------------------------------------------
# node-solve store
# ---------------------------------------------------------------------------

def test_cache_invalidated_on_append(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    quad = lin_pair.union_quad()
    before = {key: ev.prim_res
              for key, ev in zip(quad.keys, lin_pair.evals(quad, mu))}
    sample_everywhere(lin_pair, mu)
    # a solve on the smaller basis is stale: its q is shorter than k
    stored = lin_pair._nodes[_mu_key(mu)]
    assert all(len(ev.q) < lin_pair.basis.k for ev in stored.values())
    n_rp = lin_pair.counters.n_rp
    after = {key: ev.prim_res
             for key, ev in zip(quad.keys, lin_pair.evals(quad, mu))}
    assert lin_pair.counters.n_rp == n_rp + len(quad.keys)
    # every stale value was recomputed against the enriched basis
    assert all(after[k] <= before[k] * (1 + 1e-12) + 1e-12 for k in before)
    assert any(after[k] < before[k] * 0.5 for k in before)


def test_no_repeated_hdm_sampling(lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    refine_for_gradient(pair, mu, 1.0, TrustRegionConfig(kappa_phi=1e-3, gtol=0.0),
                        events=events)
    sampled = [ev.detail for ev in events if ev.kind == "add_snapshot"]
    assert len(sampled) == len(set(sampled))


# ---------------------------------------------------------------------------
# gradient-condition driver
# ---------------------------------------------------------------------------

def test_refine_gradient_noop_when_gradient_flat(lin):
    class FlatQoI(LinearDiffusion):
        def qoi(self, u, y, mu):
            return np.ones(u.shape[:-1])

        def qoi_u(self, u, y, mu):
            return np.zeros_like(u)

        def qoi_mu(self, u, y, mu):
            return np.zeros(self.n_mu)

    prob = FlatQoI()
    pair = make_pair(prob, mu_seed=np.full(prob.n_mu, 0.2))
    grid_before, k_before = pair.grid, pair.basis.k
    events = []
    out = refine_for_gradient(pair, np.full(prob.n_mu, 0.2), 1.0,
                              TrustRegionConfig(gtol=0.0), events=events)
    assert out.grid is grid_before and out.basis.k == k_before
    assert events == []


def test_refine_gradient_cold_start_samples(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    refine_for_gradient(pair, mu, 1.0, TrustRegionConfig(kappa_phi=1e-2, gtol=0.0),
                        events=events)
    kinds = {ev.kind for ev in events}
    assert "add_snapshot" in kinds
    checks = [ev for ev in events if ev.kind == "exit_check"]
    assert len(checks) == 1 and checks[0].ok


def test_refine_gradient_exit_conditions_hold(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    kappa_phi = 0.1
    delta = 0.5
    refine_for_gradient(pair, mu, delta, TrustRegionConfig(kappa_phi=kappa_phi, gtol=0.0))
    terms, _ = eval_gradient_indicator(pair, mu)
    guard = min(np.linalg.norm(pair.model_gradient(mu)), delta)
    assert terms["e1"] <= kappa_phi / 3 * guard
    assert terms["e3"] <= kappa_phi / 3 * guard
    assert terms["e4"] <= kappa_phi / 3 * guard
    assert is_admissible(pair.grid)


def test_refine_gradient_respects_level_cap(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    with pytest.raises(LevelCapError):
        refine_for_gradient(pair, mu, 1e-12, TrustRegionConfig(
            kappa_phi=1e-9, gtol=0.0, level_cap=2))


def test_refine_gradient_thresholds_floored_at_gtol(lin):
    # min{||grad m||, Delta} = 1e-12 would demand indicators far below
    # round-off (the unfloored case above hits the level cap); the floor
    # bounds each term by kappa_phi / (3 beta_i) * gtol instead
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    kappa_phi, betas, gtol = 10.0, (1.0, 2.0, 4.0), 1e-6
    events = []
    cfg = TrustRegionConfig(kappa_phi=kappa_phi, betas=betas, gtol=gtol, level_cap=2)
    refine_for_gradient(pair, mu, 1e-12, cfg, events=events)
    check = events[-1]
    assert check.kind == "exit_check" and check.ok
    assert check.after == 1e-12
    limits = [float(t) for t in re.findall(r"<=(\S+)", check.detail)]
    assert limits == pytest.approx(
        [kappa_phi / (3.0 * b) * gtol for b in betas], rel=1e-6)


# ---------------------------------------------------------------------------
# objective-condition driver
# ---------------------------------------------------------------------------

def test_objective_threshold_arithmetic():
    # the exact thresholds, about 4.9e-12 here, lie below the default
    # theta_floor, which then sets both and is named as their bound
    expected = (0.1 * 0.5) ** 10 / (2 * 1e-2)
    thresholds, names = objective_thresholds(0.5, 1.0, TrustRegionConfig(theta_floor=0.0))
    assert thresholds == pytest.approx((expected, expected))
    assert names == ("exact", "exact")
    assert objective_thresholds(0.5, 1.0, TrustRegionConfig()) == (
        (1e-6, 1e-6), ("theta_floor", "theta_floor"))


def test_refine_objective_noop_when_satisfied(lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    grid_before, k_before = pair.grid, pair.basis.k
    # enormous floor: both inequalities hold at entry, so psi == m and
    # the actual-to-predicted ratio of the enclosing step would be one
    out = refine_for_objective(pair, mu, mu + 0.01, m_decrease=1e-3, r_k=1.0,
                               config=TrustRegionConfig(theta_floor=1e6))
    assert out.grid is grid_before and out.basis.k == k_before


def test_refine_objective_rejects_nonpositive_decrease(lin_pair, lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    with pytest.raises(ValueError):
        refine_for_objective(lin_pair, mu, mu, m_decrease=0.0, r_k=1.0,
                             config=TrustRegionConfig())


def test_refine_objective_exit_conditions_hold(lin):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    mu_hat = mu + 0.02
    pair = make_pair(lin, mu_seed=mu)
    cfg = TrustRegionConfig(theta_floor=1e-5)
    refine_for_objective(pair, mu, mu_hat, m_decrease=1e-3, r_k=1.0, config=cfg)
    terms, _ = eval_objective_indicator(pair, mu, mu_hat)
    (thr1, thr2), _ = objective_thresholds(1e-3, 1.0, cfg)
    assert thr1 == thr2 == 1e-5
    assert terms["e1'"] <= thr1
    assert terms["e2'"] <= thr2
    assert is_admissible(pair.grid)


def test_objective_exit_names_binding_bound(lin):
    # omega = 0.9 makes the exact thresholds attainable: 3.9 for alpha =
    # 1e-2 and 3.9e-5 for alpha = 1e3, so the floor 1e-3 binds the second
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    cfg = TrustRegionConfig(omega=0.9, alphas=(1e-2, 1e3), theta_floor=1e-3)
    refine_for_objective(pair, mu, mu + 0.02, m_decrease=1.0, r_k=1.0, config=cfg,
                         events=events)
    check = events[-1]
    assert check.kind == "exit_check" and check.ok
    exact, _ = objective_thresholds(1.0, 1.0, replace(cfg, theta_floor=0.0))
    assert exact[0] > 1e-3 > exact[1]
    bounds = re.findall(r"(\S+)=\S+<=(\S+)\((\w+)\)", check.detail)
    assert [(t, b) for t, _, b in bounds] == [("e1'", "exact"),
                                             ("e2'", "theta_floor")]
    assert [float(v) for _, v, _ in bounds] == pytest.approx([exact[0], 1e-3],
                                                             rel=1e-6)


def test_objective_stage_stops_at_the_config_floor(lin):
    # the driver keeps no floor of its own: under the default config the
    # exact thresholds, about 4.9e-12 here, give way to theta_floor = 1e-6
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    events = []
    refine_for_objective(pair, mu, mu + 0.02, 0.5, 1.0, TrustRegionConfig(),
                         events=events)
    bounds = re.findall(r"(\S+)=\S+<=(\S+)\((\w+)\)", events[-1].detail)
    assert bounds == [("e1'", "1.000000e-06", "theta_floor"),
                      ("e2'", "1.000000e-06", "theta_floor")]


def test_one_indicator_evaluation_per_change(lin, monkeypatch):
    # each driver call evaluates its indicator once at entry and once
    # after each grid or basis change; that evaluation is the one the
    # change's event reports and the exit check reads, and a grid change
    # adds the arg-max |neighbor difference| of the evaluation before it
    # (the lexicographically smallest index on ties)
    from sgromtr import adapt, trust_opt

    seen = []

    def counted(real):
        def wrapped(*args):
            out = real(*args)
            seen.append(out)
            return out
        return wrapped

    monkeypatch.setattr(adapt, "eval_gradient_indicator",
                        counted(adapt.eval_gradient_indicator))
    monkeypatch.setattr(adapt, "eval_objective_indicator",
                        counted(adapt.eval_objective_indicator))
    cfg = TrustRegionConfig(gtol=1e-5, max_iters=10)
    calls = []

    def traced(real, trunc, residual, exit_value):
        def wrapped(*args, events, **kwargs):
            n_seen, n_events = len(seen), len(events)
            out = real(*args, events=events, **kwargs)
            calls.append((trunc, residual, exit_value, seen[n_seen:],
                          events[n_events:]))
            return out
        return wrapped

    monkeypatch.setattr(trust_opt, "refine_for_gradient", traced(
        trust_opt.refine_for_gradient, "e4", ("e1", "e3"),
        lambda t: sum(b * t[e] for b, e in zip(cfg.betas, ("e1", "e3", "e4")))))
    monkeypatch.setattr(trust_opt, "refine_for_objective", traced(
        trust_opt.refine_for_objective, "e2'", ("e1'",), lambda t: t["e1'"]))
    _, state = tr_run(lin, cfg, np.zeros(lin.n_mu))
    assert state.status == "converged"
    assert {c[0] for c in calls} == {"e4", "e2'"}
    grown = set()
    for trunc, residual, exit_value, evals, events in calls:
        *changes, check = events
        assert check.kind == "exit_check"
        assert len(evals) == 1 + len(changes)
        for (prev, diffs), ev, (nxt, _) in zip(evals, changes, evals[1:]):
            terms = [trunc] if ev.kind == "add_index" else residual
            assert any(ev.before == prev[t] and ev.after == nxt[t]
                       for t in terms), ev
            if ev.kind == "add_index":
                best = max(sorted(diffs[0]),
                           key=lambda i: max(abs(d[i]) for d in diffs))
                assert ev.detail == " ".join(map(str, best))
                grown.add(trunc)
        assert check.before == exit_value(evals[-1][0])
    assert grown == {"e4", "e2'"}


def test_seed_pair_from_tr_init_reproduces_qoi(lin):
    mu0 = np.full(lin.n_mu, 0.25)
    state = tr_init(lin, TrustRegionConfig(), mu0)
    sol = solve_primal(lin, np.zeros((1, 2)), mu0)
    f_true = lin.qoi(sol.u, np.zeros((1, 2)), mu0)[0]
    assert state.pair.model_value(mu0) == pytest.approx(f_true, abs=1e-8)


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------

def test_fresh_mu_near_cached_mu_starts_warm(bur):
    # a finite-difference Hessian point next to the center: every node
    # starts from its own center solution.  The seed basis leaves large
    # residuals, whose minimizers are flat to about 1e-7 in q, so the
    # minimized residual norm is what matches to 1e-10
    mu0 = np.zeros(bur.n_mu)
    pair = tr_init(bur, TrustRegionConfig(), mu0).pair
    quad = pair.union_quad()
    pair.evals(quad, mu0)
    mu = mu0 + 1e-7 * np.linspace(-1.0, 1.0, bur.n_mu)
    for ev in pair.evals(quad, mu):
        assert ev.gn_iters <= 2
        cold = solve_rom_primal(bur, pair.basis, ev.coord[None], mu)
        assert cold.gn_iters > 2
        assert abs(ev.prim_res - cold.residual_norm[0]) <= 1e-10 * (
            1 + cold.residual_norm[0])
        assert np.linalg.norm(ev.q - cold.q[0]) <= 1e-6 * np.linalg.norm(cold.q)


def test_cached_mu_warm_start_rule(lin):
    # at a stored mu: a stale node starts from its own padded q, and a
    # new node from the sparse-grid interpolant of the grid's stored q
    pair = make_pair(lin, grid_indices=[(1, 1), (2, 1), (1, 2)])
    k = pair.basis.k

    def field(y):
        # in span{1, y1, y1^2, y2, y2^2}, which this grid interpolates exactly
        return np.array([1.0 + y[0] - 2.0 * y[0] ** 2 + 0.5 * y[1],
                         3.0 - y[1] + 2.0 * y[1] ** 2])[:k]

    def entry(coord, q):
        return adapt.NodeEval(coord, q, 0.0, 0.0, 1)

    grid = assemble(pair.grid)
    union = pair.union_quad()
    new = [(key, coord) for key, coord in zip(union.keys, union.coords)
           if key not in grid.keys]
    stale_key, stale_coord = new[0]
    stale_q = np.array([0.25])
    full = {key: entry(coord, field(coord))
            for key, coord in zip(grid.keys, grid.coords)}
    full[stale_key] = entry(stale_coord, stale_q)
    mk = _mu_key(np.full(lin.n_mu, 0.1))
    pair._nodes[mk] = full

    np.testing.assert_array_equal(
        pair._warm_starts([(stale_key, stale_coord)], mk, [])[0],
        np.append(stale_q, np.zeros(k - 1)))
    starts = pair._warm_starts(new[1:], mk, [])
    np.testing.assert_allclose(starts, [field(coord) for _, coord in new[1:]],
                               rtol=1e-13, atol=1e-14)

    # one grid node missing: a new node takes the projected last primal,
    # as a node with no stored solve does
    partial = dict(full)
    del partial[grid.keys[0]]
    mk2 = _mu_key(np.full(lin.n_mu, 0.2))
    pair._nodes[mk2] = partial
    fallback = pair.basis.project(pair.basis.last_primal)
    for start in pair._warm_starts(new[1:], mk2, []):
        np.testing.assert_array_equal(start, fallback)


def _interpolated_warm_starts(lin, m):
    """A pair on a grid of level 9 in the first direction and 3 in the
    second (1285 nodes), with a stored solve at each of its nodes, and
    ``m`` new nodes at random coordinates: ``(pair, mk, new)``."""
    pair = make_pair(lin, grid_indices=[(i, j) for i in range(1, 10)
                                        for j in range(1, 4)])
    rng = np.random.default_rng(71)
    grid = assemble(pair.grid)
    mk = _mu_key(np.full(lin.n_mu, 0.1))
    pair._nodes[mk] = {key: adapt.NodeEval(coord, rng.standard_normal(pair.basis.k),
                                           0.0, 0.0, 1)
                       for key, coord in zip(grid.keys, grid.coords)}
    new = [(("new", i), coord) for i, coord in enumerate(rng.uniform(-1, 1, (m, 2)))]
    return pair, mk, new


def test_warm_start_interpolation_peak_is_bounded(lin):
    # 4096 new nodes against 1285 grid nodes: one block of weights would
    # be 42 MB, and the largest tensor term's basis as much again.  In
    # blocks of new nodes each block's weights and one term's basis fit
    # STACK_BYTES, so the traced peak is a few budgets at most
    pair, mk, new = _interpolated_warm_starts(lin, 4096)
    assert len(assemble(pair.grid).keys) == 1285
    pair._warm_starts(new[:1], mk, [])                  # rules cached before tracing
    tracemalloc.start()
    starts = pair._warm_starts(new, mk, [])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert starts.shape == (4096, pair.basis.k)
    assert peak <= 3 * kernels.STACK_BYTES


def test_blocked_warm_starts_equal_one_block(lin):
    # the interpolant evaluated in blocks of new nodes equals its
    # evaluation on all of them at once
    pair, mk, new = _interpolated_warm_starts(lin, 600)
    keys, W = interpolation_weights(pair.grid, [coord for _, coord in new])
    stored = pair._nodes[mk]
    reference = W @ np.array([stored[key].q for key in keys])
    assert len(kernels.stack_parts(len(new), 16 * len(keys))) > 1
    np.testing.assert_allclose(pair._warm_starts(new, mk, []), reference,
                               rtol=1e-14, atol=0)


def test_fresh_mu_takes_own_node_at_nearest_mu(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu, grid_indices=[(1, 1), (2, 1)])
    quad = pair.union_quad()
    pair.evals(quad, mu)
    pair.evals(quad, -mu)
    near = pair._mus_by_distance(0.9 * mu)
    assert near == [_mu_key(mu), _mu_key(-mu)]
    for key, coord in zip(quad.keys, quad.coords):
        np.testing.assert_array_equal(
            pair._warm_starts([(key, coord)], _mu_key(0.9 * mu), near)[0],
            pair._nodes[_mu_key(mu)][key].q)


def test_clone_copies_warm_starts_per_mu(lin, lin_pair):
    # the clone keeps the solves at the listed points only, in copies of
    # their per-point dicts
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    quad = lin_pair.union_quad()
    lin_pair.evals(quad, mu)
    lin_pair.evals(quad, -mu)
    mk = _mu_key(mu)
    other = lin_pair.clone([mu])
    assert list(other._nodes) == [mk]
    n_rp = lin_pair.counters.n_rp
    other.evals(quad, mu)
    assert other.counters.n_rp == n_rp  # the kept solves are current
    assert other._nodes[mk] == lin_pair._nodes[mk]
    assert other._nodes[mk] is not lin_pair._nodes[mk]
    n_before = len(lin_pair._nodes[mk])
    other.grid = other.grid.with_index((2, 1))
    other.evals(other.union_quad(), mu)
    other.evals(other.union_quad(), 0.5 * mu)
    assert len(other._nodes[mk]) > n_before
    assert len(lin_pair._nodes[mk]) == n_before
    assert _mu_key(0.5 * mu) not in lin_pair._nodes


# ---------------------------------------------------------------------------
# reduced adjoints on demand
# ---------------------------------------------------------------------------

ADJOINT_FIELDS = ("adj_res", "ghat", "gnorm")


def test_primal_readers_solve_no_adjoint(lin):
    # model values and the whole objective stage read primal quantities only
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    pair = make_pair(lin, mu_seed=mu)
    n_rp, n_ra = pair.counters.n_rp, pair.counters.n_ra
    pair.model_value(mu)
    assert pair.counters.n_rp > n_rp
    refine_for_objective(pair, mu, mu + 0.02, m_decrease=1e-3, r_k=1.0,
                         config=TrustRegionConfig(theta_floor=1e-5))
    assert pair.basis.k > 2      # the stage sampled and re-solved nodes
    assert pair.counters.n_ra == n_ra
    assert all(ev.adj_res is None
               for nodes in pair._nodes.values() for ev in nodes.values())
    pair.model_gradient(mu)
    assert pair.counters.n_ra == n_ra + len(assemble(pair.grid).keys)


@pytest.mark.parametrize("name", ["lin", "bur"])
def test_adjoints_in_subsets_match_one_stack(name, request):
    # every node of a stacked adjoint is bitwise its solve in any other stack
    problem = request.getfixturevalue(name)
    mu = 0.1 * np.linspace(-1.0, 1.0, problem.n_mu)
    pair = make_pair(problem, mu_seed=mu,
                     grid_indices=[(1, 1), (2, 1), (1, 2), (3, 1)])
    quad = pair.union_quad()
    pair.evals(quad, mu)
    keys = list(quad.keys)
    first = keys[::3]
    second = [k for k in keys if k not in first]
    runs = []
    for order in ((keys,), (first, second), (second, first)):
        other = pair.clone([mu])
        for part in order:
            other.ensure_adjoints(mu, part)
        runs.append(other._nodes[_mu_key(mu)])
    whole, *split = runs
    for nodes in split:
        for key in keys:
            for field in ADJOINT_FIELDS:
                np.testing.assert_array_equal(getattr(nodes[key], field),
                                              getattr(whole[key], field))
    assert all(whole[key].adj_res is not None for key in keys)


def test_adjoint_resolved_after_basis_grows(lin, lin_pair):
    # a stored adjoint belongs to its q: after the basis grows the node
    # drops it with the stale primal and solves it again at the new k
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    quad = lin_pair.union_quad()
    old = {key: ev.adj_res
           for key, ev in zip(quad.keys, lin_pair.evals(quad, mu, adjoint=True))}
    sample_everywhere(lin_pair, mu)
    k = lin_pair.basis.k
    primal = lin_pair.evals(quad, mu)
    assert all(len(ev.q) == k and ev.adj_res is None for ev in primal)
    n_ra = lin_pair.counters.n_ra
    evs = lin_pair.evals(quad, mu, adjoint=True)
    assert lin_pair.counters.n_ra == n_ra + len(quad.keys)
    q = np.array([ev.q for ev in evs])
    fresh = solve_rom_adjoint(lin, lin_pair.basis, q, quad.coords, mu)
    np.testing.assert_array_equal([ev.adj_res for ev in evs], fresh.residual_norm)
    assert any(ev.adj_res != old[key] for key, ev in zip(quad.keys, evs))


def test_adjoints_filled_in_clone_leave_source(lin, lin_pair):
    mu = np.linspace(-0.3, 0.3, lin.n_mu)
    quad = lin_pair.union_quad()
    lin_pair.evals(quad, mu)
    source = dict(lin_pair._nodes[_mu_key(mu)])
    other = lin_pair.clone([mu])
    filled = other.evals(quad, mu, adjoint=True)
    assert all(ev.adj_res is not None for ev in filled)
    stored = lin_pair._nodes[_mu_key(mu)]
    assert all(stored[key] is ev for key, ev in source.items())
    assert all(ev.adj_res is None and ev.ghat is None for ev in stored.values())
    # the source solves the same adjoints on its own
    for ev, mine in zip(filled, lin_pair.evals(quad, mu, adjoint=True)):
        for field in ("q",) + ADJOINT_FIELDS:
            np.testing.assert_array_equal(getattr(mine, field), getattr(ev, field))


class _StallAt(LinearDiffusion):
    """Every residual of one node after its first is inflated 1000-fold,
    so each Gauss-Newton step there is rejected and the node stagnates."""

    def __init__(self, node):
        super().__init__()
        self.node = node
        self.seen = False

    def residual(self, u, y, mu):
        r = super().residual(u, y, mu)
        at = np.all(y == self.node, axis=-1)
        if self.seen:
            r = np.where(at[..., None], 1e3 * r, r)
        self.seen = self.seen or bool(np.any(at))
        return r


def test_stalled_node_is_recovered_at_its_last_iterate(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    quad = make_pair(lin, mu_seed=mu, grid_indices=[(1, 1), (2, 1)]).union_quad()
    stall = len(quad.keys) - 1
    faulty = _StallAt(quad.coords[stall])
    pair = make_pair(faulty, mu_seed=mu, grid_indices=[(1, 1), (2, 1)])
    evals = pair.evals(quad, 0.5 * mu, adjoint=True)   # returns instead of raising
    assert pair.counters.rom_recoveries == 1
    assert "rom_recoveries" not in pair.counters.snapshot()
    # the other nodes are bitwise as solved in a stack without the stalled one
    clean = make_pair(lin, mu_seed=mu, grid_indices=[(1, 1), (2, 1)])
    keys = [k for i, k in enumerate(quad.keys) if i != stall]
    clean.ensure(0.5 * mu, keys, [c for i, c in enumerate(quad.coords) if i != stall])
    clean.ensure_adjoints(0.5 * mu, keys)
    for key, ev in zip(quad.keys, evals):
        if key == quad.keys[stall]:
            continue
        other = clean._nodes[_mu_key(0.5 * mu)][key]
        for field in ("q", "prim_res", "adj_res", "ghat", "fval", "gn_iters"):
            np.testing.assert_array_equal(getattr(ev, field), getattr(other, field))
    # the stalled node keeps its start, the residual there and an adjoint
    ev = evals[stall]
    np.testing.assert_array_equal(ev.q, pair.basis.project(pair.basis.last_primal))
    res = np.linalg.norm(lin.residual(pair.basis.columns @ ev.q, ev.coord[None], 0.5 * mu))
    assert ev.prim_res == pytest.approx(res, rel=1e-12)
    assert np.isfinite(ev.adj_res) and np.all(np.isfinite(ev.ghat))


class _UnreachableAt(LinearDiffusion):
    """One node's residual carries 1e9 times a unit vector orthogonal to
    the range of its reduced Jacobian on ``columns``.  No step reduces
    that part, so the model predicts no relative decrease and the node
    stops on the stall branch with its gradient accepted."""

    def __init__(self, node, columns):
        super().__init__()
        self.node = node
        jphi = kernels.band_matmat(*self.jac_bands(None, node[None], None),
                                   kernels.row_window(columns))[0]
        self.offset = 1e9 * np.linalg.qr(jphi, mode="complete")[0][:, -1]

    def residual(self, u, y, mu):
        r = super().residual(u, y, mu)
        return r + np.all(y == self.node, axis=-1)[..., None] * self.offset


def test_accepted_stall_is_counted(lin):
    mu = np.linspace(-0.4, 0.4, lin.n_mu)
    clean = make_pair(lin, mu_seed=mu, grid_indices=[(1, 1), (2, 1)])
    quad = clean.union_quad()
    faulty = _UnreachableAt(quad.coords[-1], clean.basis.columns)
    pair = make_pair(faulty, mu_seed=mu, grid_indices=[(1, 1), (2, 1)])
    pair.evals(quad, 0.5 * mu)
    assert pair.counters.rom_stalls == 1
    assert pair.counters.rom_recoveries == 0
    assert "rom_stalls" not in pair.counters.snapshot()
