"""Subproblem solver, configuration validation, and the full driver."""

import inspect
import math

import numpy as np
import pytest

from conftest import quadratic_minimizer

from sgromtr import adapt, oracle, trust_opt
from sgromtr.adapt import SgRomPair
from sgromtr.hdm import QueryCounters
from sgromtr.rom import ReducedBasis
from sgromtr.sparse_grid import MultiIndexSet
from sgromtr.trust_opt import (TrustRegionConfig, _fd_hessvec, steihaug_toint,
                               tr_init, tr_iterate, tr_run)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_standard_defaults_accepted():
    cfg = TrustRegionConfig()
    assert (cfg.eta1, cfg.eta2, cfg.gamma) == (0.1, 0.75, 0.5)
    assert (cfg.eta, cfg.omega, cfg.kappa_phi) == (0.1, 0.1, 1.0)
    assert cfg.r_k(0) == 1.0 and cfg.r_k(4) == pytest.approx(0.2)


@pytest.mark.parametrize("kwargs", [
    {"eta1": 0.8, "eta2": 0.7},
    {"eta1": 0.0},
    {"gamma": 1.0},
    {"eta": 0.3},              # exceeds min(eta1, 1 - eta2)
    {"omega": 1.0},
    {"kappa_s": 1.5},
    {"Delta0": -1.0},
    {"betas": (1.0, 1.0)},
    {"alphas": (1e-2, -1e-2)},
    # NaN passes a check written as "reject if x <= 0", and inf passes
    # a lower bound: every real constant must be finite
    {"kappa_phi": math.nan},
    {"r0": math.nan},
    {"Delta0": math.nan},
    {"Delta_max": math.nan},
    {"Delta_max": math.inf},
    {"gtol": math.nan},
    {"gtol": math.inf},
    {"theta_floor": math.nan},
    {"theta_floor": math.inf},
    {"betas": (1.0, math.nan, 1.0)},
    {"alphas": (math.nan, 1e-2)},
    {"alphas": (1e-2, math.inf)},
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        TrustRegionConfig(**kwargs)


#: parameter names of the run's constants: the config owns their values
RUN_CONSTANTS = {"level_cap", "theta_floor", "threshold_floor", "floor",
                 "kappa_s", "level", "gtol", "max_iters", "seed", "h"}


@pytest.mark.parametrize("module", [adapt, trust_opt, oracle],
                         ids=lambda m: m.__name__)
def test_no_function_defaults_a_run_constant(module):
    # a default would be a second value beside the config's, free to
    # disagree with it (the objective stage once defaulted its floor to 0)
    defaults = [
        (name, p.name)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        for p in inspect.signature(fn).parameters.values()
        if p.name in RUN_CONSTANTS and p.default is not p.empty]
    assert defaults == []


# ---------------------------------------------------------------------------
# Steihaug-Toint
# ---------------------------------------------------------------------------

def test_interior_newton_step_identity_hessian():
    g = np.array([3.0, 4.0])
    res = steihaug_toint(g, lambda v: v, Delta=10.0, kappa_s=1e-4)
    np.testing.assert_allclose(res.step, -g, atol=1e-12)
    assert res.decrease == pytest.approx(0.5 * 25.0)
    assert not res.hit_boundary


def test_boundary_step_identity_hessian():
    g = np.array([3.0, 4.0])
    res = steihaug_toint(g, lambda v: v, Delta=1.0, kappa_s=1e-4)
    np.testing.assert_allclose(res.step, -g / 5.0, atol=1e-12)
    assert res.hit_boundary


def test_spd_hessian_matches_newton_decrease():
    # an interior step solves the Newton system to the forcing term
    # min(0.5, sqrt(||g||)) ||g||, which tightens as ||g|| falls: at
    # ||g|| ~ 1e-16 it is a relative 1e-8, and the decrease is Newton's
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    h = a @ a.T + 0.5 * np.eye(5)
    for g in (rng.standard_normal(5), 1e-16 * rng.standard_normal(5)):
        res = steihaug_toint(g, lambda v: h @ v, Delta=1e6, kappa_s=1e-4)
        gnorm = np.linalg.norm(g)
        assert not res.hit_boundary
        assert np.linalg.norm(h @ res.step + g) <= (
            min(0.5, np.sqrt(gnorm)) * gnorm * (1 + 1e-8))
        exact = 0.5 * float(g @ np.linalg.solve(h, g))
        assert res.decrease <= exact * (1 + 1e-12)
    assert res.decrease == pytest.approx(exact, rel=1e-8)


def test_negative_curvature_hits_boundary():
    g = np.array([1.0, 0.0])
    res = steihaug_toint(g, lambda v: -v, Delta=2.0, kappa_s=1e-4)
    assert np.linalg.norm(res.step) == pytest.approx(2.0)
    assert res.hit_boundary


def test_zero_gradient_zero_step():
    res = steihaug_toint(np.zeros(3), lambda v: v, Delta=1.0, kappa_s=1e-4)
    assert res.decrease == 0.0
    np.testing.assert_array_equal(res.step, np.zeros(3))


def test_cauchy_fraction_satisfied():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        h = a @ a.T + 0.1 * np.eye(4)
        g = rng.standard_normal(4)
        delta = float(rng.uniform(0.01, 10.0))
        res = steihaug_toint(g, lambda v: h @ v, Delta=delta, kappa_s=1e-4)
        gnorm = np.linalg.norm(g)
        assert res.decrease >= 1e-4 * gnorm * min(delta, gnorm / res.beta_k)
        assert np.linalg.norm(res.step) <= delta * (1 + 1e-12)


@pytest.mark.parametrize("shift, delta, boundary", [
    (0.5, 1e6, False),     # interior Newton step
    (0.5, 0.05, True),     # radius exit
    (-30.0, 1e6, True),    # negative curvature
])
def test_one_hessvec_per_cg_iteration(shift, delta, boundary):
    # the decrease reuses the products CG computed; no product at p
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    h = a @ a.T + shift * np.eye(6)
    g = rng.standard_normal(6)
    calls = []

    def hessvec(v):
        calls.append(v)
        return h @ v

    res = steihaug_toint(g, hessvec, Delta=delta, kappa_s=1e-4)
    assert res.hit_boundary == boundary
    assert len(calls) == res.iters
    p = res.step
    exact = -(float(g @ p) + 0.5 * float(p @ (h @ p)))
    assert res.decrease == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# finite-difference Hessian-vector products
# ---------------------------------------------------------------------------

def test_fd_hessvec_matches_exact_model_hessian(lin_deterministic):
    # the identity basis makes every reduced solve exact, and the
    # y-independent diffusion problem makes the model quadratic in mu:
    # a unit-step difference of its gradient is the exact Hessian
    prob = lin_deterministic
    basis = ReducedBasis(prob.n_u)
    basis.append_snapshots(list(np.eye(prob.n_u)), ["primal"] * prob.n_u,
                           np.zeros(prob.n_y), np.zeros(prob.n_mu))
    pair = SgRomPair(prob, MultiIndexSet.unit(prob.n_y), basis, QueryCounters())
    mu = np.linspace(-0.3, 0.3, prob.n_mu)
    g0 = pair.model_gradient(mu)
    eye = np.eye(prob.n_mu)
    hess = np.column_stack([pair.model_gradient(mu + e) - g0 for e in eye])
    hessvec = _fd_hessvec(pair, mu, g0)
    rng = np.random.default_rng(3)
    for v in [eye[0], eye[5], rng.standard_normal(prob.n_mu)]:
        exact = hess @ v
        assert np.linalg.norm(hessvec(v) - exact) <= 1e-6 * np.linalg.norm(exact)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_tr_init_seed_contents(lin):
    mu0 = np.full(lin.n_mu, 0.3)
    state = tr_init(lin, TrustRegionConfig(), mu0)
    assert len(state.pair.grid) == 1
    assert (1, 1) in state.pair.grid
    assert state.pair.basis.k <= 2 + lin.n_mu
    kinds = [s.kind for s in state.pair.basis.provenance]
    assert kinds == ["primal"] + ["sensitivity"] * lin.n_mu + ["adjoint"]
    assert state.Delta == TrustRegionConfig().Delta0
    assert state.counters.n_hp == 1
    assert state.counters.n_ha == lin.n_mu + 1


def test_tr_init_rejects_bad_mu0(lin):
    with pytest.raises(ValueError):
        tr_init(lin, TrustRegionConfig(), np.zeros(3))


# ---------------------------------------------------------------------------
# full runs on the deterministic quadratic problem
# ---------------------------------------------------------------------------

def test_quadratic_converges_to_analytic_minimizer(lin_deterministic):
    mu_star = quadratic_minimizer(lin_deterministic)
    cfg = TrustRegionConfig(gtol=1e-8, max_iters=15)
    mu_f, state = tr_run(lin_deterministic, cfg, np.zeros(8))
    assert state.status == "converged"
    assert state.k <= 15
    assert np.linalg.norm(mu_f - mu_star) <= 1e-6


def test_start_at_minimizer_stops_immediately(lin_deterministic):
    mu_star = quadratic_minimizer(lin_deterministic)
    cfg = TrustRegionConfig(gtol=1e-6)
    mu_f, state = tr_run(lin_deterministic, cfg, mu_star)
    assert state.status == "converged"
    assert state.k <= 1
    # no high-dimensional queries beyond the seed solves
    assert state.counters.n_hp == 1
    np.testing.assert_allclose(mu_f, mu_star)


def test_accepted_steps_decrease_psi(lin):
    cfg = TrustRegionConfig(gtol=1e-5, max_iters=10)
    _, state = tr_run(lin, cfg, np.zeros(8))
    steps = [r for r in state.history if not r["terminal"]]
    assert steps, "expected at least one full iteration"
    for row in steps:
        if row["accepted"]:
            assert row["psi_trial"] < row["psi_center"]
        assert row["step_norm"] <= row["Delta"] * (1 + 1e-12)


def test_radius_update_branches(lin):
    cfg = TrustRegionConfig(gtol=1e-5, max_iters=10)
    _, state = tr_run(lin, cfg, np.zeros(8))
    rows = [r for r in state.history if not r["terminal"]]
    for prev, nxt in zip(rows, rows[1:]):
        rho, delta, step = prev["rho"], prev["Delta"], prev["step_norm"]
        if rho <= cfg.eta1:
            assert nxt["Delta"] == pytest.approx(cfg.gamma * step)
        elif rho < cfg.eta2:
            assert nxt["Delta"] == pytest.approx(delta)
        else:
            assert nxt["Delta"] == pytest.approx(min(2 * delta, cfg.Delta_max))


@pytest.mark.parametrize("branch, rho", [
    ("rho_below_eta1", 0.0),
    ("no_model_decrease", -math.inf),
], ids=["rho_below_eta1", "no_model_decrease"])
def test_rejected_step_keeps_center_and_shrinks(lin_deterministic, monkeypatch,
                                                branch, rho):
    # a flat injected model rejects the step: on the refined pair it gives
    # psi_center = psi_trial (rho = 0 <= eta1), on the center pair
    # m_center = m_trial (no predicted decrease)

    def flatten(pair):
        pair.model_value = lambda mu: 0.0

    cfg = TrustRegionConfig(gtol=1e-10)
    state = tr_init(lin_deterministic, cfg, np.zeros(8))
    start_pair = state.pair
    if branch == "no_model_decrease":
        flatten(state.pair)
    else:
        real = trust_opt.refine_for_objective

        def refine_then_flatten(pair, *args, **kwargs):
            real(pair, *args, **kwargs)
            flatten(pair)
            return pair

        monkeypatch.setattr(trust_opt, "refine_for_objective", refine_then_flatten)
    tr_iterate(state, cfg)
    row = state.history[0]
    assert row["rho"] == rho and not row["accepted"]
    assert row["step_norm"] > 0.0
    np.testing.assert_array_equal(state.mu, np.zeros(8))
    assert state.Delta == cfg.gamma * row["step_norm"]
    assert state.k == 1
    if branch == "no_model_decrease":
        # an ordinary rejection: no objective stage, the pair handed on
        # is the one the iteration started with
        assert math.isnan(row["psi_center"]) and math.isnan(row["psi_trial"])
        assert not [ev for ev in state.events if ev.stage == "objective"]
        assert state.pair is start_pair


@pytest.mark.parametrize("flat", [False, True], ids=["plain", "no_model_decrease"])
def test_on_iteration_once_per_iteration(lin_deterministic, monkeypatch, flat):
    # every iteration hands its one history row to on_iteration, the
    # rejections without model decrease of a flattened model included

    real = trust_opt.tr_init

    def init_flat(*args):
        state = real(*args)
        state.pair.model_value = lambda mu: 0.0
        return state

    if flat:
        monkeypatch.setattr(trust_opt, "tr_init", init_flat)
    cfg = TrustRegionConfig(gtol=1e-10 if flat else 1e-5, max_iters=3)
    seen = []
    _, state = tr_run(lin_deterministic, cfg, np.zeros(8),
                      on_iteration=lambda row, st: seen.append(row))
    assert [row["k"] for row in seen] == list(range(len(seen)))
    assert len(seen) == len(state.history)
    assert all(a is b for a, b in zip(seen, state.history))
    if flat:
        assert state.status == "max_iters"
        assert [row["rho"] for row in seen] == [-math.inf] * 3
    else:
        assert state.status == "converged" and seen[-1]["terminal"]


def test_store_keeps_center_and_trial_only(lin):
    # after an iteration that ran the objective stage, the pair it hands
    # on holds node solves at that iteration's mu_k and mu_hat only
    cfg = TrustRegionConfig()
    state = tr_init(lin, cfg, np.zeros(8))
    checked = 0
    while state.status == "running" and state.k < cfg.max_iters:
        mu_k = state.mu.copy()
        tr_iterate(state, cfg)
        row = state.history[-1]
        if math.isnan(row["psi_center"]):
            continue
        stored = set(state.pair._nodes)
        assert len(stored) == 2 and mu_k.tobytes() in stored
        (mu_hat,) = stored - {mu_k.tobytes()}
        assert np.linalg.norm(np.frombuffer(mu_hat) - mu_k) == pytest.approx(
            row["step_norm"], rel=1e-12)
        if row["accepted"]:
            assert mu_hat == state.mu.tobytes()
        checked += 1
    assert checked > 0


def test_history_rows_strictly_increasing_k(lin):
    cfg = TrustRegionConfig(gtol=1e-5, max_iters=8)
    _, state = tr_run(lin, cfg, np.zeros(8))
    ks = [r["k"] for r in state.history]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
