"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criteria 1, 2, 3 and 7 run the ``sgromtr validate``
suites.  The full Burgers trust-region run and the baseline comparison
are shared across criteria through module fixtures.
"""

import math
import time

import numpy as np
import pytest

from sgromtr.cli import (run_optimize, suite_bound_ratios, suite_fd_gradient,
                         suite_quadrature, suite_rom_properties)
from sgromtr.config import load_config
from sgromtr.hdm import BurgersControl, LinearDiffusion, QueryCounters
from sgromtr.oracle import cost_metric, sg_iso_baseline
from sgromtr.trust_opt import TrustRegionConfig, tr_run

SEED = 2024


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def burgers_run():
    """Full SG-ROM-TR run on burgers-control with the stated defaults."""
    problem = BurgersControl(n_u=127, n_mu=8)
    assert problem.n_y == 2
    cfg = TrustRegionConfig(eta1=0.1, eta2=0.75, gamma=0.5, eta=0.1,
                            omega=0.1, kappa_phi=1.0)
    t0 = time.monotonic()
    mu_final, state = tr_run(problem, cfg, np.zeros(8))
    elapsed = time.monotonic() - t0
    return problem, state, elapsed


def test_criterion_1_quadrature_correctness():
    t0 = time.monotonic()
    ok, detail = suite_quadrature()
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s (<1s)")


def _per_problem(suite):
    """Run ``suite(problem)`` on both problems; (all passed, joined details)."""
    results = [(problem.name, *suite(problem))
               for problem in (LinearDiffusion(), BurgersControl())]
    return (all(ok for _, ok, _ in results),
            ", ".join(f"{name} {detail}" for name, _, detail in results))


def test_criterion_2_adjoint_gradient():
    t0 = time.monotonic()
    ok, detail = _per_problem(lambda problem: suite_fd_gradient(
        problem, 20, 1e-5, SEED, problem.fd_gradient_tol))
    elapsed = time.monotonic() - t0
    report(2, ok and elapsed < 30.0, f"{detail}, {elapsed:.1f}s (<30s)")


def test_criterion_3_rom_properties():
    t0 = time.monotonic()
    ok, detail = _per_problem(
        lambda problem: suite_rom_properties(problem, SEED))
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 30.0, f"{detail}, {elapsed:.1f}s (<30s)")


def test_criterion_4_condition_enforcement(burgers_run):
    _, state, _ = burgers_run
    checks = [ev for ev in state.events if ev.kind == "exit_check"]
    grad_checks = [ev for ev in checks if ev.stage == "gradient"]
    obj_checks = [ev for ev in checks if ev.stage == "objective"]
    failures = [ev for ev in checks if not ev.ok]
    ok = bool(grad_checks) and bool(obj_checks) and not failures
    report(4, ok, f"{len(grad_checks)} gradient-condition exits and "
                  f"{len(obj_checks)} objective-condition exits verified, "
                  f"{len(failures)} assertion failures")


def test_criterion_5_global_convergence(burgers_run):
    _, state, elapsed = burgers_run
    gnorms = [row["gnorm"] for row in state.history]
    g0, gmin = gnorms[0], min(gnorms)
    reduction = g0 / gmin
    psi_ok = all(row["psi_trial"] < row["psi_center"]
                 for row in state.history
                 if not row["terminal"] and row["accepted"])
    ok = (reduction >= 1e3 and state.k <= 30 and psi_ok and elapsed < 300.0)
    report(5, ok, f"gradient {g0:.2e} -> {gmin:.2e} (x{reduction:.0f} "
                  f">= 1e3) in {state.k} iterations (<=30), psi decreased "
                  f"on every accepted step: {psi_ok}, {elapsed:.0f}s (<300s)")


@pytest.fixture(scope="module")
def baseline_run(burgers_run):
    """SG-ISO at the gradient tolerance the adaptive run reached."""
    problem, state, _ = burgers_run
    gnorm_final = float(np.linalg.norm(state.pair.model_gradient(state.mu)))
    matched_gtol = max(gnorm_final, TrustRegionConfig().gtol)
    counters = QueryCounters()
    t0 = time.monotonic()
    mu_iso, info = sg_iso_baseline(problem, np.zeros(8), level=5,
                                   gtol=matched_gtol, counters=counters)
    return mu_iso, counters, info, time.monotonic() - t0


def test_criterion_6_query_efficiency(burgers_run, baseline_run):
    problem, state, tr_elapsed = burgers_run
    _, iso_counters, _, iso_elapsed = baseline_run
    elapsed = tr_elapsed + iso_elapsed
    frac = state.counters.n_hp / iso_counters.n_hp
    cost_tr = cost_metric(state.counters, math.inf)
    cost_iso = cost_metric(iso_counters, math.inf)
    ok = (frac <= 0.25 and cost_tr < cost_iso and elapsed < 600.0)
    report(6, ok, f"primal HDM solves {state.counters.n_hp} vs "
                  f"{iso_counters.n_hp} ({100 * frac:.1f}% <= 25%), "
                  f"cost(tau=inf) {cost_tr:.1f} < {cost_iso:.1f}, "
                  f"{elapsed:.0f}s (<600s)")


def test_cross_method_agreement(burgers_run, baseline_run):
    # both methods, run to their tolerances, land at comparable points
    # of the true (tensor-reference) objective landscape
    from sgromtr.oracle import tensor_reference

    problem, state, _ = burgers_run
    mu_iso, _, _, _ = baseline_run
    j_tr, g_tr = tensor_reference(problem, state.mu, 5)
    j_iso, g_iso = tensor_reference(problem, mu_iso, 5)
    g_tr_n = float(np.linalg.norm(g_tr))
    g_iso_n = float(np.linalg.norm(g_iso))
    assert abs(j_tr - j_iso) <= 1e-6 * (1 + abs(j_iso))
    assert g_tr_n <= 10 * g_iso_n and g_iso_n <= 10 * g_tr_n
    # the model gradient tracks the reference gradient at the center
    g_model = float(np.linalg.norm(state.pair.model_gradient(state.mu)))
    assert g_tr_n <= 10 * max(g_model, TrustRegionConfig().gtol)


def _counts(state):
    """The deterministic counts of a trust-region run."""
    c = state.counters
    return dict(n_hp=c.n_hp, n_ha=c.n_ha, n_rp=c.n_rp, n_ra=c.n_ra,
                gn_iters=c.gn_iters, rom_stalls=c.rom_stalls,
                grid=len(state.pair.grid), basis=state.pair.basis.k)


def test_pinned_counts_burgers(burgers_run, baseline_run):
    # the default Burgers run and SG-ISO at level 5 with the default
    # gtol, which the fixture's matched tolerance equals here.  A change
    # that moves a count edits it here and says so in CHANGES.md
    _, state, _ = burgers_run
    assert _counts(state) == dict(n_hp=20, n_ha=28, n_rp=1395, n_ra=663,
                                  gn_iters=1850, rom_stalls=38, grid=23, basis=47)
    _, iso_counters, info, _ = baseline_run
    assert info["status"] == "converged"
    assert iso_counters.n_hp == 2312


def test_pinned_counts_diffusion():
    problem = LinearDiffusion()
    _, state = tr_run(problem, TrustRegionConfig(), np.zeros(problem.n_mu))
    assert _counts(state) == dict(n_hp=9, n_ha=17, n_rp=392, n_ra=188,
                                  gn_iters=392, rom_stalls=0, grid=13, basis=24)


def test_criterion_7_bound_validation():
    ok, detail = suite_bound_ratios(LinearDiffusion(), 100, SEED)
    report(7, ok, detail)


@pytest.mark.parametrize("method, files", [
    ("sg-rom-tr", {"history.csv", "events.csv", "grids/iter_0.txt"}),
    ("sg-iso", {"history.csv", "cost.csv", "summary.txt"}),
], ids=["sg-rom-tr", "sg-iso"])
def test_criterion_8_determinism(tmp_path, method, files):
    cfg_text = f"""
[run]
method = {method}
problem = linear-diffusion
seed = 2024

[trust_region]
gtol = 1e-5
max_iters = 10
"""
    path = tmp_path / "cfg.ini"
    path.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        cfg = load_config(path)
        out = tmp_path / name
        code = run_optimize(cfg, out)
        assert code == 0
        outs.append({p.relative_to(out).as_posix(): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    assert files <= set(outs[0])
    ok = outs[0] == outs[1]
    report(8, ok, f"{method}: two identical runs, all {len(outs[0])} report files "
                  f"byte-identical: {ok} "
                  f"({sum(map(len, outs[0].values()))} bytes)")
