"""Independent verification machinery.

Everything here deliberately avoids the reduced-order and adaptive
sparse-grid code paths: gradients come from finite differences of the
full solve, expectations from directly tensorized quadrature, and the
baseline optimizer queries the high-dimensional model only.  These are
the second routes against which the fast paths are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hdm import (QueryCounters, adjoint_gradient, solve_adjoint, solve_primal)
from .rom import ReducedBasis, RomSolveError, solve_rom_adjoint, solve_rom_primal
from .sparse_grid import node_sum, tensor_nodes

__all__ = [
    "BoundEstimate", "fd_gradient", "tensor_reference",
    "sg_iso_baseline", "validate_bounds", "cost_metric",
]


@dataclass
class BoundEstimate:
    """Per-sample ratios of an error to its residual-based indicator.

    A bounded maximum across samples is the empirical content of the
    residual-based error bounds; the constants themselves are
    problem-dependent and never asserted against.
    """

    ratios: list
    max_ratio: float
    median_ratio: float
    n_samples: int
    n_excluded: int


def fd_gradient(problem, y, mu, h: float = 1e-5,
                counters: QueryCounters | None = None) -> np.ndarray:
    """Central finite differences of the solution-restricted QoI at one
    node ``y`` of length ``n_y``.

    Costs two full primal solves per parameter component.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    y = np.asarray(y, dtype=float)[None]
    mu = np.asarray(mu, dtype=float)
    grad = np.zeros(problem.n_mu)
    for j in range(problem.n_mu):
        e = np.zeros(problem.n_mu)
        e[j] = h
        up = solve_primal(problem, y, mu + e, counters=counters)
        dn = solve_primal(problem, y, mu - e, counters=counters)
        f_up = problem.qoi(up.u, y, mu + e)[0]
        f_dn = problem.qoi(dn.u, y, mu - e)[0]
        grad[j] = (f_up - f_dn) / (2.0 * h)
    return grad


def tensor_reference(problem, mu, level: int,
                     counters: QueryCounters | None = None,
                     warm: dict | None = None):
    """Objective and gradient on a directly tensorized quadrature.

    Every node gets a full primal and adjoint solve; this is the
    brute-force reference the adaptive machinery is compared against.
    The nodes are solved as one stack, and the weighted sums add them in
    node order (:func:`node_sum`).  ``warm``, if given, maps a level to
    the states of its last solve, which start the next one there.
    """
    if level > 6:
        raise ValueError("tensor reference capped at level 6")
    if problem.n_y > 3:
        raise ValueError("tensor reference capped at 3 stochastic dimensions")
    mu = np.asarray(mu, dtype=float)
    _, nodes, weights = tensor_nodes((level,) * problem.n_y)
    u0 = warm.get(level) if warm is not None else None
    prim = solve_primal(problem, nodes, mu, u0=u0, counters=counters)
    if warm is not None:
        warm[level] = prim.u
    adj = solve_adjoint(problem, prim.u, nodes, mu, counters=counters)
    j_val = node_sum(weights, problem.qoi(prim.u, nodes, mu))
    grad = node_sum(weights, adjoint_gradient(problem, adj.lam, prim.u, nodes, mu))
    return j_val, grad


def sg_iso_baseline(problem, mu0, level: int = 5, gtol: float = 1e-6,
                    max_iters: int = 100,
                    counters: QueryCounters | None = None):
    """BFGS with backtracking on the fixed isotropic tensor-grid objective.

    Uses high-dimensional solves only.  A failed line search terminates
    the iteration at the best known point.  Returns
    ``(mu_final, history)`` where each history row records the
    objective, gradient norm, and cumulative query counts.
    """
    mu = np.asarray(mu0, dtype=float).copy()
    n = problem.n_mu
    warm: dict = {}
    cache: dict = {}

    def evaluate(mu_pt):
        key = mu_pt.tobytes()
        if key not in cache:
            cache[key] = tensor_reference(problem, mu_pt, level,
                                          counters=counters, warm=warm)
        return cache[key]

    hinv = np.eye(n)
    history = []
    j_val, grad = evaluate(mu)
    status = "max_iters"
    for it in range(max_iters):
        gnorm = float(np.linalg.norm(grad))
        history.append({
            "k": it, "J": j_val, "gnorm": gnorm,
            "n_hp": counters.n_hp if counters else 0,
            "n_ha": counters.n_ha if counters else 0,
        })
        if gnorm <= gtol:
            status = "converged"
            break
        d = -hinv @ grad
        if float(d @ grad) >= 0.0:
            hinv = np.eye(n)
            d = -grad
        t = 1.0
        slope = float(grad @ d)
        ok = False
        for _ in range(40):
            mu_new = mu + t * d
            j_new, g_new = evaluate(mu_new)
            if j_new <= j_val + 1e-4 * t * slope:
                ok = True
                break
            t *= 0.5
        if not ok:
            status = "line_search_failed"
            break
        s = mu_new - mu
        yv = g_new - grad
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            rho = 1.0 / sy
            v = np.eye(n) - rho * np.outer(s, yv)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        mu, j_val, grad = mu_new, j_new, g_new
    return mu, {"history": history, "status": status}


def validate_bounds(problem, basis: ReducedBasis, n_samples: int,
                    seed: int = 2024):
    """Empirical ratio statistics for the residual-based error bounds.

    Draws ``(y, mu)`` uniformly from the problem's working box, solves
    both the reduced and the full model, and reports the ratios
    ``|F - F_r| / ||r||`` and ``||grad F - g_hat|| / (||r|| + ||r_adj||)``.
    Samples whose primal residual is below ``1e-14`` carry no
    information and are excluded (but counted).
    """
    rng = np.random.default_rng(seed)
    box = problem.mu_sample_halfwidth
    qoi_ratios = []
    grad_ratios = []
    excluded = 0
    for _ in range(n_samples):
        y = rng.uniform(-1.0, 1.0, (1, problem.n_y))
        mu = rng.uniform(-box, box, problem.n_mu)
        try:
            prim = solve_rom_primal(problem, basis, y, mu)
        except RomSolveError as exc:
            if exc.result is None:
                raise
            prim = exc.result  # the bounds hold at any reduced state
        adj = solve_rom_adjoint(problem, basis, prim.q, y, mu)
        res, adj_res = float(prim.residual_norm[0]), float(adj.residual_norm[0])
        if res < 1e-14:
            excluded += 1
            continue
        hdm_prim = solve_primal(problem, y, mu)
        hdm_adj = solve_adjoint(problem, hdm_prim.u, y, mu)
        u_rom = basis.expand(prim.q)
        f_err = problem.qoi(hdm_prim.u, y, mu) - problem.qoi(u_rom, y, mu)
        g_err = (adjoint_gradient(problem, hdm_adj.lam, hdm_prim.u, y, mu)
                 - adjoint_gradient(problem, basis.expand(adj.eta), u_rom, y, mu))
        qoi_ratios.append(abs(float(f_err[0])) / res)
        grad_ratios.append(float(np.linalg.norm(g_err[0])) / (res + adj_res))

    def estimate(ratios):
        if not ratios:
            return BoundEstimate([], math.nan, math.nan, 0, excluded)
        return BoundEstimate(list(ratios), float(np.max(ratios)),
                             float(np.median(ratios)), len(ratios), excluded)

    return estimate(qoi_ratios), estimate(grad_ratios)


def cost_metric(counters, tau: float) -> float:
    """Total cost in equivalent primal HDM queries.

    ``tau`` is the assumed speedup of a reduced solve over a full
    solve; ``tau = inf`` makes reduced queries free.  Adjoint queries
    count as one nonlinear iteration of their primal counterpart.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive (may be math.inf)")
    c = counters.n_hp + counters.n_ha / counters.nbar_h()
    if math.isfinite(tau):
        c += (counters.n_rp + counters.n_ra / counters.nbar_r()) / tau
    return c
