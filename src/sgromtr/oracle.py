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
from functools import partial

import numpy as np

from .hdm import (QueryCounters, SolverError, adjoint_gradient, solve_adjoint,
                  solve_primal)
from .rom import ReducedBasis, solve_rom_adjoint, solve_rom_primal
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


def fd_gradient(problem, y, mu, h: float) -> np.ndarray:
    """Central finite differences of step ``h`` of the solution-restricted
    QoI at one node ``y`` of length ``n_y``; the validation suite passes
    the problem's ``fd_step``.

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
        up = solve_primal(problem, y, mu + e)
        dn = solve_primal(problem, y, mu - e)
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
    The nodes are solved as one stack, tallied in ``counters`` if given,
    and the weighted sums add them in node order (:func:`node_sum`).
    ``warm``, if given, maps a level to the states of its last solve,
    which start the next one there.  An evaluation that raises
    :class:`SolverError` moves no counter and leaves ``warm`` as it was.
    """
    if level > 6:
        raise ValueError("tensor reference capped at level 6")
    if problem.n_y > 3:
        raise ValueError("tensor reference capped at 3 stochastic dimensions")
    mu = np.asarray(mu, dtype=float)
    _, nodes, weights = tensor_nodes((level,) * problem.n_y)
    u0 = warm.get(level) if warm is not None else None
    counters = QueryCounters() if counters is None else counters
    prim = solve_primal(problem, nodes, mu, u0=u0)
    lam = solve_adjoint(problem, prim.u, nodes, mu)
    counters.count_primals(prim)
    counters.n_ha += len(nodes)
    if warm is not None:
        warm[level] = prim.u
    j_val = node_sum(weights, problem.qoi(prim.u, nodes, mu))
    grad = node_sum(weights, adjoint_gradient(problem, lam, prim.u, nodes, mu))
    return j_val, grad


def sg_iso_baseline(problem, mu0, counters: QueryCounters, *, level: int,
                    gtol: float, max_iters: int):
    """BFGS with backtracking on the fixed isotropic tensor-grid objective.

    Uses high-dimensional solves only, tallied in ``counters``; each
    evaluation starts from the states of the last.  The first step is
    ``-g0``.  The inverse Hessian starts at ``(s'y / y'y) I`` from the
    first curvature pair that passes the guard, the scaled start of
    Nocedal & Wright (2006, *Numerical Optimization*, eq. 6.20), and is
    then updated by BFGS.  A trial point whose full solve fails
    (:class:`SolverError`) is rejected like one that fails the Armijo
    test or the strict decrease; at ``mu0`` the failure propagates.  A
    failed line search terminates the iteration at the best known point.
    Returns ``(mu_final, info)``: ``info["history"]`` holds one row per
    iterate, its objective, gradient norm and cumulative query counts,
    the last row those of ``mu_final``, so a run of ``K`` steps has
    ``K + 1`` rows; ``info["status"]`` is ``"converged"`` when that last
    point meets ``gtol``, also the point reached by the last of
    ``max_iters`` steps, and ``"line_search_failed"`` when 40 halvings
    found no acceptable trial point.  ``level``, ``gtol`` and
    ``max_iters`` are the config's ``baseline.level``, ``baseline.gtol``
    and ``baseline.max_iters``; the caller resolves an unset
    ``baseline.gtol`` to a number first.
    """
    mu = np.asarray(mu0, dtype=float).copy()
    n = problem.n_mu
    evaluate = partial(tensor_reference, problem, level=level, counters=counters,
                       warm={})
    hinv = None  # the identity until the first curvature pair scales it
    history = []
    j_val, grad = evaluate(mu)
    status = "max_iters"

    def row(it):
        return {"k": it, "J": j_val, "gnorm": float(np.linalg.norm(grad)),
                "n_hp": counters.n_hp, "n_ha": counters.n_ha}

    for it in range(max_iters + 1):
        history.append(row(it))
        if history[-1]["gnorm"] <= gtol:
            status = "converged"
            break
        if it == max_iters:
            break
        d = -grad if hinv is None else -hinv @ grad
        if float(d @ grad) >= 0.0:
            hinv = np.eye(n)
            d = -grad
        t = 1.0
        slope = float(grad @ d)
        ok = False
        for _ in range(40):
            mu_new = mu + t * d
            try:
                j_new, g_new = evaluate(mu_new)
            except SolverError:
                pass  # no steady state at the trial point: reject it
            else:
                # strictly lower too: once 1e-4 t slope is below J's last
                # bit, the Armijo test alone accepts an equal J
                if j_new < j_val and j_new <= j_val + 1e-4 * t * slope:
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
            if hinv is None:
                hinv = sy / float(yv @ yv) * np.eye(n)
            rho = 1.0 / sy
            v = np.eye(n) - rho * np.outer(s, yv)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        mu, j_val, grad = mu_new, j_new, g_new
    return mu, {"history": history, "status": status}


def validate_bounds(problem, basis: ReducedBasis, n_samples: int, seed: int):
    """Empirical ratio statistics for the residual-based error bounds.

    Draws ``(y, mu)`` uniformly from the problem's working box with
    ``default_rng(seed)`` (the run's ``[run] seed``), solves
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
        prim = solve_rom_primal(problem, basis, y, mu)  # bounds hold at any iterate
        adj = solve_rom_adjoint(problem, basis, prim.q, y, mu)
        res, adj_res = float(prim.residual_norm[0]), float(adj.residual_norm[0])
        if res < 1e-14:
            excluded += 1
            continue
        hdm_prim = solve_primal(problem, y, mu)
        hdm_lam = solve_adjoint(problem, hdm_prim.u, y, mu)
        u_rom = basis.expand(prim.q)
        f_err = problem.qoi(hdm_prim.u, y, mu) - problem.qoi(u_rom, y, mu)
        g_err = (adjoint_gradient(problem, hdm_lam, hdm_prim.u, y, mu)
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
