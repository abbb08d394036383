"""Inexact trust-region driver over the sparse-grid/ROM approximation.

One iteration refines the model for the gradient condition at the
center, computes a Steihaug-Toint step on a frozen quadratic model of
the approximation, refines a second grid/basis pair for the
objective-decrease condition, and accepts or rejects the step from the
actual-to-predicted ratio of the two models.  All step assessment runs
on reduced-order solves only; the high-dimensional model is queried
solely by the greedy snapshot sampling inside the refinement drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .adapt import SgRomPair, refine_for_gradient, refine_for_objective
from .hdm import QueryCounters, solve_adjoint, solve_primal, primal_sensitivities
from .rom import ReducedBasis
from .sparse_grid import MultiIndexSet, cc_rule

__all__ = [
    "TrustRegionConfig", "TrustRegionState", "SubproblemError",
    "steihaug_toint", "tr_init", "tr_iterate", "tr_run",
]


class SubproblemError(RuntimeError):
    """The trust-region subproblem solution violated its decrease guarantee."""


@dataclass
class TrustRegionConfig:
    """Constants of the trust-region method and its refinement drivers.

    ``eta`` may equal ``min(eta1, 1 - eta2)``: the customary strict
    inequality would reject the standard parameter choice
    ``eta = eta1 = 0.1``.  ``theta_floor`` bounds the objective-condition
    thresholds from below; the nominal value
    ``(eta min{decrease, r_k})^(1/omega)`` collapses far beneath what
    residual indicators can attain in double precision.
    """

    eta1: float = 0.1
    eta2: float = 0.75
    gamma: float = 0.5
    eta: float = 0.1
    omega: float = 0.1
    kappa_phi: float = 1.0
    kappa_s: float = 1e-4
    r0: float = 1.0                 # forcing sequence r_k = r0 / (k + 1)
    Delta0: float = 1.0
    Delta_max: float = 1000.0
    gtol: float = 1e-6
    max_iters: int = 30
    betas: tuple = (1.0, 1.0, 1.0)
    alphas: tuple = (1e-2, 1e-2)
    level_cap: int = 10
    theta_floor: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.eta1 < self.eta2 < 1.0):
            raise ValueError("need 0 < eta1 < eta2 < 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("need 0 < gamma < 1")
        if not (0.0 < self.eta <= min(self.eta1, 1.0 - self.eta2)):
            raise ValueError("need 0 < eta <= min(eta1, 1 - eta2)")
        if not (0.0 < self.omega < 1.0):
            raise ValueError("need 0 < omega < 1")
        if self.kappa_phi <= 0.0:
            raise ValueError("need kappa_phi > 0")
        if not (0.0 < self.kappa_s < 1.0):
            raise ValueError("need 0 < kappa_s < 1")
        if self.r0 <= 0.0 or self.Delta0 <= 0.0:
            raise ValueError("need r0 > 0 and Delta0 > 0")
        if self.Delta_max < self.Delta0:
            raise ValueError("need Delta_max >= Delta0")
        if self.gtol < 0.0 or self.theta_floor < 0.0:
            raise ValueError("need gtol >= 0 and theta_floor >= 0")
        if self.max_iters < 1 or self.level_cap < 1:
            raise ValueError("need max_iters, level_cap >= 1")
        if len(self.betas) != 3 or any(b <= 0 for b in self.betas):
            raise ValueError("betas must be three positive reals")
        if len(self.alphas) != 2 or any(a <= 0 for a in self.alphas):
            raise ValueError("alphas must be two positive reals")

    def r_k(self, k: int) -> float:
        return self.r0 / (k + 1)


@dataclass
class TrustRegionState:
    k: int
    mu: np.ndarray
    Delta: float
    pair: SgRomPair
    counters: QueryCounters
    history: list = field(default_factory=list)
    events: list = field(default_factory=list)
    status: str = "running"


class SteihaugResult(NamedTuple):
    step: np.ndarray
    decrease: float
    beta_k: float
    iters: int
    hit_boundary: bool


def _boundary_tau(p, d, Delta):
    # positive root of ||p + tau d|| = Delta
    dd = float(d @ d)
    pd = float(p @ d)
    pp = float(p @ p)
    disc = pd * pd + dd * (Delta * Delta - pp)
    return (-pd + math.sqrt(max(disc, 0.0))) / dd


def steihaug_toint(gradient, hessvec: Callable, Delta: float,
                   kappa_s: float = 1e-4) -> SteihaugResult:
    """Truncated CG on the quadratic model within the trust region.

    Terminates at the boundary on negative curvature or radius exit, or
    interior once the residual is at most the forcing term
    ``min(0.5, sqrt(||g||)) ||g||`` (Nocedal & Wright 2006, Alg. 7.1),
    after at most ``2 n + 10`` iterations.  The forcing term keeps the
    stopping rule above the round-off of the finite-difference Hessian
    products and still gives superlinear convergence.  ``hessvec`` is
    called once per CG iteration: the model decrease
    ``-(g.p + p.Hp / 2)`` takes ``Hp`` from the same recurrence as
    ``p``, as the sum of the step lengths times the products ``H d``
    already computed.  The step is
    checked against the fraction-of-Cauchy-decrease inequality with
    ``beta_k = 1 +`` the largest curvature magnitude observed.
    """
    g = np.asarray(gradient, dtype=float)
    n = g.shape[0]
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return SteihaugResult(np.zeros(n), 0.0, 1.0, 0, False)
    if Delta <= 0.0:
        raise ValueError("trust-region radius must be positive")

    forcing = min(0.5, math.sqrt(gnorm)) * gnorm
    p = np.zeros(n)
    hp = np.zeros(n)
    r = g.copy()
    d = -g
    rr = gnorm * gnorm
    max_curv = 0.0
    hit = False
    iters = 0
    for _ in range(2 * n + 10):
        hd = hessvec(d)
        dhd = float(d @ hd)
        max_curv = max(max_curv, abs(dhd) / float(d @ d))
        iters += 1
        alpha = rr / dhd if dhd > 0.0 else math.inf
        if dhd <= 0.0 or np.linalg.norm(p + alpha * d) >= Delta:
            tau = _boundary_tau(p, d, Delta)
            p = p + tau * d
            hp = hp + tau * hd
            hit = True
            break
        p = p + alpha * d
        hp = hp + alpha * hd
        r = r + alpha * hd
        rr_new = float(r @ r)
        if math.sqrt(rr_new) <= forcing:
            break
        d = -r + (rr_new / rr) * d
        rr = rr_new

    decrease = -(float(g @ p) + 0.5 * float(p @ hp))
    beta_k = 1.0 + max_curv
    required = kappa_s * gnorm * min(Delta, gnorm / beta_k)
    if decrease < required:
        raise SubproblemError(
            f"step violates the Cauchy-decrease fraction "
            f"(decrease {decrease:.3e} < required {required:.3e})")
    return SteihaugResult(p, decrease, beta_k, iters, hit)


def _fd_hessvec(pair: SgRomPair, mu, g0) -> Callable:
    """One-sided finite differences of the model gradient on a frozen pair.

    ``g0`` is the model gradient at ``mu``, which the caller already
    holds, so each product solves the grid at one point ``mu + h v``.
    The step ``h = sqrt(eps) (1 + ||mu||) / ||v||`` is the usual choice
    for a forward difference (Nocedal & Wright 2006, sec. 8.1).
    """
    mu = np.asarray(mu, dtype=float)
    scale = math.sqrt(np.finfo(float).eps) * (1.0 + float(np.linalg.norm(mu)))

    def hessvec(v):
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            return np.zeros_like(mu)
        h = scale / vnorm
        return (pair.model_gradient(mu + h * v) - g0) / h

    return hessvec


def tr_init(problem, config: TrustRegionConfig, mu0) -> TrustRegionState:
    """Seed the level-one grid and the snapshot basis at the origin node.

    The basis starts from the primal solution, all parameter
    sensitivities, and the adjoint solution at ``(y=0, mu0)``,
    orthonormalized in that order.
    """
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (problem.n_mu,):
        raise ValueError(f"mu0 must have length {problem.n_mu}")
    counters = QueryCounters()
    grid = MultiIndexSet.unit(problem.n_y)
    y0 = np.zeros((1, problem.n_y))

    prim = solve_primal(problem, y0, mu0, counters=counters)
    sens = primal_sensitivities(problem, prim.u, y0, mu0, counters=counters)
    adj = solve_adjoint(problem, prim.u, y0, mu0, counters=counters)

    basis = ReducedBasis(problem.n_u)
    vectors = [prim.u[0], *sens[0], adj.lam[0]]
    kinds = ["primal"] + ["sensitivity"] * problem.n_mu + ["adjoint"]
    basis.append_snapshots(vectors, kinds, y0[0], mu0)
    origin = (cc_rule(1).keys[0],) * problem.n_y
    basis.sampled_points.add((origin, mu0.tobytes()))

    pair = SgRomPair(problem, grid, basis, counters)
    return TrustRegionState(k=0, mu=mu0, Delta=config.Delta0, pair=pair,
                            counters=counters)


def _history_row(state, gnorm, m_c=math.nan, m_t=math.nan,
                 psi_c=math.nan, psi_t=math.nan, rho=math.nan,
                 accepted=False, step_norm=math.nan, terminal=False):
    """The history row of an iteration that hands on ``state.pair`` at the
    center ``state.mu``.

    It first solves the reduced adjoints of the union quadrature at that
    center: the next gradient stage, or the final report, reads exactly
    these first, and solving them here counts them in this row, so
    writing the reports solves nothing.
    """
    state.pair.evals(state.pair.union_quad(), state.mu, adjoint=True)
    row = {
        "k": state.k, "m_center": m_c, "m_trial": m_t,
        "psi_center": psi_c, "psi_trial": psi_t, "rho": rho,
        "Delta": state.Delta, "accepted": accepted, "gnorm": gnorm,
        "step_norm": step_norm, "grid_size": len(state.pair.grid),
        "basis_k": state.pair.basis.k, "terminal": terminal,
    }
    row.update(state.counters.snapshot())
    return row


def tr_iterate(state: TrustRegionState, config: TrustRegionConfig) -> TrustRegionState:
    """One full trust-region iteration (Algorithm steps 2 through 6).

    Sets ``state.status`` to ``"converged"`` and returns without a step
    when ``min{||grad m||, Delta} <= gtol`` holds after the
    gradient-condition refinement.
    """
    refine_for_gradient(state.pair, state.mu, state.Delta, config.kappa_phi,
                        config.betas, config.gtol, level_cap=config.level_cap,
                        events=state.events)
    g = state.pair.model_gradient(state.mu)
    gnorm = float(np.linalg.norm(g))
    if min(gnorm, state.Delta) <= config.gtol:
        state.history.append(_history_row(state, gnorm, terminal=True))
        state.status = "converged"
        return state

    result = steihaug_toint(g, _fd_hessvec(state.pair, state.mu, g), state.Delta,
                            kappa_s=config.kappa_s)
    step_norm = float(np.linalg.norm(result.step))
    if step_norm > state.Delta * (1.0 + 1e-12):
        raise SubproblemError("step left the trust region")
    mu_hat = state.mu + result.step

    m_center = state.pair.model_value(state.mu)
    m_trial = state.pair.model_value(mu_hat)
    m_dec = m_center - m_trial

    if m_dec <= 0.0:
        # the frozen quadratic predicted decrease but the model did not
        # follow; treat as a rejected step and shrink the radius
        state.history.append(_history_row(
            state, gnorm, m_c=m_center, m_t=m_trial, rho=-math.inf,
            accepted=False, step_norm=step_norm))
        state.Delta = config.gamma * step_norm
        state.k += 1
        return state

    # the objective stage and the next center touch only mu_k and mu_hat
    pair_obj = state.pair.clone([state.mu, mu_hat])
    refine_for_objective(pair_obj, state.mu, mu_hat, m_dec,
                         config.r_k(state.k), config.eta, config.omega,
                         config.alphas, level_cap=config.level_cap,
                         threshold_floor=config.theta_floor,
                         events=state.events)
    psi_center = pair_obj.model_value(state.mu)
    psi_trial = pair_obj.model_value(mu_hat)
    rho = (psi_center - psi_trial) / m_dec

    accepted = rho >= config.eta1
    # the row describes the pair and the center this iteration hands on
    state.pair = pair_obj
    if accepted:
        state.mu = mu_hat
    state.history.append(_history_row(
        state, gnorm, m_c=m_center, m_t=m_trial, psi_c=psi_center,
        psi_t=psi_trial, rho=rho, accepted=accepted, step_norm=step_norm))

    if rho <= config.eta1:
        state.Delta = config.gamma * step_norm
    elif rho < config.eta2:
        pass  # keep the radius (any value in [gamma*||s||, Delta] is allowed)
    else:
        state.Delta = min(2.0 * state.Delta, config.Delta_max)
    state.k += 1
    return state


def tr_run(problem, config: TrustRegionConfig, mu0,
           on_iteration: Callable | None = None):
    """Run the trust-region method from ``mu0`` until the stopping rule fires.

    Returns ``(mu_final, state)``; ``state.status`` is ``"converged"``
    when ``min{||grad m||, Delta} <= gtol`` was reached and
    ``"max_iters"`` otherwise.  ``on_iteration`` is called with each new
    history row and the live state as the run progresses.  An exception
    raised by an iteration leaves with the partial state attached as its
    ``state`` attribute, events of the failed iteration included.
    """
    state = tr_init(problem, config, mu0)
    try:
        while state.k < config.max_iters:
            rows_before = len(state.history)
            tr_iterate(state, config)
            if on_iteration is not None:
                for row in state.history[rows_before:]:
                    on_iteration(row, state)
            if state.status == "converged":
                break
        else:
            state.status = "max_iters"
    except Exception as exc:
        exc.state = state
        raise
    return state.mu, state
