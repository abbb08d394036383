"""High-dimensional model problems and their primal/adjoint solvers.

A model problem is a parametrized nonlinear system ``r(u, y, mu) = 0``
with a scalar quantity of interest ``f(u, y, mu)``; ``y`` collects the
stochastic variables on ``[-1, 1]^n_y`` and ``mu`` the optimization
parameters.  Two desk-scale 1D boundary-value problems are bundled,
both controlled through a hat-function source expansion and tracking a
reference profile:

* :class:`LinearDiffusion` -- variable-coefficient diffusion, affine in
  the state, so Newton converges in one step.
* :class:`BurgersControl` -- steady viscous Burgers flow with an
  uncertain viscosity and inflow value; quadratic in the state and
  linear in the parameters.

Every linear solve -- Newton step, adjoint, sensitivities -- is one
O(n) tridiagonal sweep over the Jacobian's bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "ModelProblem", "LinearDiffusion", "BurgersControl",
    "PrimalSolution", "AdjointSolution", "QueryCounters",
    "SolverError", "solve_primal", "adjoint_residual", "solve_adjoint",
    "adjoint_gradient", "primal_sensitivities", "make_problem",
]


class SolverError(RuntimeError):
    """A nonlinear or linear solve failed; carries the last iterate."""

    def __init__(self, message, u=None, residual_norm=None):
        super().__init__(message)
        self.u = u
        self.residual_norm = residual_norm


@dataclass
class PrimalSolution:
    u: np.ndarray
    residual_norm: float
    newton_iters: int


@dataclass
class AdjointSolution:
    lam: np.ndarray
    residual_norm: float


@dataclass
class QueryCounters:
    """Cumulative solver-query bookkeeping for the cost model.

    Sensitivity solves are linear solves of the same size as an adjoint
    solve and are counted in ``n_ha``.
    """

    n_hp: int = 0
    n_ha: int = 0
    n_rp: int = 0
    n_ra: int = 0
    newton_iters: int = 0
    gn_iters: int = 0

    def nbar_h(self) -> float:
        return max(1.0, self.newton_iters / self.n_hp) if self.n_hp else 1.0

    def nbar_r(self) -> float:
        return max(1.0, self.gn_iters / self.n_rp) if self.n_rp else 1.0

    def snapshot(self) -> dict:
        return {
            "n_hp": self.n_hp, "n_ha": self.n_ha,
            "n_rp": self.n_rp, "n_ra": self.n_ra,
            "nbar_h": self.nbar_h(), "nbar_r": self.nbar_r(),
        }


def _hat_basis(x: np.ndarray, n_mu: int) -> np.ndarray:
    """Columns are hat functions centered at j/(n_mu+1), width 1/(n_mu+1)."""
    width = 1.0 / (n_mu + 1)
    centers = np.arange(1, n_mu + 1) * width
    return np.maximum(0.0, 1.0 - np.abs(x[:, None] - centers[None, :]) / width)


class ModelProblem:
    """Shared surface of the bundled problems.

    Subclasses set ``n_u``, ``n_y``, ``n_mu``, fill ``source_basis``
    (the ``n_u x n_mu`` matrix of control load vectors), ``ref`` (the
    tracking target on the interior grid), and implement
    :meth:`residual` and :meth:`jac_bands`.
    """

    n_u: int
    n_y: int
    n_mu: int
    name: str

    #: half-width of the parameter box used for random validation draws;
    #: solutions exist and Newton is robust throughout this region
    mu_sample_halfwidth = 1.0

    #: largest relative error between the adjoint gradient and a central
    #: finite difference (step 1e-5) that the gradient checks accept
    fd_gradient_tol = 1e-6

    def __init__(self, n_u, n_y, n_mu, alpha):
        self.n_u = int(n_u)
        self.n_y = int(n_y)
        self.n_mu = int(n_mu)
        self.alpha = float(alpha)
        self.h = 1.0 / (self.n_u + 1)
        self.x = (np.arange(self.n_u) + 1.0) * self.h
        self.source_basis = _hat_basis(self.x, self.n_mu)
        self.ref = np.zeros(self.n_u)

    # -- residual surface ---------------------------------------------------

    def residual(self, u, y, mu):
        raise NotImplementedError

    def jac_bands(self, u, y, mu):
        """Tridiagonal bands (lo, dg, up) of dr/du at (u, y, mu)."""
        raise NotImplementedError

    def jac_u_mul(self, u, y, mu, v):
        """(dr/du) @ v without forming the dense Jacobian."""
        bands = self.jac_bands(u, y, mu)
        if v.ndim == 1:
            return kernels.band_matvec(*bands, v)
        return kernels.band_matmat(*bands, v)

    def jac_uT_mul(self, u, y, mu, v):
        """(dr/du)^T @ v without forming the dense Jacobian."""
        bands = self.jac_bands(u, y, mu)
        if v.ndim == 1:
            return kernels.band_t_matvec(*bands, v)
        return kernels.band_t_matmat(*bands, v)

    def jac_mu(self, u, y, mu):
        """dr/dmu: the control enters as a source, so this is -source_basis."""
        return -self.source_basis

    # -- quantity of interest -----------------------------------------------

    def qoi(self, u, y, mu):
        d = u - self.ref
        mu = np.asarray(mu, dtype=float)
        return 0.5 * self.h * float(d @ d) + 0.5 * self.alpha * float(mu @ mu)

    def qoi_u(self, u, y, mu):
        return self.h * (u - self.ref)

    def qoi_mu(self, u, y, mu):
        return self.alpha * np.asarray(mu, dtype=float)

    # -- stochastic measure --------------------------------------------------

    def density(self, y) -> float:
        """Uniform density on [-1, 1]^n_y (constant)."""
        return 2.0 ** (-self.n_y)

    def _check(self, u, y, mu):
        if len(u) != self.n_u:
            raise ValueError(f"state has length {len(u)}, expected {self.n_u}")
        if len(y) != self.n_y:
            raise ValueError(f"node has length {len(y)}, expected {self.n_y}")
        if len(mu) != self.n_mu:
            raise ValueError(f"parameter has length {len(mu)}, expected {self.n_mu}")

    def source(self, mu):
        return self.source_basis @ np.asarray(mu, dtype=float)

    def initial_state(self, y, mu):
        """Default Newton start; subclasses override when zero is a poor start."""
        return np.zeros(self.n_u)

    def continuation_stages(self, y, mu):
        """Easier (y, mu) stages to traverse when Newton stalls; may be empty."""
        return []


class LinearDiffusion(ModelProblem):
    """Dirichlet diffusion ``-(kappa(x, y) p')' = sum_j mu_j b_j(x)``.

    ``kappa(x, y) = 1 + a1*y1*sin(pi x) + a2*y2*cos(2 pi x)`` stays
    positive for the default amplitudes ``(0.5, 0.25)``.  Setting both
    amplitudes to zero makes the problem independent of ``y``, which is
    useful as a deterministic quadratic test case.  The tracking target
    is the fixed profile ``x (1 - x)``.
    """

    name = "linear-diffusion"

    def __init__(self, n_u=63, n_mu=8, alpha=0.1, kappa_amp=(0.5, 0.25)):
        super().__init__(n_u, 2, n_mu, alpha)
        self.kappa_amp = (float(kappa_amp[0]), float(kappa_amp[1]))
        self.ref = self.x * (1.0 - self.x)
        self._x_half = np.arange(self.n_u + 1) * self.h + 0.5 * self.h
        self._sin_half = np.sin(math.pi * self._x_half)
        self._cos_half = np.cos(2.0 * math.pi * self._x_half)

    def kappa_half(self, y):
        a1, a2 = self.kappa_amp
        return 1.0 + a1 * y[0] * self._sin_half + a2 * y[1] * self._cos_half

    def residual(self, u, y, mu):
        self._check(u, y, mu)
        return kernels.diffusion_residual(u, self.kappa_half(y), self.h,
                                          self.source(mu))

    def jac_bands(self, u, y, mu):
        return kernels.diffusion_bands(self.kappa_half(y), self.h)


class BurgersControl(ModelProblem):
    """Steady viscous Burgers flow with uncertain viscosity and inflow.

    ``-nu(y1) u'' + u u' = sum_j mu_j b_j(x)`` on ``[0, 1]`` with
    ``u(0) = 1 + 0.25 y2``, ``u(1) = 0`` and the affine reciprocal
    viscosity ``1/nu = 5 (1 - y1) + 30 (1 + y1)``.  The tracking target
    is the mean of the uncontrolled solution over the stochastic space,
    computed once at construction on a fixed tensor grid of level
    ``ref_level``.
    """

    name = "burgers-control"

    #: strongly negative forcing at low viscosity approaches a steady-state
    #: fold, so random draws stay inside a smaller box
    mu_sample_halfwidth = 0.5

    #: the objective is not quadratic in mu here, so the central
    #: difference keeps an O(h^2) truncation error
    fd_gradient_tol = 1e-5

    def __init__(self, n_u=127, n_mu=8, alpha=0.1, ref_level=3):
        super().__init__(n_u, 2, n_mu, alpha)
        self.ref_level = int(ref_level)
        self.ref = _uncontrolled_reference(self, self.ref_level)

    def viscosity(self, y) -> float:
        return 1.0 / (5.0 * (1.0 - y[0]) + 30.0 * (1.0 + y[0]))

    def bc_left(self, y) -> float:
        return 1.0 + 0.25 * y[1]

    def residual(self, u, y, mu):
        self._check(u, y, mu)
        return kernels.burgers_residual(u, self.bc_left(y), 0.0,
                                        self.viscosity(y), self.h,
                                        self.source(mu))

    def jac_bands(self, u, y, mu):
        return kernels.burgers_bands(u, self.bc_left(y), 0.0,
                                     self.viscosity(y), self.h)

    def initial_state(self, y, mu):
        """Linear interpolant of the boundary data; zero is a poor start
        at low viscosity."""
        return self.bc_left(y) * (1.0 - self.x)

    def continuation_stages(self, y, mu):
        """Retry through higher-viscosity problems (smaller effective y1)."""
        stages = []
        for factor in (6.0, 3.0, 1.5):
            inv_nu = max(1.0 / (factor * self.viscosity(y)), 10.0)
            y1 = np.clip((inv_nu - 35.0) / 25.0, -1.0, 1.0)
            stages.append((np.array([y1, y[1]]), mu))
        return stages


def _uncontrolled_reference(problem: BurgersControl, level: int) -> np.ndarray:
    """Tensor-quadrature mean of the uncontrolled solution over y."""
    from .sparse_grid import cc_rule

    rule = cc_rule(level)
    mu0 = np.zeros(problem.n_mu)
    mean = np.zeros(problem.n_u)
    for y1, w1 in zip(rule.nodes, rule.weights):
        for y2, w2 in zip(rule.nodes, rule.weights):
            sol = solve_primal(problem, np.array([y1, y2]), mu0)
            mean += w1 * w2 * sol.u
    return mean


def make_problem(name: str, **kwargs) -> ModelProblem:
    """Instantiate a bundled problem by name."""
    table = {"linear-diffusion": LinearDiffusion, "burgers-control": BurgersControl}
    if name not in table:
        raise ValueError(f"unknown problem {name!r}; choices: {sorted(table)}")
    return table[name](**kwargs)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _band_solve(bands, b):
    """Tridiagonal solve; a zero pivot or a non-finite result is a SolverError."""
    try:
        x = kernels.band_solve(*bands, b)
    except ZeroDivisionError as exc:
        raise SolverError("Jacobian is singular (zero pivot)") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("Jacobian is singular (non-finite solve)")
    return x


def _newton(problem, y, mu, u, tol_abs, tol_rel, max_iters):
    """Damped Newton iteration; returns (u, rnorm, iters, converged)."""
    r = problem.residual(u, y, mu)
    rnorm = float(np.linalg.norm(r))
    tol = tol_abs + tol_rel * rnorm
    iters = 0
    for _ in range(max_iters):
        if rnorm <= tol:
            return u, rnorm, iters, True
        try:
            step = _band_solve(problem.jac_bands(u, y, mu), -r)
        except SolverError:
            return u, rnorm, iters, False  # singular Jacobian
        t = 1.0
        for _ in range(30):
            u_new = u + t * step
            r_new = problem.residual(u_new, y, mu)
            rnorm_new = float(np.linalg.norm(r_new))
            if rnorm_new < rnorm:
                break
            t *= 0.5
        else:
            return u, rnorm, iters, False  # backtracking exhausted
        u, r, rnorm = u_new, r_new, rnorm_new
        iters += 1
    return u, rnorm, iters, rnorm <= tol


def solve_primal(problem, y, mu, u0=None, tol_abs=1e-12, tol_rel=1e-12,
                 max_iters=50, counters: QueryCounters | None = None) -> PrimalSolution:
    """Damped Newton solve of ``r(u, y, mu) = 0``.

    Backtracking halves the step until the residual norm decreases (up
    to 30 halvings).  If the iteration stalls -- backtracking exhausted
    or a singular Jacobian -- the problem's continuation stages are
    traversed once, warm-starting each stage from the last.  Raises
    :class:`SolverError` carrying the last iterate if the tolerance
    ``tol_abs + tol_rel * ||r(u0)||`` is still not met within
    ``max_iters`` iterations.  The absolute term is scaled by the
    residual at the problem's default start so that warm starts with a
    tiny entry residual cannot push the tolerance beneath the evaluation
    noise floor of a stiff operator.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    u = problem.initial_state(y, mu) if u0 is None else np.array(u0, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("initial state contains non-finite entries")

    r_nat = float(np.linalg.norm(
        problem.residual(problem.initial_state(y, mu), y, mu)))
    tol_abs = tol_abs * (1.0 + r_nat)

    u_out, rnorm, iters, ok = _newton(problem, y, mu, u, tol_abs, tol_rel, max_iters)
    if not ok:
        stages = problem.continuation_stages(y, mu)
        if stages:
            u_stage = problem.initial_state(y, mu)
            for y_s, mu_s in stages:
                u_stage, _, it_s, _ = _newton(problem, np.asarray(y_s, float),
                                              np.asarray(mu_s, float), u_stage,
                                              tol_abs, 1e-10, max_iters)
                iters += it_s
            u_out, rnorm, it_f, ok = _newton(problem, y, mu, u_stage,
                                             tol_abs, tol_rel, max_iters)
            iters += it_f
    if not ok:
        raise SolverError(
            f"Newton did not converge after {iters} iterations "
            f"(residual {rnorm:.3e})", u=u_out, residual_norm=rnorm)
    if counters is not None:
        counters.n_hp += 1
        counters.newton_iters += max(iters, 1)
    return PrimalSolution(u_out, rnorm, iters)


def adjoint_residual(problem, lam, u, y, mu):
    """``(dr/du)^T lam - (df/du)^T`` at ``(u, y, mu)``."""
    return problem.jac_uT_mul(u, y, mu, lam) - problem.qoi_u(u, y, mu)


def solve_adjoint(problem, u, y, mu,
                  counters: QueryCounters | None = None) -> AdjointSolution:
    """Direct solve of the linear adjoint system at a converged primal state."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lo, dg, up = problem.jac_bands(u, y, mu)
    rhs = problem.qoi_u(u, y, mu)
    # the bands of (dr/du)^T: lo_t[i] = up[i-1], up_t[i] = lo[i+1]
    bands_t = (np.append(0.0, up[:-1]), dg, np.append(lo[1:], 0.0))
    lam = _band_solve(bands_t, rhs)
    # adjoint_residual's expression, from the bands already built
    res = float(np.linalg.norm(kernels.band_t_matvec(lo, dg, up, lam) - rhs))
    if counters is not None:
        counters.n_ha += 1
    return AdjointSolution(lam, res)


def adjoint_gradient(problem, lam, u, y, mu):
    """Parameter gradient reconstructed from an adjoint state.

    Equals the exact gradient of the solution-restricted quantity of
    interest when ``(u, lam)`` solve the primal and adjoint systems.
    """
    return problem.qoi_mu(u, y, mu) - problem.jac_mu(u, y, mu).T @ lam


def primal_sensitivities(problem, u, y, mu,
                         counters: QueryCounters | None = None):
    """All parameter sensitivities as columns (one linear solve, many RHS)."""
    rhs = -problem.jac_mu(u, y, mu)
    s = _band_solve(problem.jac_bands(u, y, mu), rhs)
    if counters is not None:
        counters.n_ha += problem.n_mu
    return s

