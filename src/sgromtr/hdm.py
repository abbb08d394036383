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

Everything here takes a stack of nodes at one ``mu``, and one node is
a stack of one (callers pass ``y[None]`` and read row 0): the residual
surface (:meth:`ModelProblem.residual`, ``jac_bands``, ``jac_uT_mul``,
``qoi``, ``qoi_u``, ``initial_state``, ``continuation_stages``),
:func:`adjoint_gradient`, :func:`adjoint_residual`,
:func:`primal_sensitivities` and the full-model solvers
:func:`solve_primal` and :func:`solve_adjoint`.  A stack has states
``(m, n_u)`` and nodes ``(m, n_y)``, results are arrays with one row or
entry per node, and each row is bitwise equal to its own stack of one.
A solve runs one damped-Newton loop and one adjoint sweep for all of
its nodes, with per-node index sets for the stopping, backtracking and
continuation rules, and it cuts its stack into parts that fit
``kernels.STACK_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .sparse_grid import node_sum, tensor_nodes

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
    """A stack's ``(m, n_u)`` states and ``(m,)`` residual norms;
    ``newton_iters`` counts the steps of the whole stack."""

    u: np.ndarray
    residual_norm: np.ndarray
    newton_iters: int


@dataclass
class AdjointSolution:
    """A stack's ``(m, n_u)`` adjoint states and ``(m,)`` residual norms."""

    lam: np.ndarray
    residual_norm: np.ndarray


@dataclass
class QueryCounters:
    """Cumulative solver-query bookkeeping for the cost model.

    Sensitivity solves are linear solves of the same size as an adjoint
    solve and are counted in ``n_ha``.
    """

    n_hp: int = 0
    n_ha: int = 0
    n_rp: int = 0
    #: reduced adjoints solved; a node's adjoint is solved only when a
    #: reader asks for it, so ``n_ra`` can be smaller than ``n_rp``
    n_ra: int = 0
    newton_iters: int = 0
    gn_iters: int = 0
    #: reduced primal solves that stalled or hit the iteration cap and
    #: were kept at their last iterate (not part of :meth:`snapshot`)
    rom_recoveries: int = 0
    #: reduced primal solves that ended on the stall branch with an
    #: accepted gradient (not part of :meth:`snapshot`)
    rom_stalls: int = 0

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


def _components(y):
    """``y`` indexed by component: ``y[j]`` is the ``(m, 1)`` column of a
    stack of ``m`` nodes, so the coefficients built from it broadcast
    against ``(m, n_u)`` states."""
    return y.T[:, :, None]


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

    def jac_uT_mul(self, u, y, mu, V):
        """(dr/du)^T @ V of a shared ``(n_u, k)`` matrix ``V`` at each node,
        without forming the dense Jacobian."""
        return kernels.band_t_matmat(*self.jac_bands(u, y, mu), V)

    def jac_mu(self, u, y, mu):
        """dr/dmu: the control enters as a source, so this is -source_basis."""
        return -self.source_basis

    # -- quantity of interest -----------------------------------------------

    def qoi(self, u, y, mu):
        d = u - self.ref
        mu = np.asarray(mu, dtype=float)
        return 0.5 * self.h * kernels.row_dot(d) + 0.5 * self.alpha * float(mu @ mu)

    def qoi_u(self, u, y, mu):
        return self.h * (u - self.ref)

    def qoi_mu(self, u, y, mu):
        return self.alpha * np.asarray(mu, dtype=float)

    # -- stochastic measure --------------------------------------------------

    def density(self, y) -> float:
        """Uniform density on [-1, 1]^n_y (constant)."""
        return 2.0 ** (-self.n_y)

    def _check(self, u, y, mu):
        if u.shape[-1] != self.n_u:
            raise ValueError(f"state has length {u.shape[-1]}, expected {self.n_u}")
        if y.ndim != 2 or y.shape[1] != self.n_y:
            raise ValueError(f"nodes have shape {y.shape}, expected (m, {self.n_y})")
        if len(mu) != self.n_mu:
            raise ValueError(f"parameter has length {len(mu)}, expected {self.n_mu}")

    def source(self, mu):
        return self.source_basis @ np.asarray(mu, dtype=float)

    def initial_state(self, y, mu):
        """Default Newton start; subclasses override when zero is a poor start."""
        return np.zeros(y.shape[:-1] + (self.n_u,))

    def continuation_stages(self, y, mu):
        """Easier ``(y, mu)`` stages to traverse when Newton stalls; may be
        empty.  Each stage's ``y`` is a stack of the same nodes."""
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
        return kernels.diffusion_residual(u, self.kappa_half(_components(y)),
                                          self.h, self.source(mu))

    def jac_bands(self, u, y, mu):
        return kernels.diffusion_bands(self.kappa_half(_components(y)), self.h)


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
        y = _components(y)
        return kernels.burgers_residual(u, self.bc_left(y), 0.0,
                                        self.viscosity(y), self.h,
                                        self.source(mu))

    def jac_bands(self, u, y, mu):
        y = _components(y)
        return kernels.burgers_bands(u, self.bc_left(y), 0.0,
                                     self.viscosity(y), self.h)

    def initial_state(self, y, mu):
        """Linear interpolant of the boundary data; zero is a poor start
        at low viscosity."""
        return self.bc_left(_components(y)) * (1.0 - self.x)

    def continuation_stages(self, y, mu):
        """Retry through higher-viscosity problems (smaller effective y1)."""
        y = y.T        # y[j]: the column of component j of the stack
        stages = []
        for factor in (6.0, 3.0, 1.5):
            inv_nu = np.maximum(1.0 / (factor * self.viscosity(y)), 10.0)
            y1 = np.clip((inv_nu - 35.0) / 25.0, -1.0, 1.0)
            stages.append((np.stack([y1, y[1]], axis=-1), mu))
        return stages


def _uncontrolled_reference(problem: BurgersControl, level: int) -> np.ndarray:
    """Tensor-quadrature mean of the uncontrolled solution over y."""
    _, ys, ws = tensor_nodes((level,) * problem.n_y)
    return node_sum(ws, solve_primal(problem, ys, np.zeros(problem.n_mu)).u)


def make_problem(name: str, **kwargs) -> ModelProblem:
    """Instantiate a bundled problem by name."""
    table = {"linear-diffusion": LinearDiffusion, "burgers-control": BurgersControl}
    if name not in table:
        raise ValueError(f"unknown problem {name!r}; choices: {sorted(table)}")
    return table[name](**kwargs)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _solved(bands, b):
    """Tridiagonal solve; a singular system at any node is a SolverError."""
    x = kernels.band_solve(*bands, b)
    if not np.isfinite(x).all():
        raise SolverError("Jacobian is singular (non-finite solve)")
    return x


def _newton(problem, y, mu, u, tol_abs, tol_rel, max_iters, r=None):
    """Damped Newton iteration on a stack.

    Returns ``(u, rnorm, iters, ok)``, each with one entry per node.  A
    node stops once it meets its tolerance, on a singular Jacobian (a
    non-finite step), or when 30 halvings of its step find no decrease;
    the others go on.  All nodes of one backtracking round share the
    step length, so a round is one stacked residual call.  The rows of
    ``u`` are updated in place; ``r``, if given, is the residual at ``u``.
    """
    if r is None:
        r = problem.residual(u, y, mu)
    rnorm = kernels.row_norm(r)
    tol = tol_abs + tol_rel * rnorm
    iters = np.zeros(len(rnorm), int)
    failed = np.zeros(len(rnorm), bool)
    for _ in range(max_iters):
        at = np.flatnonzero((rnorm > tol) & ~failed)
        if not at.size:
            break
        step = kernels.band_solve(*problem.jac_bands(u[at], y[at], mu), -r[at])
        solved = np.isfinite(step).all(-1)     # singular Jacobians stop
        failed[at[~solved]] = True
        at, step = at[solved], step[solved]
        t = 1.0
        for _ in range(30):
            if not at.size:
                break
            u_try = u[at] + t * step
            r_try = problem.residual(u_try, y[at], mu)
            n_try = kernels.row_norm(r_try)
            down = n_try < rnorm[at]
            done = at[down]
            u[done], r[done], rnorm[done] = u_try[down], r_try[down], n_try[down]
            iters[done] += 1
            at, step = at[~down], step[~down]
            t *= 0.5
        else:                                  # backtracking exhausted
            failed[at] = True
    return u, rnorm, iters, rnorm <= tol


def _start(problem, y, mu):
    """The problem's default Newton start, one writable row per node."""
    u = np.empty(y.shape[:-1] + (problem.n_u,))
    u[...] = problem.initial_state(y, mu)
    return u


def _primal(problem, y, mu, u0, tol_abs, tol_rel, max_iters):
    """Newton on a stack from ``u0`` (the default start if None), then
    continuation for its failed nodes; returns ``(u, rnorm, iters, ok)``
    as :func:`_newton` does."""
    u = _start(problem, y, mu)
    r = problem.residual(u, y, mu)
    tol_abs = tol_abs * (1.0 + kernels.row_norm(r))
    if u0 is not None:
        u, r = np.array(u0, dtype=float), None
    if not np.isfinite(u).all():
        raise ValueError("initial state contains non-finite entries")
    u, rnorm, iters, ok = _newton(problem, y, mu, u, tol_abs, tol_rel, max_iters, r)
    at = np.flatnonzero(~ok)
    stages = problem.continuation_stages(y[at], mu) if at.size else []
    if not stages:
        return u, rnorm, iters, ok
    u_stage = _start(problem, y[at], mu)
    iters_at = iters[at]
    for y_s, mu_s in stages:
        u_stage, _, it_s, _ = _newton(problem, np.asarray(y_s, float),
                                      np.asarray(mu_s, float), u_stage,
                                      tol_abs[at], 1e-10, max_iters)
        iters_at = iters_at + it_s
    u[at], rnorm[at], it_f, ok[at] = _newton(problem, y[at], mu, u_stage,
                                             tol_abs[at], tol_rel, max_iters)
    iters[at] = iters_at + it_f
    return u, rnorm, iters, ok


def _in_parts(solve, problem, y, *stacks):
    """``solve(y, *stacks)`` on parts of a stack whose residual and three
    Jacobian bands fit ``kernels.STACK_BYTES``, with the parts' outputs
    joined; a None stack stays None."""
    parts = [solve(y[p], *(None if a is None else a[p] for a in stacks))
             for p in kernels.stack_parts(len(y), 32 * problem.n_u)]
    return tuple(np.concatenate(out) for out in zip(*parts))


def solve_primal(problem, y, mu, u0=None, tol_abs=1e-12, tol_rel=1e-12,
                 max_iters=50, counters: QueryCounters | None = None) -> PrimalSolution:
    """Damped Newton solve of ``r(u, y, mu) = 0`` at a stack of nodes.

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

    ``y`` is ``(m, n_y)`` and ``u0``, if given, ``(m, n_u)``.  The stack
    is solved by one Newton loop per part, and every node's state,
    iteration count and counter increment are bitwise equal to its own
    stack of one.  If a node fails, the error names the first failed
    node (in a stack of more than one) and carries its iterate, and no
    counter moves.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if u0 is not None:
        u0 = np.asarray(u0, dtype=float)
    u, rnorm, iters, ok = _in_parts(
        lambda y_p, u0_p: _primal(problem, y_p, mu, u0_p, tol_abs, tol_rel, max_iters),
        problem, y, u0)
    if not ok.all():
        at = int(np.flatnonzero(~ok)[0])
        where = f" at node {at} of {len(y)}" if len(y) > 1 else ""
        raise SolverError(
            f"Newton did not converge{where} after {iters[at]} iterations "
            f"(residual {rnorm[at]:.3e})", u=u[at], residual_norm=float(rnorm[at]))
    if counters is not None:
        counters.n_hp += iters.size
        counters.newton_iters += int(np.maximum(iters, 1).sum())
    return PrimalSolution(u, rnorm, int(iters.sum()))


def adjoint_residual(problem, lam, u, y, mu):
    """``(dr/du)^T lam - (df/du)^T`` at ``(u, y, mu)``, one row per node."""
    return (kernels.band_t_matvec(*problem.jac_bands(u, y, mu), lam)
            - problem.qoi_u(u, y, mu))


def solve_adjoint(problem, u, y, mu,
                  counters: QueryCounters | None = None) -> AdjointSolution:
    """Direct solve of the linear adjoint system at converged primal states.

    ``u`` and ``y`` are stacks, ``(m, n_u)`` and ``(m, n_y)``: the stack
    is solved by one sweep per part, each row bitwise equal to its own
    stack of one.  A singular Jacobian at any node is a SolverError.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lam, res = _in_parts(lambda y_p, u_p: _adjoint(problem, u_p, y_p, mu),
                         problem, y, u)
    if counters is not None:
        counters.n_ha += res.size
    return AdjointSolution(lam, res)


def _adjoint(problem, u, y, mu):
    """Adjoint states and residual norms of a stack."""
    lo, dg, up = problem.jac_bands(u, y, mu)
    rhs = problem.qoi_u(u, y, mu)
    # the bands of (dr/du)^T: lo_t[i] = up[i-1], up_t[i] = lo[i+1]
    lo_t, up_t = np.zeros(lo.shape), np.zeros(up.shape)
    lo_t[..., 1:], up_t[..., :-1] = up[..., :-1], lo[..., 1:]
    lam = _solved((lo_t, dg, up_t), rhs)
    # adjoint_residual's expression, from the bands already built
    return lam, kernels.row_norm(kernels.band_t_matvec(lo, dg, up, lam) - rhs)


def adjoint_gradient(problem, lam, u, y, mu):
    """Parameter gradient reconstructed from an adjoint state.

    Equals the exact gradient of the solution-restricted quantity of
    interest when ``(u, lam)`` solve the primal and adjoint systems.
    For stacks ``lam``, ``u`` of shape ``(m, n_u)`` it returns one
    gradient per row, each by the same matrix-vector product on a
    C-contiguous copy of ``lam``: the product's rounding depends on the
    memory layout of its operand, and this keeps every row bitwise equal
    to its own stack of one whatever the layout of the stack.
    """
    dr_dmu = problem.jac_mu(u, y, mu)
    lam = np.ascontiguousarray(lam)
    return problem.qoi_mu(u, y, mu) - (dr_dmu.T @ lam[..., None])[..., 0]


def primal_sensitivities(problem, u, y, mu,
                         counters: QueryCounters | None = None):
    """All parameter sensitivities of each node, ``(m, n_mu, n_u)``: row
    ``j`` of node ``i`` solves ``(dr/du) s = -dr/dmu_j`` there.  The
    ``n_mu`` right-hand sides of a node are one broadcast stack against
    its bands, so each row is bitwise equal to its own solve."""
    rhs = -problem.jac_mu(u, y, mu).T
    shape = (len(y),) + rhs.shape
    bands = [np.broadcast_to(b[:, None], shape) for b in problem.jac_bands(u, y, mu)]
    s = _solved(bands, np.broadcast_to(rhs, shape))
    if counters is not None:
        counters.n_ha += problem.n_mu * len(y)
    return s
