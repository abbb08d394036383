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

Everything here takes a stack of nodes at one ``mu``, and one node is a
stack of one (callers pass ``y[None]`` and read row 0): the residual
surface (:meth:`ModelProblem.residual`, ``jac_bands``, ``qoi``,
``qoi_u``, ``initial_state``), :func:`adjoint_gradient`,
:func:`adjoint_residual`, :func:`primal_sensitivities` and the
full-model solvers :func:`solve_primal` and :func:`solve_adjoint`.  A
stack has states ``(m, n_u)`` and nodes ``(m, n_y)``, results are
arrays with one row or entry per node, and each row is bitwise equal to
its own stack of one.  A solve runs one damped-Newton loop and one
adjoint sweep over its whole stack, with per-node index sets for the
stopping and backtracking rules, and follows the memory rule of
``kernels``: it holds about 8.3 arrays of ``n_u`` floats per node of
its stack at its peak (``tracemalloc``, cold Burgers start on the 289
nodes of a level-5 tensor grid: 8.3 for the primal, 7.3 for the adjoint
with the states it reads).

Like the reduced solvers, the solvers here take no tolerance (Newton's
are the ``NEWTON_*`` constants) and count no query (see :class:`QueryCounters`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .sparse_grid import node_sum, tensor_nodes

_EPS = np.finfo(float).eps

__all__ = [
    "ModelProblem", "LinearDiffusion", "BurgersControl",
    "PrimalSolution", "QueryCounters",
    "SolverError", "solve_primal", "adjoint_residual", "solve_adjoint",
    "adjoint_gradient", "primal_sensitivities", "make_problem",
]


#: Newton's tolerances and iteration cap (see :func:`solve_primal`)
NEWTON_TOL_ABS = 1e-12
NEWTON_TOL_REL = 1e-12
NEWTON_MAX_ITERS = 50


class SolverError(RuntimeError):
    """A full-model solve failed: Newton did not converge or a Jacobian is singular."""


@dataclass
class PrimalSolution:
    """A stack's ``(m, n_u)`` states, ``(m,)`` residual norms and
    ``(m,)`` Newton steps."""

    u: np.ndarray
    residual_norm: np.ndarray
    iters: np.ndarray

    @property
    def newton_iters(self) -> int:
        """Newton steps of the whole stack."""
        return int(self.iters.sum())


@dataclass
class QueryCounters:
    """Cumulative solver-query bookkeeping for the cost model.

    A caller tallies each primal stack once its solve returns, so a
    failed solve moves no counter.  Sensitivity solves are linear solves
    of the same size as an adjoint solve and are counted in ``n_ha``.
    """

    n_hp: int = 0
    n_ha: int = 0
    n_rp: int = 0
    #: reduced adjoints solved; a node's adjoint is solved only when a
    #: reader asks for it, so ``n_ra`` can be smaller than ``n_rp``
    n_ra: int = 0
    newton_iters: int = 0
    gn_iters: int = 0
    #: reduced primal solves that stagnated or hit the iteration cap
    #: (``RomPrimal.failed``) and were kept at their last iterate; these
    #: two are written to the SG-ROM-TR ``summary.txt``, not part of
    #: :meth:`snapshot`
    rom_recoveries: int = 0
    #: reduced primal solves that ended on the stall branch with an
    #: accepted gradient (``RomPrimal.stalled``)
    rom_stalls: int = 0

    @staticmethod
    def _iterations(iters) -> int:
        """A stack's iterations as counted: a solve counts at least one."""
        return int(np.maximum(iters, 1).sum())

    def count_primals(self, prim) -> None:
        """Tally a full primal stack (a :class:`PrimalSolution`)."""
        self.n_hp += len(prim.iters)
        self.newton_iters += self._iterations(prim.iters)

    def count_rom_primals(self, prim) -> None:
        """Tally a reduced primal stack (a ``rom.RomPrimal``)."""
        self.n_rp += len(prim.iters)
        self.gn_iters += self._iterations(prim.iters)
        self.rom_recoveries += int(prim.failed.sum())
        self.rom_stalls += int(prim.stalled.sum())

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

    #: half-width of the parameter box used for random validation draws
    mu_sample_halfwidth = 1.0

    #: step of the central finite difference that the gradient checks
    #: compare the adjoint gradient against
    fd_step = 1e-5

    #: largest relative error between the adjoint gradient and the
    #: central finite difference at ``fd_step`` that the gradient checks
    #: accept; calibrated for that step only
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

    def _check_nodes(self, y):
        if y.ndim != 2 or y.shape[1] != self.n_y:
            raise ValueError(f"nodes have shape {y.shape}, expected (m, {self.n_y})")

    def _check_stack(self, y, name, x, width):
        """Nodes ``y`` of shape ``(m, n_y)`` and, unless None, the start or
        state stack ``x`` passed as ``name`` of shape ``(m, width)``: ``n_u``
        wide for a full-model state, ``k`` for a reduced one."""
        self._check_nodes(y)
        if x is not None and np.shape(x) != (len(y), width):
            raise ValueError(f"{name} has shape {np.shape(x)}, expected {(len(y), width)}")

    def _check(self, u, y, mu):
        if u.shape[-1] != self.n_u:
            raise ValueError(f"state has length {u.shape[-1]}, expected {self.n_u}")
        self._check_nodes(y)
        if len(mu) != self.n_mu:
            raise ValueError(f"parameter has length {len(mu)}, expected {self.n_mu}")

    def source(self, mu):
        return self.source_basis @ np.asarray(mu, dtype=float)

    def initial_state(self, y, mu):
        """Default Newton start; subclasses override when zero is a poor start."""
        return np.zeros(y.shape[:-1] + (self.n_u,))


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

    #: strongly negative forcing at low viscosity passes a steady-state
    #: fold inside this box: on the level-6 tensor grid (1089 nodes),
    #: ``solve_primal`` at mu = c in every component fails at 169 nodes
    #: for c = -0.5, 104 for -0.4, 65 for -0.37, 39 for -0.36 and 4 for
    #: -0.35, and at none for -0.34, -0.33, -0.3 or +0.5: the fold crosses
    #: the diagonal between c = -0.35 and -0.34 (ROADMAP item 6)
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


def _rows(a, at):
    """``a[at]`` for a sorted index set ``at``: ``a`` itself, not a copy,
    when ``at`` holds every row."""
    return a if len(at) == len(a) else a[at]


def _primal(problem, y, mu, u0):
    """Damped Newton iteration on a stack from ``u0`` (the default start
    if None), the loop of :func:`solve_primal` without its SolverError.

    Returns ``(u, rnorm, iters, ok)``, each with one entry per node.  A
    node stops once it meets its tolerance (see :func:`solve_primal`),
    after ``NEWTON_MAX_ITERS`` steps, on a singular Jacobian (a non-finite
    step), or when no step length of :func:`kernels.halve_until_decrease`
    decreases its ``||r||``; the others go on.  A node whose full step is
    rejected has its tolerance raised to the residual's own round-off
    ``eps || |J||u| + |f| ||`` (``f`` the source, see
    :func:`kernels.roundoff_scale`): no step resolves a smaller residual,
    so a node whose ``||r||`` is at most that is converged at once and
    takes no halving.
    """
    u = np.empty(y.shape[:-1] + (problem.n_u,))
    u[...] = problem.initial_state(y, mu)
    r = problem.residual(u, y, mu)
    rnorm = kernels.row_norm(r)
    tol_abs = NEWTON_TOL_ABS * (1.0 + rnorm)
    if u0 is not None:
        u = np.array(u0, dtype=float, order="C")
    if not np.isfinite(u).all():
        raise ValueError("initial state contains non-finite entries")
    if u0 is not None:
        r = problem.residual(u, y, mu)
        rnorm = kernels.row_norm(r)
    tol = tol_abs + NEWTON_TOL_REL * rnorm
    f = problem.source(mu)
    iters = np.zeros(len(rnorm), int)
    stopped = np.zeros(len(rnorm), bool)
    for _ in range(NEWTON_MAX_ITERS):
        at = np.flatnonzero((rnorm > tol) & ~stopped)
        if not at.size:
            break
        step = kernels.band_solve(*problem.jac_bands(_rows(u, at), _rows(y, at), mu),
                                  -_rows(r, at))
        solved = np.isfinite(step).all(-1)
        if not solved.all():
            stopped[at[~solved]] = True
            at, step = at[solved], step[solved]
            if not at.size:
                break
        y_at = _rows(y, at)

        def above_roundoff(rows, t):
            # tested once, before the first halving, at the iterate the
            # step started from, which gives each row the floor of its
            # own stack of one.  The test forms seven arrays of n_u per
            # row it tests (a state row, its bands and the scale's
            # scratch), so it takes half the rows at a time: on a cold
            # 289-node start, where most nodes reject the first full
            # step, that holds the primal peak at 8.3 arrays per node,
            # where testing every row at once peaks at 10.4
            if t < 0.5:
                return np.ones(rows.size, bool)
            i = at[rows]
            scale = []
            for h in np.array_split(i, 2):
                if h.size:
                    u_h = _rows(u, h)
                    scale.append(kernels.roundoff_scale(
                        *problem.jac_bands(u_h, _rows(y, h), mu), u_h, f))
            tol[i] = np.maximum(tol[i], _EPS * np.concatenate(scale))
            return rnorm[i] > tol[i]

        # the rows of every node that steps are updated in place: u, r and
        # rnorm themselves while every node of the stack is live
        u_at, r_at, rn_at = _rows(u, at), _rows(r, at), _rows(rnorm, at)
        found = kernels.halve_until_decrease(
            lambda x, rows: problem.residual(x, y_at[rows], mu),
            u_at, r_at, rn_at, step, above_roundoff)
        if len(at) < len(u):
            done = at[found]
            u[done], r[done], rnorm[done] = u_at[found], r_at[found], rn_at[found]
        iters[at[found]] += 1
        stopped[at[~found]] = True
        del step, u_at, r_at               # before the next step is built
    return u, rnorm, iters, rnorm <= tol


def solve_primal(problem, y, mu, u0=None) -> PrimalSolution:
    """Damped Newton solve of ``r(u, y, mu) = 0`` at a stack of nodes.

    Backtracking halves the step until the residual norm decreases (up
    to 29 halvings), unless a node's full step is rejected at the
    residual's round-off, where it is converged (see :func:`_primal`).
    Raises :class:`SolverError` if a node's tolerance
    ``NEWTON_TOL_ABS (1 + ||r(default start)||) + NEWTON_TOL_REL ||r(u0)||``
    is not met within ``NEWTON_MAX_ITERS`` iterations.  The absolute term
    is scaled by the residual at the problem's default start so that
    warm starts with a tiny entry residual cannot push the tolerance
    beneath the evaluation noise floor of a stiff operator.

    ``y`` is ``(m, n_y)`` and ``u0``, if given, ``(m, n_u)``, any other
    shape a ValueError (:meth:`ModelProblem._check_stack`).  The whole
    stack is solved by one Newton loop, and every node's state and
    iteration count are bitwise equal to its own stack of one.  If a node
    fails, the error names the first failed node (in a stack of more than
    one), its iteration count and its residual norm.
    """
    y = np.asarray(y, dtype=float)
    problem._check_stack(y, "u0", u0, problem.n_u)
    u, rnorm, iters, ok = _primal(problem, y, np.asarray(mu, dtype=float), u0)
    if not ok.all():
        at = int(np.flatnonzero(~ok)[0])
        where = f" at node {at} of {len(y)}" if len(y) > 1 else ""
        raise SolverError(f"Newton did not converge{where} after {iters[at]} "
                          f"iterations (residual {rnorm[at]:.3e})")
    return PrimalSolution(u, rnorm, iters)


def adjoint_residual(problem, lam, u, y, mu):
    """``(dr/du)^T lam - (df/du)^T`` at ``(u, y, mu)``, one row per node."""
    return (kernels.band_t_matvec(*problem.jac_bands(u, y, mu), lam)
            - problem.qoi_u(u, y, mu))


def solve_adjoint(problem, u, y, mu) -> np.ndarray:
    """Direct solve of the linear adjoint system at converged primal states.

    ``u`` and ``y`` are stacks, ``(m, n_u)`` and ``(m, n_y)`` (any other
    shape is a ValueError, see :meth:`ModelProblem._check_stack`); returns
    the ``(m, n_u)`` adjoint states.  The whole stack is solved by one
    sweep, each row bitwise equal to its own stack of one.  A singular
    Jacobian at any node is a SolverError.  :func:`adjoint_residual`
    evaluates the residual of a solve.
    """
    y, u, mu = (np.asarray(a, dtype=float) for a in (y, u, mu))
    problem._check_stack(y, "u", u, problem.n_u)
    up_t, dg, lo_t = problem.jac_bands(u, y, mu)
    rhs = problem.qoi_u(u, y, mu)
    # the bands of (dr/du)^T, shifted in place: lo_t[i] = up[i-1], up_t[i] = lo[i+1]
    lo_t[..., 1:], lo_t[..., 0] = lo_t[..., :-1], 0.0
    up_t[..., :-1], up_t[..., -1] = up_t[..., 1:], 0.0
    return _solved((lo_t, dg, up_t), rhs)


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


def primal_sensitivities(problem, u, y, mu):
    """All parameter sensitivities of each node, ``(m, n_mu, n_u)``: row
    ``j`` of node ``i`` solves ``(dr/du) s = -dr/dmu_j`` there.  The
    ``n_mu`` right-hand sides of a node are one broadcast stack against
    its bands, so each row is bitwise equal to its own solve."""
    rhs = -problem.jac_mu(u, y, mu).T
    shape = (len(y),) + rhs.shape
    bands = [np.broadcast_to(b[:, None], shape) for b in problem.jac_bands(u, y, mu)]
    return _solved(bands, np.broadcast_to(rhs, shape))
