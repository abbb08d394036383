"""Reduced-basis management and minimum-residual reduced-order models.

The primal ROM minimizes ``||r(Phi q, y, mu)||`` over the trial
subspace by Gauss-Newton; the adjoint ROM minimizes the adjoint
residual over the same subspace, which is a linear least-squares
problem.  Minimizing the residual (rather than projecting the
equations) buys three properties used throughout the refinement
machinery: optimality over the subspace, monotonicity under basis
growth, and interpolation of exactly representable solutions.

Both solves measure the residual in the Euclidean norm.  A
Gauss-Newton step solves the normal equations ``G delta = -g`` of the
tall ``n_u x k`` matrix ``J Phi`` (``G = (J Phi)^T J Phi``, ``g =
(J Phi)^T r``), whose model decrease of ``||r||^2`` is the positive
quadratic form ``-g^T delta``.  Gauss-Newton uses that decrease to stop
backtracking, or to skip the line search, once the model promises no
decrease above round-off.  The normal equations lose about
``cond(G) eps`` of a step, which Gauss-Newton corrects as it
re-evaluates the true residual after every step (Björck 1996,
*Numerical Methods for Least Squares Problems*).  A node whose ``G``
fails its Cholesky checks, or whose state is nearly representable,
takes the Householder QR step of ``[J Phi | r]`` instead (see
:func:`solve_rom_primal`).  The adjoint, a linear least-squares
problem, factors ``[J^T Phi | b]`` by QR and reads its rank from the
triangular factor.

A Gauss-Newton node is stationary when its reduced gradient
``(J Phi)^T r`` is no larger than that gradient's own round-off,
``eps ||J Phi||_F || |J||u| + |f| ||``.  The residual sums terms whose
magnitudes ``|J||u| + |f|`` bounds (``f`` the source), so by the
rounding bound of a sum (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 3) floating point knows each entry of ``r`` only to
about ``eps`` times that magnitude, and the gradient to ``||J Phi||``
times it.  No step resolves a smaller gradient, and none is needed: the
error indicators are residual norms, exact at whatever reduced state a
solve returns.  The test has no tolerance and no absolute scale, and it
needs no ``J Phi``: the gradient is ``Phi^T (J^T r)``, and
``||J Phi||_F^2`` sums, over the rows of the tridiagonal ``J``, the
row's three band entries against the 3 x 3 Gram matrix of three
consecutive basis rows, which the basis caches (see
:func:`_jphi_norms`).  That is one matrix-vector product and
O(n_u) more per node where ``J Phi`` is an ``n_u x k`` product, so a
node forms ``J Phi`` only in an iteration where it takes a step, and its
last, stationary iteration forms none.

For the same reason a primal solve returns every node, with its
outcome, at its last iterate and that iterate's true residual norm:
:attr:`RomPrimal.stalled` marks a node that stopped on the stall branch
with an accepted gradient, :attr:`RomPrimal.failed` one that stagnated
or hit ``GN_MAX_ITERS``.  A failed node is no failure of the run: its
residual tells refinement where to sample.  :class:`RomSolveError` is
left for a solve with no iterate to return.

Both solves take a stack of ``m`` nodes at one ``mu`` (a single node is
a stack of one) and cut it at two levels; however it is cut, every
node's result is bitwise equal to solving it alone.
:func:`kernels.in_parts` cuts the stack into balanced parts that fit
``kernels.STACK_BYTES`` at ``_NODE_ARRAYS`` arrays of ``n_u`` per node
(about 140 nodes at ``n_u = 127``, so a node sweep is mostly one part),
and a part runs one Gauss-Newton loop: its states, residuals, Jacobian
bands, round-off scales, reduced gradients, stationarity tests, line
search and the per-node masks of the routing, stopping and backtracking
rules are whole-part arrays.  Only the ``n_u x k`` algebra of the nodes
that take a step is cut again, into chunks that fit the workspace of
:func:`_parts`: each chunk forms ``J Phi`` and takes one stacked Gram
product, Cholesky factorization and solve, and a stacked QR and
triangular solve for its nodes that take the QR step.  ``J Phi`` is one
``(1 x 3) @ (3 x k)`` product per row of each node: the row's three
band entries against the window of basis rows ``i - 1, i, i + 1``,
which the basis caches per ``k`` (:meth:`ReducedBasis.window`).  The
solve call allocates that workspace once, ``J Phi`` and the augmented
``[J Phi | r]``, and every chunk of every iteration reuses it, so an
iteration allocates no array of ``n_u x k`` per node.  The adjoint
forms states, bands and right-hand sides once per part, and its
least-squares solves chunk by chunk, writing ``J^T Phi`` straight into
its ``[J^T Phi | b]`` block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels

__all__ = [
    "ReducedBasis", "Snapshot", "RomPrimal", "RomAdjoint",
    "RomSolveError", "solve_rom_primal", "solve_rom_adjoint",
]

DROP_TOL = 1e-10
#: Gauss-Newton iterations before a primal reduced solve gives up.
GN_MAX_ITERS = 60

_EPS = np.finfo(float).eps


@dataclass
class RomPrimal:
    """Reduced primal solves of a stack of nodes at one parameter point."""

    q: np.ndarray              # (m, k) reduced coordinates
    residual_norm: np.ndarray  # (m,) true norms ||r(Phi q)||
    iters: np.ndarray          # (m,) Gauss-Newton steps taken per node
    stalled: np.ndarray        # (m,) stopped on the stall branch, gradient accepted
    failed: np.ndarray         # (m,) stagnated, or ran GN_MAX_ITERS steps

    @property
    def gn_iters(self) -> int:
        """Gauss-Newton steps of the whole stack."""
        return int(self.iters.sum())


@dataclass
class RomAdjoint:
    eta: np.ndarray            # (m, k)
    residual_norm: np.ndarray  # (m,)


class RomSolveError(RuntimeError):
    """A reduced-order solve left no iterate to return: an empty basis,
    a singular reduced Jacobian or a rank-deficient adjoint."""


@dataclass
class Snapshot:
    """Provenance of one snapshot offered to the basis."""

    kind: str          # "primal" | "adjoint" | "sensitivity"
    y: np.ndarray
    mu: np.ndarray
    kept: bool


class ReducedBasis:
    """Orthonormal snapshot subspace shared by the primal and adjoint ROMs.

    Columns are only appended, never replaced or truncated, so ``k``
    tells a reduced state solved on the current basis from one solved
    on an earlier, smaller basis.  ``sampled_points`` records the
    ``(node key, mu)`` pairs already visited by greedy sampling so the
    high-dimensional model is never queried twice at the same point.
    """

    def __init__(self, n_u: int):
        self.n_u = int(n_u)
        self._cols = np.zeros((self.n_u, 0))
        self.provenance: list[Snapshot] = []
        self.sampled_points: set = set()
        self.last_primal: np.ndarray | None = None
        # per-basis-size caches, name -> (k, value), shared by clones
        self._per_k: dict = {}

    @property
    def columns(self) -> np.ndarray:
        return self._cols

    @property
    def k(self) -> int:
        return self._cols.shape[1]

    def clone(self) -> "ReducedBasis":
        out = ReducedBasis(self.n_u)
        out._cols = self._cols.copy()
        out.provenance = list(self.provenance)
        out.sampled_points = set(self.sampled_points)
        out.last_primal = self.last_primal
        out._per_k = dict(self._per_k)
        return out

    def append_snapshots(self, vectors, kinds, y, mu) -> int:
        """Orthogonalize and append snapshots; returns how many were kept.

        Each vector is Gram-Schmidt-orthogonalized against the current
        columns twice; the remainder is appended only if its norm
        exceeds ``DROP_TOL`` times the original norm (dependent
        snapshots are dropped but still recorded in the provenance).
        """
        y = np.asarray(y, dtype=float)
        mu = np.asarray(mu, dtype=float)
        kept = 0
        for vec, kind in zip(vectors, kinds):
            v = np.asarray(vec, dtype=float)
            if v.shape != (self.n_u,) or not np.all(np.isfinite(v)):
                raise ValueError("snapshot must be a finite vector of length n_u")
            norm0 = np.linalg.norm(v)
            w = v.copy()
            if norm0 > 0.0:
                for _ in range(2):
                    if self.k:
                        w -= self._cols @ (self._cols.T @ w)
            keep = norm0 > 0.0 and np.linalg.norm(w) > DROP_TOL * norm0
            if keep:
                self._cols = np.hstack([self._cols, (w / np.linalg.norm(w))[:, None]])
                kept += 1
            self.provenance.append(Snapshot(kind, y.copy(), mu.copy(), keep))
            if kind == "primal":
                self.last_primal = v.copy()
        return kept

    def project(self, u: np.ndarray) -> np.ndarray:
        """Reduced coordinates ``Phi^T u`` of the orthogonal projection of
        ``u``; a stack ``u`` of shape ``(m, n_u)`` gives ``(m, k)``, each
        row one matrix-vector product, as in :meth:`expand`."""
        return (self._cols.T @ u[..., None])[..., 0]

    def expand(self, q: np.ndarray) -> np.ndarray:
        """Full state ``Phi q``; a stack ``q`` of shape ``(m, k)`` gives ``(m, n_u)``.

        Each row is one matrix-vector product, bitwise equal to ``Phi @ q``
        for that row (``q @ Phi.T`` is not).
        """
        return (self._cols @ q[..., None])[..., 0]

    def _cached(self, name, build):
        """``build()``, made once per basis size ``k``."""
        k, value = self._per_k.get(name, (None, None))
        if k != self.k:
            value = build()
            self._per_k[name] = self.k, value
        return value

    def window(self):
        """The ``(n_u, 3, k)`` window of the columns that the band
        products read (:func:`kernels.row_window`): row ``i`` holds
        basis rows ``i - 1, i, i + 1``, zero rows outside the basis.
        Computed once per ``k``."""
        return self._cached("window", lambda: kernels.row_window(self._cols))

    def row_grams(self):
        """The Gram matrix ``Q_i`` of basis rows ``i - 1, i, i + 1`` at
        every row ``i``, as six arrays of ``n_u`` (rows of one array):
        the entries ``(i-1, i-1)``, ``(i, i)``, ``(i+1, i+1)``, and twice
        ``(i-1, i)``, ``(i, i+1)`` and ``(i-1, i+1)``, zero where a row
        is outside the basis.  They are the diagonals 0, 1 and 2 of
        ``Phi Phi^T``, and give ``||A Phi||_F`` of a tridiagonal ``A`` in
        O(n_u) (see :func:`_jphi_norms`).  Computed once per ``k``."""
        return self._cached("row_grams", self._row_grams)

    def _row_grams(self):
        rows = self._cols
        d0, d1, d2 = (kernels.row_dot(rows[j:], rows[:self.n_u - j]) for j in range(3))
        gram = np.zeros((6, self.n_u))
        gram[0, 1:] = d0[:-1]
        gram[1] = d0
        gram[2, :-1] = d0[1:]
        gram[3, 1:] = 2.0 * d1
        gram[4, :-1] = 2.0 * d1
        gram[5, 1:-1] = 2.0 * d2
        return gram


def _augmented_r(aug, b):
    """Triangular factor of ``aug = [a | b]``, whose last column is set
    to ``b`` here: the least-squares solve of ``a x ~ b``.

    With ``k = a.shape[-1]``, the minimizer is ``solve(R[:k, :k], R[:k, k])``
    and ``|R[k, k]|`` is the residual norm it leaves, ``min ||a x - b||``
    (zero when ``a`` has no more rows than columns, so ``R`` has no row
    ``k``).  ``aug`` and ``b`` may be stacks, ``(m, n, k + 1)`` and
    ``(m, n)``.
    """
    aug[..., -1] = b
    return np.linalg.qr(aug, mode="r")


#: The largest Cholesky pivot ratio ``kappa2`` of ``G = (J Phi)^T J Phi``
#: (see :func:`_normal_steps`) at which a step is taken from the normal
#: equations.  Their step carries a relative error of about
#: ``cond(G) eps`` (Björck 1996, *Numerical Methods for Least Squares
#: Problems*, §2.2).  Gauss-Newton needs few digits of a step: it
#: re-evaluates the true residual after every step, and an inexact
#: Newton step of relative error ``e < 1`` still converges locally, at
#: a linear rate of about ``e`` (Dembo, Eisenstat & Steihaug 1982).
#: The bound asks for half the digits, ``cond(G) eps <= sqrt(eps)``,
#: read on ``kappa2``, which is at most ``cond(G)``.  Over the default
#: Burgers and diffusion runs ``cond(G)`` is at most 5.2e3 and 283 times
#: ``kappa2``, and ``kappa2`` at most 1.8e4 and 1.6e5, far below it.
_COND_G_MAX = _EPS ** -0.5


def _normal_steps(a, g):
    """Least-squares steps ``-G^-1 g``, ``G = a^T a``, of a stack ``a``
    ``(m, n, k)`` with gradients ``g = a^T r`` ``(m, k)``.

    Returns ``(delta, drop, kappa2)``: the steps, their model decreases
    ``||r||^2 - ||r + a delta||^2 = -g^T delta``, and ``kappa2``, the
    squared ratio of the largest to the smallest diagonal entry of the
    Cholesky factor of ``G``.  ``kappa2`` is at most ``cond(G)``: the
    squared entries are pivots of ``G``, which lie between its extreme
    eigenvalues.  A row whose Cholesky fails has ``kappa2`` NaN, and a
    row with ``kappa2`` above ``_COND_G_MAX`` is not solved: both get a
    NaN step and drop.
    """
    G = a.transpose(0, 2, 1) @ a
    d = np.diagonal(_cholesky(G), axis1=1, axis2=2)
    kappa2 = (d.max(axis=1) / d.min(axis=1)) ** 2
    ok = kappa2 <= _COND_G_MAX
    delta = np.full(g.shape, np.nan)
    delta[ok] = -np.linalg.solve(G[ok], g[ok][:, :, None])[:, :, 0]
    drop = -(g[:, None, :] @ delta[:, :, None])[:, 0, 0]
    return delta, drop, kappa2


def _qr_steps(a, r, rn, floor, aug):
    """The steps and model decreases of :func:`_normal_steps` from the
    Householder QR of ``[a | r]`` (assembled in ``aug``), for residuals
    ``r`` of norms ``rn``.  Only a node whose decrease passes ``floor``
    is solved; the others get a NaN step.  A singular triangular factor
    is a :class:`RomSolveError`."""
    k = a.shape[-1]
    aug[..., :-1] = a
    R = _augmented_r(aug, r)
    pred = np.abs(R[:, k, k]) if R.shape[1] > k else np.zeros(len(a))
    drop = rn * rn - pred * pred
    solve = drop > floor
    delta = np.full((len(a), k), np.nan)
    try:
        delta[solve] = -np.linalg.solve(R[solve, :k, :k], R[solve, :k, k:])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise RomSolveError(f"reduced Jacobian is singular ({exc})") from exc
    return delta, drop


def _cholesky(G):
    """Cholesky factors of a stack of matrices; a matrix that is not
    numerically positive definite gets a NaN factor.  numpy fails the
    whole stack for one such matrix, so a failed stack is factored one
    matrix at a time."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        if len(G) == 1:
            return np.full(G.shape, np.nan)
        return np.concatenate([_cholesky(G[i:i + 1]) for i in range(len(G))])


def _to_front(a, rows):
    """Move the rows ``rows`` (increasing) of the stack ``a`` to its front
    in place; a gather would allocate a new stack."""
    for i, j in enumerate(rows):
        if i != j:
            a[i] = a[j]


#: Arrays of ``n_u`` floats that one node of a part of a reduced solve
#: holds outside the workspace of :func:`_parts`, rounded up from its
#: peak over the part as ``tracemalloc`` measures it: 10.9 for the primal
#: solve (in :func:`_steps`: residual, state, three bands and three more
#: arrays, of the round-off scale or of the gradient pass, with the
#: reduced states) and 6.0 for the adjoint, on stacks of 128 to 512
#: nodes on the final basis of the default Burgers run (``n_u = 127``,
#: ``k = 47``).
_NODE_ARRAYS = 11


def _parts(m, n_u, k, jphi=True):
    """The bytes of one node of a chunk, and the workspace of a solve call
    on a stack of ``m`` nodes.

    Every Gauss-Newton iteration cuts the nodes that take a step, and
    every adjoint solve its nodes, by :func:`kernels.stack_parts` into
    chunks at this many bytes per node, and a chunk of ``n`` nodes makes
    its ``n_u x k`` algebra in the first ``n`` rows of the workspace:
    ``J Phi``, which the band product writes and the steps read, and the
    block ``[J Phi | r]`` that a QR step factors.  The adjoint writes
    ``J^T Phi`` straight into the first ``k`` columns of its
    ``[J^T Phi | b]`` block, and asks for no ``J Phi`` block (``jphi``
    False, an empty one).  Both blocks are sized for the largest chunk
    of at most ``m`` nodes, and are C-contiguous views of one
    allocation, ``J Phi`` at its start.  An empty basis is a
    :class:`RomSolveError`.

    Besides its workspace rows, a chunk node holds, at its peak, the
    three stacked bands of the band product or numpy's copy of the QR
    block, and two ``(k + 1) x (k + 1)`` blocks: the triangular factor
    and the solve's copy of it (the adjoint, and the QR steps of the
    primal) or ``G`` and its Cholesky factor (the normal-equations
    steps).  The budget counts ``3k + 3`` columns of ``n_u`` and the two
    blocks, 180 columns at ``n_u = 127``, ``k = 47``; ``tracemalloc``
    measures 152 per node for the primal chunks and 131 for the adjoint
    ones, on chunks of 4 to 12 nodes on the final basis of the default
    Burgers run."""
    if k == 0:
        raise RomSolveError("reduced basis is empty")
    chunk = 8 * (n_u * (3 * k + 3) + 2 * (k + 1) ** 2)
    size = min(m, kernels.part_size(chunk))
    cut = size * n_u * k if jphi else 0
    block = np.empty(cut + size * n_u * (k + 1))
    return chunk, (block[:cut].reshape(-1, n_u, k),
                   block[cut:].reshape(size, n_u, k + 1))


def solve_rom_primal(problem, basis: ReducedBasis, ys, mu, q0=None) -> RomPrimal:
    """Gauss-Newton minimization of the residual norm over the subspace.

    ``ys`` is a stack of ``m`` nodes ``(m, n_y)`` and ``q0`` their
    ``(m, k)`` starts (zero by default).  Each step solves the normal
    equations ``G delta = -g`` (see the module docstring), whose model
    decrease is ``drop = -g^T delta``.  A node factors ``[J Phi | r]`` by
    Householder QR instead, taking ``delta`` from the triangular solve
    and ``drop`` from the last diagonal entry, when the Cholesky
    factorization of its ``G`` fails, when the pivot ratio ``kappa2``
    (see :func:`_normal_steps`) passes ``_COND_G_MAX``, or when its
    model residual ``||r||^2 - drop`` is at most ``kappa2 eps ||r||^2``:
    a nearly representable state, whose residual the error of the
    normal equations would swamp.  The step is halved (at most 29 times)
    until the residual norm decreases.  A node is stationary, before
    ``J Phi`` is formed, once its reduced gradient ``(J Phi)^T r`` is
    at most its own round-off ``eps ||J Phi||_F || |J||u| + |f| ||``,
    both computed from the Jacobian bands (see the module docstring):
    a smaller gradient cannot be resolved in floating point, so a
    further step could only confirm a stall.

    Large-residual Gauss-Newton ends in a slow linear tail, and a
    residual with round-off that the bound does not see can leave no
    trial step that decreases it.  Progress has died when the accepted
    step decreases ``||r||`` by less than ``1e-12`` relatively, or when
    the model predicts, for the full step or for the current halved
    one, a relative decrease of ``||r||^2`` of at most ``2e-12``; no
    further residual is then evaluated.  The node then stops at its
    current iterate (the stall branch, reported in
    :attr:`RomPrimal.stalled`) if the gradient is at most ``1e-6`` of
    its natural bound ``||J Phi||_F ||r||`` (plus one), and fails
    otherwise.  For a residual affine in the state this converges in a
    single step.

    Each part of the stack is solved by one loop (see the module
    docstring): per step, one expansion of the states, one band,
    round-off scale and gradient pass for the part, then per chunk of
    the nodes that step one ``J Phi``, one stacked Gram product,
    Cholesky factorization and solve, and one stacked QR and triangular
    solve for the nodes routed to it, then one residual call
    for the full steps of the part and one per trial part of the
    halvings of its rejected nodes (see :func:`_backtrack`).  Nodes
    leave the stack as they stop.  A node
    that stagnated or ran ``GN_MAX_ITERS`` steps is returned at its last
    iterate and marked in :attr:`RomPrimal.failed` (see the module
    docstring); :class:`RomSolveError` is raised only for an empty basis
    or a reduced Jacobian whose QR factor is singular.
    """
    q = np.zeros((len(ys), basis.k)) if q0 is None else np.array(q0, dtype=float)
    chunk, work = _parts(len(ys), basis.n_u, basis.k)
    return RomPrimal(*kernels.in_parts(
        partial(_gauss_newton, basis=basis, chunk=chunk, work=work),
        8 * _NODE_ARRAYS * basis.n_u, problem, ys, mu, q))


def _gauss_newton(problem, ys, mu, q, basis, chunk, work):
    """One part of :func:`solve_rom_primal`, with the chunk budget
    ``chunk`` and the workspace ``work`` of the call (see
    :func:`_parts`); returns the per-node arrays of :class:`RomPrimal`."""
    m = len(q)
    f = problem.source(mu)
    r = problem.residual(basis.expand(q), ys, mu)
    rnorm = kernels.row_norm(r)
    iters = np.zeros(m, dtype=int)
    stalled = np.zeros(m, dtype=bool)
    failed = np.zeros(m, dtype=bool)
    live = np.arange(m)
    for _ in range(GN_MAX_ITERS):
        if not live.size:
            break
        rn = rnorm[live]
        # the model decrease of ||r||^2 at step length t is (2t - t^2) drop;
        # once it falls below the relative decrease the stagnation test
        # asks for, an accepted step could only stall
        floor = 2e-12 * rn * rn
        go, delta, drop, g, jnorm = _steps(problem, basis, ys, mu, q, r, live,
                                           rn, floor, f, chunk, work)
        if not go.all():
            # a stationary node leaves the stack (module docstring)
            live, rn, floor = live[go], rn[go], floor[go]
        moved = np.zeros(live.size, dtype=bool)
        step = np.flatnonzero(drop > floor)
        if step.size:
            at = live[step]
            found, q_new, r_new, rn_new = _backtrack(
                problem, basis, ys[at], mu, q[at], delta[step], rn[step],
                drop[step], floor[step])
            took = found & ~(rn_new > rn[step] * (1.0 - 1e-12))
            moved[step] = took
            at = live[step[took]]
            q[at], r[at], rnorm[at] = q_new[took], r_new[took], rn_new[took]
            iters[at] += 1
        # once relative progress dies, a gradient well below its natural
        # bound ||J Phi|| ||r|| is stationary for every downstream use
        accept = g <= 1e-6 * (1.0 + jnorm * rn)
        stalled[live[~moved & accept]] = True
        failed[live[~moved & ~accept]] = True
        live = live[moved]
    failed[live] = True
    return q, rnorm, iters, stalled, failed


def _steps(problem, basis, ys, mu, q, r, live, rn, floor, f, chunk, work):
    """The Gauss-Newton steps of one iteration at the nodes ``live`` of a
    part, whose residuals ``r[live]`` have norms ``rn``.

    The state, its Jacobian bands, the round-off scale of the residual,
    the reduced gradient ``Phi^T (J^T r)`` and ``||J Phi||_F`` are
    formed once for all of them, without ``J Phi`` (see
    :func:`_jphi_norms`), and make the stationarity test.  Only the
    nodes that take a step are cut into chunks, which form ``J Phi`` and
    the step in the workspace (see :func:`_parts`).  Returns ``(go, delta, drop, g, jnorm)``: the mask
    of the nodes of ``live`` that are not stationary, and their steps,
    model decreases, gradient norms and ``||J Phi||_F``.
    """
    out, aug = work
    u = basis.expand(q[live])
    lo, dg, up = problem.jac_bands(u, ys[live], mu)
    scale = kernels.roundoff_scale(lo, dg, up, u, f)
    # the reduced gradient (J Phi)^T r = Phi^T (J^T r)
    grad = basis.project(kernels.band_t_matvec(lo, dg, up, r[live]))
    g = kernels.row_norm(grad)
    jnorm = _jphi_norms(basis, lo, dg, up)
    # stationary at the gradient's own round-off (module docstring)
    go = ~(g <= _EPS * jnorm * scale)
    step = np.flatnonzero(go)
    delta = np.empty((step.size, basis.k))
    drop = np.empty(step.size)
    # only the nodes that take a step form J Phi, chunk by chunk
    for c in kernels.stack_parts(step.size, chunk) if step.size else ():
        at = step[c]
        jphi = kernels.band_matmat(lo[at], dg[at], up[at], basis.window(),
                                   out[:at.size])
        d, p, kappa2 = _normal_steps(jphi, grad[at])
        # the normal equations know the model residual ||r||^2 - drop
        # only to about cond(G) eps ||r||^2, and cannot take the residual
        # of a nearly representable state below that; such a state, and
        # a G that failed its checks (NaN drop), take the QR step
        rn_at = rn[at]
        qr = np.flatnonzero(~(rn_at * rn_at - p > kappa2 * _EPS * rn_at * rn_at))
        if qr.size:
            _to_front(jphi, qr)
            d[qr], p[qr] = _qr_steps(jphi[:qr.size], r[live[at[qr]]], rn_at[qr],
                                     floor[at[qr]], aug[:qr.size])
        delta[c], drop[c] = d, p
    return go, delta, drop, g[go], jnorm[go]


def _jphi_norms(basis, lo, dg, up):
    """``||J Phi||_F`` of each node of a stack with Jacobian bands ``lo,
    dg, up``, without forming ``J Phi``.

    Row ``i`` of ``J Phi`` is ``b_i = (lo_i, dg_i, up_i)`` applied to
    basis rows ``i - 1, i, i + 1``, so its squared norm is
    ``b_i^T Q_i b_i``, with ``Q_i`` the Gram matrix of those three rows
    (:meth:`ReducedBasis.row_grams`).  The sum over ``i`` is three dots
    per node, ``lo . (lo Q_ll + dg 2Q_ld + up 2Q_lu)``,
    ``dg . (dg Q_dd + up 2Q_du)`` and ``up . (up Q_uu)``: O(n_u) per
    node, where ``J Phi`` costs O(n_u k).  Every row is bitwise equal to
    its stack of one.
    """
    ll, dd, uu, ld, du, lu = basis.row_grams()
    t = lo * ll
    s = dg * ld
    t += s
    np.multiply(up, lu, out=s)
    t += s
    sq = kernels.row_dot(lo, t)
    np.multiply(dg, dd, out=t)
    np.multiply(up, du, out=s)
    t += s
    sq += kernels.row_dot(dg, t)
    np.multiply(up, uu, out=t)
    sq += kernels.row_dot(up, t)
    return np.sqrt(sq)


#: step lengths 2^-1, ..., 2^-29 of the halvings after a rejected full step
_HALVINGS = np.ldexp(1.0, -np.arange(1, 30))


def _backtrack(problem, basis, ys, mu, q, delta, rnorm, drop, floor):
    """First step length ``t = 2^-j`` whose residual norm is below ``rnorm``.

    One residual call evaluates the full step of every node.  The
    trials of the nodes that rejected it, every halving down to the
    model cut-off ``(2t - t^2) drop <= floor``, are rows in node order
    and, within a node, in halving order; :func:`kernels.stack_parts`
    cuts them into parts at four arrays of ``n_u`` (the trial state and
    the residual kernel's three) and two of ``k`` per row, which may
    split a node's rows.  One residual call evaluates each part, but
    for the rows of nodes that took a halving in an earlier part.
    Taking each node's first decreasing trial is the step a
    one-halving-at-a-time loop accepts, however the rows are cut
    (``tracemalloc`` measures 4.5 columns of ``n_u`` per row at
    ``n_u = 127``, ``k = 47``).  Returns ``(found, q, r, rnorm)`` of the
    accepted trials (the full-step values where ``found`` is False).
    """
    q_new = q + delta
    r_new = problem.residual(basis.expand(q_new), ys, mu)
    rn_new = kernels.row_norm(r_new)
    found = rn_new < rnorm
    if found.all():
        return found, q_new, r_new, rn_new
    back = np.flatnonzero(~found)
    t = _HALVINGS
    # (2t - t^2) is exact for these t and decreases with t, so the
    # halvings above the cut-off are a leading run of each row
    open_ = (2.0 * t - t * t) * drop[back, None] > floor[back, None]
    rows = np.broadcast_to(back[:, None], open_.shape)[open_]
    ts = np.broadcast_to(t, open_.shape)[open_]
    for p in kernels.stack_parts(rows.size, 8 * (4 * basis.n_u + 2 * basis.k)):
        at, t_at = rows[p], ts[p]
        if p.start:
            # a node that took a halving in an earlier part is done
            left = ~found[at]
            at, t_at = at[left], t_at[left]
        if not at.size:
            continue
        q_t = q[at] + t_at[:, None] * delta[at]
        r_t = problem.residual(basis.expand(q_t), ys[at], mu)
        rn_t = kernels.row_norm(r_t)
        hit = np.flatnonzero(rn_t < rnorm[at])
        nodes, first = np.unique(at[hit], return_index=True)
        pick = hit[first]
        q_new[nodes], r_new[nodes], rn_new[nodes] = q_t[pick], r_t[pick], rn_t[pick]
        found[nodes] = True
    return found, q_new, r_new, rn_new


def solve_rom_adjoint(problem, basis: ReducedBasis, q, ys, mu) -> RomAdjoint:
    """Minimum-residual adjoint solves over the shared trial subspace.

    For each node of the stack ``ys`` with reduced state ``q`` (one row
    per node), solves ``min || (dr/du)^T Phi eta - (df/du)^T ||`` by one
    Householder QR of the tall ``n_u x k`` matrix augmented by the
    right-hand side, stacked over the nodes.  A matrix counts as
    rank-deficient, and :class:`RomSolveError` is raised, when a
    diagonal entry of its triangular factor is at most
    ``max(n_u, k) eps`` times the largest one.  The reported residual
    norm is evaluated explicitly from the solution.
    """
    chunk, work = _parts(len(ys), basis.n_u, basis.k, jphi=False)
    return RomAdjoint(*kernels.in_parts(
        partial(_min_res_adjoint, basis=basis, chunk=chunk, work=work),
        8 * _NODE_ARRAYS * basis.n_u, problem, ys, mu, q))


def _min_res_adjoint(problem, ys, mu, q, basis, chunk, work):
    """One part of :func:`solve_rom_adjoint`, with the chunk budget
    ``chunk`` and the workspace ``work`` of the call (see
    :func:`_parts`); returns ``(eta, res)``.  The state, its Jacobian
    bands and the right-hand side are formed once for the part, the
    least-squares solves chunk by chunk."""
    k = basis.k
    _, aug = work
    u = basis.expand(q)
    lo, dg, up = problem.jac_bands(u, ys, mu)
    b = problem.qoi_u(u, ys, mu)
    eta, res = [], []
    for c in kernels.stack_parts(len(q), chunk):
        n = c.stop - c.start
        # J^T Phi straight into the first k columns of [J^T Phi | b]
        a = kernels.band_t_matmat(lo[c], dg[c], up[c], basis.window(),
                                  aug[:n, :, :k])
        R = _augmented_r(aug[:n], b[c])
        diag = np.abs(np.diagonal(R[:, :k, :k], axis1=1, axis2=2))
        tol = max(a.shape[1:]) * _EPS * diag.max(axis=1, keepdims=True)
        rank = np.count_nonzero(diag > tol, axis=1)
        if (rank < k).any():
            raise RomSolveError(
                f"adjoint ROM matrix is rank-deficient (rank {rank.min()} < {k})")
        eta.append(np.linalg.solve(R[:, :k, :k], R[:, :k, k:])[:, :, 0])
        res.append(kernels.row_norm((a @ eta[-1][:, :, None])[:, :, 0] - b[c]))
    return np.concatenate(eta), np.concatenate(res)
