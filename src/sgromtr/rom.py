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
:func:`solve_rom_primal`), and a rank-deficient triangular factor is a
:class:`RomSolveError`.  The adjoint, a linear least-squares problem in
``J^T Phi``, takes the same guarded step (:func:`_lstsq_steps`) twice:
from ``eta = 0``, then from the true residual at its result, which
corrects the normal equations' error (see :func:`solve_rom_adjoint`).

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
a stack of one) and run one loop over the whole stack; every node's
result is bitwise equal to solving it alone.  A primal solve's states,
residuals, Jacobian bands, round-off scales, reduced gradients,
stationarity tests, line search (:func:`kernels.halve_until_decrease`,
shared with the full model) and the per-node masks of the routing,
stopping and backtracking rules are whole-stack arrays.  Only the ``n_u
x k`` algebra of the nodes that take a step is cut, into chunks that fit
``kernels.STACK_BYTES`` at the bytes per node of :func:`_chunk_bytes`:
each chunk forms its own ``J Phi`` and takes one stacked Gram product,
Cholesky factorization and solve, and a stacked QR and triangular solve
for its nodes that take the QR step (:func:`_qr_steps`), and drops its
``J Phi`` before the next chunk forms one.  ``J Phi`` is one ``(1 x 3)
@ (3 x k)`` product per row of each node: the row's three band entries
against the window of basis rows ``i - 1, i, i + 1``, which the basis
caches per ``k`` (:meth:`ReducedBasis.window`).  The adjoint forms
states, bands and right-hand sides once for the stack, and its
least-squares solves chunk by chunk in the same way, on ``J^T Phi``
where the primal forms ``J Phi``.

Memory follows the rule of the full-model solves (see ``hdm``): a
solve's arrays of ``n_u`` grow with its stack, and only its ``n_u x k``
blocks are chunked.  At its peak a cold primal solve holds about 10.3
arrays of ``n_u`` per node (in the line search of its first step), an
adjoint solve 5.9 (states, three Jacobian bands, right-hand sides), each
plus one chunk (``tracemalloc``, growth of the peak from 1024 to 2048
cold nodes on the final basis of the default Burgers run, ``k = 48``).

The basis keeps a snapshot when its remainder after two Gram-Schmidt
passes is larger than the rounding error those passes can leave in a
vector of the span, ``eps k^(3/2)`` times the snapshot's norm for ``k``
columns (:func:`gram_schmidt_floor`, derived there): a remainder below
that may be round-off, one above it is not.  The second pass removes
what the first pass's rounding left in the span ("twice is enough":
Giraud, Langou, Rozložník & van den Eshof 2005), so even a column kept
at twice the floor leaves the basis orthonormal to about 1e-15, and the
rule needs no larger floor for conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "ReducedBasis", "Snapshot", "RomPrimal", "RomAdjoint",
    "RomSolveError", "solve_rom_primal", "solve_rom_adjoint",
]

#: Gauss-Newton iterations before a primal reduced solve gives up.
GN_MAX_ITERS = 60

_EPS = np.finfo(float).eps


def gram_schmidt_floor(k: int) -> float:
    """Remainder, relative to a snapshot's norm, that two Gram-Schmidt
    passes against ``k`` orthonormal columns can leave in a vector of
    their span: ``eps k^(3/2)``.

    A pass computes ``s = Phi^T v`` and ``w = v - Phi s``.  For ``v`` in
    the span, the error of ``s`` lies in the span, and the second pass
    removes it; the error of ``Phi s`` does not.  Each of its entries
    sums ``k`` terms, so it errs by at most ``gamma_k (|Phi||s|)_i``
    with ``gamma_k = k u / (1 - k u)`` and ``u = eps / 2`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3), in norm
    by ``gamma_k || |Phi| || ||s|| <= gamma_k sqrt(k) ||v||``
    (``|| |Phi| ||_2 <= ||Phi||_F = sqrt(k)``).  What the second pass
    adds is of order ``u^2``.  So a vector of the span keeps a remainder
    of at most about ``u k^(3/2)`` of its norm, half this floor; the
    other half covers the second-order terms.  With no column there is
    no pass and no error: the floor is 0.
    """
    return _EPS * k ** 1.5


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
    or a rank-deficient reduced least-squares matrix."""


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
        ``k`` columns twice; the remainder is appended only if its norm
        exceeds :func:`gram_schmidt_floor` ``(k)`` times the vector's
        norm, the most round-off the two passes leave in a vector of the
        span.  A zero vector is never kept.  A dropped snapshot is still
        recorded in the provenance, with ``kept`` false.
        """
        y = np.asarray(y, dtype=float)
        mu = np.asarray(mu, dtype=float)
        kept = 0
        for vec, kind in zip(vectors, kinds):
            v = np.asarray(vec, dtype=float)
            if v.shape != (self.n_u,) or not np.all(np.isfinite(v)):
                raise ValueError("snapshot must be a finite vector of length n_u")
            w = v.copy()
            for _ in range(2):
                w -= self._cols @ (self._cols.T @ w)
            rest = np.linalg.norm(w)
            keep = rest > gram_schmidt_floor(self.k) * np.linalg.norm(v)
            if keep:
                self._cols = np.hstack([self._cols, (w / rest)[:, None]])
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


#: The largest Cholesky pivot ratio ``kappa2`` of ``G = a^T a`` (see
#: :func:`_gram`) at which :func:`_lstsq_steps` takes a step from the
#: normal equations.  Their step carries a relative error of about
#: ``cond(G) eps`` (Björck 1996, *Numerical Methods for Least Squares
#: Problems*, §2.2).  Gauss-Newton needs few digits of a step: it
#: re-evaluates the true residual after every step, and an inexact
#: Newton step of relative error ``e < 1`` still converges locally, at
#: a linear rate of about ``e`` (Dembo, Eisenstat & Steihaug 1982).
#: The bound asks for half the digits, ``cond(G) eps <= sqrt(eps)``,
#: read on ``kappa2``, which is at most ``cond(G)``.  Over the default
#: Burgers and diffusion runs ``kappa2`` is at most 1.8e4 and 1.6e5 in
#: the primal steps (``cond(G)`` at most 5.2e3 and 283 times it), and
#: 1.6e4 and 1.6e5 in the adjoint solves (``cond(G)`` at most 1.9e7 and
#: 2.9e6), far below it.
_COND_G_MAX = _EPS ** -0.5


def _gram(a):
    """``(G, kappa2)`` of a stack ``a`` ``(m, n, k)``: ``G = a^T a``, and
    the squared ratio of the largest to the smallest diagonal entry of
    its Cholesky factor.  ``kappa2`` is at most ``cond(G)``: the squared
    entries are pivots of ``G``, which lie between its extreme
    eigenvalues.  A row whose Cholesky fails has ``kappa2`` NaN."""
    G = a.transpose(0, 2, 1) @ a
    d = np.diagonal(_cholesky(G), axis1=1, axis2=2)
    return G, (d.max(axis=1) / d.min(axis=1)) ** 2


def _lstsq_steps(a, r, rn, g, gram=None, near=False):
    """Steps ``delta`` minimizing ``||r + a delta||`` on a stack ``a``
    ``(m, n, k)`` with residuals ``r`` of norms ``rn`` and gradients ``g =
    a^T r``, and their model decreases ``drop = ||r||^2 - ||r + a
    delta||^2`` (``-g^T delta`` for a normal-equations step).

    A row whose ``kappa2`` (of ``gram``, :func:`_gram` of ``a``, formed
    here if not given) is within ``_COND_G_MAX`` solves ``G delta =
    -g``.  The others, and with ``near`` a nearly representable row,
    whose model residual ``||r||^2 - drop`` is at most ``kappa2 eps
    ||r||^2``, take the QR step of ``[a | r]`` (:func:`_qr_steps`)."""
    G, kappa2 = _gram(a) if gram is None else gram
    ok = kappa2 <= _COND_G_MAX
    delta = np.full(g.shape, np.nan)
    delta[ok] = -np.linalg.solve(G[ok], g[ok][:, :, None])[:, :, 0]
    del G, gram                        # a G formed here is freed before the QR
    drop = -(g[:, None, :] @ delta[:, :, None])[:, 0, 0]
    qr = ~(rn * rn - drop > kappa2 * _EPS * rn * rn) if near else ~ok
    rows = np.flatnonzero(qr)
    if rows.size:
        delta[rows], drop[rows] = _qr_steps(a, r, rn, rows)
    return delta, drop


def _qr_steps(a, r, rn, rows):
    """The steps and decreases of :func:`_lstsq_steps` at the rows
    ``rows``, from the Householder QR of ``[a | r]``, each row copied into
    a block of its own: ``delta`` from the triangular solve, ``drop`` from
    ``|R[k, k]| = min ||r + a delta||`` (zero if ``R`` has no row ``k``).
    A diagonal entry of ``R[:k, :k]`` at most ``max(n, k) eps`` times the
    largest is a rank-deficient ``a``: :class:`RomSolveError`."""
    k = a.shape[-1]
    block = np.empty((rows.size, a.shape[1], k + 1))
    for i, j in enumerate(rows):
        block[i, :, :k] = a[j]
        block[i, :, k] = r[j]
    R = np.linalg.qr(block, mode="r")
    diag = np.abs(np.diagonal(R[:, :k, :k], axis1=1, axis2=2))
    tol = max(a.shape[1:]) * _EPS * diag.max(axis=1, keepdims=True)
    rank = np.count_nonzero(diag > tol, axis=1)
    if (rank < k).any():
        raise RomSolveError(
            f"reduced least-squares matrix is rank-deficient (rank {rank.min()} < {k})")
    pred = np.abs(R[:, k, k]) if R.shape[1] > k else np.zeros(rows.size)
    rn = rn[rows]
    return -np.linalg.solve(R[:, :k, :k], R[:, :k, k:])[:, :, 0], rn * rn - pred * pred


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


def _chunk_bytes(basis):
    """The bytes of one node of a chunk on ``basis``.

    Every Gauss-Newton iteration cuts the nodes that take a step, and
    every adjoint solve its whole stack, by :func:`kernels.stack_parts`
    into chunks at this many bytes per node: the one cut of a reduced
    solve.  A chunk node holds its ``(n_u, k)`` block of ``J Phi`` (the
    adjoint's ``J^T Phi``), which the band product returns and the steps
    read, and, at its peak, the three stacked bands of the band product,
    or the ``[J Phi | r]`` block of a QR step (:func:`_qr_steps`) and
    numpy's copy of it, and two ``(k + 1) x (k + 1)`` blocks: ``G`` and
    its Cholesky factor, or the triangular factor and the solve's copy of
    it (and the adjoint's ``G``, which its second step reuses).  The
    budget counts ``3k + 3``
    columns of ``n_u`` and the two blocks, 185 columns at ``n_u = 127``,
    ``k = 48``; ``tracemalloc`` measures 84 to 88 per node for the primal
    chunks (up to 182 for those that take QR steps) and 86 to 88 for the
    adjoint ones, on chunks of up to 4, 8 and 12 nodes of cold solves at
    256 random nodes on the final basis and parameter of the default
    Burgers run."""
    n_u, k = basis.n_u, basis.k
    return 8 * (n_u * (3 * k + 3) + 2 * (k + 1) ** 2)


def _checked(problem, basis, ys, mu):
    """``ys`` and ``mu`` as float arrays, checked before any node is
    solved: an empty basis is a :class:`RomSolveError`, and ``ys`` of a
    shape other than ``(m, n_y)`` the ValueError of
    ``problem._check_nodes``."""
    if basis.k == 0:
        raise RomSolveError("reduced basis is empty")
    ys = np.asarray(ys, dtype=float)
    problem._check_nodes(ys)
    return ys, np.asarray(mu, dtype=float)


def solve_rom_primal(problem, basis: ReducedBasis, ys, mu, q0=None) -> RomPrimal:
    """Gauss-Newton minimization of the residual norm over the subspace.

    ``ys`` is a stack of ``m`` nodes ``(m, n_y)`` and ``q0`` their
    ``(m, k)`` starts (zero by default).  Each step solves the normal
    equations ``G delta = -g`` (see the module docstring), whose model
    decrease is ``drop = -g^T delta``.  A node factors ``[J Phi | r]`` by
    Householder QR instead, taking ``delta`` from the triangular solve
    and ``drop`` from the last diagonal entry, when the Cholesky
    factorization of its ``G`` fails, when the pivot ratio ``kappa2``
    (see :func:`_gram`) passes ``_COND_G_MAX``, or when its
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

    The whole stack is solved by one loop (see the module docstring):
    per step, one expansion of the states, one band, round-off scale and
    gradient pass for the stack, then per chunk of the nodes that step
    one ``J Phi``, one stacked Gram product, Cholesky factorization and
    solve, and one stacked QR and triangular solve for the nodes routed
    to it, then one residual call per step length of the line search, on
    the nodes still searching.  Nodes leave the stack as they stop.  A
    node that stagnated or ran ``GN_MAX_ITERS`` steps is returned at its last
    iterate and marked in :attr:`RomPrimal.failed` (see the module
    docstring); :class:`RomSolveError` is raised only for an empty basis
    or a reduced Jacobian whose QR factor is rank-deficient (see
    :func:`_qr_steps`).
    """
    ys, mu = _checked(problem, basis, ys, mu)
    q = np.zeros((len(ys), basis.k)) if q0 is None else np.array(q0, dtype=float)
    return RomPrimal(*_gauss_newton(problem, ys, mu, q, basis))


def _gauss_newton(problem, ys, mu, q, basis):
    """The loop of :func:`solve_rom_primal` on a checked stack; returns
    the per-node arrays of :class:`RomPrimal`."""
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
        go, delta, drop, g, jnorm = _steps(problem, basis, ys, mu, q, r, live, rn, f)
        if not go.all():
            # a stationary node leaves the stack (module docstring)
            live, rn, floor = live[go], rn[go], floor[go]
        moved = np.zeros(live.size, dtype=bool)
        step = np.flatnonzero(drop > floor)
        if step.size:
            at = live[step]
            ys_at, drop_at, floor_at = ys[at], drop[step], floor[step]
            q_at, r_at, rn_at = q[at], r[at], rn[step]
            found = kernels.halve_until_decrease(
                lambda x, rows: problem.residual(basis.expand(x), ys_at[rows], mu),
                q_at, r_at, rn_at, delta[step],
                # (2t - t^2) is exact for these t; below the model
                # cut-off an accepted step could only stall
                lambda rows, t: (2.0 * t - t * t) * drop_at[rows] > floor_at[rows])
            took = found & ~(rn_at > rn[step] * (1.0 - 1e-12))
            moved[step] = took
            at = at[took]
            q[at], r[at], rnorm[at] = q_at[took], r_at[took], rn_at[took]
            iters[at] += 1
        # once relative progress dies, a gradient well below its natural
        # bound ||J Phi|| ||r|| is stationary for every downstream use
        accept = g <= 1e-6 * (1.0 + jnorm * rn)
        stalled[live[~moved & accept]] = True
        failed[live[~moved & ~accept]] = True
        live = live[moved]
    failed[live] = True
    return q, rnorm, iters, stalled, failed


def _steps(problem, basis, ys, mu, q, r, live, rn, f):
    """The Gauss-Newton steps of one iteration at the nodes ``live`` of
    the stack, whose residuals ``r[live]`` have norms ``rn``.

    The state, its Jacobian bands, the round-off scale of the residual,
    the reduced gradient ``Phi^T (J^T r)`` and ``||J Phi||_F`` are
    formed once for all of them, without ``J Phi`` (see
    :func:`_jphi_norms`), and make the stationarity test.  Only the
    nodes that take a step are cut into chunks (see :func:`_chunk_bytes`),
    each forming its own ``J Phi`` for its steps.  Returns ``(go, delta,
    drop, g, jnorm)``: the mask of the nodes of ``live`` that are not
    stationary, and their steps, model decreases, gradient norms and
    ``||J Phi||_F``.
    """
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
    # only the nodes that take a step form J Phi, chunk by chunk, each
    # chunk's J Phi unnamed here so that it is freed before the next one
    for c in kernels.stack_parts(step.size, _chunk_bytes(basis)) if step.size else ():
        at = step[c]
        # the normal equations know the model residual ||r||^2 - drop
        # only to about cond(G) eps ||r||^2, and cannot take the residual
        # of a nearly representable state below that: it takes the QR step
        delta[c], drop[c] = _lstsq_steps(
            kernels.band_matmat(lo[at], dg[at], up[at], basis.window()),
            r[live[at]], rn[at], grad[at], near=True)
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


def solve_rom_adjoint(problem, basis: ReducedBasis, q, ys, mu) -> RomAdjoint:
    """Minimum-residual adjoint solves over the shared trial subspace.

    For each node of the stack ``ys`` with reduced state ``q`` (one row
    per node), solves ``min ||a eta - b||``, ``a = (dr/du)^T Phi``, ``b =
    (df/du)^T``, by two steps of :func:`_lstsq_steps` on one ``G``: from
    ``eta = 0``, then from the true residual ``a eta - b`` there.  The
    second Gauss-Newton step of this affine residual corrects the
    ``cond(G) eps`` error of a normal-equations step (iterative
    refinement, Björck 1996), which would leave some residuals near
    round-off several times above the least-squares minimum.  The
    reported residual norm is evaluated explicitly from the solution.
    """
    ys, mu = _checked(problem, basis, ys, mu)
    q = np.asarray(q, dtype=float)
    return RomAdjoint(*_min_res_adjoint(problem, ys, mu, q, basis))


def _min_res_adjoint(problem, ys, mu, q, basis):
    """The solves of :func:`solve_rom_adjoint` on a checked stack;
    returns ``(eta, res)``.  The state, its Jacobian bands and the
    right-hand side are formed once for the stack, the least-squares
    solves chunk by chunk (see :func:`_chunk_bytes`)."""
    u = basis.expand(q)
    lo, dg, up = problem.jac_bands(u, ys, mu)
    b = problem.qoi_u(u, ys, mu)
    eta, res = [], []
    for c in kernels.stack_parts(len(q), _chunk_bytes(basis)):
        a = kernels.band_t_matmat(lo[c], dg[c], up[c], basis.window())
        gram = _gram(a)
        x = np.zeros((len(a), basis.k))
        r = -b[c]
        # the step from eta = 0, then one from the true residual there
        for _ in range(2):
            g = (r[:, None, :] @ a)[:, 0, :]
            x += _lstsq_steps(a, r, kernels.row_norm(r), g, gram)[0]
            r = (a @ x[:, :, None])[:, :, 0] - b[c]
        eta.append(x)
        res.append(kernels.row_norm(r))
        del a, gram                    # before the next chunk forms its J^T Phi
    return np.concatenate(eta), np.concatenate(res)
