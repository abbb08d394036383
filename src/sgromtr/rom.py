"""Reduced-basis management and minimum-residual reduced-order models.

The primal ROM minimizes ``||r(Phi q, y, mu)||`` over the trial
subspace by Gauss-Newton; the adjoint ROM minimizes the adjoint
residual over the same subspace, which is a linear least-squares
problem.  Minimizing the residual (rather than projecting the
equations) buys three properties used throughout the refinement
machinery: optimality over the subspace, monotonicity under basis
growth, and interpolation of exactly representable solutions.

Both solves measure the residual in the Euclidean norm and factor the
tall ``n_u x k`` matrix augmented by its right-hand side with one
Householder QR, which yields the least-squares step and the norm of
the model's own residual in a single pass.  Gauss-Newton uses that
predicted residual to stop backtracking, or to skip the line search,
once the model promises no decrease above round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hdm import adjoint_gradient

__all__ = [
    "ReducedBasis", "Snapshot", "RomPrimal", "RomAdjoint",
    "RomSolveError", "solve_rom_primal", "solve_rom_adjoint",
    "rom_qoi", "rom_gradient",
]

DROP_TOL = 1e-10
#: Gauss-Newton iterations before a primal reduced solve gives up.
GN_MAX_ITERS = 60


class RomSolveError(RuntimeError):
    """A reduced-order solve failed to reach its stationarity tolerance."""


@dataclass
class Snapshot:
    """Provenance of one snapshot offered to the basis."""

    kind: str          # "primal" | "adjoint" | "sensitivity"
    y: np.ndarray
    mu: np.ndarray
    kept: bool


@dataclass
class RomPrimal:
    q: np.ndarray
    residual_norm: float
    gn_iters: int


@dataclass
class RomAdjoint:
    eta: np.ndarray
    residual_norm: float


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
        """Reduced coordinates of the orthogonal projection of ``u``."""
        return self._cols.T @ u


def _augmented_r(a, b):
    """Triangular factor of ``[a | b]``: the least-squares solve of ``a x ~ b``.

    With ``k = a.shape[1]``, the minimizer is ``solve(R[:k, :k], R[:k, k])``
    and ``|R[k, k]|`` is the residual norm it leaves, ``min ||a x - b||``
    (zero when ``a`` has no more rows than columns, so ``R`` has no row
    ``k``).
    """
    return np.linalg.qr(np.column_stack([a, b]), mode="r")


def solve_rom_primal(problem, basis: ReducedBasis, y, mu, q0=None) -> RomPrimal:
    """Gauss-Newton minimization of the residual norm over the subspace.

    Each step factors ``[J Phi | r]`` by one Householder QR; the
    triangular solve gives the Gauss-Newton step ``delta`` and the last
    diagonal entry gives the predicted residual ``||r + J Phi delta||``.
    The step is halved (at most 30 times) until the residual norm
    decreases.  Stationarity is declared when the reduced gradient
    ``(J Phi)^T r`` falls below ``1e-10`` relative to its natural bound
    ``||J Phi|| ||r||`` (plus one), which stays meaningful for stiff
    Jacobians where the bare residual norm under-scales.

    Large-residual Gauss-Newton ends in a slow linear tail, and near the
    round-off floor no trial step decreases the residual.  Progress has
    died when the accepted step decreases ``||r||`` by less than
    ``1e-12`` relatively, or when the model predicts, for the full step
    or for the current halved one, a relative decrease of ``||r||^2`` of
    at most ``2e-12``; no further residual is then evaluated.  The solve
    then stops at the current iterate if the gradient is below ``1e-6``
    of its bound, and raises :class:`RomSolveError` otherwise.  For a
    residual affine in the state this converges in a single step.
    """
    phi = basis.columns
    k = phi.shape[1]
    if k == 0:
        raise RomSolveError("reduced basis is empty")
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    q = np.zeros(k) if q0 is None else np.array(q0, dtype=float)

    r = problem.residual(phi @ q, y, mu)
    rnorm = float(np.linalg.norm(r))

    iters = 0
    for _ in range(GN_MAX_ITERS):
        u = phi @ q
        jphi = problem.jac_u_mul(u, y, mu, phi)
        grad_norm = float(np.linalg.norm(jphi.T @ r))
        scale = 1.0 + float(np.linalg.norm(jphi)) * rnorm
        if grad_norm <= 1e-10 * scale:
            break
        R = _augmented_r(jphi, r)
        pred = abs(float(R[k, k])) if R.shape[0] > k else 0.0
        # the model decrease of ||r||^2 at step length t is (2t - t^2) drop;
        # once it falls below the relative decrease the stagnation test
        # asks for, an accepted step could only stall
        drop = rnorm * rnorm - pred * pred
        floor = 2e-12 * rnorm * rnorm
        stalled = True
        if drop > floor:
            try:
                delta = -np.linalg.solve(R[:k, :k], R[:k, k])
            except np.linalg.LinAlgError as exc:
                raise RomSolveError(
                    f"reduced Jacobian is singular ({exc})") from exc
            t = 1.0
            for _ in range(30):
                q_new = q + t * delta
                r_new = problem.residual(phi @ q_new, y, mu)
                rnorm_new = float(np.linalg.norm(r_new))
                if rnorm_new < rnorm:
                    stalled = rnorm_new > rnorm * (1.0 - 1e-12)
                    break
                t *= 0.5
                if (2.0 * t - t * t) * drop <= floor:
                    break
        # once relative progress dies, a gradient well below its natural
        # bound ||J Phi|| ||r|| is stationary for every downstream use
        if stalled:
            if grad_norm <= 1e-6 * scale:
                break
            raise RomSolveError(
                f"Gauss-Newton stagnated (reduced gradient {grad_norm:.3e})")
        q, r, rnorm = q_new, r_new, rnorm_new
        iters += 1
    else:
        raise RomSolveError(
            f"Gauss-Newton did not converge in {GN_MAX_ITERS} iterations")
    return RomPrimal(q, rnorm, iters)


def solve_rom_adjoint(problem, basis: ReducedBasis, q, y, mu) -> RomAdjoint:
    """Minimum-residual adjoint solve over the shared trial subspace.

    Solves ``min || (dr/du)^T Phi eta - (df/du)^T ||`` by one Householder
    QR of the tall ``n_u x k`` matrix augmented by the right-hand side.
    The matrix counts as rank-deficient, and :class:`RomSolveError` is
    raised, when a diagonal entry of its triangular factor is at most
    ``max(n_u, k) eps`` times the largest one.  The reported residual
    norm is evaluated explicitly from the solution.
    """
    phi = basis.columns
    k = phi.shape[1]
    if k == 0:
        raise RomSolveError("reduced basis is empty")
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    u = phi @ np.asarray(q, dtype=float)
    a = problem.jac_uT_mul(u, y, mu, phi)
    b = problem.qoi_u(u, y, mu)
    R = _augmented_r(a, b)
    diag = np.abs(np.diag(R[:k, :k]))
    rank = int(np.count_nonzero(
        diag > max(a.shape) * np.finfo(float).eps * diag.max()))
    if rank < k:
        raise RomSolveError(
            f"adjoint ROM matrix is rank-deficient (rank {rank} < {k})")
    eta = np.linalg.solve(R[:k, :k], R[:k, k])
    res = float(np.linalg.norm(a @ eta - b))
    return RomAdjoint(eta, res)


def rom_qoi(problem, basis: ReducedBasis, q, y, mu) -> float:
    """Quantity of interest evaluated on the reconstructed reduced state."""
    return problem.qoi(basis.columns @ np.asarray(q, dtype=float), y, mu)


def rom_gradient(problem, basis: ReducedBasis, q, eta, y, mu) -> np.ndarray:
    """Adjoint-based gradient estimate from the reduced primal/adjoint pair.

    Applies the gradient-reconstruction operator to the reconstructed
    pair; this is not the exact gradient of the reduced quantity of
    interest, but it minimizes the residual-based gradient error bound.
    """
    phi = basis.columns
    return adjoint_gradient(problem, phi @ np.asarray(eta, dtype=float),
                            phi @ np.asarray(q, dtype=float), y, mu)
