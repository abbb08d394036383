"""Numpy kernels for the bundled 1D model problems.

Stencil residuals, tridiagonal Jacobian bands, banded matrix products
and the tridiagonal solve are the innermost operations of every solver
in this package: they run once per Newton or Gauss-Newton iteration at
every collocation node.  Each kernel but the solve is a handful of
whole-array numpy expressions over shifted slices.  The solve,
:func:`band_solve`, is one O(n) Thomas recurrence, a Python loop over
the rows of the system.  Callers look the kernels up as
``kernels.<name>`` at call time, so a wrapper installed on this module
(as ``perfbench``'s tracer does) sees every call.

Node axis: every kernel also takes a stack of nodes.  States and bands
then have shape ``(m, n)``, the per-node scalars (viscosity, inflow)
are ``(m, 1)`` columns, the diffusion coefficient is ``(m, n + 1)``,
and a matrix operand ``V`` of shape ``(n, k)`` is shared by all nodes,
giving an ``(m, n, k)`` product.  Each row is computed by the same
elementwise operations as the one-node call, so it is bitwise equal to
it.  A stacked solve holds a few ``(m, n)`` arrays at once; the solvers
cut their stacks with :func:`stack_parts` so that these fit
``STACK_BYTES``.

Band convention for a tridiagonal matrix ``A`` of order ``n``:
``lo[i] = A[i, i-1]`` (``lo[0]`` unused, zero), ``dg[i] = A[i, i]``,
``up[i] = A[i, i+1]`` (``up[n-1]`` unused, zero).
"""

from __future__ import annotations

import numpy as np

#: Bytes of per-node arrays that one stacked solve, reduced or full, holds.
STACK_BYTES = 2 ** 18


def stack_parts(m, node_bytes):
    """Slices of a stack of ``m`` nodes of ``node_bytes`` each that fit
    ``STACK_BYTES``, at least one node per part."""
    size = max(1, STACK_BYTES // node_bytes)
    return [slice(s, s + size) for s in range(0, m, size)]


def _pad(u, left, right):
    um = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    um[..., :1] = left
    um[..., -1:] = right
    um[..., 1:-1] = u
    return um


def diffusion_residual(u, kap_half, h, source):
    um = _pad(u, 0.0, 0.0)
    flux = kap_half * (um[..., 1:] - um[..., :-1])
    return (flux[..., :-1] - flux[..., 1:]) / (h * h) - source


def diffusion_bands(kap_half, h):
    h2 = h * h
    dg = (kap_half[..., :-1] + kap_half[..., 1:]) / h2
    lo = np.zeros(dg.shape)
    up = np.zeros(dg.shape)
    lo[..., 1:] = -kap_half[..., 1:-1] / h2
    up[..., :-1] = -kap_half[..., 1:-1] / h2
    return lo, dg, up


def burgers_residual(u, ul, ur, nu, h, source):
    um = _pad(u, ul, ur)
    diff2 = um[..., 2:] - 2.0 * u + um[..., :-2]
    dcen = um[..., 2:] - um[..., :-2]
    return -nu * diff2 / (h * h) + u * dcen / (2.0 * h) - source


def burgers_bands(u, ul, ur, nu, h):
    h2 = h * h
    um = _pad(u, ul, ur)
    dg = 2.0 * nu / h2 + (um[..., 2:] - um[..., :-2]) / (2.0 * h)
    lo = np.zeros(u.shape)
    up = np.zeros(u.shape)
    lo[..., 1:] = -nu / h2 - u[..., 1:] / (2.0 * h)
    up[..., :-1] = -nu / h2 + u[..., :-1] / (2.0 * h)
    return lo, dg, up


def band_matvec(lo, dg, up, v):
    out = dg * v
    out[..., 1:] += lo[..., 1:] * v[..., :-1]
    out[..., :-1] += up[..., :-1] * v[..., 1:]
    return out


def band_t_matvec(lo, dg, up, v):
    out = dg * v
    out[..., 1:] += up[..., :-1] * v[..., :-1]
    out[..., :-1] += lo[..., 1:] * v[..., 1:]
    return out


def band_matmat(lo, dg, up, V):
    out = dg[..., None] * V
    out[..., 1:, :] += lo[..., 1:, None] * V[:-1]
    out[..., :-1, :] += up[..., :-1, None] * V[1:]
    return out


def band_t_matmat(lo, dg, up, V):
    out = dg[..., None] * V
    out[..., 1:, :] += up[..., :-1, None] * V[:-1]
    out[..., :-1, :] += lo[..., 1:, None] * V[1:]
    return out


def row_dot(x):
    """``x @ x`` of each row of ``x``, one BLAS dot per row.

    ``np.linalg.norm`` of a vector is the square root of this same dot,
    so ``sqrt(row_dot(x))`` is bitwise equal to the norm of each row; an
    axis reduction (``einsum``, ``sum``) is not.
    """
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def row_norm(x):
    """Euclidean norm of each row of ``x``, bitwise equal to
    ``np.linalg.norm`` of that row (see :func:`row_dot`)."""
    return np.sqrt(row_dot(x))


def band_solve(lo, dg, up, b):
    """Solve ``A x = b`` for tridiagonal ``A`` by one Thomas recurrence.

    One system: the bands are vectors and ``b`` is a vector or an
    ``n x k`` block of right-hand sides.  A stack: the bands and ``b``
    are ``(m, n)``, row ``i`` the system of node ``i``.  The recurrence
    runs as a Python loop over the ``n`` rows, on row elements that are
    floats for one system (at these sizes faster than numpy element
    access or dense LU), ``(k,)`` rows of a block, or ``(m,)`` columns
    across a stack.  Each is the same elementwise arithmetic, so every
    column of a block and every row of a stack is bitwise equal to its
    own one-system solve, and a stacked result is C-contiguous.

    There is no pivoting.  A zero pivot raises ``ZeroDivisionError`` for
    one system; in a stack it leaves that node's row non-finite, without
    a warning.  A singular or badly conditioned ``A`` can also return
    non-finite entries, so callers check.
    """
    if dg.ndim == 1 and b.ndim == 1:
        return np.array(_thomas(lo.tolist(), dg.tolist(), up.tolist(), b.tolist()))
    if dg.ndim == 1:
        rows = (lo.tolist(), dg.tolist(), up.tolist(), list(b))
    else:
        rows = (list(lo.T), list(dg.T), list(up.T), list(b.T))
    with np.errstate(all="ignore"):
        x = _thomas(*rows)
    return np.array(x) if dg.ndim == 1 else np.stack(x, axis=-1)


def _thomas(lo, dg, up, x):
    """The Thomas recurrence on lists of row elements; rebinds the
    entries of ``x`` (never updates them in place) and returns it."""
    n = len(dg)
    c = [0.0] * n
    piv = dg[0]
    c[0] = up[0] / piv
    x[0] = x[0] / piv
    for i in range(1, n):
        piv = dg[i] - lo[i] * c[i - 1]
        c[i] = up[i] / piv
        x[i] = (x[i] - lo[i] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - c[i] * x[i + 1]
    return x
