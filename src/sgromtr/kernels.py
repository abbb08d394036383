"""Numpy kernels for the bundled 1D model problems.

Stencil residuals, tridiagonal Jacobian bands, banded matrix products
and the tridiagonal solve are the innermost operations of every solver
in this package: they run once per Newton or Gauss-Newton iteration at
every collocation node.  Each kernel but the solve is a handful of
whole-array numpy expressions over shifted slices.  The solve,
:func:`band_solve`, is one O(n) Thomas sweep, a recurrence that runs as
a Python loop over floats.  Callers look the kernels up as
``kernels.<name>`` at call time, so a wrapper installed on this module
(as ``perfbench``'s tracer does) sees every call.

Node axis: every kernel but the solve also takes a stack of nodes.
States and bands then have shape ``(m, n)``, the per-node scalars
(viscosity, inflow) are ``(m, 1)`` columns, the diffusion coefficient
is ``(m, n + 1)``, and a matrix operand ``V`` of shape ``(n, k)`` is
shared by all nodes, giving an ``(m, n, k)`` product.  Each row is
computed by the same elementwise operations as the one-node call, so it
is bitwise equal to it.

Band convention for a tridiagonal matrix ``A`` of order ``n``:
``lo[i] = A[i, i-1]`` (``lo[0]`` unused, zero), ``dg[i] = A[i, i]``,
``up[i] = A[i, i+1]`` (``up[n-1]`` unused, zero).
"""

from __future__ import annotations

import numpy as np


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


def band_solve(lo, dg, up, b):
    """Solve ``A x = b`` for tridiagonal ``A`` by one Thomas sweep.

    One node only: the bands are vectors.  ``b`` is a vector or an
    ``n x m`` block whose columns are solved in turn.  The sweep runs
    over Python floats, which at these sizes beats both numpy element
    access and dense LU.  There is no pivoting: a
    zero pivot raises ``ZeroDivisionError``, and a singular or badly
    conditioned ``A`` can return non-finite entries, so callers check.
    """
    if b.ndim == 2:
        x = np.empty_like(b)
        for j in range(b.shape[1]):
            x[:, j] = band_solve(lo, dg, up, b[:, j])
        return x
    lo, dg, up, x = lo.tolist(), dg.tolist(), up.tolist(), b.tolist()
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
        x[i] -= c[i] * x[i + 1]
    return np.array(x)
