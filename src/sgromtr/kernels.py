"""Numpy kernels for the bundled 1D model problems.

Stencil residuals, tridiagonal Jacobian bands, banded products and the
tridiagonal solve are the innermost operations of every solver in this
package: they run once per Newton or Gauss-Newton iteration at every
collocation node.  The residual, band and matrix-vector kernels are a
handful of whole-array numpy operations over shifted slices.  The
residual kernels and the Burgers bands make the operations of their
plain expression, in its order, mostly in place: a residual call holds
at most three arrays (the padded state, the result and one scratch
array), where the expression allocates six (diffusion) or eleven
(Burgers), and a Burgers band call its three bands and per-node
columns (``tracemalloc`` peaks of 4.4 arrays of ``n`` per node on 145
nodes, where the expression's is 6.5).  The
matrix-matrix products :func:`band_matmat` and :func:`band_t_matmat`
stack the three band entries of each row and multiply them, one
``(1 x 3) @ (3 x k)`` BLAS product per row, with the row's window of
the matrix operand: its rows ``i - 1, i, i + 1``, zero-padded at the
ends (:func:`row_window`).  The solve, :func:`band_solve`, is one O(n)
Thomas recurrence, a Python loop over the rows of the system.  Callers
look the kernels up as ``kernels.<name>`` at call time, so a wrapper
installed on this module (as ``perfbench``'s tracer does) sees every
call.

Node axis: the model problems call every kernel on a stack of nodes,
and one node is a stack of one.  States and bands have shape
``(m, n)``, the per-node scalars (viscosity, inflow) are ``(m, 1)``
columns, the diffusion coefficient is ``(m, n + 1)``, and a matrix
operand ``V`` of shape ``(n, k)``, given by its ``(n, 3, k)`` window,
is shared by all nodes, giving an ``(m, n, k)`` product.  Each row is
computed by the same elementwise operations, or the same BLAS call,
whatever ``m`` is, so it is bitwise equal to its own one-row call.
(A row-batched product, one ``(m x 3) @ (3 x k)`` per row ``i``, is
not: it is a matrix-vector product for one node and a matrix-matrix
product for several, which round differently.)  Both solvers
backtrack by :func:`halve_until_decrease`, one residual call per step
length on the rows of a stack that still search.  They sweep their
whole stack at once, so its arrays of ``n`` grow with it (see
``hdm`` and ``rom``).  The one cut is :func:`stack_parts`: the reduced
solves run their ``(n, k)`` algebra, on the nodes that take a step, in
chunks that fit ``STACK_BYTES``, each node of a chunk holding ``k``
columns of ``n`` of the chunk's own ``J Phi`` or ``J^T Phi``, which a
matrix product returns and the chunk drops, and, at its peak, the three
bands of its product, or the ``[J Phi | r]`` that a QR step builds and
numpy's copy of it, and the ``k x k`` normal equations: about ``3k +
3`` columns of ``n`` and two ``(k + 1) x (k + 1)`` blocks
(``rom._chunk_bytes``).  The sparse-grid warm starts of new nodes are
cut into blocks in the same way (``adapt``).  The stationarity tests of
a reduced solve need no ``(n, k)`` product: ``A^T r``
(:func:`band_t_matvec`) and per-row dots (:func:`row_dot`) test every
node.

Band convention for a tridiagonal matrix ``A`` of order ``n``:
``lo[i] = A[i, i-1]`` (``lo[0]`` unused, zero), ``dg[i] = A[i, i]``,
``up[i] = A[i, i+1]`` (``up[n-1]`` unused, zero).  The matrix products
never read the unused entries.
"""

from __future__ import annotations

import numpy as np

#: Bytes that one chunk of the ``n x k`` algebra of a reduced solve, or
#: one block of sparse-grid warm starts, may hold at its peak.  At n = 127
#: this puts eight nodes at k = 47 in one chunk.
STACK_BYTES = 3 * 2 ** 19


def stack_parts(m, node_bytes):
    """Slices of a stack of ``m`` nodes of ``node_bytes`` each into the
    fewest parts that fit ``STACK_BYTES``, at least one node per part
    (an empty stack is one empty part).  The parts are balanced, their
    sizes differing by at most one, and the larger come first, so the
    first part is as large as any."""
    count = max(1, -(-m // max(1, STACK_BYTES // node_bytes)))
    size, extra = divmod(m, count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def halve_until_decrease(residual, x, r, rnorm, step, open_):
    """Backtracking line search on a stack: each row takes its first step
    length ``t = 1, 2^-1, ..., 2^-29`` whose trial ``x + t step`` has a
    residual norm below its ``rnorm`` (Dennis & Schnabel 1996, *Numerical
    Methods for Unconstrained Optimization*, §6.3).

    ``residual(x_t, rows)`` is the residual of the trial states ``x_t``
    of the rows ``rows`` (indices into the stack), one row each.  The
    full step is tried at every row.  Each halving is tried, by one
    residual call, at the rows that have not decreased and that
    ``open_(rows, t)``, a mask over ``rows``, keeps open; a row it closes
    stays closed.  A row that decreases takes its trial into its rows of
    ``x``, ``r`` and ``rnorm``, in place, and is evaluated at no later
    step length, so no trial outlives its step length.  A row's trial is
    the same arithmetic in any stack, so it is bitwise equal to its
    one-row call.  Returns the mask of the rows that decreased."""
    found = np.zeros(len(x), bool)
    left = np.arange(len(x))
    for t in np.ldexp(1.0, -np.arange(30)):          # 1, 2^-1, ..., 2^-29
        if t < 1.0:
            left = left[open_(left, t)]
            if not left.size:
                break
            x_t = x[left] + t * step[left]
        else:
            x_t = x + step
        r_t = residual(x_t, left)
        rn_t = row_norm(r_t)
        down = rn_t < rnorm[left]
        hit = left[down]
        if hit.size == len(x):
            x[...], r[...], rnorm[...] = x_t, r_t, rn_t
        else:
            x[hit], r[hit], rnorm[hit] = x_t[down], r_t[down], rn_t[down]
        found[hit] = True
        left = left[~down]
        del x_t, r_t                       # before open_ and the next trial
        if not left.size:
            break
    return found


def _pad(u, left, right):
    um = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    um[..., :1] = left
    um[..., -1:] = right
    um[..., 1:-1] = u
    return um


def diffusion_residual(u, kap_half, h, source):
    um = _pad(u, 0.0, 0.0)
    flux = kap_half * (um[..., 1:] - um[..., :-1])
    out = flux[..., :-1] - flux[..., 1:]
    out /= h * h
    out -= source
    return out


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
    out = 2.0 * u
    np.subtract(um[..., 2:], out, out=out)
    out += um[..., :-2]                # second difference
    out = -nu * out                    # the result, of the broadcast shape
    out /= h * h
    tmp = um[..., 2:] - um[..., :-2]   # central difference
    tmp *= u
    tmp /= 2.0 * h
    out += tmp
    out -= source
    return out


def burgers_bands(u, ul, ur, nu, h):
    h2 = h * h
    # the central difference of the padded state, without padding it
    dg = np.empty(u.shape)
    np.subtract(u[..., 2:], u[..., :-2], out=dg[..., 1:-1])
    np.subtract(u[..., 1:2], ul, out=dg[..., :1])
    np.subtract(ur, u[..., -2:-1], out=dg[..., -1:])
    dg /= 2.0 * h
    dg += 2.0 * nu / h2
    c = -nu / h2
    lo = np.empty(u.shape)
    lo[..., 0] = 0.0
    np.divide(u[..., 1:], 2.0 * h, out=lo[..., 1:])
    np.subtract(c, lo[..., 1:], out=lo[..., 1:])
    up = np.empty(u.shape)
    up[..., -1] = 0.0
    np.divide(u[..., :-1], 2.0 * h, out=up[..., :-1])
    up[..., :-1] += c
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


def row_window(V):
    """The ``(n, 3, k)`` window of an ``(n, k)`` matrix ``V`` that
    :func:`band_matmat` and :func:`band_t_matmat` read: ``W[i]`` holds
    rows ``i - 1, i, i + 1`` of ``V``, zero rows outside it.  A read-only
    view of one zero-padded copy of ``V``."""
    pad = np.zeros((len(V) + 2,) + V.shape[1:])
    pad[1:-1] = V
    return np.lib.stride_tricks.sliding_window_view(pad, 3, axis=0).swapaxes(-1, -2)


def band_matmat(lo, dg, up, W):
    """``A @ V``, for the window ``W`` of ``V`` (:func:`row_window`): a
    new ``(m, n, k)`` array."""
    return _window_rows(lo[..., 1:], dg, up[..., :-1], W)


def band_t_matmat(lo, dg, up, W):
    """``A^T @ V``, as :func:`band_matmat` does."""
    return _window_rows(up[..., :-1], dg, lo[..., 1:], W)


def _window_rows(below, dg, above, W):
    """Row ``i`` of the product is ``(below_i, dg_i, above_i) @ W[i]``, with
    ``below`` given from row 1 and ``above`` up to row ``n - 2`` (a zero
    coefficient elsewhere): one BLAS vector-matrix product per row of
    every node, the same call at any stack size."""
    b = np.empty(dg.shape + (3,))
    b[..., 0, 0] = 0.0
    b[..., 1:, 0] = below
    b[..., 1] = dg
    b[..., :-1, 2] = above
    b[..., -1, 2] = 0.0
    return (b[..., None, :] @ W)[..., 0, :]


def roundoff_scale(lo, dg, up, u, f):
    """``|| |A||u| + |f| ||`` of each row: the size of the terms that a
    residual ``A u - f`` with the tridiagonal ``A`` of these bands sums.
    Floating point knows that residual only to about ``eps`` times this
    (the rounding bound of a sum), so the solvers stop there.  The
    operations are those of :func:`band_matvec` on the absolute values,
    in its order, made in place: three arrays of the state's shape are
    live, where the expression holds six.  The adds into strided slices
    (``out[..., 1:] += tmp``) take two numpy buffers more, each the
    smaller of one such array and 64 KiB, so the call peaks at five
    arrays on small stacks (``tracemalloc``: 5.0 at 64 x 127, 3.9 at 145
    x 127)."""
    v = np.abs(u)
    out = np.abs(dg)
    out *= v
    tmp = np.abs(lo[..., 1:])
    tmp *= v[..., :-1]
    out[..., 1:] += tmp
    np.abs(up[..., :-1], out=tmp)
    tmp *= v[..., 1:]
    out[..., :-1] += tmp
    out += np.abs(f)
    return row_norm(out)


def row_dot(x, y=None):
    """``x @ y`` of each row of ``x`` and the same row of ``y`` (``x @ x``
    by default), one BLAS dot per row, so each row is bitwise equal to its
    one-row call.

    ``np.linalg.norm`` of a vector is the square root of this same dot,
    so ``sqrt(row_dot(x))`` is bitwise equal to the norm of each row; an
    axis reduction (``einsum``, ``sum``) is not.
    """
    y = x if y is None else y
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def row_norm(x):
    """Euclidean norm of each row of ``x``, bitwise equal to
    ``np.linalg.norm`` of that row (see :func:`row_dot`)."""
    return np.sqrt(row_dot(x))


def band_solve(lo, dg, up, b):
    """Solve ``A x = b`` for tridiagonal ``A`` by one Thomas recurrence.

    The bands and ``b`` are stacks of one shape ``(..., n)``, each row
    one system.  The recurrence is a Python loop over the ``n`` rows of
    the systems, with two paths chosen by the number of systems.  One
    system (a stack of one) runs it on floats, which at these sizes is
    faster than numpy element access or dense LU.  Several run it on
    arrays of row elements, one entry per system.  Both are the same
    elementwise arithmetic, so every row of a stack is bitwise equal to
    its own stack of one, and the result is C-contiguous.

    There is no pivoting.  A zero pivot leaves that system's row
    non-finite, without an exception or a warning.  A singular or badly
    conditioned ``A`` can also return non-finite entries, so callers
    check.
    """
    n = b.shape[-1]
    if b.size == n:
        try:
            x = _thomas(*(a.reshape(n).tolist() for a in (lo, dg, up, b)))
        except ZeroDivisionError:
            return np.full(b.shape, np.nan)
        return np.array(x).reshape(b.shape)
    rows = [list(a.reshape(-1, n).T) for a in (lo, dg, up, b)]
    with np.errstate(all="ignore"):
        x = _thomas(*rows)
    return np.stack(x, axis=-1).reshape(b.shape)


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
