"""Every banded kernel must agree with the dense matrix it represents."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import conftest
from conftest import band_to_dense
from sgromtr import kernels
from sgromtr.hdm import (BurgersControl, LinearDiffusion, primal_sensitivities,
                         solve_adjoint, solve_primal)
from sgromtr.rom import ReducedBasis, solve_rom_adjoint, solve_rom_primal


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    n, k = 41, 6
    return {
        "V": rng.standard_normal((n, k)),
        "v": rng.standard_normal(n),
        "lo": np.concatenate([[0.0], rng.standard_normal(n - 1)]),
        "dg": rng.standard_normal(n),
        "up": np.concatenate([rng.standard_normal(n - 1), [0.0]]),
    }


def transposed(lo, dg, up):
    """Bands of the transpose: lo_t[i] = up[i-1], up_t[i] = lo[i+1]."""
    return np.append(0.0, up[:-1]), dg, np.append(lo[1:], 0.0)


PRODUCTS = ["band_matvec", "band_t_matvec", "band_matmat", "band_t_matmat"]


def product(name, lo, dg, up, x):
    """A band product; the matrix products read the window of ``x`` and
    write into fresh arrays."""
    if name.endswith("matvec"):
        return getattr(kernels, name)(lo, dg, up, x)
    return getattr(kernels, name)(lo, dg, up, kernels.row_window(x),
                                  np.empty(dg.shape + x.shape[1:]))


@pytest.mark.parametrize("name, stacked", [
    *[pytest.param(name, False, id=name) for name in PRODUCTS],
    *[pytest.param(name, True, id=f"{name}-stacked") for name in PRODUCTS]])
def test_band_products_match_dense(data, name, stacked):
    lo, dg, up = data["lo"], data["dg"], data["up"]
    a = band_to_dense(lo, dg, up)
    if "_t_" in name:
        a = a.T
    x = data["V"] if name.endswith("matmat") else data["v"]
    if not stacked:
        np.testing.assert_allclose(product(name, lo, dg, up, x), a @ x, rtol=1e-13)
        return
    # a stack of three band sets, one row per node, against the one-node calls
    bands = [np.stack([b, 0.5 * b, -b]) for b in (lo, dg, up)]
    out = product(name, *bands, x)
    assert out.shape == (3,) + x.shape
    for i in range(3):
        np.testing.assert_array_equal(out[i], product(name, *(b[i] for b in bands), x))


@pytest.mark.parametrize("m", [1, 7, 145])
@pytest.mark.parametrize("name", ["burgers_residual", "diffusion_residual"])
def test_residual_kernel_matches_its_expression(name, m):
    # the in-place kernel makes the expression's operations in its order,
    # so every row is bitwise equal to it, with per-node coefficient
    # columns and, for one node, plain scalars and a one-dimensional state
    rng = np.random.default_rng(m)
    n = 100   # h not a power of two, so that reordered scalings show
    h = 1.0 / (n + 1)
    u = rng.standard_normal((m, n))
    source = rng.standard_normal(n)
    if name == "burgers_residual":
        cases = [(u, 1.0 + 0.25 * rng.uniform(-1, 1, (m, 1)), 0.0,
                  1.0 / rng.uniform(10.0, 65.0, (m, 1)), h, source)]
        if m == 1:
            cases.append((u, 1.1, 0.0, 0.03, h, source))
            cases.append((u[0],) + cases[0][1:])
    else:
        cases = [(u, 1.0 + 0.5 * rng.uniform(-1, 1, (m, n + 1)), h, source)]
        if m == 1:
            cases.append((u[0],) + cases[0][1:])
    for args in cases:
        out = getattr(kernels, name)(*args)
        assert out.shape == (m, n)
        np.testing.assert_array_equal(out, getattr(conftest, name)(*args))


@pytest.mark.parametrize("m", [1, 7, 145])
def test_burgers_bands_match_their_expression(m):
    # made in place, the bands are bitwise the plain expression, with
    # per-node coefficient columns and, for one node, plain scalars on a
    # stack of one and on a one-dimensional state
    rng = np.random.default_rng(m)
    n = 100
    h = 1.0 / (n + 1)
    u = rng.standard_normal((m, n))
    cases = [(u, 1.0 + 0.25 * rng.uniform(-1, 1, (m, 1)), 0.0,
              1.0 / rng.uniform(10.0, 65.0, (m, 1)), h)]
    if m == 1:
        cases.append((u, 1.1, 0.3, 0.03, h))
        cases.append((u[0],) + cases[1][1:])
    for args in cases:
        bands = kernels.burgers_bands(*args)
        for got, want in zip(bands, conftest.burgers_bands(*args)):
            assert got.shape == args[0].shape
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ["band_matmat", "band_t_matmat"])
def test_band_matmat_into_used_arrays(data, name):
    # the leading rows of a NaN-filled output array, as a reused workspace
    # holds them: none of their old contents reaches the product, which
    # is bitwise the same call into a fresh array and the dense product
    # to round-off, and the rows past the stack are left alone
    bands = [np.stack([b, 0.5 * b, -b]) for b in (data["lo"], data["dg"], data["up"])]
    V = data["V"]
    W = kernels.row_window(V)
    product = getattr(kernels, name)
    out = np.full((5,) + V.shape, np.nan)
    got = product(*bands, W, out[:3])
    assert np.shares_memory(got, out) and got.shape == (3,) + V.shape
    np.testing.assert_array_equal(got, product(*bands, W, np.empty((3,) + V.shape)))
    for i in range(3):
        a = band_to_dense(*(b[i] for b in bands))
        np.testing.assert_allclose(got[i], (a.T if "_t_" in name else a) @ V, rtol=1e-13)
    assert np.isnan(out[3:]).all()


@pytest.mark.parametrize("m", [1, 2, 3, 8, 33])
@pytest.mark.parametrize("name", ["band_matmat", "band_t_matmat"])
def test_band_matmat_rows_equal_their_stacks_of_one(name, m):
    # at the default Burgers sizes, every row of a stack is bitwise its
    # node's product as a stack of one.  The unused corners lo[0] and
    # up[n-1] are NaN, and so is every used row of the output: neither
    # reaches a product
    rng = np.random.default_rng(60 + m)
    n, k = 127, 47
    W = kernels.row_window(rng.standard_normal((n, k)))
    lo, dg, up = rng.standard_normal((3, m, n))
    lo[:, 0] = up[:, -1] = np.nan
    product = getattr(kernels, name)
    stack = product(lo, dg, up, W, np.full((m, n, k), np.nan))
    assert np.isfinite(stack).all()
    for i in range(m):
        one = product(lo[[i]], dg[[i]], up[[i]], W, np.full((1, n, k), np.nan))
        np.testing.assert_array_equal(stack[i], one[0])


def _one_row(bands, b):
    """The solve of one system given as a stack of one, as its row."""
    return kernels.band_solve(*(a[None] for a in bands), b[None])[0]


@pytest.mark.parametrize("case", ["one-row", "transposed", "stacked"])
def test_band_solve_matches_dense(data, case):
    bands = (data["lo"], data["dg"], data["up"])
    if case == "transposed":
        bands = transposed(*bands)
    if case != "stacked":
        expected = np.linalg.solve(band_to_dense(*bands), data["v"])
        x = kernels.band_solve(*(b[None] for b in bands), data["v"][None])
        assert x.shape == (1, len(expected))
        np.testing.assert_allclose(x[0], expected,
                                   rtol=1e-13, atol=1e-13 * np.abs(expected).max())
        return
    # three systems, one row per node: each row is bitwise equal to its
    # own stack of one, and the stack comes back C-contiguous
    bands = [np.stack([b, 0.5 * b, -b]) for b in bands]
    rhs = np.stack([data["v"], data["v"][::-1], 2.0 * data["v"]])
    x = kernels.band_solve(*bands, rhs)
    assert x.shape == rhs.shape and x.flags.c_contiguous
    for i in range(3):
        one = [b[i] for b in bands]
        np.testing.assert_array_equal(x[i], _one_row(one, rhs[i]))
        expected = np.linalg.solve(band_to_dense(*one), rhs[i])
        np.testing.assert_allclose(x[i], expected, rtol=1e-13,
                                   atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("rows", [1, 3])
def test_band_solve_zero_pivot_is_a_non_finite_row(data, rows):
    # no pivoting: a zero first pivot leaves its system's row non-finite,
    # with no exception and no warning, and the other rows solve
    bands = [np.stack([b] * rows) for b in (data["lo"], data["dg"], data["up"])]
    bands[1][0, 0] = 0.0
    rhs = np.stack([data["v"]] * rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = kernels.band_solve(*bands, rhs)
    assert x.shape == rhs.shape
    assert not np.isfinite(x[0]).any()
    for i in range(1, rows):
        np.testing.assert_array_equal(x[i], _one_row([b[i] for b in bands], rhs[i]))


@pytest.mark.parametrize("cls", [LinearDiffusion, BurgersControl],
                         ids=lambda c: c.name)
def test_sensitivities_equal_their_column_solves(cls, lin, bur):
    # a node's n_mu right-hand sides are one stack against its bands:
    # each sensitivity is bitwise its own solve, at every node of a stack
    problem = lin if cls is LinearDiffusion else bur
    ys = np.array([[0.0, 0.0], [0.4, -0.7]])
    mu = np.zeros(problem.n_mu)
    u = solve_primal(problem, ys, mu).u
    sens = primal_sensitivities(problem, u, ys, mu)
    assert sens.shape == (2, problem.n_mu, problem.n_u)
    rhs = -problem.jac_mu(u, ys, mu).T
    for i, bands in enumerate(zip(*problem.jac_bands(u, ys, mu))):
        for j in range(problem.n_mu):
            np.testing.assert_array_equal(sens[i, j], _one_row(bands, rhs[j]))


unit = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_band_solve_diagonally_dominant(draw):
    # strict diagonal dominance by a margin of at least 0.1 bounds
    # ||A^-1|| by 10, so the sweep must match the dense solve closely
    n = draw.draw(st.integers(1, 200), label="n")
    lo = draw.draw(arrays(np.float64, n, elements=unit), label="lo")
    up = draw.draw(arrays(np.float64, n, elements=unit), label="up")
    b = draw.draw(arrays(np.float64, n, elements=unit), label="b")
    margin = draw.draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)),
                       label="margin")
    sign = draw.draw(arrays(bool, n), label="sign")
    lo[0] = up[-1] = 0.0
    dg = np.where(sign, 1.0, -1.0) * (np.abs(lo) + np.abs(up) + margin)
    x = _one_row((lo, dg, up), b)
    expected = np.linalg.solve(band_to_dense(lo, dg, up), b)
    tol = 1e-12 * (np.abs(expected).max() + np.abs(b).max())
    assert np.abs(x - expected).max() <= tol


@pytest.mark.parametrize("cls", [LinearDiffusion, BurgersControl],
                         ids=lambda c: c.name)
def test_band_solve_on_converged_jacobians(cls, lin, bur):
    # the Burgers Jacobians are not diagonally dominant (the worst row
    # of these draws has |d| - |l| - |u| = -26), so the sweep without
    # pivoting is checked where the solvers use it: at converged states
    problem = lin if cls is LinearDiffusion else bur
    rng = np.random.default_rng(53)
    box = problem.mu_sample_halfwidth
    for _ in range(8):
        y = rng.uniform(-1.0, 1.0, (1, problem.n_y))
        mu = rng.uniform(-box, box, problem.n_mu)
        bands = [a[0] for a in problem.jac_bands(solve_primal(problem, y, mu).u, y, mu)]
        b = rng.standard_normal(problem.n_u)
        for lo, dg, up in (bands, transposed(*bands)):
            x = _one_row((lo, dg, up), b)
            res = band_to_dense(lo, dg, up) @ x - b
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)


def test_roundoff_scale_matches_dense(data):
    # || |A||u| + |f| || of each row, against the dense matrix
    lo, dg, up, v = data["lo"], data["dg"], data["up"], data["v"]
    f = data["V"][:, 0]
    expected = np.linalg.norm(np.abs(band_to_dense(lo, dg, up)) @ np.abs(v) + np.abs(f))
    got = kernels.roundoff_scale(*(b[None] for b in (lo, dg, up)), v[None], f)
    assert got.shape == (1,)
    np.testing.assert_allclose(got[0], expected, rtol=1e-14)
    # made in place, it is bitwise the expression it stands for
    plain = kernels.band_matvec(np.abs(lo), np.abs(dg), np.abs(up), np.abs(v)) + np.abs(f)
    assert got[0] == kernels.row_norm(plain[None])[0]


def test_stack_parts_are_balanced_and_fit(monkeypatch):
    # the fewest parts that fit the budget (one node when a node alone
    # does not, one empty part for an empty stack), covering the stack
    # in order, with sizes that differ by at most one and the larger first
    monkeypatch.setattr(kernels, "STACK_BYTES", 1000)
    for node_bytes in (1, 7, 99, 100, 101, 333, 999, 1000, 1001, 5000):
        cap = max(1, 1000 // node_bytes)
        for m in range(60):
            parts = kernels.stack_parts(m, node_bytes)
            sizes = [p.stop - p.start for p in parts]
            assert [i for p in parts for i in range(p.start, p.stop)] == list(range(m))
            assert len(parts) == max(1, -(-m // cap))
            assert sizes == sorted(sizes, reverse=True)
            assert not sizes or sizes[0] - sizes[-1] <= 1
            assert all(s * node_bytes <= 1000 or s == 1 for s in sizes)


@pytest.mark.parametrize("solver", ["solve_primal", "solve_adjoint",
                                    "solve_rom_primal", "solve_rom_adjoint"])
def test_empty_stack_solves_to_empty_arrays(solver):
    # a (0, n_y) stack is one empty part: every stacked solver returns
    # empty arrays of the right shapes, without a warning
    problem = LinearDiffusion(n_u=15)
    n_u, mu = problem.n_u, np.full(problem.n_mu, 0.3)
    basis = ReducedBasis(n_u)
    basis.append_snapshots([solve_primal(problem, np.zeros((1, 2)), mu).u[0]],
                           ["primal"], np.zeros(2), mu)
    ys = np.zeros((0, 2))
    calls = {
        "solve_primal": (lambda: solve_primal(problem, ys, mu),
                         {"u": (0, n_u), "residual_norm": (0,), "iters": (0,)}),
        "solve_adjoint": (lambda: solve_adjoint(problem, np.zeros((0, n_u)), ys, mu),
                          {"lam": (0, n_u), "residual_norm": (0,)}),
        "solve_rom_primal": (lambda: solve_rom_primal(problem, basis, ys, mu),
                             {"q": (0, 1), "residual_norm": (0,), "iters": (0,),
                              "stalled": (0,), "failed": (0,)}),
        "solve_rom_adjoint": (lambda: solve_rom_adjoint(problem, basis, np.zeros((0, 1)),
                                                        ys, mu),
                              {"eta": (0, 1), "residual_norm": (0,)}),
    }
    call, shapes = calls[solver]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = call()
    for field, shape in shapes.items():
        assert getattr(result, field).shape == shape
