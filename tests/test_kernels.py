"""Every banded kernel must agree with the dense matrix it represents."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import band_to_dense
from sgromtr import kernels
from sgromtr.hdm import (BurgersControl, LinearDiffusion, primal_sensitivities,
                         solve_primal)


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


@pytest.mark.parametrize("name, stacked", [
    *[pytest.param(name, False, id=name) for name in PRODUCTS],
    *[pytest.param(name, True, id=f"{name}-stacked") for name in PRODUCTS]])
def test_band_products_match_dense(data, name, stacked):
    lo, dg, up = data["lo"], data["dg"], data["up"]
    a = band_to_dense(lo, dg, up)
    if "_t_" in name:
        a = a.T
    x = data["V"] if name.endswith("matmat") else data["v"]
    kernel = getattr(kernels, name)
    if not stacked:
        np.testing.assert_allclose(kernel(lo, dg, up, x), a @ x, rtol=1e-13)
        return
    # a stack of three band sets, one row per node, against the one-node calls
    bands = [np.stack([b, 0.5 * b, -b]) for b in (lo, dg, up)]
    out = kernel(*bands, x)
    assert out.shape == (3,) + x.shape
    for i in range(3):
        np.testing.assert_array_equal(out[i], kernel(*(b[i] for b in bands), x))


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
