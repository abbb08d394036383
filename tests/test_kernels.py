"""Every banded kernel must agree with the dense matrix it represents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import band_to_dense
from sgromtr import kernels
from sgromtr.hdm import BurgersControl, LinearDiffusion, solve_primal


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


@pytest.mark.parametrize("name", ["band_matvec", "band_t_matvec",
                                  "band_matmat", "band_t_matmat"])
def test_band_products_match_dense(data, name):
    lo, dg, up = data["lo"], data["dg"], data["up"]
    a = band_to_dense(lo, dg, up)
    if "_t_" in name:
        a = a.T
    x = data["V"] if name.endswith("matmat") else data["v"]
    np.testing.assert_allclose(getattr(kernels, name)(lo, dg, up, x), a @ x,
                               rtol=1e-13)


@pytest.mark.parametrize("case", ["vector", "transposed", "block"])
def test_band_solve_matches_dense(data, case):
    bands = (data["lo"], data["dg"], data["up"])
    if case == "transposed":
        bands = transposed(*bands)
    b = data["V"] if case == "block" else data["v"]
    expected = np.linalg.solve(band_to_dense(*bands), b)
    np.testing.assert_allclose(kernels.band_solve(*bands, b), expected,
                               rtol=1e-13, atol=1e-13 * np.abs(expected).max())


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
    x = kernels.band_solve(lo, dg, up, b)
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
        y = rng.uniform(-1.0, 1.0, problem.n_y)
        mu = rng.uniform(-box, box, problem.n_mu)
        bands = problem.jac_bands(solve_primal(problem, y, mu).u, y, mu)
        b = rng.standard_normal(problem.n_u)
        for lo, dg, up in (bands, transposed(*bands)):
            x = kernels.band_solve(lo, dg, up, b)
            res = band_to_dense(lo, dg, up) @ x - b
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)
