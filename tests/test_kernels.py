"""Every banded product must agree with the dense matrix it represents."""

import numpy as np
import pytest

from sgromtr import kernels


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


@pytest.mark.parametrize("name", ["band_matvec", "band_t_matvec",
                                  "band_matmat", "band_t_matmat"])
def test_band_products_match_dense(data, name):
    lo, dg, up = data["lo"], data["dg"], data["up"]
    a = kernels.band_to_dense(lo, dg, up)
    if "_t_" in name:
        a = a.T
    x = data["V"] if name.endswith("matmat") else data["v"]
    np.testing.assert_allclose(getattr(kernels, name)(lo, dg, up, x), a @ x,
                               rtol=1e-13)
