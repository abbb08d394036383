import itertools

import numpy as np
import pytest
from hypothesis import settings

from sgromtr import kernels
from sgromtr.hdm import BurgersControl, LinearDiffusion

# the same examples on every run, so a tier-1 result can be reproduced
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def lin():
    return LinearDiffusion()


@pytest.fixture(scope="session")
def lin_small():
    return LinearDiffusion(n_u=15)


@pytest.fixture(scope="session")
def bur():
    return BurgersControl()


@pytest.fixture(scope="session")
def lin_deterministic():
    """y-independent instance: a plain quadratic control problem."""
    return LinearDiffusion(kappa_amp=(0.0, 0.0))


def band_to_dense(lo, dg, up):
    """Dense matrix of tridiagonal bands: the reference for the banded kernels."""
    n = dg.shape[0]
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = dg
    a[idx[1:], idx[:-1]] = lo[1:]
    a[idx[:-1], idx[1:]] = up[:-1]
    return a


def diffusion_residual(u, kap_half, h, source):
    """The plain numpy expression that ``kernels.diffusion_residual``
    evaluates mostly in place: the reference it must equal bitwise."""
    um = kernels._pad(u, 0.0, 0.0)
    flux = kap_half * (um[..., 1:] - um[..., :-1])
    return (flux[..., :-1] - flux[..., 1:]) / (h * h) - source


def burgers_residual(u, ul, ur, nu, h, source):
    """The plain numpy expression that ``kernels.burgers_residual``
    evaluates mostly in place: the reference it must equal bitwise."""
    um = kernels._pad(u, ul, ur)
    diff2 = um[..., 2:] - 2.0 * u + um[..., :-2]
    dcen = um[..., 2:] - um[..., :-2]
    return -nu * diff2 / (h * h) + u * dcen / (2.0 * h) - source


def burgers_bands(u, ul, ur, nu, h):
    """The plain numpy expression of the Burgers Jacobian bands that
    ``kernels.burgers_bands`` evaluates in place: the reference it must
    equal bitwise."""
    h2 = h * h
    um = kernels._pad(u, ul, ur)
    dg = 2.0 * nu / h2 + (um[..., 2:] - um[..., :-2]) / (2.0 * h)
    lo = np.zeros(u.shape)
    up = np.zeros(u.shape)
    lo[..., 1:] = -nu / h2 - u[..., 1:] / (2.0 * h)
    up[..., :-1] = -nu / h2 + u[..., :-1] / (2.0 * h)
    return lo, dg, up


def combination_coefficients(mis):
    """Coefficient ``sum_z (-1)^|z|`` over every bump ``z`` in ``{0, 1}^d``
    with ``idx + z`` in the set, for each index in sorted order, the zeros
    left out: the brute-force reference for
    ``sparse_grid._combination_coefficients``, at ``2^d`` set lookups per
    index."""
    coeffs = {}
    for idx in mis.sorted_indices:
        c = 0
        for bump in itertools.product((0, 1), repeat=mis.dim):
            shifted = tuple(i + b for i, b in zip(idx, bump))
            if shifted in mis.indices:
                c += -1 if sum(bump) % 2 else 1
        if c != 0:
            coeffs[idx] = float(c)
    return coeffs


def quadratic_minimizer(problem, y=None):
    """Normal-equation minimizer of F(y, .) for an affine-in-state problem;
    ``y`` is a node as a stack of one (the origin if None)."""
    from sgromtr.hdm import primal_sensitivities, solve_primal

    y = np.zeros((1, problem.n_y)) if y is None else y
    mu0 = np.zeros(problem.n_mu)
    sol = solve_primal(problem, y, mu0)
    sens = primal_sensitivities(problem, sol.u, y, mu0)[0].T
    m = problem.h * np.eye(problem.n_u)
    a = sens.T @ m @ sens + problem.alpha * np.eye(problem.n_mu)
    b = -sens.T @ m @ (sol.u[0] - problem.ref)
    return np.linalg.solve(a, b)


def stub_tensor_reference(monkeypatch, objective, fails=lambda mu: False):
    """Replace ``oracle.tensor_reference``, which SG-ISO evaluates, by
    ``objective(mu) -> (J, grad)``.

    Returns the list of the points evaluated, in order.  A point where
    ``fails(mu)`` raises ``SolverError`` and tallies nothing; every other
    one tallies one primal and one adjoint solve, as one node would.
    """
    from sgromtr import oracle
    from sgromtr.hdm import SolverError

    points = []

    def reference(problem, mu, level, counters=None, warm=None):
        points.append(np.array(mu, dtype=float))
        if fails(mu):
            raise SolverError("injected")
        counters.n_hp += 1
        counters.n_ha += 1
        return objective(mu)

    monkeypatch.setattr(oracle, "tensor_reference", reference)
    return points


def recorded_stack_sizes(problem, monkeypatch):
    """The node counts of every ``residual`` and ``jac_bands`` call that
    ``problem`` takes from here on, by method name."""
    sizes = {}

    def recorded(name):
        method = getattr(problem, name)

        def wrapper(u, y, mu):
            sizes.setdefault(name, []).append(len(y))
            return method(u, y, mu)
        return wrapper

    for name in ("residual", "jac_bands"):
        monkeypatch.setitem(vars(problem), name, recorded(name))
    return sizes
