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
