"""Model-problem surfaces: residuals, Jacobians, solvers, adjoint gradient."""

import warnings

import numpy as np
import pytest

from conftest import band_to_dense
from sgromtr import hdm, kernels
from sgromtr.hdm import (BurgersControl, LinearDiffusion,
                         QueryCounters, SolverError, adjoint_gradient,
                         adjoint_residual, make_problem, primal_sensitivities,
                         solve_adjoint, solve_primal)


def sample_point(problem, seed=0):
    """A random node, as a stack of one, and parameter."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, (1, problem.n_y))
    mu = rng.uniform(-problem.mu_sample_halfwidth, problem.mu_sample_halfwidth,
                     problem.n_mu)
    return y, mu


def restricted_qoi(problem, y, mu):
    sol = solve_primal(problem, y, mu)
    return problem.qoi(sol.u, y, mu)[0]


def dense_jacobian(problem, u, y, mu):
    """The dense Jacobian at a stack of one."""
    return band_to_dense(*(b[0] for b in problem.jac_bands(u, y, mu)))


# ---------------------------------------------------------------------------
# residual and Jacobians
# ---------------------------------------------------------------------------

def test_burgers_zero_data_zero_residual():
    # zero boundary values and zero source annihilate every term
    n = 31
    r = kernels.burgers_residual(np.zeros(n), 0.0, 0.0, 0.05, 1.0 / (n + 1),
                                 np.zeros(n))
    np.testing.assert_array_equal(r, np.zeros(n))


def test_diffusion_residual_is_affine(lin):
    y, mu = sample_point(lin, 1)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((1, lin.n_u))
    r_u = lin.residual(u, y, mu)
    r_0 = lin.residual(np.zeros((1, lin.n_u)), y, mu)
    a = dense_jacobian(lin, u, y, mu)
    np.testing.assert_allclose((r_u - r_0)[0], a @ u[0], rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("prob_name", [
    "linear-diffusion", "burgers-control",
    "linear-diffusion-stacked", "burgers-control-stacked"])
def test_jacobian_taylor_consistency(prob_name, lin, bur):
    problem = lin if prob_name.startswith("linear-diffusion") else bur
    rng = np.random.default_rng(5)
    y, mu = sample_point(problem, 3)
    u = rng.standard_normal((1, problem.n_u))
    v = rng.standard_normal((1, problem.n_u))
    if prob_name.endswith("-stacked"):
        # three nodes with their own states: every row of the residual, the
        # bands and the products with a shared basis equals its stack of one
        ys = np.concatenate([y, -y, [[0.3, -0.9]]])
        us = np.concatenate([u, 0.5 * u, v])
        basis = rng.standard_normal((problem.n_u, 4))

        def products(bands):
            shape = (len(bands[0]),) + basis.shape
            return [getattr(kernels, name)(*bands, kernels.row_window(basis),
                                           np.empty(shape))
                    for name in ("band_matmat", "band_t_matmat")]

        stacked = (problem.residual(us, ys, mu), *problem.jac_bands(us, ys, mu),
                   *products(problem.jac_bands(us, ys, mu)), problem.qoi(us, ys, mu))
        for i in range(3):
            one = [i]
            single = (problem.residual(us[one], ys[one], mu),
                      *problem.jac_bands(us[one], ys[one], mu),
                      *products(problem.jac_bands(us[one], ys[one], mu)),
                      problem.qoi(us[one], ys[one], mu))
            for rows, row in zip(stacked, single):
                np.testing.assert_array_equal(rows[i], row[0])
        return
    jv = kernels.band_matvec(*problem.jac_bands(u, y, mu), v)
    for h in (1e-3, 1e-4):
        lhs = problem.residual(u + h * v, y, mu) - problem.residual(u, y, mu) \
            - h * jv
        # second-order remainder of a Taylor expansion
        assert np.linalg.norm(lhs) <= 10.0 * h**2 * np.linalg.norm(v) ** 2


@pytest.mark.parametrize("prob_name", ["linear-diffusion", "burgers-control"])
def test_jacobian_central_difference(prob_name, lin, bur):
    problem = lin if prob_name == "linear-diffusion" else bur
    rng = np.random.default_rng(7)
    y, mu = sample_point(problem, 11)
    sol = solve_primal(problem, y, mu)
    h = 1e-5
    for _ in range(3):
        v = rng.standard_normal(problem.n_u)
        fd = (problem.residual(sol.u + h * v, y, mu)
              - problem.residual(sol.u - h * v, y, mu)) / (2 * h)
        jv = kernels.band_matvec(*problem.jac_bands(sol.u, y, mu), v)
        assert np.linalg.norm(fd - jv) <= 1e-6 * np.linalg.norm(jv)


def test_dimension_mismatch_rejected(lin, bur):
    for problem in (lin, bur):
        u, mu = np.zeros((1, problem.n_u)), np.zeros(8)
        with pytest.raises(ValueError, match="state has length 10"):
            problem.residual(np.zeros((1, 10)), np.zeros((1, 2)), mu)
        with pytest.raises(ValueError):
            problem.residual(u, np.zeros((1, 2)), np.zeros(7))
        # a node is a stack of one: a 1-D node or any other shape is named,
        # by the solvers too, before any band or start is built from it
        for y in (np.zeros(2), np.zeros((1, 3)), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match=r"expected \(m, 2\)"):
                problem.residual(u, y, mu)
            with pytest.raises(ValueError, match=r"expected \(m, 2\)"):
                solve_primal(problem, y, mu)
            with pytest.raises(ValueError, match=r"expected \(m, 2\)"):
                solve_adjoint(problem, u, y, mu)


# ---------------------------------------------------------------------------
# primal solver
# ---------------------------------------------------------------------------

def test_linear_problem_one_newton_step(lin):
    y, mu = sample_point(lin, 13)
    sol = solve_primal(lin, y, mu)
    assert sol.newton_iters == 1


def test_burgers_zero_data_solution_is_zero():
    class ZeroInflow(BurgersControl):
        def bc_left(self, y):
            return 0.0

    prob = ZeroInflow()
    sol = solve_primal(prob, np.zeros((1, 2)), np.zeros(8))
    np.testing.assert_allclose(sol.u, np.zeros((1, prob.n_u)), atol=1e-12)


def test_burgers_mesh_self_convergence():
    # second-order scheme: the coarse/fine discrepancy restricted to
    # shared nodes shrinks by ~4x per refinement
    y = np.array([[0.2, -0.3]])
    mu = np.full(8, 0.2)
    sols = {}
    for n in (63, 127, 255):
        p = BurgersControl(n_u=n, ref_level=1)
        sols[n] = solve_primal(p, y, mu).u[0]
    err_coarse = np.max(np.abs(sols[63] - sols[127][1::2]))
    err_fine = np.max(np.abs(sols[127] - sols[255][1::2]))
    assert err_fine <= 0.35 * err_coarse


def test_primal_failure_names_iterations_and_residual(bur, monkeypatch):
    # the error is a plain message: the iteration count and residual
    # norm of the node's last iterate, as the solve left them
    monkeypatch.setattr(hdm, "NEWTON_MAX_ITERS", 1)
    y, mu = np.array([[1.0, 0.0]]), np.zeros(8)
    with pytest.raises(SolverError) as err:
        solve_primal(bur, y, mu)
    _, rnorm, iters, ok = hdm._primal(bur, y, mu, None)
    assert not ok[0] and rnorm[0] > 0
    assert str(err.value) == (f"Newton did not converge after {iters[0]} iterations "
                              f"(residual {rnorm[0]:.3e})")
    assert vars(err.value) == {} and "__init__" not in vars(SolverError)


class CorruptFirstRow(LinearDiffusion):
    """Linear diffusion whose Jacobian's first row is ``(pivot, 0, ..., 0)``."""

    def __init__(self, pivot, **kwargs):
        super().__init__(**kwargs)
        self.pivot = pivot

    def jac_bands(self, u, y, mu):
        lo, dg, up = super().jac_bands(u, y, mu)
        dg[..., 0], up[..., 0] = self.pivot, 0.0
        return lo, dg, up


class CorruptOneNode(LinearDiffusion):
    """Linear diffusion whose Jacobian's first row is ``(pivot, 0, ..., 0)``
    at the nodes with ``y1 > 0.5`` only."""

    def __init__(self, pivot, **kwargs):
        super().__init__(**kwargs)
        self.pivot = pivot

    def jac_bands(self, u, y, mu):
        lo, dg, up = super().jac_bands(u, y, mu)
        bad = y[..., 0] > 0.5
        dg[..., 0] = np.where(bad, self.pivot, dg[..., 0])
        up[..., 0] = np.where(bad, 0.0, up[..., 0])
        return lo, dg, up


@pytest.mark.parametrize("pivot", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_jacobian_is_solver_error(tmp_path, monkeypatch, lin, pivot):
    # a zero pivot or a non-finite solution ends each linear solve as a
    # SolverError, which a run reports with exit 3 and error.txt
    from sgromtr import config
    from sgromtr.cli import EXIT_SOLVER_FAILURE, run_optimize

    prob = CorruptFirstRow(pivot)
    y, mu = sample_point(prob, 59)
    with pytest.raises(SolverError, match="Newton did not converge"):
        solve_primal(prob, y, mu)
    u = solve_primal(lin, y, mu).u
    with pytest.raises(SolverError, match="singular"):
        solve_adjoint(prob, u, y, mu)
    with pytest.raises(SolverError, match="singular"):
        primal_sensitivities(prob, u, y, mu)

    monkeypatch.setattr(config, "make_problem",
                        lambda name, **kwargs: CorruptFirstRow(pivot, **kwargs))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[run]\nproblem = linear-diffusion\n"
                        "[init]\nmu0 = 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n")
    out = tmp_path / "singular"
    assert run_optimize(config.load_config(cfg_path), out) == EXIT_SOLVER_FAILURE
    assert (out / "error.txt").read_text().startswith(
        "SolverError: Newton did not converge after 0 iterations")


@pytest.mark.parametrize("pivot", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_node_in_a_stack(lin, pivot):
    # one singular node of three: the stacked sweep leaves its row
    # non-finite without a warning, and each solver reports it
    prob = CorruptOneNode(pivot)
    ys = np.array([[0.1, -0.3], [0.9, 0.2], [-0.6, 0.7]])
    mu = np.full(8, 0.3)
    u = solve_primal(lin, ys, mu).u
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular"):
            solve_adjoint(prob, u, ys, mu)
        with pytest.raises(SolverError,
                           match="Newton did not converge at node 1 of 3 after 0 "
                                 "iterations"):
            solve_primal(prob, ys, mu)
        u_last, _, _, ok = hdm._primal(prob, ys, mu, None)
        # the healthy nodes of the same stack still solve
        sol = solve_primal(prob, ys[[0, 2]], mu)
        adj = solve_adjoint(prob, sol.u, ys[[0, 2]], mu)
    np.testing.assert_array_equal(ok, [True, False, True])
    np.testing.assert_array_equal(u_last[1], prob.initial_state(ys[[1]], mu)[0])
    np.testing.assert_array_equal(sol.u, u[[0, 2]])
    for i, row in zip((0, 2), adj.lam):
        np.testing.assert_array_equal(row, solve_adjoint(lin, u[[i]], ys[[i]], mu).lam[0])


def _stack_and_single(problem, ys, mu):
    """Solve ``ys`` node by node, each a stack of one, then as one stack;
    check that each row, the iteration total and the tallies agree."""
    c_single, c_stack = QueryCounters(), QueryCounters()
    single = [solve_primal(problem, y[None], mu) for y in ys]
    for one in single:
        c_single.count_primals(one)
    stack = solve_primal(problem, ys, mu)
    c_stack.count_primals(stack)
    assert isinstance(stack.newton_iters, int)
    assert stack.newton_iters == sum(s.newton_iters for s in single)
    assert (c_stack.n_hp, c_stack.newton_iters) == (c_single.n_hp, c_single.newton_iters)
    assert stack.u.flags.c_contiguous
    for i, one in enumerate(single):
        np.testing.assert_array_equal(stack.u[i], one.u[0])
        assert stack.residual_norm[i] == one.residual_norm[0]
        assert stack.iters[i] == one.iters[0]
    return stack


@pytest.mark.parametrize("cls", [LinearDiffusion, BurgersControl], ids=lambda c: c.name)
def test_primal_stack_matches_one_node_solves(cls, lin, bur, monkeypatch):
    # a stack equals its one-node solves, from default and from warm
    # starts, and whatever the parts it is cut into
    problem = lin if cls is LinearDiffusion else bur
    ys = np.array([[-1.0, 0.0], [0.3, -0.7], [1.0, 1.0], [0.0, 0.5], [-0.4, 0.9]])
    mu = np.linspace(-0.3, 0.3, 8)
    stack = _stack_and_single(problem, ys, mu)
    mu_warm = mu + 0.05
    warm = solve_primal(problem, ys, mu_warm, u0=stack.u)
    for i, y in enumerate(ys):
        np.testing.assert_array_equal(
            warm.u[i], solve_primal(problem, y[None], mu_warm, u0=stack.u[[i]]).u[0])
    monkeypatch.setattr(kernels, "STACK_BYTES", 1)     # one node per part
    split = solve_primal(problem, ys, mu)
    np.testing.assert_array_equal(split.u, stack.u)
    np.testing.assert_array_equal(split.residual_norm, stack.residual_norm)
    assert split.newton_iters == stack.newton_iters


def _count_continuation(monkeypatch):
    calls = []
    stages = BurgersControl.continuation_stages

    def counted(self, y, mu):
        calls.append(np.array(y))
        return stages(self, y, mu)

    monkeypatch.setattr(BurgersControl, "continuation_stages", counted)
    return calls


def test_continuation_in_a_stack(bur, monkeypatch):
    # at mu = -0.38 the low-viscosity nodes 1 and 3 stall and need the
    # continuation stages; the other three converge directly.  The
    # one-node solves make one call each, the stack one for both nodes
    calls = _count_continuation(monkeypatch)
    ys = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 0.5], [0.9, -1.0], [1.0, -0.8]])
    _stack_and_single(bur, ys, np.full(8, -0.38))
    assert len(calls) == 3
    for call, y in zip(calls, (ys[[1]], ys[[3]], ys[[1, 3]])):
        np.testing.assert_array_equal(call, y)


def test_stack_failure_after_continuation(bur, monkeypatch):
    # two Newton steps per stage: node 0 converges through continuation,
    # nodes 1 and 2 fail after it; the error names node 1, its iterations
    # and residual, as the one-node solve does, and its last iterate is
    # the one-node solve's
    monkeypatch.setattr(hdm, "NEWTON_MAX_ITERS", 2)
    calls = _count_continuation(monkeypatch)
    ys = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    mu = np.zeros(8)
    with pytest.raises(SolverError) as one:
        solve_primal(bur, ys[[1]], mu)
    assert str(one.value).startswith("Newton did not converge after 10 iterations")
    calls.clear()
    with pytest.raises(SolverError) as err:
        solve_primal(bur, ys, mu)
    assert len(calls) == 1 and len(calls[0]) == 3
    assert str(err.value) == str(one.value).replace(
        "converge after", "converge at node 1 of 3 after")
    u_one, r_one, _, _ = hdm._primal(bur, ys[[1]], mu, None)
    u, rnorm, _, ok = hdm._primal(bur, ys, mu, None)
    np.testing.assert_array_equal(ok, [True, False, False])
    np.testing.assert_array_equal(u[1], u_one[0])
    assert rnorm[1] == r_one[0]


def test_level5_grid_is_two_full_model_parts(bur, monkeypatch):
    # a Thomas sweep costs about the same at any node count, so the 289
    # nodes of a level-5 tensor grid at n_u = 127 are two parts, of 145
    # and 144, in the Newton and in the adjoint sweep
    from sgromtr import hdm
    from sgromtr.sparse_grid import tensor_nodes
    sizes = {}

    def counted(name, solve):
        def wrapper(problem, stack, *args):
            sizes.setdefault(name, []).append(len(stack))
            return solve(problem, stack, *args)
        return wrapper

    for name in ("_primal", "_adjoint"):
        monkeypatch.setattr(hdm, name, counted(name, getattr(hdm, name)))
    _, ys, _ = tensor_nodes((5, 5))
    prim = solve_primal(bur, ys, np.zeros(8))
    solve_adjoint(bur, prim.u, ys, np.zeros(8))
    assert sizes == {"_primal": [145, 144], "_adjoint": [145, 144]}


@pytest.mark.parametrize("n_u", [511, 1023])
def test_fine_mesh_burgers_builds(n_u):
    # Newton stalls at the residual's round-off, above its 1e-12
    # tolerance, at 9 and 23 of the tracking target's 25 nodes; a stall
    # at round-off is converged
    assert np.isfinite(BurgersControl(n_u=n_u).ref).all()


def test_warm_start_stalls_at_roundoff_are_accepted(monkeypatch):
    # a warm start sets the tolerance to about 1e-12 (1 + ||r(start)||),
    # below the round-off eps || |J||u| + |f| || of the residual on 289
    # nodes at n_u = 255: nodes whose line search is exhausted there are
    # accepted, each at or below that bound, without continuation
    from sgromtr.sparse_grid import tensor_nodes
    calls = _count_continuation(monkeypatch)
    prob = BurgersControl(n_u=255, ref_level=1)
    _, ys, _ = tensor_nodes((5, 5))
    cold = solve_primal(prob, ys, np.zeros(8))
    mu = np.full(8, 0.01)
    warm = solve_primal(prob, ys, mu, u0=cold.u)
    start = prob.residual(prob.initial_state(ys, mu), ys, mu)
    tol = (1e-12 * (1.0 + kernels.row_norm(start))
           + 1e-12 * kernels.row_norm(prob.residual(cold.u, ys, mu)))
    floor = np.finfo(float).eps * kernels.roundoff_scale(
        *prob.jac_bands(warm.u, ys, mu), warm.u, prob.source(mu))
    assert (warm.residual_norm <= np.maximum(tol, floor)).all()
    assert (warm.residual_norm > tol).any()
    assert not calls


class FlippedJacobian(LinearDiffusion):
    """Linear diffusion whose Jacobian has the wrong sign, so that every
    Newton step climbs."""

    def jac_bands(self, u, y, mu):
        return tuple(-b for b in super().jac_bands(u, y, mu))


def test_stall_above_roundoff_is_solver_error():
    # every halving of the step raises ||r||, which stays far above its
    # round-off, so the exhausted node still fails
    prob = FlippedJacobian()
    y, mu = sample_point(prob, 5)
    with pytest.raises(SolverError, match="after 0 iterations"):
        solve_primal(prob, y, mu)
    u, rnorm, _, ok = hdm._primal(prob, y, mu, None)
    floor = np.finfo(float).eps * kernels.roundoff_scale(
        *prob.jac_bands(u, y, mu), u, prob.source(mu))
    assert not ok[0] and rnorm[0] > 1e6 * floor[0]


def test_counters_track_newton_iterations(bur):
    # a tally counts every node of a stack, and every node at least one
    # Newton step, also one solved at its start
    counters = QueryCounters()
    y, mu = sample_point(bur, 17)
    sol = solve_primal(bur, y, mu)
    counters.count_primals(sol)
    assert counters.n_hp == 1
    assert counters.newton_iters == max(sol.newton_iters, 1) > 1
    again = solve_primal(bur, np.repeat(y, 2, axis=0), mu, u0=np.repeat(sol.u, 2, axis=0))
    np.testing.assert_array_equal(again.iters, [0, 0])
    counters.count_primals(again)
    assert (counters.n_hp, counters.newton_iters) == (3, sol.newton_iters + 2)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def test_adjoint_residual_definition(bur):
    y, mu = sample_point(bur, 19)
    sol = solve_primal(bur, y, mu)
    adj = solve_adjoint(bur, sol.u, y, mu)
    res = adjoint_residual(bur, adj.lam, sol.u, y, mu)
    assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(bur.qoi_u(sol.u, y, mu)))


def test_adjoint_residual_zero_when_qoi_flat(bur):
    # at u = ref the tracking gradient vanishes, so lambda = 0 solves it
    y, mu, u = np.zeros((1, 2)), np.zeros(8), bur.ref[None]
    res = adjoint_residual(bur, np.zeros((1, bur.n_u)), u, y, mu)
    np.testing.assert_allclose(res, np.zeros((1, bur.n_u)), atol=1e-14)
    adj = solve_adjoint(bur, u, y, mu)
    np.testing.assert_allclose(adj.lam, np.zeros((1, bur.n_u)), atol=1e-12)


def test_adjoint_residual_of_a_stack(bur):
    # three nodes: each row's norm is the residual norm the stacked
    # adjoint solve reports, bitwise
    ys = np.array([[-0.5, 0.2], [0.1, -0.9], [0.8, 0.4]])
    mu = np.linspace(-0.2, 0.2, 8)
    prim = solve_primal(bur, ys, mu)
    adj = solve_adjoint(bur, prim.u, ys, mu)
    res = adjoint_residual(bur, adj.lam, prim.u, ys, mu)
    assert res.shape == (3, bur.n_u)
    np.testing.assert_array_equal(kernels.row_norm(res), adj.residual_norm)


def test_qoi_u_matches_finite_differences(bur):
    y, mu = sample_point(bur, 23)
    rng = np.random.default_rng(29)
    u = bur.ref + 0.1 * rng.standard_normal((1, bur.n_u))
    g = bur.qoi_u(u, y, mu)[0]
    h = 1e-6
    for j in (0, bur.n_u // 2, bur.n_u - 1):
        e = np.zeros(bur.n_u)
        e[j] = h
        fd = (bur.qoi(u + e, y, mu)[0] - bur.qoi(u - e, y, mu)[0]) / (2 * h)
        assert abs(fd - g[j]) <= 1e-6 * (1 + abs(g[j]))


def test_diffusion_adjoint_self_adjoint(lin):
    y, mu = sample_point(lin, 31)
    sol = solve_primal(lin, y, mu)
    a = dense_jacobian(lin, sol.u, y, mu)
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    adj = solve_adjoint(lin, sol.u, y, mu)
    lam = np.linalg.solve(a, lin.qoi_u(sol.u, y, mu)[0])
    np.testing.assert_allclose(adj.lam[0], lam, rtol=1e-10)


def test_adjoint_stack_matches_one_node_solves(bur):
    # rows of a stacked adjoint solve and of the gradients built from it
    # equal their stacks of one, also from a Fortran-ordered adjoint stack
    from sgromtr.sparse_grid import tensor_nodes
    _, ys, _ = tensor_nodes((4, 4))
    mu = np.linspace(-0.3, 0.3, 8)
    prim = solve_primal(bur, ys, mu)
    adj = solve_adjoint(bur, prim.u, ys, mu)
    assert adj.lam.flags.c_contiguous
    g = adjoint_gradient(bur, adj.lam, prim.u, ys, mu)
    g_f = adjoint_gradient(bur, np.asfortranarray(adj.lam), prim.u, ys, mu)
    for i in range(len(ys)):
        one = solve_adjoint(bur, prim.u[[i]], ys[[i]], mu)
        np.testing.assert_array_equal(adj.lam[i], one.lam[0])
        assert adj.residual_norm[i] == one.residual_norm[0]
        g_one = adjoint_gradient(bur, one.lam, prim.u[[i]], ys[[i]], mu)[0]
        np.testing.assert_array_equal(g[i], g_one)
        np.testing.assert_array_equal(g_f[i], g_one)


# ---------------------------------------------------------------------------
# adjoint gradient
# ---------------------------------------------------------------------------

def test_regularizer_gradient_component(lin):
    # alpha = 0.1 on the quadratic penalty: with a zero adjoint the
    # gradient reduces to the regularizer slope
    mu = np.eye(8)[0]
    g = adjoint_gradient(lin, np.zeros((1, lin.n_u)), np.zeros((1, lin.n_u)),
                         np.zeros((1, 2)), mu)
    np.testing.assert_allclose(g, 0.1 * mu[None], atol=1e-15)


def test_gradient_zero_without_parameter_coupling():
    prob = LinearDiffusion(alpha=0.0)
    g = adjoint_gradient(prob, np.zeros((1, prob.n_u)), np.ones((1, prob.n_u)),
                         np.zeros((1, 2)), np.ones(8))
    np.testing.assert_array_equal(g, np.zeros((1, 8)))


@pytest.mark.parametrize("cls", [LinearDiffusion, BurgersControl],
                         ids=lambda c: f"{c.name}-{c.fd_gradient_tol:g}")
def test_adjoint_gradient_vs_fd(cls, lin, bur):
    problem = lin if cls is LinearDiffusion else bur
    rng = np.random.default_rng(37)
    h = 1e-5
    for _ in range(5):
        y = rng.uniform(-1, 1, (1, 2))
        mu = rng.uniform(-problem.mu_sample_halfwidth,
                         problem.mu_sample_halfwidth, 8)
        sol = solve_primal(problem, y, mu)
        adj = solve_adjoint(problem, sol.u, y, mu)
        g = adjoint_gradient(problem, adj.lam, sol.u, y, mu)[0]
        gfd = np.array([
            (restricted_qoi(problem, y, mu + h * e)
             - restricted_qoi(problem, y, mu - h * e)) / (2 * h)
            for e in np.eye(8)])
        assert (np.linalg.norm(g - gfd)
                <= problem.fd_gradient_tol * np.linalg.norm(gfd))


# ---------------------------------------------------------------------------
# sensitivities
# ---------------------------------------------------------------------------

def test_sensitivity_solves_load_system(lin):
    y, mu = sample_point(lin, 41)
    sol = solve_primal(lin, y, mu)
    s0 = primal_sensitivities(lin, sol.u, y, mu)[0, 0]
    a = dense_jacobian(lin, sol.u, y, mu)
    np.testing.assert_allclose(a @ s0, lin.source_basis[:, 0],
                               rtol=1e-10, atol=1e-10)


def test_sensitivity_fd_consistency(bur):
    y, mu = sample_point(bur, 43)
    sol = solve_primal(bur, y, mu)
    sens = primal_sensitivities(bur, sol.u, y, mu)[0]
    h = 1e-5
    for j in (0, 4):
        e = np.zeros(8)
        e[j] = h
        fd = (restricted_qoi(bur, y, mu + e)
              - restricted_qoi(bur, y, mu - e)) / (2 * h)
        pred = float(bur.qoi_u(sol.u, y, mu)[0] @ sens[j]
                     + bur.qoi_mu(sol.u, y, mu)[j])
        assert abs(fd - pred) <= 1e-5 * (1 + abs(fd))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_determinism(bur):
    y, mu = sample_point(bur, 47)
    u1 = solve_primal(bur, y, mu).u
    u2 = solve_primal(bur, y, mu).u
    np.testing.assert_array_equal(u1, u2)


def test_make_problem():
    assert isinstance(make_problem("linear-diffusion"), LinearDiffusion)
    assert isinstance(make_problem("burgers-control", n_u=31), BurgersControl)
    with pytest.raises(ValueError):
        make_problem("heat-3d")

