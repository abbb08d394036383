"""Command-line front end: optimize | validate | compare.

Reports are written as CSV plus a config echo; history and event files
are flushed per iteration so an interrupted run leaves a valid prefix.
Exit codes: 0 success/converged, 1 validation-suite failure,
2 not converged (maximum iterations, or SG-ISO's failed line search),
3 solver failure, 4 config error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from .adapt import LevelCapError
from .config import ConfigError, RunConfig, echo_config, load_config
from .hdm import (QueryCounters, SolverError, adjoint_gradient,
                  solve_adjoint, solve_primal)
from .oracle import (cost_metric, fd_gradient, sg_iso_baseline,
                     tensor_reference, validate_bounds)
from .rom import ReducedBasis, RomSolveError, solve_rom_adjoint, solve_rom_primal
from .sparse_grid import (MultiIndexSet, assemble, cc_rule, integrate,
                          rule_size, write_index_set)
from .trust_opt import SubproblemError, tr_run

__all__ = ["main", "run_optimize", "run_validate", "run_compare"]

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_MAX_ITERS = 2
EXIT_SOLVER_FAILURE = 3
EXIT_CONFIG_ERROR = 4

#: Exceptions that end a run with EXIT_SOLVER_FAILURE and an error.txt dump.
SOLVER_FAILURES = (SolverError, RomSolveError, LevelCapError, SubproblemError)

_TAUS = (1.0, 10.0, 100.0, math.inf)

_TR_COLUMNS = ("k", "m_center", "m_trial", "psi_center", "psi_trial", "rho",
               "Delta", "accepted", "gnorm", "step_norm", "grid_size",
               "basis_k", "terminal", "n_hp", "n_ha", "n_rp", "n_ra",
               "nbar_h", "nbar_r")


def _fmt(val) -> str:
    """CSV text of a value: floats round-trip, a sequence joins with ';'."""
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    if isinstance(val, (bool, np.bool_)):
        return "1" if val else "0"
    if isinstance(val, np.ndarray):
        val = val.tolist()
    if isinstance(val, (tuple, list)):
        return ";".join(map(_fmt, val))
    return str(val)


class _CsvWriter:
    """CSV writer flushed after every row; a row is a dict or a sequence."""

    def __init__(self, path: Path, columns):
        self.columns = columns
        self._f = open(path, "w")
        self._line(columns)

    def _line(self, values):
        self._f.write(",".join(map(_fmt, values)) + "\n")
        self._f.flush()

    def write(self, row):
        self._line([row[c] for c in self.columns]
                   if isinstance(row, dict) else row)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _write_csv(path: Path, columns, rows):
    with _CsvWriter(path, columns) as w:
        for row in rows:
            w.write(row)


def _cost_rows(method: str, counters):
    return [(method, tau, cost_metric(counters, tau)) for tau in _TAUS]


def _write_result(out: Path, method: str, counters, mu_final, **entries):
    """``cost.csv`` and ``summary.txt`` of one finished run."""
    _write_csv(out / "cost.csv", ("method", "tau", "cost"),
               _cost_rows(method, counters))
    summary = {"method": method, **entries, **counters.snapshot(),
               "final_mu": " ".join(repr(float(v)) for v in mu_final)}
    with open(out / "summary.txt", "w") as f:
        for key, val in summary.items():
            f.write(f"{key} = {_fmt(val)}\n")


def _solver_failure(out: Path | None, exc: Exception) -> int:
    """Report a run ended by one of SOLVER_FAILURES; ``error.txt`` if ``out``."""
    if out is not None:
        (out / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n")
    print(f"solver failure: {exc}", file=sys.stderr)
    return EXIT_SOLVER_FAILURE


def _run_sg_rom_tr(problem, cfg: RunConfig, out: Path):
    """Adaptive run; returns ``(mu, counters, status, final model-gradient norm)``."""
    grids_dir = out / "grids"
    grids_dir.mkdir(exist_ok=True)
    history = _CsvWriter(out / "history.csv", _TR_COLUMNS)
    events = _CsvWriter(out / "events.csv",
                        ("seq", "stage", "kind", "detail", "before", "after", "ok"))
    flushed = 0

    def flush_events(state):
        nonlocal flushed
        for ev in state.events[flushed:]:
            events.write((flushed, ev.stage, ev.kind, ev.detail.replace(",", ";"),
                          ev.before, ev.after, ev.ok))
            flushed += 1

    def on_iteration(row, state):
        history.write(row)
        flush_events(state)
        write_index_set(state.pair.grid, grids_dir / f"iter_{row['k']}.txt")

    with history, events:
        try:
            mu_final, state = tr_run(problem, cfg.tr, cfg.mu0(problem.n_mu),
                                     on_iteration=on_iteration)
        except SOLVER_FAILURES as exc:
            # the failed iteration's events are in the partial state only;
            # a failure inside tr_init leaves no state and no events
            if hasattr(exc, "state"):
                flush_events(exc.state)
            raise
    pair = state.pair
    _write_csv(out / "basis_provenance.csv", ("index", "kind", "kept", "y", "mu"),
               ((i, s.kind, s.kept, s.y, s.mu)
                for i, s in enumerate(pair.basis.provenance)))
    quad = pair.union_quad()
    evs = pair.evals(quad, state.mu, adjoint=True)
    _write_csv(out / "final_nodes.csv",
               ("node", "y", "weight", "primal_residual", "adjoint_residual"),
               ((key, y, w, ev.prim_res, ev.adj_res)
                for (key, y, w), ev in zip(quad.items(), evs)))
    gnorm = float(np.linalg.norm(pair.model_gradient(state.mu)))
    _write_result(out, "sg-rom-tr", state.counters, mu_final,
                  status=state.status, iterations=state.k, final_gnorm=gnorm,
                  grid_size=len(pair.grid), basis_k=pair.basis.k,
                  rom_recoveries=state.counters.rom_recoveries,
                  rom_stalls=state.counters.rom_stalls)
    return mu_final, state.counters, state.status, gnorm


def _run_sg_iso(problem, cfg: RunConfig, out: Path, reached: float):
    """Tensor-grid BFGS baseline; returns ``(mu, counters, status, final gnorm)``.

    An unset ``baseline.gtol`` matches the adaptive run: the baseline
    stops at ``max(reached, trust_region.gtol)``, ``reached`` being the
    adaptive run's final model-gradient norm (0 when there is none).
    """
    base = cfg.values["baseline"]
    gtol = max(reached, cfg.tr.gtol) if math.isnan(base["gtol"]) else base["gtol"]
    counters = QueryCounters()
    mu_final, info = sg_iso_baseline(problem, cfg.mu0(problem.n_mu),
                                     level=base["level"], gtol=gtol,
                                     max_iters=base["max_iters"],
                                     counters=counters)
    _write_csv(out / "history.csv", ("k", "J", "gnorm", "n_hp", "n_ha"),
               info["history"])
    gnorm = info["history"][-1]["gnorm"]
    _write_result(out, "sg-iso", counters, mu_final, status=info["status"],
                  iterations=len(info["history"]) - 1, final_gnorm=gnorm)
    return mu_final, counters, info["status"], gnorm


def run_optimize(cfg: RunConfig, out: Path) -> int:
    """Execute the configured method end to end and write its report."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo").write_text(echo_config(cfg))
    try:
        problem = cfg.make_problem()
        if cfg.method == "sg-rom-tr":
            _, _, status, _ = _run_sg_rom_tr(problem, cfg, out)
        else:
            _, _, status, _ = _run_sg_iso(problem, cfg, out, reached=0.0)
    except SOLVER_FAILURES as exc:
        return _solver_failure(out, exc)
    return EXIT_OK if status == "converged" else EXIT_MAX_ITERS


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

def _max_moment_error(indices, degree: int) -> float:
    """Worst quadrature error over the 2D monomials of total degree <= ``degree``."""
    def moment(p):
        return 1.0 / (p + 1) if p % 2 == 0 else 0.0

    quad = assemble(MultiIndexSet.from_indices(indices))
    return max(abs(integrate(quad, lambda y: y[0] ** px * y[1] ** py)
                   - moment(px) * moment(py))
               for px in range(degree + 1) for py in range(degree + 1 - px))


def suite_quadrature() -> tuple[bool, str]:
    """Rectangular sets against the tensor rule, and polynomial exactness.

    A rectangular index set must reproduce the tensor rule's nodes and
    weights and integrate every monomial the tensor rule does; an
    isotropic (Smolyak) set of level ``L`` must be exact on total degree
    ``2L - 1``.
    """
    worst = 0.0
    for lx, ly in itertools.product(range(1, 5), repeat=2):
        mis = MultiIndexSet.from_indices(
            [(i, j) for i in range(1, lx + 1) for j in range(1, ly + 1)])
        quad = assemble(mis)
        rx, ry = cc_rule(lx), cc_rule(ly)
        tensor = {(kx, ky): wx * wy
                  for kx, wx in zip(rx.keys, rx.weights)
                  for ky, wy in zip(ry.keys, ry.weights)}
        if set(quad.keys) != set(tensor):
            return False, f"node mismatch at rect ({lx},{ly})"
        for key, w in zip(quad.keys, quad.weights):
            worst = max(worst, abs(w - tensor[key]))
    if worst > 1e-12:
        return False, f"weight discrepancy {worst:.2e} > 1e-12"

    levels = (2, 3, 4)
    rect_err = max(_max_moment_error(
        itertools.product(range(1, L + 1), repeat=2), rule_size(L))
        for L in levels)
    iso_err = max(_max_moment_error(
        [i for i in itertools.product(range(1, L + 1), repeat=2)
         if sum(i) - 2 <= L - 1], 2 * L - 1)
        for L in levels)
    ok = rect_err <= 1e-10 and iso_err <= 1e-10
    return ok, (f"weights dev {worst:.2e} (<=1e-12), rectangular moments "
                f"{rect_err:.2e}, isotropic total degree 2L-1 {iso_err:.2e} "
                f"(<=1e-10)")


def suite_fd_gradient(problem, n_samples: int, seed: int) -> tuple[bool, str]:
    """Adjoint gradient against central finite differences at the
    problem's ``fd_step``, within its ``fd_gradient_tol``."""
    rng = np.random.default_rng(seed)
    box = problem.mu_sample_halfwidth
    worst = 0.0
    for _ in range(n_samples):
        y = rng.uniform(-1.0, 1.0, problem.n_y)
        mu = rng.uniform(-box, box, problem.n_mu)
        prim = solve_primal(problem, y[None], mu)
        lam = solve_adjoint(problem, prim.u, y[None], mu)
        g = adjoint_gradient(problem, lam, prim.u, y[None], mu)[0]
        gfd = fd_gradient(problem, y, mu, h=problem.fd_step)
        worst = max(worst, float(np.linalg.norm(g - gfd))
                    / max(float(np.linalg.norm(gfd)), 1e-30))
    tol = problem.fd_gradient_tol
    ok = worst <= tol
    return ok, f"worst rel err {worst:.2e} (tol {tol:g}, {n_samples} samples)"


def suite_rom_properties(problem, seed: int) -> tuple[bool, str]:
    """Interpolation and monotonicity of the minimum-residual solves.

    Interpolation: a basis holding the primal and adjoint solutions at
    one ``(y, mu)`` reproduces both there.  Monotonicity: starting from
    the one-column seed basis, ten appends of primal and adjoint
    snapshots never raise the residual at five fixed nodes beyond a
    1e-12 slack (warm-chained solves).  ``mu`` is drawn from
    ``[-0.3, 0.3]``; the two parts use seeds ``seed`` and ``seed + 1``.
    Every reduced primal solve must converge: a node that stagnates or
    hits the iteration cap fails the suite and is named in the detail.
    """
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, problem.n_y)
    mu = rng.uniform(-0.3, 0.3, problem.n_mu)
    prim = solve_primal(problem, y[None], mu)
    lam = solve_adjoint(problem, prim.u, y[None], mu)
    basis = ReducedBasis(problem.n_u)
    basis.append_snapshots([prim.u[0], lam[0]], ["primal", "adjoint"], y, mu)
    ip = solve_rom_primal(problem, basis, y[None], mu)
    ra = solve_rom_adjoint(problem, basis, ip.q, y[None], mu)
    interp = bool(
        ip.residual_norm[0] <= 1e-8 * (1 + np.linalg.norm(prim.u))
        and ra.residual_norm[0] <= 1e-8 * (
            1 + np.linalg.norm(problem.qoi_u(prim.u, y[None], mu))))

    rng = np.random.default_rng(seed + 1)
    mu = rng.uniform(-0.3, 0.3, problem.n_mu)
    nodes = np.array([rng.uniform(-1.0, 1.0, problem.n_y) for _ in range(5)])
    basis = validation_seed_basis(problem)
    prev = None
    worst = -math.inf
    stuck = np.zeros(len(nodes), dtype=bool)
    for _ in range(10):
        q0 = None
        if prev is not None:
            q0 = np.zeros((len(nodes), basis.k))
            q0[:, :prev.q.shape[1]] = prev.q
        rp = solve_rom_primal(problem, basis, nodes, mu, q0=q0)
        stuck |= rp.failed
        if prev is not None:
            worst = max(worst, float(np.max(
                rp.residual_norm - prev.residual_norm * (1 + 1e-12) - 1e-12)))
        prev = rp
        ya = rng.uniform(-1.0, 1.0, problem.n_y)
        sa = solve_primal(problem, ya[None], mu)
        la = solve_adjoint(problem, sa.u, ya[None], mu)
        basis.append_snapshots([sa.u[0], la[0]], ["primal", "adjoint"], ya, mu)
    failed = (["interpolation node"] * bool(ip.failed[0])
              + [f"monotonicity node {i}" for i in np.flatnonzero(stuck)])
    ok = interp and worst <= 0.0 and not failed
    detail = (f"interpolation {'ok' if interp else 'VIOLATED'}, "
              f"monotonicity slack-excess {worst:.2e} (<=0)")
    if failed:
        detail += f", Gauss-Newton failed at {', '.join(failed)}"
    return ok, detail


def validation_seed_basis(problem) -> ReducedBasis:
    """One-column basis from the primal solve at the origin node.

    The seed parameter is a fixed non-symmetric ramp: a symmetric seed
    aligns with the symmetric part of typical states and spreads the
    bound-ratio distribution by an order of magnitude.
    """
    mu_seed = 0.3 * np.linspace(-1.0, 1.0, problem.n_mu)
    y0 = np.zeros(problem.n_y)
    prim = solve_primal(problem, y0[None], mu_seed)
    basis = ReducedBasis(problem.n_u)
    basis.append_snapshots([prim.u[0]], ["primal"], y0, mu_seed)
    return basis


def suite_bound_ratios(problem, n_samples: int, seed: int,
                       csv_path: Path | None = None) -> tuple[bool, str]:
    """Residual-based bound ratios on the one-column seed basis."""
    if n_samples == 0:
        return True, "warning: n_samples = 0, vacuously passed"
    basis = validation_seed_basis(problem)
    qoi_est, grad_est = validate_bounds(problem, basis, n_samples, seed=seed)
    if csv_path is not None:
        _write_csv(csv_path, ("sample", "family", "ratio"),
                   [(i, family, float(r))
                    for family, est in (("qoi", qoi_est), ("grad", grad_est))
                    for i, r in enumerate(est.ratios)])
    finite = (np.all(np.isfinite(qoi_est.ratios))
              and np.all(np.isfinite(grad_est.ratios)))
    spread_q = qoi_est.max_ratio / qoi_est.median_ratio
    spread_g = grad_est.max_ratio / grad_est.median_ratio
    ok = bool(finite and spread_q <= 10.0 and spread_g <= 10.0)
    return ok, (f"{n_samples} samples, all finite: {bool(finite)}, "
                f"qoi max/median {spread_q:.2f} (<=10), "
                f"grad max/median {spread_g:.2f} (<=10); "
                f"empirical constants kappa'~{qoi_est.max_ratio:.2e}, "
                f"mixed~{grad_est.max_ratio:.2e}, median ratios "
                f"{qoi_est.median_ratio:.2e}/{grad_est.median_ratio:.2e} "
                f"(seed {seed})")


def run_validate(cfg: RunConfig, out: Path | None = None) -> int:
    """Run all verification suites; prints one pass/fail line per suite."""
    val = cfg.values["validate"]
    csv_path = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo").write_text(echo_config(cfg))
        csv_path = out / "validation.csv"
    try:
        problem = cfg.make_problem()
    except SOLVER_FAILURES as exc:
        return _solver_failure(out, exc)
    suites = [
        ("quadrature", lambda: suite_quadrature()),
        ("fd-gradient", lambda: suite_fd_gradient(
            problem, val["fd_samples"], cfg.seed)),
        ("rom-properties", lambda: suite_rom_properties(problem, cfg.seed)),
        ("bound-ratios", lambda: suite_bound_ratios(
            problem, val["n_samples"], cfg.seed, csv_path)),
    ]
    all_ok = True
    for name, fn in suites:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_SUITE_FAILED


def _unconverged(method: str, status: str) -> int:
    print(f"{method} stopped with status {status}: no comparison written",
          file=sys.stderr)
    return EXIT_MAX_ITERS


def run_compare(cfg: RunConfig, out: Path) -> int:
    """SG-ROM-TR vs SG-ISO on one problem at matched gradient tolerance.

    Each method writes its report to its own subdirectory.  A run that
    does not converge ends the comparison with ``EXIT_MAX_ITERS``, as
    ``optimize`` does, and no ``compare.csv`` is written: SG-ISO is not
    run against an unconverged SG-ROM-TR gradient norm.
    """
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo").write_text(echo_config(cfg))
    level = cfg.values["baseline"]["level"]
    tr_dir, iso_dir = out / "sg-rom-tr", out / "sg-iso"
    tr_dir.mkdir(exist_ok=True)
    try:
        problem = cfg.make_problem()
        mu_tr, tr_counters, status, reached = _run_sg_rom_tr(problem, cfg, tr_dir)
        if status != "converged":
            return _unconverged("sg-rom-tr", status)
        iso_dir.mkdir(exist_ok=True)
        mu_iso, iso_counters, status, _ = _run_sg_iso(problem, cfg, iso_dir, reached)
        if status != "converged":
            return _unconverged("sg-iso", status)
        runs = [(method, counters, *tensor_reference(problem, mu, level))
                for method, counters, mu in (("sg-rom-tr", tr_counters, mu_tr),
                                             ("sg-iso", iso_counters, mu_iso))]
    except SOLVER_FAILURES as exc:
        return _solver_failure(out, exc)
    _write_csv(out / "compare.csv",
               ("method", "tau", "cost", "J_ref", "gnorm_ref",
                "n_hp", "n_ha", "n_rp", "n_ra"),
               (row + (j_ref, float(np.linalg.norm(g_ref)), c.n_hp, c.n_ha,
                       c.n_rp, c.n_ra)
                for method, c, j_ref, g_ref in runs
                for row in _cost_rows(method, c)))
    for method, c, _, _ in runs:
        print(f"{method + ':':<10} n_hp={c.n_hp} "
              f"cost(tau=inf)={cost_metric(c, math.inf):.1f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgromtr",
        description="Risk-neutral optimization with adaptive sparse grids "
                    "and reduced-order models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("optimize", "validate", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to the INI config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    overrides = {} if args.seed is None else {"run.seed": args.seed}
    out = Path(args.out) if args.out is not None else Path("sgromtr-out")
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "optimize":
            return run_optimize(cfg, out)
        if args.command == "validate":
            return run_validate(cfg, out if args.out is not None else None)
        return run_compare(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
