"""Configuration parsing, report files, exit codes, and suite wiring."""

import re

import numpy as np
import pytest

from conftest import stub_tensor_reference
from sgromtr.cli import (EXIT_CONFIG_ERROR, EXIT_MAX_ITERS, EXIT_OK,
                         EXIT_SOLVER_FAILURE, EXIT_SUITE_FAILED,
                         SOLVER_FAILURES, _CsvWriter, main, run_optimize,
                         run_validate, suite_fd_gradient)
from sgromtr.config import (_SCHEMA, ConfigError, RunConfig, echo_config,
                            load_config)
from sgromtr.hdm import LinearDiffusion, SolverError
from sgromtr.oracle import tensor_reference


FAST_LIN = """
[run]
method = sg-rom-tr
problem = linear-diffusion

[trust_region]
gtol = 1e-4
max_iters = 10
"""

FAST_ISO = """
[run]
method = sg-iso
problem = linear-diffusion
[baseline]
level = 2
gtol = 1e-5
"""

FAST_COMPARE = FAST_LIN + "[baseline]\nlevel = 3\n"

FAST_VALIDATE = """
[run]
problem = linear-diffusion
[validate]
n_samples = 20
fd_samples = 2
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


def read_summary(out):
    return dict(line.split(" = ", 1)
                for line in (out / "summary.txt").read_text().splitlines())


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg.method == "sg-rom-tr"
    assert cfg.seed == 2024
    assert cfg.tr.eta1 == 0.1


@pytest.mark.parametrize("key, value", [
    ("run.methedo", "sg-rom-tr"),
    ("indicators.balance", "true"),
], ids=["run.methedo", "indicators.balance"])
def test_unknown_key_rejected(tmp_path, key, value):
    section, name = key.split(".")
    path = write(tmp_path, f"[{section}]\n{name} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[runner]\nmethod = sg-rom-tr\n")
    with pytest.raises(ConfigError, match="runner"):
        load_config(path)


@pytest.mark.parametrize("text, key", [
    ("[trust_region]\neta1 = fast\n", "trust_region.eta1"),
    ("[init]\nmu0 = 0 0 0 abc 0 0 0 0\n", "init.mu0"),
], ids=["trust_region.eta1", "init.mu0"])
def test_bad_value_reports_key_path(tmp_path, text, key):
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, text))


# each value passed parsing but crashed or misbehaved later in the run
RANGE_VIOLATIONS = {
    "trust_region.eta1": ("[trust_region]\neta1 = 0.9\n", "trust_region"),
    "baseline.level": ("[run]\nmethod = sg-iso\n[baseline]\nlevel = 7\n",
                       "baseline.level"),
    "problem.n_u": ("[problem]\nn_u = 0\n", "problem.n_u"),
    "problem.alpha": ("[problem]\nalpha = -0.1\n", "problem.alpha"),
    "init.mu0": ("[init]\nmu0 = nan 0 0 0 0 0 0 0\n", "init.mu0"),
    "problem.ref_level": ("[problem]\nref_level = 0\n", "problem.ref_level"),
    "problem.n_mu=0": ("[run]\nmethod = sg-iso\n[problem]\nn_mu = 0\n",
                       "problem.n_mu"),
    "problem.n_mu=-2": ("[problem]\nn_mu = -2\n", "problem.n_mu"),
    "baseline.max_iters": ("[run]\nmethod = sg-iso\n[baseline]\nmax_iters = 0\n",
                           "baseline.max_iters"),
    "baseline.gtol": ("[baseline]\ngtol = -1e-6\n", "baseline.gtol"),
    "validate.fd_samples": ("[validate]\nfd_samples = -3\n",
                            "validate.fd_samples"),
    "problem.kappa_amp1": ("[run]\nproblem = linear-diffusion\n"
                           "[problem]\nkappa_amp1 = 2\n",
                           r"problem\.kappa_amp1 and problem\.kappa_amp2"),
}


@pytest.mark.parametrize("case", list(RANGE_VIOLATIONS))
def test_range_violation_rejected(tmp_path, case):
    text, key = RANGE_VIOLATIONS[case]
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, text))


#: each key that sets a trust-region constant, at nan, and two keys whose
#: inclusive range [lo, inf] would take inf
NON_FINITE = ([f"{section}.{key}=nan" for section in ("trust_region", "indicators")
               for key in _SCHEMA[section]]
              + ["problem.alpha=inf", "baseline.gtol=inf"])


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_value_rejected(tmp_path, case):
    # a nan gtol ran to max_iters at a gradient norm of 4.6e-12: no
    # comparison with nan is true, so the stopping test never fired
    key, value = case.split("=")
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(write(tmp_path, f"[{section}]\n{name} = {value}\n"))


def test_mu0_parsing(tmp_path):
    path = write(tmp_path, "[init]\nmu0 = 0.1 0.2 0.3 0 0 0 0 0\n")
    cfg = load_config(path)
    np.testing.assert_allclose(cfg.mu0(8)[:3], [0.1, 0.2, 0.3])
    with pytest.raises(ConfigError):
        cfg.mu0(4)


def test_echo_roundtrips(tmp_path):
    cfg = load_config(write(tmp_path, FAST_LIN))
    echoed = write(tmp_path, echo_config(cfg), "echo.ini")
    cfg2 = load_config(echoed)
    for section, keys in cfg.values.items():
        for key, val in keys.items():
            got = cfg2.values[section][key]
            if isinstance(val, float) and np.isnan(val):
                assert np.isnan(got)
            else:
                assert got == val, f"{section}.{key}"


def test_problem_construction_from_config(tmp_path):
    path = write(tmp_path, "[run]\nproblem = linear-diffusion\n"
                           "[problem]\nn_u = 31\nkappa_amp1 = 0\nkappa_amp2 = 0\n")
    problem = load_config(path).make_problem()
    assert isinstance(problem, LinearDiffusion)
    assert problem.n_u == 31 and problem.kappa_amp == (0.0, 0.0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_optimize_writes_report(tmp_path):
    cfg = load_config(write(tmp_path, FAST_LIN))
    out = tmp_path / "run"
    code = run_optimize(cfg, out)
    assert code == EXIT_OK
    for name in ("history.csv", "events.csv", "config.echo", "summary.txt",
                 "cost.csv", "basis_provenance.csv", "final_nodes.csv"):
        assert (out / name).exists(), name
    grids = sorted((out / "grids").glob("iter_*.txt"))
    assert grids
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header.startswith("k,m_center,m_trial,psi_center")


def test_max_iters_exit_code(tmp_path):
    cfg = load_config(write(tmp_path, """
[run]
problem = linear-diffusion
[trust_region]
gtol = 1e-14
max_iters = 2
"""))
    assert run_optimize(cfg, tmp_path / "r") == EXIT_MAX_ITERS


def test_sg_iso_report_has_no_rom_queries(tmp_path):
    cfg = load_config(write(tmp_path, FAST_ISO))
    out = tmp_path / "iso"
    assert run_optimize(cfg, out) == EXIT_OK
    summary = read_summary(out)
    assert summary["n_rp"] == "0" and summary["n_ra"] == "0"
    assert int(summary["n_hp"]) > 0
    assert "rom_recoveries" not in summary and "rom_stalls" not in summary


def test_sg_iso_max_iters_report_describes_final_mu(tmp_path):
    # stopped after one BFGS step, the report's last history row and
    # final_gnorm describe the returned final_mu, not the iterate before
    cfg = load_config(write(tmp_path, "[run]\nmethod = sg-iso\n"
                                      "problem = linear-diffusion\n"
                                      "[baseline]\nmax_iters = 1\nlevel = 3\n"))
    out = tmp_path / "iso"
    assert run_optimize(cfg, out) == EXIT_MAX_ITERS
    summary = read_summary(out)
    assert summary["status"] == "max_iters" and summary["iterations"] == "1"
    last = read_csv(out / "history.csv")[-1]
    mu = np.array(summary["final_mu"].split(), dtype=float)
    _, grad = tensor_reference(cfg.make_problem(), mu, 3)
    assert float(summary["final_gnorm"]) == pytest.approx(np.linalg.norm(grad),
                                                          rel=1e-6)
    assert last["gnorm"] == summary["final_gnorm"]
    assert last["n_hp"] == summary["n_hp"]


def test_sg_iso_point_after_the_last_step_meets_gtol(tmp_path):
    # the second and last BFGS step reaches a point within gtol: the run
    # is converged, and its iterations are the two steps, not the three
    # iterates of its history
    cfg = load_config(write(tmp_path, "[run]\nmethod = sg-iso\n"
                                      "problem = linear-diffusion\n"
                                      "[baseline]\nmax_iters = 2\nlevel = 3\n"))
    out = tmp_path / "iso"
    assert run_optimize(cfg, out) == EXIT_OK
    summary = read_summary(out)
    assert summary["status"] == "converged" and summary["iterations"] == "2"
    history = read_csv(out / "history.csv")
    assert [row["k"] for row in history] == ["0", "1", "2"]
    assert float(history[-1]["gnorm"]) <= cfg.tr.gtol < float(history[-2]["gnorm"])
    assert history[-1]["gnorm"] == summary["final_gnorm"]


def test_sg_iso_failed_line_search_exit_code(tmp_path, monkeypatch):
    # no trial point meets the Armijo test: the run is not converged
    stub_tensor_reference(monkeypatch,
                          lambda mu: (float(np.linalg.norm(mu)), np.ones(8)))
    out = tmp_path / "iso"
    assert run_optimize(load_config(write(tmp_path, FAST_ISO)), out) == EXIT_MAX_ITERS
    summary = read_summary(out)
    assert summary["status"] == "line_search_failed"
    assert summary["iterations"] == "0" and summary["n_hp"] == "41"


def test_sg_iso_failed_solve_at_mu0_exit_code(tmp_path, monkeypatch):
    # a failed trial point only rejects the step, but without a solve at
    # mu0 there is no objective to start from
    stub_tensor_reference(monkeypatch, lambda mu: (0.0, np.zeros(8)),
                          fails=lambda mu: True)
    out = tmp_path / "iso"
    assert run_optimize(load_config(write(tmp_path, FAST_ISO)), out) == EXIT_SOLVER_FAILURE
    assert (out / "error.txt").read_text() == "SolverError: injected\n"
    assert not (out / "summary.txt").exists()


def test_csv_row_missing_a_column_raises(tmp_path):
    # a dict row must carry every column: a misspelt key is an error,
    # not a blank cell
    with _CsvWriter(tmp_path / "rows.csv", ("k", "rho")) as w:
        w.write({"k": 0, "rho": 0.5})
        with pytest.raises(KeyError):
            w.write({"k": 1, "roh": 0.5})
    assert (tmp_path / "rows.csv").read_text() == "k,rho\n0,0.5\n"


def test_solver_failure_exit_code(tmp_path):
    # a level cap of 1 forbids any grid refinement: the driver aborts
    # and the report directory keeps a valid prefix plus the error dump
    cfg = load_config(write(tmp_path, """
[run]
problem = linear-diffusion
[trust_region]
level_cap = 1
gtol = 1e-10
"""))
    out = tmp_path / "fail"
    assert run_optimize(cfg, out) == 3
    assert (out / "error.txt").exists()
    assert (out / "history.csv").exists()


@pytest.mark.parametrize("failure", SOLVER_FAILURES,
                         ids=lambda cls: cls.__name__)
def test_injected_failure_exit_code(tmp_path, monkeypatch, failure):
    # the second objective refinement fails: the run ends with the
    # solver-failure code, the error dump, the first iteration's row,
    # and every refinement event recorded before the failure
    from sgromtr import trust_opt

    real = trust_opt.refine_for_objective
    calls, recorded = [], []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            recorded.extend(kwargs["events"])
            raise failure("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(trust_opt, "refine_for_objective", failing)
    cfg = load_config(write(tmp_path, FAST_LIN))
    out = tmp_path / "fail"
    assert run_optimize(cfg, out) == EXIT_SOLVER_FAILURE
    assert (out / "error.txt").read_text() == f"{failure.__name__}: injected\n"

    history = read_csv(out / "history.csv")
    assert len(history) == 1
    assert history[0]["k"] == "0" and history[0]["terminal"] == "0"
    events = read_csv(out / "events.csv")
    # the failed iteration's gradient refinement is logged too
    assert recorded[-1].stage == "gradient"
    assert [(row["seq"], row["stage"], row["kind"]) for row in events] == [
        (str(i), ev.stage, ev.kind) for i, ev in enumerate(recorded)]


def test_failed_greedy_sample_names_it_and_ends_the_run(tmp_path, monkeypatch):
    # the first greedy sample's full solve fails: it is not solved again
    # from the default start, the run exits 3, error.txt names the
    # stage, node, y and mu of the sample the clean run took first (mu
    # written so that it reads back to the sample's tag), and events.csv
    # keeps the events written before it, those of the clean run
    from sgromtr import adapt

    cfg_path = write(tmp_path, FAST_LIN)
    clean = tmp_path / "clean"
    assert run_optimize(load_config(cfg_path), clean) == EXIT_OK
    clean_events = read_csv(clean / "events.csv")
    first = next(i for i, row in enumerate(clean_events)
                 if row["kind"] == "add_snapshot")
    node, tag = re.match(r"node=(\(.*\)) mu=(\w+) ",
                         clean_events[first]["detail"]).groups()

    calls = []

    def failing(problem, y, mu, u0=None):
        calls.append(u0)
        raise SolverError("injected")

    monkeypatch.setattr(adapt, "solve_primal", failing)
    out = tmp_path / "fail"
    assert run_optimize(load_config(cfg_path), out) == EXIT_SOLVER_FAILURE
    assert len(calls) == 1 and calls[0] is not None
    error = (out / "error.txt").read_text()
    named = re.fullmatch(
        f"SolverError: {clean_events[first]['stage']} stage: greedy sample at "
        f"node {re.escape(node.replace(';', ','))}, y = (\\S+ \\S+), "
        f"mu = (.*): injected\n", error)
    assert named, error
    assert len(named[1].split()) == 2
    assert adapt._mu_tag(np.array(named[2].split(), dtype=float)) == tag
    assert read_csv(out / "events.csv") == clean_events[:first]


def test_samples_that_keep_no_column_spend_bounded_full_solves(tmp_path, monkeypatch):
    # from the end of the first objective stage on, every snapshot is
    # dropped, so no greedy sample changes a term: each refinement pass
    # buys at most one full primal and adjoint pair per open residual
    # term and then grows the grid, until the level cap ends the run
    from sgromtr import cli, rom, trust_opt

    cfg_path = write(tmp_path, "[run]\nproblem = linear-diffusion\n"
                               "[trust_region]\nlevel_cap = 5\n")
    clean = tmp_path / "clean"
    assert run_optimize(load_config(cfg_path), clean) == EXIT_OK

    floor, objective = rom.gram_schmidt_floor, trust_opt.refine_for_objective
    report = cli._solver_failure
    start, failures = [], []

    def first_objective_then_inject(pair, *args, **kwargs):
        out = objective(pair, *args, **kwargs)
        if not start:
            start.append((pair.counters.n_hp, pair.counters.n_ha,
                          len(kwargs["events"])))
        return out

    def failure(out, exc):
        failures.append(exc)
        return report(out, exc)

    monkeypatch.setattr(rom, "gram_schmidt_floor",
                        lambda k: np.inf if start else floor(k))
    monkeypatch.setattr(trust_opt, "refine_for_objective",
                        first_objective_then_inject)
    monkeypatch.setattr(cli, "_solver_failure", failure)
    out = tmp_path / "fail"
    assert run_optimize(load_config(cfg_path), out) == EXIT_SOLVER_FAILURE
    assert (out / "error.txt").read_text().startswith("LevelCapError: ")
    assert not (out / "summary.txt").exists()

    # the rows written before the failure are those of the clean run
    rows = (out / "history.csv").read_text().splitlines()
    assert len(rows) > 1
    assert rows == (clean / "history.csv").read_text().splitlines()[:len(rows)]

    n_hp, n_ha, seq = start[0]
    events = read_csv(out / "events.csv")
    kept = [(int(row["seq"]), int(re.search(r"kept=(\d+)", row["detail"])[1]))
            for row in events if row["kind"] == "add_snapshot"]
    before = [n for i, n in kept if i < seq]
    after = [n for i, n in kept if i >= seq]
    assert before and min(before) > 0
    assert after and set(after) == {0}

    # one pair per residual term (two on the gradient stage, one on the
    # objective stage) per pass; a stage's passes are its grid growths
    # plus the one that ends it
    terms = {"gradient": 2, "objective": 1}
    bound, passes = 0, 1
    for row in events[seq:]:
        passes += row["kind"] == "add_index"
        if row["kind"] == "exit_check":
            bound, passes = bound + terms[row["stage"]] * passes, 1
    bound += terms[events[-1]["stage"]] * passes
    counters = failures[0].state.counters
    assert 0 < counters.n_hp - n_hp == counters.n_ha - n_ha <= bound


def test_compare_report(tmp_path):
    # both methods' reports, the joint table whose cost columns are each
    # method's cost.csv, and the baseline run to the matched tolerance
    out = tmp_path / "cmp"
    cfg_path = write(tmp_path, FAST_COMPARE)
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "compare.csv")
    assert len(rows) == 8
    for method in ("sg-rom-tr", "sg-iso"):
        mine = [row for row in rows if row["method"] == method]
        cost = read_csv(out / method / "cost.csv")
        assert [{k: row[k] for k in ("method", "tau", "cost")} for row in mine] == cost
        summary = read_summary(out / method)
        assert {row["n_hp"] for row in mine} == {summary["n_hp"]}
    reached = float(read_summary(out / "sg-rom-tr")["final_gnorm"])
    gtol = load_config(cfg_path).tr.gtol
    assert float(read_summary(out / "sg-iso")["final_gnorm"]) <= max(reached, gtol)


def test_compare_stops_on_an_unconverged_run(tmp_path):
    # SG-ROM-TR stops at max_iters: compare exits as optimize does, keeps
    # that run's report, and neither runs SG-ISO nor writes a table
    out = tmp_path / "cmp"
    cfg_path = write(tmp_path, "[run]\nproblem = linear-diffusion\n"
                               "[trust_region]\nmax_iters = 1\n"
                               "[baseline]\nlevel = 3\n")
    code = main(["compare", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_MAX_ITERS
    assert read_summary(out / "sg-rom-tr")["status"] == "max_iters"
    assert sorted(p.name for p in out.iterdir()) == ["config.echo", "sg-rom-tr"]


@pytest.mark.parametrize("command, text", [
    ("optimize", FAST_LIN), ("optimize", FAST_ISO),
    ("compare", FAST_COMPARE), ("validate", FAST_VALIDATE),
], ids=["optimize-sg-rom-tr", "optimize-sg-iso", "compare", "validate"])
def test_one_problem_per_command(tmp_path, monkeypatch, command, text):
    real, calls = RunConfig.make_problem, []

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(RunConfig, "make_problem", counting)
    argv = [command, "--config", str(write(tmp_path, text)),
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


@pytest.fixture(scope="module", params=[
    ("linear-diffusion", 30), ("linear-diffusion", 1),
    ("burgers-control", 30), ("burgers-control", 1),
], ids=lambda p: f"{p[0]}-max_iters{p[1]}")
def finished_run(request, tmp_path_factory):
    """Report of a default run from mu0 = 0, converged or stopped at max_iters."""
    problem, max_iters = request.param
    tmp = tmp_path_factory.mktemp("finished")
    cfg = load_config(write(tmp, f"[run]\nproblem = {problem}\n"
                                 f"[trust_region]\nmax_iters = {max_iters}\n"))
    code = run_optimize(cfg, tmp / "out")
    assert code == (EXIT_OK if max_iters > 1 else EXIT_MAX_ITERS)
    return tmp / "out"


def test_history_rows_describe_the_pair_handed_on(finished_run):
    # a row's grid and basis sizes are those of the pair its iteration
    # ends with: the grid written for it and, last, the summary's
    rows = read_csv(finished_run / "history.csv")
    for row in rows:
        grid = finished_run / "grids" / f"iter_{row['k']}.txt"
        assert int(row["grid_size"]) == len(grid.read_text().splitlines())
    summary = read_summary(finished_run)
    assert rows[-1]["grid_size"] == summary["grid_size"]
    assert rows[-1]["basis_k"] == summary["basis_k"]


def test_summary_counts_reduced_solve_outcomes(finished_run):
    # the nodes that stagnated or hit the cap, and those that stalled
    summary = read_summary(finished_run)
    keys = list(summary)
    at = keys.index("basis_k") + 1
    assert keys[at:at + 2] == ["rom_recoveries", "rom_stalls"]
    for key in keys[at:at + 2]:
        assert re.fullmatch(r"\d+", summary[key])


def test_writing_reports_solves_nothing(finished_run):
    # the final-node and gradient reports read the solves the last
    # iteration kept, so no reduced solve is added after its row
    last = read_csv(finished_run / "history.csv")[-1]
    summary = read_summary(finished_run)
    assert (last["n_rp"], last["n_ra"]) == (summary["n_rp"], summary["n_ra"])


def test_objective_exits_name_theta_floor(finished_run):
    # at the defaults (omega = 0.1) the exact objective thresholds
    # (eta min{pred, r_k})^(1/omega) / (2 alpha) fall far below
    # theta_floor, so the floor sets both terms' bounds at every exit
    checks = [row["detail"] for row in read_csv(finished_run / "events.csv")
              if (row["stage"], row["kind"]) == ("objective", "exit_check")]
    assert checks
    for detail in checks:
        assert re.findall(r"\((\w+)\)", detail) == ["theta_floor"] * 2


def test_cli_main_config_error(tmp_path, capsys):
    bad = write(tmp_path, "[run]\nmethod = gradient-descent\n")
    code = main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_cli_main_unparsable_mu0_is_config_error(tmp_path, capsys):
    # an entry float() rejects once escaped main() as a ValueError (exit 1)
    bad = write(tmp_path, "[init]\nmu0 = 0 0 0 abc 0 0 0 0\n")
    code = main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith("config error: init.mu0") and "Traceback" not in err


def test_cli_seed_override(tmp_path):
    cfg = load_config(write(tmp_path, FAST_LIN), {"run.seed": 7})
    assert cfg.seed == 7


# ---------------------------------------------------------------------------
# validation wiring
# ---------------------------------------------------------------------------

def test_validate_passes_on_defaults(tmp_path, capsys):
    cfg = load_config(write(tmp_path, """
[run]
problem = linear-diffusion
[validate]
n_samples = 40
fd_samples = 5
"""))
    assert run_validate(cfg) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4


def test_validate_zero_samples_vacuous(tmp_path, capsys):
    cfg = load_config(write(tmp_path, """
[run]
problem = linear-diffusion
[validate]
n_samples = 0
fd_samples = 3
"""))
    assert run_validate(cfg) == EXIT_OK
    assert "warning" in capsys.readouterr().out


def test_corrupted_jacobian_fails_fd_suite():
    # negative control: a skewed parameter Jacobian leaves the solves
    # intact but must trip the gradient check
    class CorruptJacobian(LinearDiffusion):
        def jac_mu(self, u, y, mu):
            return 1.01 * super().jac_mu(u, y, mu)

    ok, detail = suite_fd_gradient(CorruptJacobian(), 5, seed=0)
    assert not ok


def test_validate_reports_suite_failure(tmp_path, capsys, monkeypatch):
    import sgromtr.cli as cli

    cfg = load_config(write(tmp_path, "[run]\nproblem = linear-diffusion\n"))
    monkeypatch.setattr(cli, "suite_quadrature",
                        lambda: (False, "forced failure"))
    assert run_validate(cfg) == EXIT_SUITE_FAILED
    assert "[FAIL] quadrature" in capsys.readouterr().out


def test_validate_problem_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a solver failure while the problem is built (say, in its tracking
    # target) ends validate with the solver-failure code, not a traceback;
    # error.txt is written only into a given output directory
    cfg = load_config(write(tmp_path, "[run]\nproblem = linear-diffusion\n"))

    def failing():
        raise SolverError("injected")

    cfg.make_problem = failing
    out = tmp_path / "val"
    assert run_validate(cfg, out) == EXIT_SOLVER_FAILURE
    assert (out / "error.txt").read_text() == "SolverError: injected\n"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run_validate(cfg) == EXIT_SOLVER_FAILURE
    assert not list(cwd.iterdir())
    err = capsys.readouterr().err
    assert err.count("solver failure: injected") == 2
