"""Configuration parsing, report files, exit codes, and suite wiring."""

import numpy as np
import pytest

from sgromtr.cli import (EXIT_CONFIG_ERROR, EXIT_MAX_ITERS, EXIT_OK,
                         EXIT_SOLVER_FAILURE, EXIT_SUITE_FAILED,
                         SOLVER_FAILURES, main, run_optimize, run_validate,
                         suite_fd_gradient)
from sgromtr.config import ConfigError, echo_config, load_config
from sgromtr.hdm import LinearDiffusion


FAST_LIN = """
[run]
method = sg-rom-tr
problem = linear-diffusion

[trust_region]
gtol = 1e-4
max_iters = 10
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg.method == "sg-rom-tr"
    assert cfg.seed == 2024
    assert cfg.tr.eta1 == 0.1


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[run]\nmethedo = sg-rom-tr\n")
    with pytest.raises(ConfigError, match="run.methedo"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[runner]\nmethod = sg-rom-tr\n")
    with pytest.raises(ConfigError, match="runner"):
        load_config(path)


def test_bad_value_reports_key_path(tmp_path):
    path = write(tmp_path, "[trust_region]\neta1 = fast\n")
    with pytest.raises(ConfigError, match="trust_region.eta1"):
        load_config(path)


def test_range_violation_rejected(tmp_path):
    path = write(tmp_path, "[trust_region]\neta1 = 0.9\n")
    with pytest.raises(ConfigError, match="trust_region"):
        load_config(path)


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
    cfg = load_config(write(tmp_path, """
[run]
method = sg-iso
problem = linear-diffusion
[baseline]
level = 2
gtol = 1e-5
"""))
    out = tmp_path / "iso"
    assert run_optimize(cfg, out) == EXIT_OK
    summary = dict(line.split(" = ") for line
                   in (out / "summary.txt").read_text().strip().splitlines())
    assert summary["n_rp"] == "0" and summary["n_ra"] == "0"
    assert int(summary["n_hp"]) > 0


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

    def read_csv(name):
        header, *rows = [line.split(",") for line in
                         (out / name).read_text().splitlines()]
        assert all(len(row) == len(header) for row in rows)
        return [dict(zip(header, row)) for row in rows]

    history = read_csv("history.csv")
    assert len(history) == 1
    assert history[0]["k"] == "0" and history[0]["terminal"] == "0"
    events = read_csv("events.csv")
    # the failed iteration's gradient refinement is logged too
    assert recorded[-1].stage == "gradient"
    assert [(row["seq"], row["stage"], row["kind"]) for row in events] == [
        (str(i), ev.stage, ev.kind) for i, ev in enumerate(recorded)]


def test_cli_main_config_error(tmp_path, capsys):
    bad = write(tmp_path, "[run]\nmethod = gradient-descent\n")
    code = main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


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

    ok, detail = suite_fd_gradient(CorruptJacobian(), 5, 1e-5, seed=0,
                                   tol=1e-6)
    assert not ok


def test_validate_reports_suite_failure(tmp_path, capsys, monkeypatch):
    import sgromtr.cli as cli

    cfg = load_config(write(tmp_path, "[run]\nproblem = linear-diffusion\n"))
    monkeypatch.setattr(cli, "suite_quadrature",
                        lambda: (False, "forced failure"))
    assert run_validate(cfg) == EXIT_SUITE_FAILED
    assert "[FAIL] quadrature" in capsys.readouterr().out
