"""End-to-end benchmark of sgromtr: SG-ROM-TR, the SG-ISO baseline, and seeded starts.

Usage, from the repository root::

    python3 perfbench/run.py --workload burgers-tr --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each repetition is a fresh ``perfbench/child.py`` process that imports
``sgromtr`` from ``src/``, parses a generated INI config and runs
``sgromtr.cli.run_optimize`` on it; repetitions run one at a time for
about ``--seconds`` of child wall time.  The program receives only
the config: ``[init] mu0`` is drawn from ``--seed`` inside the problem's
own validation box (``mu_sample_halfwidth``) for the seeded workloads.
Every child has its BLAS/OpenMP pools pinned to one thread.  Each child
also times a fixed reference task that does not use sgromtr, and
``setup_s`` and ``solve_s`` are reported at the machine speed at which that
task takes ``REF_S`` seconds, so that the drift of a shared box's speed
cancels out of them.

After each repetition, outside its timed region, the reports are checked:
exit 0 with ``status = converged``, every ``exit_check`` row of
``events.csv`` with ``ok = 1``, the level-5 tensor-reference gradient at
the final parameter at most ``10 max(final model gnorm, gtol)``, and for
SG-ISO a final gnorm at most ``gtol``.  A repetition that fails is
classified (exit-3 exception name, ``max_iters``, ``timeout``, ``check``,
``uncaught``) and charged the wall cap.  An input run twice must give
identical counts; a mismatch is a benchmark error (exit 1).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs each
untraced repetition with a traced one of the same input and prints the
per-layer metrics of the traced runs plus ``trace.overhead_s``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import EXIT_WALL_CAP

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-ups measured per run (repetitions plus set-up-only processes)
SETUPS_PER_RUN = 7
#: ``child.reference_task_s`` time that defines machine speed 1: ``setup_s``
#: and ``solve_s`` are the seconds they would take at that speed
REF_S = 0.2
#: seconds a child may outlive its own wall cap before it is killed
KILL_GRACE = 30.0
#: tensor level of the reference gradient in the output check
CHECK_LEVEL = 5
#: counts two runs of one input must reproduce exactly
DETERMINISTIC = ("n_hp", "n_rp", "gn_iters", "grid_size", "basis_k")

FAIL_CLASSES = ("timeout", "max_iters", "check", "uncaught", "SolverError",
                "RomSolveError", "LevelCapError", "RefinementError")


@dataclass(frozen=True)
class Workload:
    problem: str
    method: str
    seeded: bool          # mu0 drawn from the seed; otherwise mu0 = 0
    cap: float            # wall cap of one solve, seconds
    why: str


WORKLOADS = {
    "burgers-tr": Workload(
        "burgers-control", "sg-rom-tr", False, 60.0,
        "SG-ROM-TR on Burgers (n_u 127, n_mu 8) from mu0 = 0: the paper-criteria and "
        "ROADMAP baseline run; time goes to rom lstsq and FD Hessian-vector products"),
    "diffusion-tr": Workload(
        "linear-diffusion", "sg-rom-tr", False, 30.0,
        "SG-ROM-TR on linear diffusion (n_u 63) from mu0 = 0: small matrices, so "
        "per-call overhead and sparse-grid/adapt bookkeeping weigh more than flops"),
    "burgers-iso": Workload(
        "burgers-control", "sg-iso", False, 60.0,
        "SG-ISO BFGS baseline, tensor level 5, on Burgers from mu0 = 0: only hdm, "
        "kernels and oracle run, so it bypasses ROM and trust-region changes"),
    # Seeded starts, mu0 ~ U(-b, b)^n_mu with b the problem's mu_sample_halfwidth
    # and numpy default_rng(seed); starts i = 0, 1, ... of one seed are the same
    # points for all three.  Some starts fail today, so these measure fail_rate
    # and the failure path; the start-to-start cost spread is too wide for a
    # regression bound.
    "burgers-starts": Workload(
        "burgers-control", "sg-rom-tr", True, 40.0,
        "SG-ROM-TR on Burgers from seeded starts in the +-0.5 validation box; "
        "every start fails today (RomSolveError or wall cap)"),
    "diffusion-starts": Workload(
        "linear-diffusion", "sg-rom-tr", True, 40.0,
        "SG-ROM-TR on linear diffusion from seeded starts in the +-1 validation "
        "box; most converge, a few stall in refinement past the wall cap"),
    "burgers-iso-starts": Workload(
        "burgers-control", "sg-iso", True, 60.0,
        "SG-ISO on Burgers from the burgers-starts starts; all converge, the "
        "reference that SG-ROM-TR fails against"),
}


@dataclass
class Rep:
    """One child process and what its reports and checks said."""

    mu0: str
    traced: bool
    rc: int
    wall_s: float
    rss_mb: float | None        # these three are None when the child was killed
    setup_s: float | None
    solve_s: float | None
    ref_setup_s: float | None   # reference-task seconds after set-up
    ref_solve_s: float | None   # mean of that, probes' and the one after the solve
    probes: int = 0
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    fail: str | None = None      # failure class, None when the run passed


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _launch(args: list, workdir: Path, hard_cap: float):
    """Run one child to its end; returns (exit code, wall seconds)."""
    with open(workdir / "stdout.txt", "w") as out, \
            open(workdir / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args,
                                 "--launch", repr(t0)],
                                stdout=out, stderr=err, env=_child_env(),
                                cwd=workdir)
        try:
            rc = proc.wait(timeout=hard_cap)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
        return rc, time.monotonic() - t0


class Bench:
    def __init__(self, name: str, seed: int):
        import numpy as np
        from sgromtr.config import load_config
        from sgromtr.hdm import BurgersControl, LinearDiffusion, make_problem

        self.wl = WORKLOADS[name]
        self.dir = WORK / f"{name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._n = 0
        defaults = load_config(None)
        self._n_mu = defaults.values["problem"]["n_mu"]
        self.gtol = defaults.tr.gtol
        self._problem = None
        self._ref_gnorm = {}   # reference gradient norm per final mu
        self._make = lambda: make_problem(self.wl.problem)
        # seeded starts come from the problem's own validation box
        problem_cls = {"burgers-control": BurgersControl,
                       "linear-diffusion": LinearDiffusion}[self.wl.problem]
        self._box = problem_cls.mu_sample_halfwidth
        self._rng = np.random.default_rng(seed)

    def next_input(self) -> str:
        if not self.wl.seeded:
            return ""
        mu0 = self._rng.uniform(-self._box, self._box, self._n_mu)
        return " ".join(repr(float(v)) for v in mu0)

    def _config(self, mu0: str) -> str:
        text = (f"[run]\nmethod = {self.wl.method}\nproblem = {self.wl.problem}\n")
        if mu0:
            text += f"\n[init]\nmu0 = {mu0}\n"
        return text

    def setup_only(self) -> float:
        """Set-up seconds at reference speed of one set-up-only process."""
        rep_dir = self._rep_dir()
        (rep_dir / "run.ini").write_text(self._config(""))
        rc, _ = _launch(["--config", "run.ini", "--out", "out", "--result",
                            "result.json", "--cap", "1", "--setup-only"],
                           rep_dir, KILL_GRACE)
        if rc != 0:
            raise RuntimeError(f"set-up failed (exit {rc}), see {rep_dir}")
        res = json.loads((rep_dir / "result.json").read_text())
        return _at_ref(res["setup_s"], res["ref_setup_s"])

    def _rep_dir(self) -> Path:
        self._n += 1
        d = self.dir / f"rep{self._n:03d}"
        d.mkdir()
        return d

    def run(self, mu0: str, traced: bool) -> Rep:
        rep_dir = self._rep_dir()
        (rep_dir / "run.ini").write_text(self._config(mu0))
        args = ["--config", "run.ini", "--out", "out", "--result", "result.json",
                "--cap", repr(self.wl.cap)]
        if traced:
            args.append("--trace")
        rc, wall = _launch(args, rep_dir, self.wl.cap + KILL_GRACE)
        res_path = rep_dir / "result.json"
        res = json.loads(res_path.read_text()) if res_path.exists() else {}
        rep = Rep(mu0, traced, rc, wall, rss_mb=res.get("peak_rss_mb"),
                  setup_s=res.get("setup_s"),
                  solve_s=res.get("solve_s"),
                  ref_setup_s=res.get("ref_setup_s"),
                  ref_solve_s=res.get("ref_solve_s"), probes=res.get("probes", 0),
                  counts=res.get("counts", {}), layers=res.get("layers", {}))
        rep.fail = self._classify(rep, rep_dir / "out")
        shutil.rmtree(rep_dir)
        return rep

    def _classify(self, rep: Rep, out: Path) -> str | None:
        if rep.rc == 3:
            err = out / "error.txt"
            return err.read_text().split(":", 1)[0].strip() if err.exists() else "uncaught"
        if rep.rc == 2:
            return "max_iters"
        if rep.rc == EXIT_WALL_CAP or (rep.solve_s is None and rep.rc < 0):
            return "timeout"
        if rep.rc != 0:
            return "uncaught"
        return None if self._check(out) else "check"

    def _check(self, out: Path) -> bool:
        """Output checks; they run after the child has exited."""
        import numpy as np
        from sgromtr.oracle import tensor_reference

        summary = dict(line.split(" = ", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        if summary["status"] != "converged":
            return False
        if self.wl.method == "sg-rom-tr":
            lines = (out / "events.csv").read_text().splitlines()
            cols = lines[0].split(",")
            kind, ok = cols.index("kind"), cols.index("ok")
            for line in lines[1:]:
                row = line.split(",")
                if row[kind] == "exit_check" and row[ok] != "1":
                    return False
        gnorm = float(summary["final_gnorm"])
        if self.wl.method == "sg-iso" and gnorm > self.gtol:
            return False
        mu = summary["final_mu"]
        if mu not in self._ref_gnorm:
            if self._problem is None:
                self._problem = self._make()
            _, g_ref = tensor_reference(self._problem,
                                        np.array([float(v) for v in mu.split()]),
                                        CHECK_LEVEL)
            self._ref_gnorm[mu] = float(np.linalg.norm(g_ref))
        return self._ref_gnorm[mu] <= 10.0 * max(gnorm, self.gtol)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:   # another run still uses it
            pass


def _at_ref(seconds: float, ref_s: float) -> float:
    """Scale a time measured while the reference task took ``ref_s`` to speed 1.

    The box's speed drifts by up to a factor of two over minutes; sgromtr's
    solve times and the reference task's time drift together, their ratio
    does not.
    """
    return seconds * REF_S / ref_s


def _charged(rep: Rep, cap: float) -> float:
    """Solve seconds at reference speed; a failed run is charged the cap.

    A killed child reported no reference time: its cap stays unscaled.
    """
    if rep.ref_solve_s is None:
        return cap
    raw = rep.solve_s if rep.fail is None else max(cap, rep.solve_s or 0.0)
    return _at_ref(raw, rep.ref_solve_s)


def _determinism_errors(reps) -> list:
    """Counts of every converged input that ran more than once must agree."""
    first = {}
    errors = []
    for rep in reps:
        if rep.fail is not None:
            continue
        key = tuple(rep.counts.get(c) for c in DETERMINISTIC)
        if rep.mu0 in first and first[rep.mu0] != key:
            errors.append(f"mu0={rep.mu0 or '0'}: {dict(zip(DETERMINISTIC, first[rep.mu0]))}"
                          f" then {dict(zip(DETERMINISTIC, key))}")
        first.setdefault(rep.mu0, key)
    return errors


def measure(bench: Bench, seconds: float, traced: bool):
    """Repetitions for about ``seconds`` of child wall time; returns (reps, setups).

    Another input starts only while at least half of one more (of the mean
    so far) fits, so a run overshoots ``seconds`` by about half an input at most.
    """
    pair = [False, True] if traced else [False]
    reps = []
    spent = 0.0
    while not reps or spent + 0.5 * len(pair) * spent / len(reps) < seconds:
        mu0 = bench.next_input()
        for tr in pair:
            rep = bench.run(mu0, tr)
            spent += rep.wall_s
            reps.append(rep)
            _print_rep(rep)
    # run one input twice when no input repeated, for the determinism check
    if not traced and len({r.mu0 for r in reps}) == len(reps) \
            and reps[0].fail is None:
        rep = bench.run(reps[0].mu0, False)
        reps.append(rep)
        _print_rep(rep)
    setups = [_at_ref(r.setup_s, r.ref_setup_s) for r in reps if r.setup_s is not None]
    while len(setups) < SETUPS_PER_RUN:
        setups.append(bench.setup_only())
    return reps, setups


def _print_rep(rep: Rep):
    c = rep.counts
    print(f"  rep {'traced  ' if rep.traced else 'untraced'} exit={rep.rc} "
          f"{'ok' if rep.fail is None else 'FAIL ' + rep.fail:<20} "
          f"setup={rep.setup_s or 0.0:.3f}s solve={rep.solve_s or 0.0:.3f}s "
          f"ref={rep.ref_solve_s or 0.0:.3f}s probes={rep.probes} "
          f"rss={rep.rss_mb or 0.0:.1f}MiB n_hp={c.get('n_hp', '-')} n_rp={c.get('n_rp', '-')} "
          f"grid={c.get('grid_size', '-')} basis={c.get('basis_k', '-')}", flush=True)


def end_to_end(bench: Bench, reps, setups) -> dict:
    ok = [r for r in reps if r.fail is None]
    print(f"  wall-clock medians: solve {statistics.median(r.solve_s or 0.0 for r in reps):.4g} s, "
          f"setup {statistics.median(r.setup_s for r in reps if r.setup_s is not None):.4g} s, "
          f"reference task {statistics.median(r.ref_solve_s or 0.0 for r in reps):.4g} s "
          f"(speed 1: {REF_S} s)")
    return {
        "solve_s": (statistics.median(_charged(r, bench.wl.cap) for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        # no converged run: no query cost to report (0)
        "n_hp": (statistics.fmean(r.counts["n_hp"] for r in ok) if ok else 0.0, "count"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps if r.rss_mb), "MiB"),
    }


def per_layer(bench: Bench, reps) -> dict:
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    out = {}
    keys = sorted({k for r in traced for k in r.layers})
    for key in keys:
        vals = [r.layers.get(key, 0.0) for r in traced]
        out[key] = statistics.fmean(vals)
    out["sparse_grid.grid_size"] = statistics.fmean(
        r.counts.get("grid_size", 0) for r in traced)
    out["rom.basis_k"] = statistics.fmean(r.counts.get("basis_k", 0) for r in traced)
    out["trace.overhead_s"] = (
        statistics.median(_charged(r, bench.wl.cap) for r in traced)
        - statistics.median(_charged(r, bench.wl.cap) for r in plain))
    for cls in FAIL_CLASSES:
        out[f"fail.{cls}"] = sum(r.fail == cls for r in reps)
    out["fail_rate"] = sum(r.fail is not None for r in reps) / len(reps)
    return out


def _unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith(("share", "ratio", "fail_rate", "per_gn_iter")):
        return "fraction" if not key.endswith("per_gn_iter") else "evals/iter"
    if key.endswith("bytes_computed"):
        return "bytes"
    return "count"


def environment() -> list:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"child BLAS/OpenMP threads: 1 ({', '.join(THREAD_VARS)})",
            f"nproc: {os.cpu_count()}",
            f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}"]


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    bench = Bench(name, seed)
    try:
        print(f"workload {name} ({'traced' if traced else 'untraced'}), seed {seed}: "
              f"{bench.wl.why}", flush=True)
        reps, setups = measure(bench, seconds, traced)
    finally:
        bench.close()
    errors = _determinism_errors(reps)
    for err in errors:
        print(f"BENCHMARK ERROR: counts differ between two runs of one input: {err}")
    failed = sum(r.fail is not None for r in reps)
    if traced:
        metrics = {k: (v, _unit(k)) for k, v in per_layer(bench, reps).items()
                   if k != "traced_total_s"}
    else:
        metrics = end_to_end(bench, reps, setups)
    for key, (val, unit) in metrics.items():
        print(f"  {name} {key} = {val:.6g} {unit}")
    if not traced:
        print(f"  {name} fail_rate = {failed / len(reps):.6g} fraction "
              f"({failed} of {len(reps)} runs)")
    return {"correct": failed == 0 and not errors, "attempted": len(reps),
            "failed": failed, "metrics": metrics, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sgromtr" / "__init__.py").is_file():
        print(f"error: no sgromtr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    for line in environment():
        print(line)

    if args.workload == "all":
        runs = [(n, m) for n in WORKLOADS for m in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = [run_workload(n, args.seed, args.seconds, m) for n, m in runs]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{n}/{'trace' if m else 'e2e'}/{k}": v
                   for (n, m), res in zip(runs, results)
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if any(r["errors"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
