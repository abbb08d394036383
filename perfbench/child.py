"""One benchmark repetition in a fresh process: set up, optimise, report.

Usage (run.py starts it; it can also be run by hand from the repository
root with ``PYTHONPATH=src``)::

    python3 perfbench/child.py --config run.ini --out DIR --result r.json \
        --launch T --cap SECONDS [--trace] [--setup-only]

``--launch`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so
``setup_s`` covers interpreter start, imports, config parsing and
problem construction.  ``solve_s`` covers ``sgromtr.cli.run_optimize``,
which writes the same reports as ``sgromtr optimize``.  Right after set-up
and right after the solve, outside both timed regions, the child times a
fixed reference task (:func:`reference_task_s`), and an untraced solve is
interrupted every 0.25 CPU seconds by a probe, a slice of that task whose
time is taken out of ``solve_s``.  The parent uses these times to express
both times at one machine speed.  The exit code is
the one ``sgromtr optimize`` would give, 1 with a traceback for an
uncaught exception, or 124 when the wall cap stopped the solve.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback
from pathlib import Path

EXIT_WALL_CAP = 124


class WallCap(BaseException):
    """The solve ran past its wall cap (not an Exception: nothing may catch it)."""


def _on_alarm(signum, frame):
    raise WallCap()


#: iterations of the reference task, and of one probe (1/20 of it)
REF_ITERS = 8000
PROBE_ITERS = 400
#: CPU seconds between probes during an untraced solve
PROBE_PERIOD_S = 0.25


def _reference_iters(n: int) -> float:
    """Seconds for ``n`` iterations of a fixed task that does not use sgromtr.

    Each iteration is a 64 x 64 matrix-vector product and a 300-step Python
    loop: small array calls and interpreter work, the mix that sgromtr's
    solves consist of.  It allocates nothing that lasts and loads no module
    or LAPACK routine sgromtr does not; it adds about 0.1 MiB to
    ``peak_rss_mb``.
    """
    import numpy as np

    a = np.cos(np.arange(64 * 64, dtype=float)).reshape(64, 64)
    x = np.ones(64)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(n):
        x = a @ x
        x /= np.abs(x).max()
        for j in range(300):
            acc += j * 0.5
    return time.perf_counter() - t0


def reference_task_s() -> float:
    """Seconds for the whole reference task; ``REF_S`` in run.py is its speed 1."""
    return _reference_iters(REF_ITERS)


class Probes:
    """Slices of the reference task run from a CPU-time timer during a solve.

    The box's speed changes within one solve of a few seconds, so the
    reference task timed before and after it does not tell the speed the
    solve ran at; probes spread through it do.  Their time is taken out
    of ``solve_s``.
    """

    def __init__(self):
        self.times: list = []
        self.spent = 0.0   # wall time inside the handler, probes included

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        self.times.append(_reference_iters(PROBE_ITERS))
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)


def _peak_rss_mib() -> float:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    memory at fork.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _counts(live: dict) -> dict:
    if "state" in live:
        state = live["state"]
        c = state.counters
        return {"n_hp": c.n_hp, "n_ha": c.n_ha, "n_rp": c.n_rp, "n_ra": c.n_ra,
                "newton_iters": c.newton_iters, "gn_iters": c.gn_iters,
                "grid_size": len(state.pair.grid), "basis_k": state.pair.basis.k,
                "iterations": state.k}
    if "counters" in live:
        c = live["counters"]
        return {"n_hp": c.n_hp, "n_ha": c.n_ha, "newton_iters": c.newton_iters}
    return {}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--cap", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import sgromtr
    import sgromtr.cli as cli

    tracer = None
    load_config = sgromtr.config.load_config
    run_optimize = cli.run_optimize
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, sgromtr)
        load_config = tracer.wrap(load_config, "config.load_config")
        run_optimize = tracer.wrap(run_optimize, "cli.run_optimize")

    cfg = load_config(args.config)
    make_problem = cfg.make_problem
    if tracer is not None:
        make_problem = tracer.wrap(make_problem, "hdm.make_problem")
    problem = make_problem()
    # run_optimize builds the problem again; hand it the one built here
    cfg.make_problem = lambda: problem
    ready = time.monotonic()
    result = {"setup_s": ready - args.launch, "ref_setup_s": reference_task_s()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    # keep the run's state (SG-ROM-TR) or counters (SG-ISO) so that its counts
    # can be read after the run, whether it converged, failed or was cut
    live = {}

    def keep_state(*a, **kw):
        live["state"] = tr_init(*a, **kw)
        return live["state"]

    def keep_counters(*a, **kw):
        live["counters"] = kw["counters"]
        return sg_iso(*a, **kw)

    tr_init, sg_iso = sgromtr.trust_opt.tr_init, cli.sg_iso_baseline
    sgromtr.trust_opt.tr_init, cli.sg_iso_baseline = keep_state, keep_counters

    if tracer is not None:   # hook counts cover the solve, like the spans
        tracer.counts.clear()
        tracer.errors.clear()
    # probes would add their time to the spans they interrupt
    probes = Probes()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, args.cap)
    t0 = time.monotonic()
    if tracer is None:
        probes.start()
    try:
        rc = run_optimize(cfg, Path(args.out))
    except WallCap:
        rc = EXIT_WALL_CAP
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        probes.stop()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        result["solve_s"] = time.monotonic() - t0 - probes.spent
    # the speed of the solve: the mean of the reference task before it,
    # after it, and extrapolated from each probe
    refs = [result["ref_setup_s"], reference_task_s(),
            *(t * REF_ITERS / PROBE_ITERS for t in probes.times)]
    result["ref_solve_s"] = sum(refs) / len(refs)
    result["probes"] = len(probes.times)
    result["peak_rss_mb"] = _peak_rss_mib()
    result["counts"] = _counts(live)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics("cli.run_optimize")
        result["layers"]["hdm.make_problem.s"] = sum(
            end - start for name, start, end, _ in filter(None, tracer.spans)
            if name == "hdm.make_problem")
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
