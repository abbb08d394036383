"""In-memory span tracer for one benchmark child process.

The tracer replaces public functions of the ``sgromtr`` modules with
thin wrappers.  Each wrapper records a span ``(name, start, end,
parent)`` and, through an optional hook, counts derived from the call's
arguments and result.  Functions are patched where their callers look
them up: ``sgromtr.adapt.solve_rom_primal`` as well as
``sgromtr.rom.solve_rom_primal``, because the modules import functions
by name.  Spans stay in memory until :meth:`Tracer.layer_metrics`
aggregates them after the timed region.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

#: Modules whose self time is reported as ``<module>.share``.
SHARE_MODULES = ("kernels", "hdm", "rom", "adapt", "sparse_grid",
                 "trust_opt", "oracle", "cli")


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    return 0


class Tracer:
    """Span recorder; ``spans[i] = (name, start, end, parent index)``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` (a module or class) with a traced wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, root: str) -> dict:
        """Per-layer calls, self and inclusive seconds, shares and ratios.

        Only spans under root spans named ``root`` count; the shares are
        self times over the total duration of those roots.
        """
        # a wall-cap interrupt inside a wrapper's finally leaves a hole
        spans = [s or ("trace.lost", 0.0, 0.0, -1) for s in self.spans]
        top = []
        for name, _, _, parent in spans:   # a parent precedes its children
            top.append(name if parent < 0 else top[parent])
        keep = [t == root for t in top]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0 and keep[parent]:
                child_time[parent] += t1 - t0
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        total = 0.0
        for i, (name, t0, t1, parent) in enumerate(spans):
            if not keep[i]:
                continue
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child_time[i]
            if parent < 0:
                total += t1 - t0

        # counts that depend on where a call sits in the span tree
        def has_ancestor(i, prefixes):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0].startswith(prefixes):
                    return True
                p = spans[p][3]
            return False

        rom_residuals = hess_nodes = hdm_samples = 0
        for i, (name, _, _, _) in enumerate(spans):
            if not keep[i]:
                continue
            if name == "kernels.residual" and has_ancestor(i, ("rom.solve_rom_primal",)):
                rom_residuals += 1
            elif name == "rom.solve_rom_primal" and has_ancestor(i, ("trust_opt.hessvec",)):
                hess_nodes += 1
            elif name == "hdm.solve_primal" and has_ancestor(i, ("adapt.refine_for_",)):
                hdm_samples += 1

        c = self.counts
        module_self = defaultdict(float)
        for name, s in self_s.items():
            module_self[name.split(".", 1)[0]] += s

        def errs(prefix):
            return sum(v for (name, _), v in self.errors.items()
                       if name.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer, fns in (("kernels", ("residual", "bands", "band_products")),
                           ("hdm", ("solve_primal", "solve_adjoint")),
                           ("rom", ("solve_rom_primal", "lstsq", "solve_rom_adjoint")),
                           ("adapt", ("ensure",)),
                           ("sparse_grid", ("assemble",))):
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
        out.update({
            "kernels.bytes_computed": c["kernels.bytes"],
            "hdm.newton_iters": c["hdm.newton_iters"],
            "hdm.solver_errors": errs("hdm."),
            "rom.gn_iters": c["rom.gn_iters"],
            "rom.residual_evals": rom_residuals,
            "rom.residual_evals_per_gn_iter": ratio(rom_residuals, c["rom.gn_iters"]),
            "rom.solve_errors": errs("rom."),
            "rom.snapshots_offered": c["rom.offered"],
            "rom.snapshot_keep_ratio": ratio(c["rom.kept"], c["rom.offered"]),
            "adapt.nodes_requested": c["adapt.requested"],
            "adapt.cache_hit_ratio": ratio(c["adapt.requested"] - c["adapt.solved"],
                                           c["adapt.requested"]),
            "adapt.clone.self_s": self_s["adapt.clone"],
            "adapt.refine_for_gradient.s": incl["adapt.refine_for_gradient"],
            "adapt.refine_for_objective.s": incl["adapt.refine_for_objective"],
            "adapt.indicator_evals": (calls["adapt.eval_gradient_indicator"]
                                      + calls["adapt.eval_objective_indicator"]),
            "adapt.neighbor_differences.self_s": self_s["adapt.neighbor_differences"],
            "adapt.hdm_samples": hdm_samples,
            "sparse_grid.difference_rule.self_s": self_s["sparse_grid.difference_rule"],
            "trust_opt.iterations": calls["trust_opt.tr_iterate"],
            "trust_opt.steps_accepted": c["trust_opt.accepted"],
            "trust_opt.cg_iters": c["trust_opt.cg_iters"],
            "trust_opt.hessvec.calls": calls["trust_opt.hessvec"],
            "trust_opt.hessvec.s": incl["trust_opt.hessvec"],
            "trust_opt.hessvec.nodes_solved": hess_nodes,
            "oracle.tensor_reference.calls": calls["oracle.tensor_reference"],
            "oracle.tensor_reference.s": incl["oracle.tensor_reference"],
            "oracle.bfgs_iters": c["oracle.bfgs_iters"],
            "cli.run_optimize.self_s": self_s["cli.run_optimize"],
            "traced_total_s": total,
        })
        out["rom.lstsq.share"] = ratio(self_s["rom.lstsq"], total)
        out["trust_opt.hessvec.share"] = ratio(incl["trust_opt.hessvec"], total)
        for mod in SHARE_MODULES:
            out[f"{mod}.share"] = ratio(module_self[mod], total)
        return out


def install(tracer: Tracer, sg) -> None:
    """Patch every traced function of the imported ``sgromtr`` package ``sg``."""
    c = tracer.counts
    kernels, hdm, rom, adapt = sg.kernels, sg.hdm, sg.rom, sg.adapt
    sparse_grid, trust_opt, oracle, cli = sg.sparse_grid, sg.trust_opt, sg.oracle, sg.cli

    def count_bytes(out, args, kwargs):
        c["kernels.bytes"] += _nbytes(out) + sum(_nbytes(a) for a in args)

    for attr, group in (("diffusion_residual", "residual"), ("burgers_residual", "residual"),
                        ("diffusion_bands", "bands"), ("burgers_bands", "bands"),
                        ("band_matvec", "band_products"), ("band_t_matvec", "band_products"),
                        ("band_matmat", "band_products"), ("band_t_matmat", "band_products")):
        tracer.patch(kernels, attr, f"kernels.{group}", count_bytes)

    def newton(out, args, kwargs):
        c["hdm.newton_iters"] += out.newton_iters

    for mod in (hdm, adapt, trust_opt, oracle, cli):
        tracer.patch(mod, "solve_primal", "hdm.solve_primal", newton)
    for mod in (hdm, adapt, trust_opt, oracle, cli):
        tracer.patch(mod, "solve_adjoint", "hdm.solve_adjoint")
    tracer.patch(trust_opt, "primal_sensitivities", "hdm.primal_sensitivities")
    for mod in (hdm, adapt, oracle, cli):
        tracer.patch(mod, "adjoint_gradient", "hdm.adjoint_gradient")

    def gauss_newton(out, args, kwargs):
        c["rom.gn_iters"] += out.gn_iters

    for mod in (adapt, oracle, cli):
        tracer.patch(mod, "solve_rom_primal", "rom.solve_rom_primal", gauss_newton)
    for mod in (adapt, oracle):
        tracer.patch(mod, "solve_rom_adjoint", "rom.solve_rom_adjoint")
    # rom looks lstsq up as np.linalg.lstsq; no other module calls it
    tracer.patch(np.linalg, "lstsq", "rom.lstsq")

    def offered(out, args, kwargs):
        c["rom.offered"] += len(args[1])
        c["rom.kept"] += out

    tracer.patch(rom.ReducedBasis, "append_snapshots", "rom.append_snapshots", offered)
    tracer.patch(rom.ReducedBasis, "clone", "rom.clone")

    # SgRomPair.ensure: requested nodes, and misses from the n_rp counter
    ensure = adapt.SgRomPair.ensure
    ensure_traced = tracer.wrap(ensure, "adapt.ensure")

    def ensure_counted(self, mu, keys, coords):
        before = self.counters.n_rp
        ensure_traced(self, mu, keys, coords)
        c["adapt.requested"] += len(keys)
        c["adapt.solved"] += self.counters.n_rp - before

    adapt.SgRomPair.ensure = ensure_counted
    tracer.patch(adapt.SgRomPair, "clone", "adapt.clone")
    tracer.patch(adapt.SgRomPair, "neighbor_differences", "adapt.neighbor_differences")
    tracer.patch(adapt, "eval_gradient_indicator", "adapt.eval_gradient_indicator")
    tracer.patch(adapt, "eval_objective_indicator", "adapt.eval_objective_indicator")
    tracer.patch(trust_opt, "refine_for_gradient", "adapt.refine_for_gradient")
    tracer.patch(trust_opt, "refine_for_objective", "adapt.refine_for_objective")

    for mod in (adapt, cli):
        tracer.patch(mod, "assemble", "sparse_grid.assemble")
    tracer.patch(adapt, "difference_rule", "sparse_grid.difference_rule")
    for attr in ("neighbors", "union_with_neighbors", "with_index"):
        tracer.patch(sparse_grid.MultiIndexSet, attr, f"sparse_grid.{attr}")

    def iterate(out, args, kwargs):
        state = args[0]
        if state.history and state.history[-1].get("accepted"):
            c["trust_opt.accepted"] += 1

    tracer.patch(trust_opt, "tr_iterate", "trust_opt.tr_iterate", iterate)
    steihaug = trust_opt.steihaug_toint

    def steihaug_traced(gradient, hessvec, *args, **kwargs):
        out = steihaug(gradient, tracer.wrap(hessvec, "trust_opt.hessvec"),
                       *args, **kwargs)
        c["trust_opt.cg_iters"] += out.iters
        return out

    trust_opt.steihaug_toint = tracer.wrap(steihaug_traced, "trust_opt.steihaug_toint")

    for mod in (oracle, cli):
        tracer.patch(mod, "tensor_reference", "oracle.tensor_reference")

    def bfgs(out, args, kwargs):
        c["oracle.bfgs_iters"] += len(out[1]["history"])

    tracer.patch(cli, "sg_iso_baseline", "oracle.sg_iso_baseline", bfgs)
