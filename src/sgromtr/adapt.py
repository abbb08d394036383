"""Error indicators and the sparse-grid / reduced-basis refinement drivers.

A :class:`SgRomPair` couples one sparse grid with one reduced basis and
stores the reduced primal/adjoint solve at every (node, parameter) pair
it has evaluated.  Two drivers grow the pair until the trust-region
accuracy conditions hold:

* :func:`refine_for_gradient` enforces the three-way split of the
  gradient condition at the trust-region center.
* :func:`refine_for_objective` enforces the two-way split of the
  objective-decrease condition at the center and the trial point.

Both drivers run one loop.  An open truncation term adds the forward
neighbor that contributes most to it (dimension-adaptive growth: the
largest |tensor difference| of the gradient-estimate norm, or of |f| on
the objective stage); an open residual term samples the full model
greedily at the node with the largest residual.  The loop samples each
(node, parameter) point at most once and appends primal and adjoint
snapshots together.  A sample whose snapshots keep no basis column
changes no term, so it ends its term's sampling for the pass, and a
pass that changes nothing else grows the grid: a pass buys at most one
such full primal and adjoint solve per term.  It evaluates the
indicator and its thresholds once at entry and once after every grid or
basis change.
An evaluation assembles the union quadrature of the grid and its forward
neighbors once and reads one sweep of node solves per parameter point;
the residual terms and the neighbor differences both come from that
sweep.  That one evaluation returns the term values and the neighbor
differences behind the truncation term, fills the change's event,
drives the next decision (the grid growth picks from its differences)
and, when the loop ends, is the one the exit check reuses, so the exit
conditions hold exactly as evaluated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .hdm import (QueryCounters, SolverError, adjoint_gradient, solve_adjoint,
                  solve_primal)
from .rom import ReducedBasis, solve_rom_adjoint, solve_rom_primal
from .sparse_grid import (MultiIndexSet, assemble, difference_rule,
                          interpolation_weights)

__all__ = [
    "NodeEval", "SgRomPair", "RefinementEvent", "LevelCapError",
    "eval_gradient_indicator", "eval_objective_indicator",
    "objective_thresholds", "refine_for_gradient", "refine_for_objective",
    "MACHINE_FLOOR",
]

#: Below this value of min{||grad m||, Delta} the gradient refinement is
#: a no-op; the driver is at the numerical floor and the caller's
#: stopping test will fire.
MACHINE_FLOOR = 1e-13


class LevelCapError(RuntimeError):
    """Refinement demanded a 1D quadrature level beyond the configured cap."""


@dataclass
class RefinementEvent:
    stage: str            # "gradient" | "objective"
    kind: str             # "add_index" | "add_snapshot" | "exit_check"
    detail: str
    before: float
    after: float
    ok: bool = True


@dataclass
class NodeEval:
    """Reduced solve at one (node, parameter) pair.

    The primal part is always set.  The adjoint part (``adj_res``,
    ``ghat``, ``gnorm``) is None until :meth:`SgRomPair.ensure_adjoints`
    solves it at this entry's ``q``.
    """

    coord: np.ndarray
    q: np.ndarray
    prim_res: float
    fval: float
    adj_res: float | None = None
    ghat: np.ndarray | None = None
    gnorm: float | None = None    # ||ghat||


def _mu_key(mu) -> bytes:
    return np.asarray(mu, dtype=float).tobytes()


def _padded(qs, k) -> np.ndarray:
    """The vectors ``qs`` as the rows of an array, each cut or
    zero-padded to ``k`` entries."""
    out = np.zeros((len(qs), k))
    for row, q in zip(out, qs):
        row[:len(q)] = q[:k]
    return out


class SgRomPair:
    """A sparse grid and reduced basis with one store of node solves.

    ``_nodes`` maps a parameter key to ``{node key: NodeEval}`` and holds
    the latest solve of every node at every parameter point the pair has
    kept.  The basis only grows, so a stored solve is current exactly
    when its ``q`` has ``basis.k`` entries; :meth:`ensure` re-solves the
    stale ones, which serve as warm starts only and never feed indicator
    values.  At a stored ``mu`` a stale node starts from its own solve,
    and a node not stored there from the sparse-grid interpolant of the
    grid's solves there, the approximation stochastic collocation makes
    of a node's state, when all of those are stored; at a new ``mu`` a
    node starts from its own solve at the nearest ``mu`` where it was
    solved.  A node with none of these starts from the projected last
    primal snapshot.  Warm starts are chosen from the store as it was
    before each sweep, so results do not depend on evaluation order.  The
    union quadrature of the grid and its forward neighbors is assembled
    once per grid (:meth:`union_quad`).

    Each :meth:`ensure` sweep solves its missing nodes as one stack: one
    stacked primal solve and the objective values of all nodes at once.
    The reduced adjoint is solved on demand: :meth:`ensure_adjoints`
    solves, as one more stack, the adjoints and gradient estimates of the
    listed nodes that lack one, and only the readers of ``adj_res``,
    ``ghat`` or ``gnorm`` ask for it (the model gradient, the gradient
    indicator's ``e3`` and ``e4``, greedy sampling on the adjoint
    residual and the final report).  An adjoint is stored with the
    ``q`` it was solved at, so a primal re-solve drops it.  A node whose
    Gauss-Newton solve stagnates or hits the iteration cap is stored at
    its last iterate with that iterate's true residual norm, and counted
    in ``counters.rom_recoveries``: the residual-based indicators hold at
    any reduced state, so refinement then samples that node.  Nodes that
    stop on the stall branch with an accepted gradient are counted in
    ``counters.rom_stalls``.
    """

    def __init__(self, problem, grid: MultiIndexSet, basis: ReducedBasis,
                 counters: QueryCounters):
        self.problem = problem
        self.grid = grid
        self.basis = basis
        self.counters = counters
        self._nodes: dict = {}
        self._union = None   # the last (grid, union quadrature) assembled

    def clone(self, mus) -> "SgRomPair":
        """An independent copy that keeps the node solves at ``mus`` only."""
        keep = {_mu_key(mu) for mu in mus}
        out = SgRomPair(self.problem, self.grid, self.basis.clone(),
                        self.counters)
        out._nodes = {mk: dict(nodes) for mk, nodes in self._nodes.items()
                      if mk in keep}
        out._union = self._union
        return out

    # -- node solves -----------------------------------------------------------

    def _mus_by_distance(self, mu) -> list:
        """Stored parameter keys, nearest to ``mu`` first (stable on ties)."""
        mks = list(self._nodes)
        if not mks:
            return []
        mus = np.array([np.frombuffer(mk) for mk in mks])
        dist = np.linalg.norm(mus - mu, axis=1)
        return [mks[i] for i in np.argsort(dist, kind="stable")]

    def _warm_starts(self, nodes, mk, near) -> np.ndarray:
        """Initial reduced coordinates, one row per ``(key, coord)`` node at ``mk``.

        At a stored ``mk`` a node stored there starts from its own
        solve; a node not stored there starts from the sparse-grid
        interpolant (:func:`interpolation_weights`) of the solves of
        ``self.grid``'s nodes at ``mk`` when all of those are stored.
        ``near`` (see :meth:`_mus_by_distance`) is used only at a new
        ``mk``.  A node left without a start takes the projected last
        primal snapshot.  Stored solves of a smaller basis are
        zero-padded to ``basis.k``.  The interpolant runs in blocks of
        new nodes whose weights and one tensor term's basis, at most a
        float per grid node each, fit ``kernels.STACK_BYTES``.
        """
        k = self.basis.k
        stored = self._nodes.get(mk)
        if stored:
            picks = [stored[key].q if key in stored else None for key, _ in nodes]
            new = np.array([i for i, q in enumerate(picks) if q is None], dtype=int)
            keys = assemble(self.grid).keys if new.size else ()
            if keys and all(key in stored for key in keys):
                coords = np.array([nodes[i][1] for i in new])
                values = _padded([stored[key].q for key in keys], k)
                for block in kernels.stack_parts(new.size, 16 * len(keys)):
                    fits = interpolation_weights(self.grid, coords[block])[1] @ values
                    for i, q in zip(new[block], fits):
                        picks[i] = q
        else:
            picks = [next((self._nodes[wmk][key].q for wmk in near
                           if key in self._nodes[wmk]), None)
                     for key, _ in nodes]
        fallback = (np.zeros(k) if self.basis.last_primal is None
                    else self.basis.project(self.basis.last_primal))
        return _padded([fallback if q is None else q for q in picks], k)

    def ensure(self, mu, keys, coords) -> None:
        """Solve the primal of every listed node at ``mu`` without a current one."""
        mk = _mu_key(mu)
        stored = self._nodes.get(mk, {})
        k = self.basis.k
        missing = [(key, coord) for key, coord in zip(keys, coords)
                   if key not in stored or len(stored[key].q) != k]
        if not missing:
            return
        missing.sort(key=lambda kc: kc[0])
        mu = np.asarray(mu, dtype=float)
        near = [] if mk in self._nodes else self._mus_by_distance(mu)
        q0 = self._warm_starts(missing, mk, near)
        ys = np.array([coord for _, coord in missing], dtype=float)
        prim = solve_rom_primal(self.problem, self.basis, ys, mu, q0=q0)
        self.counters.count_rom_primals(prim)
        fval = self.problem.qoi(self.basis.expand(prim.q), ys, mu)
        nodes = self._nodes.setdefault(mk, {})
        for i, (key, _) in enumerate(missing):
            nodes[key] = NodeEval(ys[i], prim.q[i], float(prim.residual_norm[i]),
                                  float(fval[i]))

    def ensure_adjoints(self, mu, keys) -> None:
        """Solve the adjoint at every listed node at ``mu`` that lacks one.

        The nodes must have a current primal solve (:meth:`ensure`).  A
        solved entry is replaced, not changed in place, because a clone
        shares its entries with the pair it was made from.
        """
        mu = np.asarray(mu, dtype=float)
        nodes = self._nodes[_mu_key(mu)]
        missing = [key for key in keys if nodes[key].adj_res is None]
        if not missing:
            return
        evs = [nodes[key] for key in missing]
        q = np.array([ev.q for ev in evs])
        ys = np.array([ev.coord for ev in evs])
        adj = solve_rom_adjoint(self.problem, self.basis, q, ys, mu)
        ghat = adjoint_gradient(self.problem, self.basis.expand(adj.eta),
                                self.basis.expand(q), ys, mu)
        gnorm = np.sqrt(kernels.row_dot(ghat))
        for i, (key, ev) in enumerate(zip(missing, evs)):
            nodes[key] = replace(ev, adj_res=float(adj.residual_norm[i]),
                                 ghat=ghat[i], gnorm=float(gnorm[i]))
        self.counters.n_ra += len(missing)

    def evals(self, quad, mu, adjoint: bool = False) -> list:
        """Current solves at ``mu`` of the nodes of ``quad``, in its order,
        with their adjoints when ``adjoint`` is set."""
        self.ensure(mu, quad.keys, quad.coords)
        if adjoint:
            self.ensure_adjoints(mu, quad.keys)
        nodes = self._nodes[_mu_key(mu)]
        return [nodes[key] for key in quad.keys]

    # -- model and indicator values -------------------------------------------

    def union_quad(self):
        """Quadrature of the grid and its forward neighbors, assembled
        once per grid."""
        if self._union is None or self._union[0] != self.grid:
            self._union = (self.grid, assemble(self.grid.union_with_neighbors()))
        return self._union[1]

    def model_value(self, mu) -> float:
        quad = assemble(self.grid)
        return float(np.dot(quad.weights, [ev.fval for ev in self.evals(quad, mu)]))

    def model_gradient(self, mu) -> np.ndarray:
        quad = assemble(self.grid)
        return quad.weights @ np.array(
            [ev.ghat for ev in self.evals(quad, mu, adjoint=True)])

    def neighbor_differences(self, quad, evs, value) -> dict:
        """Tensor-difference quadrature of ``value(ev)`` per forward neighbor.

        ``evs`` is one sweep of the union quadrature ``quad`` at a
        parameter point (:meth:`evals`) holding every part ``value``
        reads; every node of a neighbor's difference rule lies in
        ``quad``, so nothing is solved here.  ``value`` maps a
        :class:`NodeEval` to a float.
        """
        by_key = dict(zip(quad.keys, evs))
        out = {}
        for idx in self.grid.neighbors():
            rule = difference_rule(idx)
            vals = [value(by_key[key]) for key in rule.keys]
            out[idx] = float(np.dot(rule.weights, vals))
        return out


def _abs_quadrature(quad, vals) -> float:
    """|Quadrature| of one residual norm over the grid and its neighbors."""
    return abs(float(np.dot(quad.weights, vals)))


def eval_gradient_indicator(pair: SgRomPair, mu):
    """Primal-residual, adjoint-residual, and truncation terms at ``mu``.

    Returns ``({"e1", "e3", "e4"}, [diffs])``.  The first two terms are
    quadratures of residual norms over the grid and its forward
    neighbors; ``e4`` sums ``diffs``, the tensor differences of the
    gradient-estimate norm per neighbor.  All three read one sweep of
    the union quadrature's node solves, adjoints included.  Signed
    quadrature of a nonnegative integrand can dip below zero at noise
    level, so absolute values are reported.
    """
    quad = pair.union_quad()
    evs = pair.evals(quad, mu, adjoint=True)
    e1 = _abs_quadrature(quad, [ev.prim_res for ev in evs])
    e3 = _abs_quadrature(quad, [ev.adj_res for ev in evs])
    diffs = pair.neighbor_differences(quad, evs, lambda ev: ev.gnorm)
    return {"e1": e1, "e3": e3, "e4": abs(sum(diffs.values()))}, [diffs]


def eval_objective_indicator(pair: SgRomPair, mu_center, mu_trial):
    """Primal-residual and truncation terms summed over center and trial.

    Returns ``({"e1'", "e2'"}, [diffs_center, diffs_trial])``, where
    ``e2'`` sums the per-point |tensor-difference sums| of ``|f|``.
    Both terms of a point read one sweep of the union quadrature's node
    solves there.
    """
    quad = pair.union_quad()
    sweeps = [pair.evals(quad, mu) for mu in (mu_center, mu_trial)]
    e1 = sum(_abs_quadrature(quad, [ev.prim_res for ev in evs]) for evs in sweeps)
    diffs = [pair.neighbor_differences(quad, evs, lambda ev: abs(ev.fval))
             for evs in sweeps]
    return {"e1'": e1, "e2'": sum(abs(sum(d.values())) for d in diffs)}, diffs


# ---------------------------------------------------------------------------
# greedy sampling
# ---------------------------------------------------------------------------

def _greedy_candidate(pair: SgRomPair, mus, which: str):
    """Largest residual over unsampled (node, mu) pairs.

    Ties break toward the lowest canonical node key and the earlier
    parameter point.  Returns None when every candidate is sampled.
    """
    quad = pair.union_quad()
    best = None
    best_val = -np.inf
    for mu in mus:
        mk = _mu_key(mu)
        evs = pair.evals(quad, mu, adjoint=which == "adjoint")
        for key, ev in zip(quad.keys, evs):
            if (key, mk) in pair.basis.sampled_points:
                continue
            val = ev.prim_res if which == "primal" else ev.adj_res
            if val > best_val:
                best_val = val
                best = (key, mu, ev)
    return best


def _vector(v) -> str:
    """A vector's entries, each written so that it reads back exactly."""
    return " ".join(repr(float(x)) for x in v)


def _mu_tag(mu) -> str:
    return hashlib.md5(_mu_key(mu)).hexdigest()[:8]


def _sample(pair: SgRomPair, key, mu, ev: NodeEval) -> int:
    """Solve the HDM at the winning point, from the node's reduced state
    ``ev``, and append both snapshots; returns how many basis columns
    they added.  A failed full solve is a :class:`SolverError`."""
    coord = ev.coord[None]
    prim = solve_primal(pair.problem, coord, mu,
                        u0=(pair.basis.columns @ ev.q)[None])
    pair.counters.count_primals(prim)
    lam = solve_adjoint(pair.problem, prim.u, coord, mu)
    pair.counters.n_ha += 1
    pair.basis.sampled_points.add((key, _mu_key(mu)))
    return pair.basis.append_snapshots([prim.u[0], lam[0]],
                                       ["primal", "adjoint"], ev.coord, mu)


def _pick_index(diffs: dict):
    """Arg-max of |difference| with lexicographically-smallest tie-break."""
    best_idx = None
    best_val = -np.inf
    for idx in sorted(diffs):
        val = abs(diffs[idx])
        if val > best_val:
            best_val = val
            best_idx = idx
    return best_idx


# ---------------------------------------------------------------------------
# refinement drivers
# ---------------------------------------------------------------------------

def _refine(pair: SgRomPair, stage: str, evaluate, trunc: str, targets: dict,
            mus: list, level_cap: int, events, bounds: dict | None = None
            ) -> SgRomPair:
    """Grow ``pair`` until every indicator term is within its threshold.

    ``evaluate()`` returns ``(values, thresholds, exit_values, diffs)``:
    the term values and their bounds keyed by term name, the
    ``(before, after)`` pair of the exit-check event, and the neighbor
    differences behind the truncation term ``trunc``, one dict per point
    of ``mus``.  An open ``trunc`` adds the forward neighbor with the
    largest ``|difference|`` over those dicts; each open residual term
    in ``targets`` (term -> ``"primal"`` or ``"adjoint"``) samples the
    HDM greedily until it closes, no candidate is left, or a sample
    keeps no basis column, which leaves the basis and the term as they
    were and makes no progress.  The ``add_snapshot`` event's detail
    records the columns kept.  A pass that changes nothing while terms
    stay open grows the grid, so the loop ends only once every term is
    within its threshold; any other way out is an exception, such as
    :class:`LevelCapError`, or a :class:`SolverError` that names the
    stage, node and parameter point of a greedy sample whose full solve
    failed.  ``evaluate`` runs once at entry and once after each change,
    and that one value logs the change, drives the next decision and, at
    the end, the exit check.  ``bounds`` (term -> name), when given,
    names in the exit check's detail the bound that set each threshold.
    """
    values, limits, exit_values, diffs = evaluate()

    def ok(term) -> bool:
        return values[term] <= limits[term]

    def changed(kind, detail, term) -> None:
        nonlocal values, limits, exit_values, diffs
        before = values[term]
        values, limits, exit_values, diffs = evaluate()
        if events is not None:
            events.append(RefinementEvent(stage, kind, detail, before,
                                          values[term]))

    def grow() -> None:
        idx = _pick_index({i: max(abs(d[i]) for d in diffs) for i in diffs[0]})
        if max(idx) > level_cap:
            raise LevelCapError(
                f"refinement wants index {idx} beyond the level cap {level_cap}")
        pair.grid = pair.grid.with_index(idx)
        changed("add_index", " ".join(map(str, idx)), trunc)

    while True:
        progressed = not ok(trunc)
        if progressed:
            grow()
        for term, which in targets.items():
            while not ok(term):
                cand = _greedy_candidate(pair, mus, which)
                if cand is None:
                    break  # saturated; grid growth will add candidates
                key, mu, ev = cand
                try:
                    kept = _sample(pair, key, mu, ev)
                except SolverError as err:
                    raise SolverError(
                        f"{stage} stage: greedy sample at node {key}, y = "
                        f"{_vector(ev.coord)}, mu = {_vector(mu)}: {err}") from err
                changed("add_snapshot",
                        f"node={key} mu={_mu_tag(mu)} kept={kept}", term)
                if not kept:
                    break  # nothing changed; the grid grows instead
                progressed = True
        if all(map(ok, values)):
            break
        if not progressed:
            # saturated at the current grid with conditions still open:
            # force a grid refinement so the candidate set grows
            grow()

    if events is not None:
        detail = " ".join(f"{t}={values[t]:.6e}<={limits[t]:.6e}"
                          + (f"({bounds[t]})" if bounds else "") for t in values)
        events.append(RefinementEvent(stage, "exit_check", detail, *exit_values))
    return pair


def refine_for_gradient(pair: SgRomPair, mu_k, Delta_k, config,
                        events: list | None = None) -> SgRomPair:
    """Grow the pair until the three gradient-condition inequalities hold.

    ``config`` is the run's :class:`~sgromtr.trust_opt.TrustRegionConfig`.
    Each inequality bounds one indicator term by
    ``kappa_phi / (3 beta_i) * max(min{||grad m(mu_k)||, Delta_k}, gtol)``,
    with ``kappa_phi``, ``beta_i`` (``betas``) and ``gtol`` its fields;
    the right-hand side is re-evaluated after every grid or basis change
    because the model gradient appears on both sides.  The floor at
    ``gtol`` keeps the thresholds above round-off; it binds only when the
    caller's stopping test ``min{||grad m||, Delta} <= gtol`` is about to
    fire, and above ``gtol`` the thresholds are the exact ones.  No index
    may exceed ``config.level_cap``.
    """
    mu_k = np.asarray(mu_k, dtype=float)

    def guard() -> float:
        return min(float(np.linalg.norm(pair.model_gradient(mu_k))), Delta_k)

    if guard() <= MACHINE_FLOOR:
        return pair

    def evaluate():
        values, diffs = eval_gradient_indicator(pair, mu_k)
        t = guard()
        limits = {name: config.kappa_phi / (3.0 * b) * max(t, config.gtol)
                  for name, b in zip(values, config.betas)}
        phi = sum(b * e for b, e in zip(config.betas, values.values()))
        return values, limits, (phi, t), diffs

    return _refine(pair, "gradient", evaluate, "e4",
                   {"e1": "primal", "e3": "adjoint"}, [mu_k], config.level_cap,
                   events)


def objective_thresholds(m_decrease, r_k, config) -> tuple:
    """Per-term thresholds of the objective condition and the bound that set each.

    Term ``i``'s threshold is the larger of the exact bound
    ``(eta min{m_decrease, r_k})^(1/omega) / (2 alpha_i)`` and
    ``theta_floor``, all fields of ``config``, the run's
    :class:`~sgromtr.trust_opt.TrustRegionConfig` (``alpha_i`` from
    ``alphas``).  Returns ``(thresholds, names)``, each name ``"exact"``
    or ``"theta_floor"``.
    """
    base = (config.eta * min(m_decrease, r_k)) ** (1.0 / config.omega)
    exact = [base / (2.0 * a) for a in config.alphas]
    floor = config.theta_floor
    return (tuple(max(ex, floor) for ex in exact),
            tuple("exact" if ex >= floor else "theta_floor" for ex in exact))


def refine_for_objective(pair: SgRomPair, mu_k, mu_hat, m_decrease, r_k, config,
                         events: list | None = None) -> SgRomPair:
    """Grow the pair until the two objective-condition inequalities hold.

    The thresholds are those of :func:`objective_thresholds` for
    ``config``: the exact ones, raised to ``config.theta_floor``, since
    they collapse beneath what residual-based indicators can attain in
    double precision (like the tenth power of the predicted decrease for
    the default ``omega = 0.1``).  The exit check names per term the
    bound that set its threshold.  No index may exceed ``config.level_cap``.
    """
    if m_decrease <= 0.0:
        raise ValueError("model decrease must be positive (caller bug)")
    mu_k = np.asarray(mu_k, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    terms = ("e1'", "e2'")
    thresholds, names = objective_thresholds(m_decrease, r_k, config)
    limits = dict(zip(terms, thresholds))

    def evaluate():
        values, diffs = eval_objective_indicator(pair, mu_k, mu_hat)
        return values, limits, (values["e1'"], values["e2'"]), diffs

    return _refine(pair, "objective", evaluate, "e2'", {"e1'": "primal"},
                   [mu_k, mu_hat], config.level_cap, events,
                   dict(zip(terms, names)))
