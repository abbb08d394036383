"""Error indicators and the sparse-grid / reduced-basis refinement drivers.

A :class:`SgRomPair` couples one sparse grid with one reduced basis and
caches the reduced primal/adjoint solve at every (node, parameter)
pair.  Two drivers grow the pair until the trust-region accuracy
conditions hold:

* :func:`refine_for_gradient` enforces the three-way split of the
  gradient condition at the trust-region center, alternating
  dimension-adaptive grid growth (largest truncation contribution among
  the forward neighbors) with greedy snapshot sampling at the node with
  the largest density-weighted residual.
* :func:`refine_for_objective` enforces the two-way split of the
  objective-decrease condition at the center and the trial point.

Both drivers sample each (node, parameter) point at most once, append
primal and adjoint snapshots together, and re-evaluate the guard
thresholds after every change, so the exit conditions hold exactly as
evaluated (asserted before returning).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .hdm import (QueryCounters, SolverError, adjoint_gradient, solve_adjoint,
                  solve_primal)
from .rom import ReducedBasis, solve_rom_adjoint, solve_rom_primal
from .sparse_grid import MultiIndexSet, assemble, difference_rule

__all__ = [
    "NodeEval", "SgRomPair", "GradientIndicator", "ObjectiveIndicator",
    "RefinementEvent", "LevelCapError", "RefinementError",
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


class RefinementError(RuntimeError):
    """Internal-consistency failure: refinement exhausted all candidates."""


@dataclass
class RefinementEvent:
    stage: str            # "gradient" | "objective"
    kind: str             # "add_index" | "add_snapshot" | "exit_check"
    detail: str
    before: float
    after: float
    ok: bool = True


@dataclass
class GradientIndicator:
    """Split error indicator for the model gradient at one parameter point."""

    e1: float
    e3: float
    e4: float
    betas: tuple

    @property
    def phi(self) -> float:
        b1, b3, b4 = self.betas
        return b1 * self.e1 + b3 * self.e3 + b4 * self.e4


@dataclass
class ObjectiveIndicator:
    """Split error indicator for the objective decrease between two points."""

    e1_at: dict
    e2_at: dict
    alphas: tuple
    center_key: tuple
    trial_key: tuple

    @property
    def e1_sum(self) -> float:
        return self.e1_at[self.center_key] + self.e1_at[self.trial_key]

    @property
    def e2_sum(self) -> float:
        return self.e2_at[self.center_key] + self.e2_at[self.trial_key]

    @property
    def theta(self) -> float:
        a1, a2 = self.alphas
        return a1 * self.e1_sum + a2 * self.e2_sum


@dataclass
class NodeEval:
    """Cached reduced solve at one (node, parameter) pair."""

    q: np.ndarray
    prim_res: float
    eta: np.ndarray
    adj_res: float
    ghat: np.ndarray
    gnorm: float          # ||ghat||
    fval: float
    gn_iters: int


def _mu_key(mu) -> bytes:
    return np.asarray(mu, dtype=float).tobytes()


class SgRomPair:
    """A sparse grid and reduced basis with a coherent node-solve cache.

    The cache is invalidated wholesale whenever the basis gains a
    column; stale reduced coordinates are kept separately, per parameter
    point, as warm starts only (they never feed indicator values).  A
    node solved before at the same ``mu`` starts from the nearest node
    solved at that ``mu`` (the first one found on ties); at a new ``mu``
    it starts from its own solution at the nearest ``mu`` where it was
    solved, and from the projected last primal snapshot when there is
    none.  Warm starts are chosen from a snapshot taken before each
    sweep, so results do not depend on evaluation order.
    """

    def __init__(self, problem, grid: MultiIndexSet, basis: ReducedBasis,
                 counters: QueryCounters):
        self.problem = problem
        self.grid = grid
        self.basis = basis
        self.counters = counters
        self._cache: dict = {}
        self._warm: dict = {}  # {mu key: {node key: (coord, q)}}
        self._version = basis.version

    def clone(self) -> "SgRomPair":
        out = SgRomPair(self.problem, self.grid, self.basis.clone(),
                        self.counters)
        out._cache = dict(self._cache)
        out._warm = {mk: dict(nodes) for mk, nodes in self._warm.items()}
        out._version = self._version
        return out

    # -- cache machinery -----------------------------------------------------

    def _sync(self) -> None:
        if self.basis.version != self._version:
            self._cache.clear()
            self._version = self.basis.version

    def _mus_by_distance(self, mu) -> list:
        """Cached parameter keys, nearest to ``mu`` first (stable on ties)."""
        mks = list(self._warm)
        if not mks:
            return []
        mus = np.array([np.frombuffer(mk) for mk in mks])
        dist = np.linalg.norm(mus - mu, axis=1)
        return [mks[i] for i in np.argsort(dist, kind="stable")]

    def _warm_starts(self, nodes, mk, near) -> list:
        """Initial reduced coordinates for the ``(key, coord)`` nodes at ``mk``.

        At a cached ``mk`` each node takes the solution of the nearest
        node solved there, the first in solve order on ties; ``near``
        (see :meth:`_mus_by_distance`) is used only at a new ``mk``.
        """
        cached = self._warm.get(mk)
        if cached:
            ys = np.array([wy for wy, _ in cached.values()])
            qs = [wq for _, wq in cached.values()]
            picks = [qs[np.argmin(np.linalg.norm(ys - coord, axis=1))]
                     for _, coord in nodes]
        else:
            picks = [next((self._warm[wmk][key][1] for wmk in near
                           if key in self._warm[wmk]), None)
                     for key, _ in nodes]
        k = self.basis.k
        starts = []
        for best in picks:
            if best is not None:
                q0 = np.zeros(k)
                q0[:len(best)] = best[:k]
            elif self.basis.last_primal is not None:
                q0 = self.basis.project(self.basis.last_primal)
            else:
                q0 = None
            starts.append(q0)
        return starts

    def _solve_node(self, key, coord, mu, q0):
        prim = solve_rom_primal(self.problem, self.basis, coord, mu, q0=q0)
        adj = solve_rom_adjoint(self.problem, self.basis, prim.q, coord, mu)
        phi = self.basis.columns
        u = phi @ prim.q
        ghat = adjoint_gradient(self.problem, phi @ adj.eta, u, coord, mu)
        fval = self.problem.qoi(u, coord, mu)
        return NodeEval(prim.q, prim.residual_norm, adj.eta,
                        adj.residual_norm, ghat, float(np.linalg.norm(ghat)),
                        fval, max(prim.gn_iters, 1))

    def ensure(self, mu, keys, coords) -> None:
        """Populate the cache for every listed node at this parameter point."""
        self._sync()
        mk = _mu_key(mu)
        missing = [(key, coord) for key, coord in zip(keys, coords)
                   if (key, mk) not in self._cache]
        if not missing:
            return
        missing.sort(key=lambda kc: kc[0])
        mu = np.asarray(mu, dtype=float)
        near = [] if mk in self._warm else self._mus_by_distance(mu)
        starts = self._warm_starts(missing, mk, near)
        evals = [self._solve_node(key, coord, mu, q0)
                 for (key, coord), q0 in zip(missing, starts)]
        nodes = self._warm.setdefault(mk, {})
        for (key, coord), ev in zip(missing, evals):
            self._cache[(key, mk)] = ev
            nodes[key] = (np.asarray(coord, dtype=float), ev.q)
        self.counters.n_rp += len(missing)
        self.counters.n_ra += len(missing)
        self.counters.gn_iters += sum(ev.gn_iters for ev in evals)

    def node_eval(self, key, coord, mu) -> NodeEval:
        self.ensure(mu, [key], [coord])
        return self._cache[(key, _mu_key(mu))]

    # -- quadrature views ----------------------------------------------------

    def grid_quad(self):
        return assemble(self.grid)

    def union_quad(self):
        return assemble(self.grid.union_with_neighbors())

    def sweep(self, mu):
        """Cache evals at all nodes of grid union neighbors; returns the quad."""
        quad = self.union_quad()
        self.ensure(mu, quad.keys, quad.coords)
        return quad

    def _evals(self, quad, mu):
        mk = _mu_key(mu)
        return [self._cache[(key, mk)] for key in quad.keys]

    # -- model and indicator values -------------------------------------------

    def model_value(self, mu) -> float:
        quad = self.grid_quad()
        self.ensure(mu, quad.keys, quad.coords)
        evals = self._evals(quad, mu)
        return float(np.dot(quad.weights, [ev.fval for ev in evals]))

    def model_gradient(self, mu) -> np.ndarray:
        quad = self.grid_quad()
        self.ensure(mu, quad.keys, quad.coords)
        evals = self._evals(quad, mu)
        return quad.weights @ np.array([ev.ghat for ev in evals])

    def neighbor_differences(self, mu, integrand: str) -> dict:
        """Signed tensor-difference value per forward neighbor.

        ``integrand`` selects the cached node functional: ``grad_norm``
        (norm of the gradient estimate), ``qoi`` or ``abs_qoi``.
        """
        self.sweep(mu)
        mk = _mu_key(mu)
        pick = {
            "grad_norm": lambda ev: ev.gnorm,
            "qoi": lambda ev: ev.fval,
            "abs_qoi": lambda ev: abs(ev.fval),
        }[integrand]
        out = {}
        for idx in self.grid.neighbors():
            rule = difference_rule(idx)
            self.ensure(mu, rule.keys, rule.coords)
            vals = [pick(self._cache[(key, mk)]) for key in rule.keys]
            out[idx] = float(np.dot(rule.weights, vals))
        return out


def eval_gradient_indicator(pair: SgRomPair, mu, betas) -> GradientIndicator:
    """Primal-residual, adjoint-residual, and truncation terms at ``mu``.

    The first two are quadratures of residual norms over the grid and
    its forward neighbors; the third sums the tensor differences of the
    gradient-estimate norm over the neighbors only.  Signed quadrature
    of a nonnegative integrand can dip below zero at noise level, so
    absolute values are reported.
    """
    quad = pair.sweep(mu)
    evals = pair._evals(quad, mu)
    e1 = abs(float(np.dot(quad.weights, [ev.prim_res for ev in evals])))
    e3 = abs(float(np.dot(quad.weights, [ev.adj_res for ev in evals])))
    e4 = abs(sum(pair.neighbor_differences(mu, "grad_norm").values()))
    return GradientIndicator(e1, e3, e4, tuple(betas))


def _objective_terms(pair: SgRomPair, mu):
    quad = pair.sweep(mu)
    evals = pair._evals(quad, mu)
    e1 = abs(float(np.dot(quad.weights, [ev.prim_res for ev in evals])))
    e2 = abs(sum(pair.neighbor_differences(mu, "abs_qoi").values()))
    return e1, e2


def eval_objective_indicator(pair: SgRomPair, mu_center, mu_trial,
                             alphas) -> ObjectiveIndicator:
    """Primal-residual and truncation terms at the center and trial points."""
    e1_c, e2_c = _objective_terms(pair, mu_center)
    e1_t, e2_t = _objective_terms(pair, mu_trial)
    ck, tk = tuple(mu_center), tuple(mu_trial)
    return ObjectiveIndicator(
        e1_at={ck: e1_c, tk: e1_t},
        e2_at={ck: e2_c, tk: e2_t},
        alphas=tuple(alphas), center_key=ck, trial_key=tk)


# ---------------------------------------------------------------------------
# greedy sampling
# ---------------------------------------------------------------------------

def _greedy_candidate(pair: SgRomPair, mus, which: str):
    """Largest density-weighted residual over unsampled (node, mu) pairs.

    Ties break toward the lowest canonical node key and the earlier
    parameter point.  Returns None when every candidate is sampled.
    """
    quad = pair.union_quad()
    best = None
    best_val = -np.inf
    for mu in mus:
        pair.ensure(mu, quad.keys, quad.coords)
        mk = _mu_key(mu)
        for key, coord in zip(quad.keys, quad.coords):
            if (key, mk) in pair.basis.sampled_points:
                continue
            ev = pair._cache[(key, mk)]
            val = pair.problem.density(coord) * (
                ev.prim_res if which == "primal" else ev.adj_res)
            if val > best_val:
                best_val = val
                best = (key, coord, mu)
    return best


def _mu_tag(mu) -> str:
    return hashlib.md5(_mu_key(mu)).hexdigest()[:8]


def _sample(pair: SgRomPair, key, coord, mu, stage, events, before, after_fn):
    """Solve the HDM at the winning point and append both snapshots."""
    mk = _mu_key(mu)
    ev = pair._cache.get((key, mk))
    u0 = pair.basis.columns @ ev.q if ev is not None else None
    try:
        prim = solve_primal(pair.problem, coord, mu, u0=u0, counters=pair.counters)
    except SolverError:
        prim = solve_primal(pair.problem, coord, mu, counters=pair.counters)
    adj = solve_adjoint(pair.problem, prim.u, coord, mu, counters=pair.counters)
    pair.basis.append_snapshots([prim.u, adj.lam], ["primal", "adjoint"],
                                coord, mu)
    pair.basis.sampled_points.add((key, mk))
    if events is not None:
        events.append(RefinementEvent(stage, "add_snapshot",
                                      f"node={key} mu={_mu_tag(mu)}",
                                      before, after_fn()))


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


def _grow_grid(pair: SgRomPair, idx, level_cap: int, stage, events, before, after_fn):
    if max(idx) > level_cap:
        raise LevelCapError(
            f"refinement wants index {idx} beyond the level cap {level_cap}")
    pair.grid = pair.grid.with_index(idx)
    if events is not None:
        events.append(RefinementEvent(stage, "add_index",
                                      " ".join(map(str, idx)), before, after_fn()))


# ---------------------------------------------------------------------------
# refinement drivers
# ---------------------------------------------------------------------------

def refine_for_gradient(pair: SgRomPair, mu_k, Delta_k, kappa_phi, betas,
                        level_cap: int = 10, events: list | None = None) -> SgRomPair:
    """Grow the pair until the three gradient-condition inequalities hold.

    Each inequality bounds one indicator term by
    ``kappa_phi / (3 beta_i) * min{||grad m(mu_k)||, Delta_k}``; the
    right-hand side is re-evaluated after every grid or basis change
    because the model gradient appears on both sides.
    """
    mu_k = np.asarray(mu_k, dtype=float)
    b1, b3, b4 = betas

    def guard() -> float:
        return min(float(np.linalg.norm(pair.model_gradient(mu_k))), Delta_k)

    def indicator() -> GradientIndicator:
        return eval_gradient_indicator(pair, mu_k, betas)

    if guard() <= MACHINE_FLOOR:
        return pair

    def thresholds():
        t = guard()
        return (kappa_phi / (3.0 * b1) * t,
                kappa_phi / (3.0 * b3) * t,
                kappa_phi / (3.0 * b4) * t)

    while True:
        progressed = False

        ind = indicator()
        thr1, thr3, thr4 = thresholds()
        if ind.e4 > thr4:
            diffs = pair.neighbor_differences(mu_k, "grad_norm")
            _grow_grid(pair, _pick_index(diffs), level_cap, "gradient", events,
                       ind.e4, lambda: indicator().e4)
            progressed = True

        # greedy enrichment on the primal then adjoint residual terms
        for which, term in (("primal", "e1"), ("adjoint", "e3")):
            while True:
                ind = indicator()
                thr1, thr3, _ = thresholds()
                val, thr = (ind.e1, thr1) if which == "primal" else (ind.e3, thr3)
                if val <= thr:
                    break
                cand = _greedy_candidate(pair, [mu_k], which)
                if cand is None:
                    break  # saturated; grid growth will add candidates
                key, coord, mu = cand
                _sample(pair, key, coord, mu, "gradient", events, val,
                        lambda: getattr(indicator(), term))
                progressed = True

        ind = indicator()
        thr1, thr3, thr4 = thresholds()
        if ind.e1 <= thr1 and ind.e3 <= thr3 and ind.e4 <= thr4:
            break
        if not progressed:
            # saturated at the current grid with conditions still open:
            # force a grid refinement so the candidate set grows
            diffs = pair.neighbor_differences(mu_k, "grad_norm")
            _grow_grid(pair, _pick_index(diffs), level_cap, "gradient", events,
                       ind.e4, lambda: indicator().e4)

    ind = indicator()
    thr1, thr3, thr4 = thresholds()
    ok = ind.e1 <= thr1 and ind.e3 <= thr3 and ind.e4 <= thr4
    if events is not None:
        events.append(RefinementEvent(
            "gradient", "exit_check",
            f"e1={ind.e1:.6e}<={thr1:.6e} e3={ind.e3:.6e}<={thr3:.6e} "
            f"e4={ind.e4:.6e}<={thr4:.6e}", ind.phi, guard(), ok))
    if not ok:
        raise RefinementError("gradient condition violated at exit")
    return pair


def objective_thresholds(m_decrease, r_k, eta, omega, alphas,
                         floor: float = 0.0) -> tuple:
    """Per-term bounds of the objective condition, raised to ``floor``."""
    base = (eta * min(m_decrease, r_k)) ** (1.0 / omega)
    return tuple(max(base / (2.0 * a), floor) for a in alphas)


def refine_for_objective(pair: SgRomPair, mu_k, mu_hat, m_decrease, r_k,
                         eta, omega, alphas, level_cap: int = 10,
                         threshold_floor: float = 0.0,
                         events: list | None = None) -> SgRomPair:
    """Grow the pair until the two objective-condition inequalities hold.

    The thresholds are ``(1 / (2 alpha_i)) (eta min{m_decrease, r_k})^(1/omega)``,
    raised to ``threshold_floor`` when the exact value falls below what
    residual-based indicators can attain in double precision (the exact
    thresholds collapse like the tenth power of the predicted decrease
    for the default ``omega = 0.1``).
    """
    if m_decrease <= 0.0:
        raise ValueError("model decrease must be positive (caller bug)")
    mu_k = np.asarray(mu_k, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    thr1, thr2 = objective_thresholds(m_decrease, r_k, eta, omega, alphas,
                                      threshold_floor)
    mus = [mu_k, mu_hat]

    def terms():
        ind = eval_objective_indicator(pair, mu_k, mu_hat, alphas)
        return ind.e1_sum, ind.e2_sum

    def grow():
        diffs_c = pair.neighbor_differences(mu_k, "qoi")
        diffs_t = pair.neighbor_differences(mu_hat, "qoi")
        diffs = {idx: max(abs(diffs_c[idx]), abs(diffs_t[idx])) for idx in diffs_c}
        _grow_grid(pair, _pick_index(diffs), level_cap, "objective", events,
                   terms()[1], lambda: terms()[1])

    while True:
        progressed = False

        e1_sum, e2_sum = terms()
        if e2_sum > thr2:
            grow()
            progressed = True

        while True:
            e1_sum, _ = terms()
            if e1_sum <= thr1:
                break
            cand = _greedy_candidate(pair, mus, "primal")
            if cand is None:
                break  # saturated; grid growth will add candidates
            key, coord, mu = cand
            _sample(pair, key, coord, mu, "objective", events, e1_sum,
                    lambda: terms()[0])
            progressed = True

        e1_sum, e2_sum = terms()
        if e1_sum <= thr1 and e2_sum <= thr2:
            break
        if not progressed:
            grow()

    e1_sum, e2_sum = terms()
    ok = e1_sum <= thr1 and e2_sum <= thr2
    if events is not None:
        events.append(RefinementEvent(
            "objective", "exit_check",
            f"e1'={e1_sum:.6e}<={thr1:.6e} e2'={e2_sum:.6e}<={thr2:.6e}",
            e1_sum, e2_sum, ok))
    if not ok:
        raise RefinementError("objective condition violated at exit")
    return pair
