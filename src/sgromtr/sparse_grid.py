"""Nested 1D quadrature rules, multi-index sets, and sparse quadrature.

The quadrature machinery follows the combination technique: a sparse
rule over an admissible multi-index set is a signed combination of
tensor-product rules built from nested one-dimensional Clenshaw-Curtis
rules.  All rules integrate against the uniform probability density on
``[-1, 1]^d`` (the density factor ``2^-d`` is folded into the weights,
so every rule's weights sum to one).

Node identity is exact: every 1D node is keyed by its integer index on
a fixed fine reference level (``KEY_LEVEL``), so nodes shared between
levels never split due to floating-point rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "KEY_LEVEL", "Rule1D", "MultiIndexSet", "SparseQuadrature",
    "IntegrandError", "cc_rule", "rule_size", "node_coordinate",
    "is_admissible", "tensor_nodes", "node_sum", "assemble", "integrate",
    "difference_rule", "interpolation_weights", "write_index_set",
]

#: Reference level used for canonical integer node keys.  Levels above
#: this are rejected outright; the per-run refinement cap (default 10)
#: is enforced by the refinement drivers.
KEY_LEVEL = 21
_KEY_N = 2 ** (KEY_LEVEL - 1)

#: Entries that each rule cache of this module (``cc_rule``,
#: ``tensor_nodes``, ``difference_rule`` and the assembly behind
#: ``assemble``) keeps, least recently used first out: a long run does
#: not grow them without bound.  The default Burgers run ends holding
#: 7, 27, 26 and 37 entries, the default diffusion run 6, 16, 15 and 20.
CACHE_SIZE = 128


class IntegrandError(RuntimeError):
    """Evaluation of an integrand failed at a quadrature node."""

    def __init__(self, key, y):
        super().__init__(f"integrand evaluation failed at node {key} (y={y})")
        self.key = key
        self.y = y


def rule_size(level: int) -> int:
    """Number of points of the level-``level`` 1D rule (doubling growth)."""
    return 1 if level == 1 else 2 ** (level - 1) + 1


def node_coordinate(key):
    """Coordinate in ``[-1, 1]`` of a canonical 1D node key.

    The key is the node's index on the ``KEY_LEVEL`` reference grid.
    The sine form keeps the midpoint exactly zero and the node set
    exactly symmetric about it.
    """
    t = 2.0 * np.asarray(key, dtype=float) - _KEY_N
    return np.sin(0.5 * math.pi * t / _KEY_N)


@dataclass(frozen=True)
class Rule1D:
    """One-dimensional nested quadrature rule at a given level."""

    level: int
    keys: tuple
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=CACHE_SIZE)
def cc_rule(level: int) -> Rule1D:
    """Clenshaw-Curtis rule with ``rule_size(level)`` points.

    Nodes are sorted ascending; weights include the uniform density
    factor 1/2 and sum to one.  Level 1 is the single midpoint node.
    """
    if level < 1:
        raise ValueError(f"quadrature level must be >= 1, got {level}")
    if level > KEY_LEVEL:
        raise ValueError(f"quadrature level {level} exceeds hard cap {KEY_LEVEL}")
    if level == 1:
        keys = (_KEY_N // 2,)
        return Rule1D(1, keys, np.array([0.0]), np.array([1.0]))

    n = 2 ** (level - 1)
    stride = _KEY_N // n
    keys = tuple(j * stride for j in range(n + 1))
    nodes = node_coordinate(np.array(keys))

    # weights of the classic rule on [-1, 1] via the exact cosine sum
    j = np.arange(n + 1)
    theta = math.pi * j[:, None] / n
    k = np.arange(1, n // 2 + 1)
    b = np.full(n // 2, 2.0)
    b[-1] = 1.0
    c = np.full(n + 1, 2.0)
    c[0] = c[n] = 1.0
    w = (c / n) * (1.0 - (np.cos(2.0 * k * theta) * (b / (4.0 * k**2 - 1.0))).sum(axis=1))
    w = 0.5 * (w + w[::-1])  # enforce exact mirror symmetry
    w *= 0.5                 # fold in the uniform density
    return Rule1D(level, keys, nodes, np.ascontiguousarray(w))


# ---------------------------------------------------------------------------
# multi-index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndexSet:
    """Finite set of per-dimension refinement levels (all entries >= 1).

    Instances are value-like: refinement produces new sets via
    :meth:`with_index`.
    """

    dim: int
    indices: frozenset

    @classmethod
    def unit(cls, dim: int) -> "MultiIndexSet":
        if dim < 1:
            raise ValueError("dimension must be positive")
        return cls(dim, frozenset({(1,) * dim}))

    @classmethod
    def from_indices(cls, indices: Iterable) -> "MultiIndexSet":
        idx = frozenset(tuple(int(v) for v in i) for i in indices)
        if not idx:
            raise ValueError("index set must be nonempty")
        dims = {len(i) for i in idx}
        if len(dims) != 1:
            raise ValueError("inconsistent multi-index lengths")
        if any(v < 1 for i in idx for v in i):
            raise ValueError("multi-index entries must be >= 1")
        return cls(dims.pop(), idx)

    @cached_property
    def sorted_indices(self) -> tuple:
        return tuple(sorted(self.indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator:
        return iter(self.sorted_indices)

    def __contains__(self, idx) -> bool:
        return tuple(idx) in self.indices

    def with_index(self, idx) -> "MultiIndexSet":
        """Return the set extended by ``idx``; the result must stay admissible."""
        idx = tuple(int(v) for v in idx)
        if len(idx) != self.dim:
            raise ValueError(f"index {idx} has wrong dimension (expected {self.dim})")
        if any(v < 1 for v in idx):
            raise ValueError("multi-index entries must be >= 1")
        out = MultiIndexSet(self.dim, self.indices | {idx})
        if not is_admissible(out):
            raise ValueError(f"adding {idx} breaks admissibility")
        return out

    def neighbors(self) -> tuple:
        """Forward neighbors: indices outside the set whose addition keeps it admissible."""
        if not self.indices:
            raise ValueError("neighbors of an empty index set are undefined")
        cands = set()
        for k in self.indices:
            for j in range(self.dim):
                cand = k[:j] + (k[j] + 1,) + k[j + 1:]
                if cand not in self.indices:
                    cands.add(cand)
        return tuple(cand for cand in sorted(cands) if self._backward_closed(cand))

    def _backward_closed(self, idx) -> bool:
        """True iff every backward neighbor of ``idx`` is a member."""
        return all(idx[:j] + (idx[j] - 1,) + idx[j + 1:] in self.indices
                   for j in range(self.dim) if idx[j] > 1)

    def union_with_neighbors(self) -> "MultiIndexSet":
        return MultiIndexSet(self.dim, self.indices | set(self.neighbors()))


def is_admissible(mis: MultiIndexSet) -> bool:
    """True iff every backward neighbor of every member is a member."""
    return all(mis._backward_closed(k) for k in mis.indices)


# ---------------------------------------------------------------------------
# combination-technique assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseQuadrature:
    """Signed node->weight quadrature assembled from an admissible set."""

    keys: tuple                  # canonical node keys, sorted
    coords: np.ndarray           # (m, dim) node coordinates
    weights: np.ndarray          # (m,) signed weights

    def __len__(self) -> int:
        return len(self.keys)

    def items(self):
        return zip(self.keys, self.coords, self.weights)


@lru_cache(maxsize=CACHE_SIZE)
def tensor_nodes(levels: tuple):
    """Node keys, coordinates and product weights of the tensor rule at ``levels``.

    Rows run in lexicographic order of the per-dimension node indices,
    the last dimension fastest.  The cached arrays are shared: callers
    must not modify them.
    """
    rules = [cc_rule(l) for l in levels]

    def grid(per_dim, dtype):
        axes = np.meshgrid(*[np.array(v, dtype=dtype) for v in per_dim],
                           indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=1)

    w = rules[0].weights
    for r in rules[1:]:
        w = np.multiply.outer(w, r.weights)
    return (grid([r.keys for r in rules], np.int64),
            grid([r.nodes for r in rules], float), w.ravel())


def node_sum(weights, values):
    """``sum_i weights[i] * values[i]`` over the rows of ``values``.

    The terms are added one at a time, in node order, starting from
    zero (``np.add.accumulate``), so the result is bitwise equal to
    adding ``w * v`` node by node in a loop; a reduction (``sum``,
    ``@``) may add in another order.
    """
    terms = weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    zero = np.zeros((1,) + terms.shape[1:])
    return np.add.accumulate(np.concatenate([zero, terms]))[-1]


def _accumulate(nodemap: dict, levels: tuple, coeff: float) -> None:
    keys, _, w = tensor_nodes(levels)
    for row, wj in zip(map(tuple, keys.tolist()), w):
        nodemap[row] = nodemap.get(row, 0.0) + coeff * wj


def _combination_coefficients(mis: MultiIndexSet) -> dict:
    """Nonzero coefficients ``sum (-1)^|z|`` over the bumps ``z`` in
    ``{0, 1}^d`` with ``idx + z`` in the set, by sorted index.

    A bump grows one direction at a time, in increasing order, and stops
    once ``idx + z`` leaves the set, which, downward closed, then holds
    no larger bump: the set lookups scale with the bumps in the set, not
    with ``2^d``.
    """
    coeffs = {}
    for idx in mis.sorted_indices:
        c = 0
        grow = [(idx, 1, 0)]   # (idx + z, (-1)^|z|, first direction z may add)
        while grow:
            shifted, sign, first = grow.pop()
            c += sign
            for j in range(first, mis.dim):
                bumped = shifted[:j] + (shifted[j] + 1,) + shifted[j + 1:]
                if bumped in mis.indices:
                    grow.append((bumped, -sign, j + 1))
        if c != 0:
            coeffs[idx] = float(c)
    return coeffs


def _finalize(nodemap: dict, dim: int) -> SparseQuadrature:
    keys = tuple(sorted(nodemap))
    weights = np.array([nodemap[k] for k in keys])
    coords = node_coordinate(np.array(keys, dtype=float).reshape(len(keys), dim))
    return SparseQuadrature(keys, coords, weights)


@lru_cache(maxsize=CACHE_SIZE)
def _assemble_cached(dim: int, indices: tuple) -> SparseQuadrature:
    mis = MultiIndexSet(dim, frozenset(indices))
    nodemap: dict = {}
    for levels, c in _combination_coefficients(mis).items():
        _accumulate(nodemap, levels, c)
    return _finalize(nodemap, dim)


def assemble(mis: MultiIndexSet) -> SparseQuadrature:
    """Assemble the sparse quadrature for an admissible multi-index set."""
    if not mis.indices:
        raise ValueError("cannot assemble an empty index set")
    if not is_admissible(mis):
        raise ValueError("index set is not admissible")
    return _assemble_cached(mis.dim, mis.sorted_indices)


@lru_cache(maxsize=CACHE_SIZE)
def difference_rule(idx: tuple) -> SparseQuadrature:
    """Signed rule for the tensor difference operator at multi-index ``idx``.

    Expands the per-dimension differences into ``2^(#dims with level>1)``
    signed tensor rules and accumulates per node.
    """
    idx = tuple(int(v) for v in idx)
    nodemap: dict = {}
    active = [j for j, l in enumerate(idx) if l > 1]
    for bump in itertools.product((0, 1), repeat=len(active)):
        levels = list(idx)
        for j, b in zip(active, bump):
            levels[j] -= b
        _accumulate(nodemap, tuple(levels), -1.0 if sum(bump) % 2 else 1.0)
    return _finalize(nodemap, len(idx))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _lagrange(level: int, x):
    """Lagrange basis of the level-``level`` rule's nodes at the points
    ``x``, one row per point, one column per node.

    The barycentric form with the weights of Chebyshev extrema, which the
    Clenshaw-Curtis nodes are: alternating in sign, halved at both ends
    (an odd number of nodes from level 2 on, so both ends are +1/2).  A
    point that is a node gets that node's unit row exactly.
    """
    nodes = cc_rule(level).nodes
    w = np.ones(len(nodes))
    w[1::2] = -1.0
    w[0] = w[-1] = 0.5
    d = x[:, None] - nodes
    hit = d == 0.0
    d[hit] = 1.0
    basis = w / d
    basis /= basis.sum(axis=1, keepdims=True)
    at_node = hit.any(axis=1)
    basis[at_node] = hit[at_node]
    return basis


def interpolation_weights(mis: MultiIndexSet, coords):
    """Sparse-grid interpolation on the nodes of an admissible set.

    Returns ``(keys, W)``, where ``keys`` are the nodes of
    ``assemble(mis)`` in its order.  For ``values`` with one row per key,
    ``W @ values`` is the combination-technique interpolant at each row
    of ``coords``: the signed sum, with the combination coefficients of
    :func:`assemble`, of the tensor-product Lagrange interpolants on the
    nested nodes (Barthelmann, Novak & Ritter 2000).  On nested nodes it
    reproduces the values at the grid's own nodes, and it is exact for
    every polynomial of the sum of the tensor spaces of ``mis``; every
    row of ``W`` sums to one, up to round-off.
    """
    quad = assemble(mis)
    coords = np.asarray(coords, dtype=float).reshape(-1, mis.dim)
    column = {key: i for i, key in enumerate(quad.keys)}
    bases = {}   # 1D bases by (dimension, level), shared by the tensor terms
    W = np.zeros((len(coords), len(quad.keys)))
    for levels, c in _combination_coefficients(mis).items():
        keys, _, _ = tensor_nodes(levels)
        # tensor-product basis, rows in tensor_nodes order (last dimension fastest)
        basis = np.ones((len(coords), 1))
        for j, level in enumerate(levels):
            if level == 1:
                continue   # one node, whose Lagrange basis is 1
            if (j, level) not in bases:
                bases[j, level] = _lagrange(level, coords[:, j])
            basis = (basis[:, :, None] * bases[j, level][:, None, :]
                     ).reshape(len(coords), -1)
        W[:, [column[key] for key in map(tuple, keys.tolist())]] += c * basis
    return quad.keys, W


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def integrate(quad: SparseQuadrature, h: Callable):
    """Weighted sum of ``h`` over the quadrature nodes (canonical order).

    ``h`` maps a node coordinate array to a scalar or a vector; vectors
    are reduced componentwise.
    """
    total = None
    for key, y, w in quad.items():
        try:
            val = h(y)
        except Exception as exc:
            raise IntegrandError(key, y) from exc
        term = w * np.asarray(val, dtype=float)
        total = term if total is None else total + term
    return total if total.ndim else float(total)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_index_set(mis: MultiIndexSet, path) -> None:
    """One multi-index per line, space-separated levels."""
    with open(path, "w") as f:
        for idx in mis.sorted_indices:
            f.write(" ".join(str(v) for v in idx) + "\n")
