"""Quadrature rules, multi-index algebra, and combination-technique assembly."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgromtr.sparse_grid import (MultiIndexSet, assemble, cc_rule,
                                 difference_rule, integrate, is_admissible,
                                 node_coordinate, rule_size, write_index_set,
                                 IntegrandError)


def mis(*indices):
    return MultiIndexSet.from_indices(indices)


# ---------------------------------------------------------------------------
# 1D rules
# ---------------------------------------------------------------------------

def test_rule_sizes():
    assert [rule_size(i) for i in (1, 2, 3, 4)] == [1, 3, 5, 9]


def test_level1_rule():
    r = cc_rule(1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights.tolist() == [1.0]


def test_level2_rule_moment_weights():
    # weights solve the 3x3 moment system for {1, x, x^2} against rho = 1/2:
    # analytic solution {1/6, 2/3, 1/6}
    r = cc_rule(2)
    np.testing.assert_allclose(r.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(r.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)


def test_nestedness_of_keys_and_nodes():
    for level in (1, 2, 3, 4, 5):
        a, b = cc_rule(level), cc_rule(level + 1)
        assert set(a.keys) <= set(b.keys)


def test_weights_sum_to_one():
    for level in range(1, 9):
        assert abs(cc_rule(level).weights.sum() - 1.0) < 1e-14


def test_level_zero_rejected():
    with pytest.raises(ValueError):
        cc_rule(0)


def test_midpoint_exact_zero():
    r = cc_rule(5)
    assert r.nodes[len(r.nodes) // 2] == 0.0
    assert node_coordinate(cc_rule(1).keys[0]) == 0.0


# ---------------------------------------------------------------------------
# admissibility and neighbors
# ---------------------------------------------------------------------------

def test_is_admissible_examples():
    assert is_admissible(mis((1, 1)))
    assert is_admissible(mis((1, 1), (2, 1), (1, 2)))
    assert not is_admissible(mis((1, 1), (3, 1)))


def test_neighbors_examples():
    assert set(mis((1, 1)).neighbors()) == {(2, 1), (1, 2)}
    assert set(mis((1, 1), (2, 1)).neighbors()) == {(3, 1), (1, 2)}
    assert set(mis((1,), (2,)).neighbors()) == {(3,)}


def test_neighbors_of_empty_set_rejected():
    with pytest.raises(ValueError):
        MultiIndexSet(2, frozenset()).neighbors()


def test_with_index_preserves_admissibility():
    s = mis((1, 1))
    for _ in range(5):
        s = s.with_index(s.neighbors()[0])
        assert is_admissible(s)
    with pytest.raises(ValueError):
        s.with_index((9, 9))


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def test_difference_apply_constant():
    assert integrate(difference_rule((1,)), lambda y: 4.5) == pytest.approx(4.5)
    assert integrate(difference_rule((2,)), lambda y: 4.5) == pytest.approx(
        0.0, abs=1e-15)


def test_difference_apply_x_squared():
    # level 1 gives 0, level 2 gives the exact moment 1/3
    assert integrate(difference_rule((2,)), lambda y: y[0] ** 2) == pytest.approx(
        1 / 3)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_unit_set_is_single_origin_node():
    q = assemble(MultiIndexSet.unit(3))
    assert len(q) == 1
    np.testing.assert_array_equal(q.coords, [[0.0, 0.0, 0.0]])
    assert q.weights.tolist() == [1.0]


@pytest.mark.parametrize("lx,ly", list(itertools.product(range(1, 5), range(1, 5))))
def test_rectangular_set_matches_tensor(lx, ly):
    full = mis(*[(i, j) for i in range(1, lx + 1) for j in range(1, ly + 1)])
    quad = assemble(full)
    rx, ry = cc_rule(lx), cc_rule(ly)
    tensor = {(kx, ky): wx * wy
              for kx, wx in zip(rx.keys, rx.weights)
              for ky, wy in zip(ry.keys, ry.weights)}
    assert set(quad.keys) == set(tensor)
    for key, w in zip(quad.keys, quad.weights):
        assert abs(w - tensor[key]) <= 1e-12


def test_assemble_rejects_inadmissible():
    with pytest.raises(ValueError):
        assemble(mis((1, 1), (3, 1)))


def test_integrate_basics():
    quad = assemble(mis(*[(i, j) for i in (1, 2) for j in (1, 2)]))
    assert integrate(quad, lambda y: 1.0) == pytest.approx(1.0, abs=1e-14)
    assert integrate(quad, lambda y: y[0]) == pytest.approx(0.0, abs=1e-14)
    assert integrate(quad, lambda y: y[0] ** 2 * y[1] ** 2) == pytest.approx(1 / 9)


def test_integrate_vector_valued():
    quad = assemble(mis((1, 1), (2, 1)))
    out = integrate(quad, lambda y: np.array([1.0, y[0] ** 2]))
    np.testing.assert_allclose(out, [1.0, 1 / 3], atol=1e-14)


def test_integrate_reports_failing_node():
    quad = assemble(mis((1,), (2,)))

    def h(y):
        if y[0] > 0.5:
            raise FloatingPointError("boom")
        return 1.0

    with pytest.raises(IntegrandError) as err:
        integrate(quad, h)
    assert err.value.key is not None


def test_truncation_terms_examples():
    # |difference_rule(i)[h]| over the forward neighbors i of the set: the
    # truncation contributions the refinement drivers rank
    def truncation_terms(s, h):
        return {idx: abs(integrate(difference_rule(idx), h))
                for idx in s.neighbors()}

    s = mis((1, 1))
    terms = truncation_terms(s, lambda y: 7.0)
    assert all(v == pytest.approx(0.0, abs=1e-15) for v in terms.values())

    terms = truncation_terms(s, lambda y: y[0] ** 2)
    assert terms[(2, 1)] == pytest.approx(1 / 3)
    assert terms[(1, 2)] == pytest.approx(0.0, abs=1e-15)

    aniso = truncation_terms(s, lambda y: math.exp(5 * y[0]) + 0.01 * y[1])
    assert aniso[(2, 1)] > aniso[(1, 2)]


def test_difference_rule_weights_sum_to_zero_beyond_level_one():
    # a difference of two rules that both integrate constants exactly
    rule = difference_rule((2, 1))
    assert abs(rule.weights.sum()) < 1e-15
    rule = difference_rule((1, 1))
    assert rule.weights.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

def _exact_degree(level):
    # interpolatory rule with an odd point count: one extra odd degree
    return 1 if level == 1 else rule_size(level)


def _moment(p):
    return 1.0 / (p + 1) if p % 2 == 0 else 0.0


def test_sparse_rule_exact_on_common_monomials():
    # monomials integrated exactly by every constituent tensor rule are
    # integrated exactly by the combination (coefficients sum to one)
    for L in (2, 3):
        iso = mis(*[i for i in itertools.product(range(1, L + 1), repeat=2)
                    if sum(i) - 2 <= L - 1])
        quad = assemble(iso)
        min_deg = _exact_degree(1)
        for px in range(min_deg + 1):
            for py in range(min_deg + 1):
                got = integrate(quad, lambda y: y[0] ** px * y[1] ** py)
                assert got == pytest.approx(_moment(px) * _moment(py),
                                            abs=1e-10)


def test_isotropic_total_degree_exactness():
    # Smolyak with these nested rules is exact on total degree 2L - 1
    for L in (2, 3):
        iso = mis(*[i for i in itertools.product(range(1, L + 1), repeat=2)
                    if sum(i) - 2 <= L - 1])
        quad = assemble(iso)
        for px in range(2 * L):
            for py in range(2 * L - px):
                got = integrate(quad, lambda y: y[0] ** px * y[1] ** py)
                assert got == pytest.approx(_moment(px) * _moment(py),
                                            abs=1e-10)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

def random_admissible(dim, steps, seed):
    rng = np.random.default_rng(seed)
    s = MultiIndexSet.unit(dim)
    for _ in range(steps):
        nb = s.neighbors()
        s = s.with_index(nb[rng.integers(len(nb))])
    return s


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 4), steps=st.integers(0, 12),
       seed=st.integers(0, 10_000))
def test_weights_sum_to_one_property(dim, steps, seed):
    s = random_admissible(dim, steps, seed)
    assert is_admissible(s)
    quad = assemble(s)
    assert abs(quad.weights.sum() - 1.0) <= 1e-13


def test_weight_normalization_at_scale():
    # 200 indices in 4 dimensions
    s = random_admissible(4, 199, seed=123)
    assert len(s) == 200
    quad = assemble(s)
    assert abs(quad.weights.sum() - 1.0) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 3), steps=st.integers(0, 8),
       extra=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_nestedness_property(dim, steps, extra, seed):
    small = random_admissible(dim, steps, seed)
    rng = np.random.default_rng(seed + 1)
    big = small
    for _ in range(extra):
        nb = big.neighbors()
        big = big.with_index(nb[rng.integers(len(nb))])
    assert set(assemble(small).keys) <= set(assemble(big).keys)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_index_set_roundtrip(tmp_path):
    s = mis((1, 1), (2, 1), (1, 2), (2, 2), (3, 1))
    path = tmp_path / "grid.txt"
    write_index_set(s, path)
    lines = path.read_text().splitlines()
    assert lines == ["1 1", "1 2", "2 1", "2 2", "3 1"]
    back = MultiIndexSet.from_indices(line.split() for line in lines)
    assert back == s
