"""Tests for graph construction.

The 24-edge fixture for the order-9 unit-sum graph was transcribed by
hand from the defining rule (vertices joined when their sum is a unit
mod 9) and frozen before being compared with the builder.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uacg.graphs as graphs_mod
from uacg.analysis import energy_bounds
from uacg.cli import FAMILY_CHOICES
from uacg.graphs import (
    DENSE_ORDER_LIMIT,
    FAMILIES,
    FAMILY_COMPLETE,
    FAMILY_UACG,
    FAMILY_UNITARY_CAYLEY,
    GraphSpec,
    build_graph,
    build_uacg,
    build_unitary_cayley,
    complement,
    complete,
    edge_count,
    parse_spec_label,
)
from uacg.numtheory import TRIAL_DIVISION_LIMIT, euler_phi

# Frozen by hand: pairs {i, j} with i + j a unit mod 9.
UACG9_EDGES = sorted(
    [
        (0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (0, 8),
        (1, 3), (1, 4), (1, 6), (1, 7),
        (2, 3), (2, 5), (2, 6), (2, 8),
        (3, 4), (3, 5), (3, 7), (3, 8),
        (4, 6), (4, 7),
        (5, 6), (5, 8),
        (6, 7), (6, 8),
    ]
)


def adjacency_of(n: int, pairs) -> np.ndarray:
    """The 0/1 adjacency on n vertices with an edge for each (i, j) in pairs."""
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in pairs:
        a[i, j] = a[j, i] = 1
    return a


def brute_uacg_adjacency(n: int) -> np.ndarray:
    return np.array(
        [[int(i != j and math.gcd(i + j, n) == 1) for j in range(n)] for i in range(n)],
        dtype=np.int8,
    )


def brute_unitary_cayley_adjacency(n: int) -> np.ndarray:
    return np.array(
        [[int(math.gcd(j - i, n) == 1) for j in range(n)] for i in range(n)], dtype=np.int8
    )


def check_structure(g) -> None:
    a = g.adjacency
    n = g.spec.n
    assert a.shape == (n, n)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0, 1}
    assert np.array_equal(g.degrees, a.sum(axis=1))
    assert g.m == a.sum() // 2
    assert not a.flags.writeable


class TestBuildUacg:
    def test_order_9_matches_hand_fixture(self):
        g = build_uacg(9)
        assert np.array_equal(g.adjacency, adjacency_of(9, UACG9_EDGES))
        assert g.m == 24

    def test_vertex_zero_neighbours_order_9(self):
        a = build_uacg(9).adjacency
        assert set(np.flatnonzero(a[0])) == {1, 2, 4, 5, 7, 8}

    def test_order_4(self):
        g = build_uacg(4)
        assert list(g.degrees) == [2, 2, 2, 2]
        assert g.m == 4
        assert np.array_equal(g.adjacency, adjacency_of(4, [(0, 1), (0, 3), (1, 2), (2, 3)]))

    def test_matches_brute_rule(self):
        for n in range(2, 60):
            assert np.array_equal(build_uacg(n).adjacency, brute_uacg_adjacency(n))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            build_uacg(1)

    def test_structure(self):
        for n in (2, 3, 9, 10, 27):
            check_structure(build_uacg(n))

    def test_degree_pattern(self):
        # Even order: regular of degree phi(n).  Odd order: units have
        # degree phi(n) - 1, non-units phi(n).
        for n in range(2, 502):
            g = build_uacg(n)
            phi = euler_phi(n)
            if n % 2 == 0:
                assert all(d == phi for d in g.degrees)
            else:
                for i, d in enumerate(g.degrees):
                    expected = phi - 1 if math.gcd(i, n) == 1 else phi
                    assert d == expected


class TestCoprimeMask:
    def test_matches_math_gcd_loop(self):
        for n in range(1, 501):
            want = [math.gcd(k, n) == 1 for k in range(2 * n - 1)]
            mask = graphs_mod._coprime_mask(n, 2 * n - 1)
            assert mask.dtype == bool
            assert mask.tolist() == want


class TestBuildUnitaryCayley:
    def test_order_4_is_a_cycle(self):
        g = build_unitary_cayley(4)
        assert np.array_equal(g.adjacency, adjacency_of(4, [(0, 1), (0, 3), (1, 2), (2, 3)]))

    def test_order_6_degrees(self):
        g = build_unitary_cayley(6)
        assert list(g.degrees) == [2] * 6

    def test_matches_brute_rule(self):
        for n in range(2, 60):
            assert np.array_equal(
                build_unitary_cayley(n).adjacency, brute_unitary_cayley_adjacency(n)
            )

    def test_regular_of_degree_phi(self):
        for n in range(2, 200):
            g = build_unitary_cayley(n)
            assert all(d == euler_phi(n) for d in g.degrees)

    def test_even_order_same_degree_sequence_as_uacg(self):
        for n in range(2, 101, 2):
            assert sorted(build_uacg(n).degrees) == sorted(
                build_unitary_cayley(n).degrees
            )


class TestComplete:
    def test_order_5(self):
        g = complete(5)
        assert g.m == 10
        assert list(g.degrees) == [4] * 5
        check_structure(g)


class TestComplement:
    def test_involution(self):
        g = build_uacg(9)
        gc = complement(g)
        assert gc.spec.complement is True
        assert gc.m == 9 * 8 // 2 - 24
        back = complement(gc)
        assert back.spec == g.spec
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_complement_of_complete_is_empty(self):
        gc = complement(complete(5))
        assert gc.m == 0
        assert np.all(gc.adjacency == 0)

    def test_adjacency_identity(self):
        for n in (5, 9, 12):
            g = build_uacg(n)
            gc = complement(g)
            total = g.adjacency + gc.adjacency + np.eye(n, dtype=g.adjacency.dtype)
            assert np.array_equal(total, np.ones((n, n), dtype=total.dtype))

    def test_structure(self):
        check_structure(complement(build_uacg(9)))
        check_structure(complement(build_unitary_cayley(10)))


def gcd_adjacency(label: str, n: int) -> np.ndarray:
    """The 0/1 adjacency of a family label by its gcd definition."""
    spec = parse_spec_label(label, n)
    idx = np.arange(n)
    if spec.family == FAMILY_UACG:
        a = np.gcd(np.add.outer(idx, idx), n) == 1
    elif spec.family == FAMILY_UNITARY_CAYLEY:
        a = np.gcd(np.subtract.outer(idx, idx), n) == 1
    else:
        a = np.ones((n, n), dtype=bool)
    if spec.complement:
        a = ~a
    a[idx, idx] = False
    return a


class TestAdjacencyContract:
    @pytest.mark.parametrize("label", (*FAMILY_CHOICES, "complement-complete"))
    def test_int8_read_only_contiguous_and_the_gcd_definition(self, label):
        for n in range(2, 301):
            spec = parse_spec_label(label, n)
            g = build_graph(spec)
            a = g.adjacency
            assert a.dtype == np.int8 and a.shape == (n, n)
            assert a.flags.c_contiguous and not a.flags.writeable
            assert set(np.unique(a).tolist()) <= {0, 1}
            assert np.array_equal(a, gcd_adjacency(label, n)), (label, n)
            assert g.degrees.dtype == np.int64
            assert g.m == edge_count(spec)

    def test_finish_rejects_rather_than_casts(self):
        spec = GraphSpec(FAMILY_COMPLETE, 3)
        a = 1 - np.eye(3, dtype=np.int64)
        with pytest.raises(ValueError, match="int8"):
            graphs_mod._finish(spec, a)
        strided = (1 - np.eye(4, dtype=np.int8))[::2, ::2]  # the path on 2 vertices
        with pytest.raises(ValueError, match="C-contiguous"):
            graphs_mod._finish(GraphSpec(FAMILY_COMPLETE, 2), strided)
        wide = (1 - np.eye(3, dtype=np.int8)) * np.int8(2)
        with pytest.raises(ValueError, match="0/1"):
            graphs_mod._finish(spec, wide)
        with pytest.raises(ValueError, match="0/1"):
            graphs_mod._finish(spec, -(1 - np.eye(3, dtype=np.int8)))


class TestDenseOrderLimit:
    def test_limit_keeps_current_orders(self):
        assert DENSE_ORDER_LIMIT >= 4096

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("comp", [False, True])
    def test_rejects_limit_plus_one_before_building(self, monkeypatch, family, comp):
        def refuse(n):
            raise AssertionError("builder reached")

        monkeypatch.setitem(graphs_mod._BUILDERS, family, refuse)
        with pytest.raises(ValueError, match="DENSE_ORDER_LIMIT"):
            build_graph(GraphSpec(family, DENSE_ORDER_LIMIT + 1, comp))

    def test_limit_itself_reaches_the_builder(self, monkeypatch):
        built = []
        monkeypatch.setitem(graphs_mod._BUILDERS, FAMILY_UACG, built.append)
        build_graph(GraphSpec(FAMILY_UACG, DENSE_ORDER_LIMIT))
        assert built == [DENSE_ORDER_LIMIT]


class TestEdgeCount:
    def test_formula_matches_construction(self):
        for n in range(2, 502):
            for family in (FAMILY_UACG, FAMILY_UNITARY_CAYLEY, FAMILY_COMPLETE):
                spec = GraphSpec(family, n)
                assert edge_count(spec) == build_graph(spec).m
                cspec = GraphSpec(family, n, complement=True)
                assert edge_count(cspec) == n * (n - 1) // 2 - edge_count(spec)

    def test_closed_values(self):
        # n*phi/2 for even order, (n-1)*phi/2 for odd order.
        assert edge_count(GraphSpec(FAMILY_UACG, 10)) == 5 * euler_phi(10)
        assert edge_count(GraphSpec(FAMILY_UACG, 9)) == 4 * euler_phi(9)
        assert edge_count(GraphSpec(FAMILY_COMPLETE, 7)) == 21


def zagreb(g) -> int:
    """Sum of squared vertex degrees."""
    return int(g.degrees @ g.degrees)


class TestZagrebIndex:
    def test_examples(self):
        assert zagreb(build_uacg(9)) == 258
        assert zagreb(complete(5)) == 80

    def test_complement_order_9(self):
        # Sum of squared degrees of the complement, straight from the
        # degree sequence: units get degree 3, non-units degree 2, so
        # 6*9 + 3*4 = 66.
        assert zagreb(complement(build_uacg(9))) == 66

    def test_closed_form_odd_uacg(self):
        # phi^2*(n-2) + phi for odd n: phi vertices of degree phi-1 and
        # n-phi of degree phi.
        for n in range(3, 502, 2):
            phi = euler_phi(n)
            assert zagreb(build_uacg(n)) == phi * phi * (n - 2) + phi


class TestAdjacencyFrobenius:
    def test_examples(self):
        assert np.count_nonzero(build_uacg(9).adjacency) == 48
        assert np.count_nonzero(complete(4).adjacency) == 12
        assert np.count_nonzero(complement(build_uacg(9)).adjacency) == 24

    def test_equals_twice_edge_count(self):
        for n in (5, 8, 15, 30):
            g = build_uacg(n)
            assert np.count_nonzero(g.adjacency) == 2 * g.m


class TestSpecLabels:
    def test_roundtrip(self):
        for family in FAMILIES:
            for comp in (False, True):
                spec = GraphSpec(family, 9, complement=comp)
                assert parse_spec_label(spec.label(), 9) == spec

    def test_complement_labels(self):
        assert GraphSpec(FAMILY_UACG, 9, True).label() == "complement-uacg"
        assert parse_spec_label("complement-uacg", 9) == GraphSpec(
            FAMILY_UACG, 9, complement=True
        )

    def test_accepts_complement_complete(self):
        assert parse_spec_label("complement-complete", 5) == GraphSpec(
            FAMILY_COMPLETE, 5, complement=True
        )

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            parse_spec_label("petersen", 10)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            GraphSpec(FAMILY_UACG, 1)

    def test_order_bound_covers_every_family(self):
        for family in FAMILIES:
            assert GraphSpec(family, TRIAL_DIVISION_LIMIT).n == TRIAL_DIVISION_LIMIT
            with pytest.raises(ValueError, match="n must be <= 1000000000"):
                GraphSpec(family, TRIAL_DIVISION_LIMIT + 1)

    def test_rejects_non_integer_order(self):
        # 9.0 used to give a float edge count, 15.0 a TypeError from math.gcd
        for n in (9.0, 15.0, True, "9", None):
            with pytest.raises(ValueError, match="integer"):
                GraphSpec(FAMILY_UACG, n)

    def test_accepts_numpy_integer_order(self):
        spec = GraphSpec(FAMILY_UACG, np.int64(9))
        assert spec == GraphSpec(FAMILY_UACG, 9)
        assert type(spec.n) is int
        assert edge_count(spec) == 24
        # The Zagreb sum overflows int64 at this order unless n is a Python int.
        n = 4849845
        assert energy_bounds(GraphSpec(FAMILY_UACG, np.int64(n)), 0.3) == energy_bounds(
            GraphSpec(FAMILY_UACG, n), 0.3
        )


@given(n=st.integers(min_value=2, max_value=120))
@settings(max_examples=60, deadline=None)
def test_edge_count_formula_property(n):
    phi = euler_phi(n)
    expected = n * phi // 2 if n % 2 == 0 else (n - 1) * phi // 2
    g = build_uacg(n)
    assert g.m == expected
    assert complement(g).m == n * (n - 1) // 2 - expected
