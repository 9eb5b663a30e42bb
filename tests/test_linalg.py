"""Tests for the dense symmetric eigensolver and circulant helpers.

The eigensolver is checked against an independent oracle implemented
here from scratch: Householder tridiagonalisation followed by Sturm
bisection (eigenvalue counting via the signs of the leading principal
minors of T - x*I).  The circulant routines are checked against
explicitly assembled matrices fed to the dense solver.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uacg.closedform import ALPHA_GRID, build_alpha_matrix
from uacg.graphs import FAMILIES, build_graph, build_uacg, build_unitary_cayley, parse_spec_label
from uacg.linalg import (
    DEFAULT_GROUP_TOL,
    _SPLIT_MIN_ORDER,
    Spectrum,
    _group,
    group_spectrum,
    left_circulant_eigenvalues,
    right_circulant_eigenvalues,
    symmetric_eigenvalues,
)
from uacg.numtheory import ramanujan_sum


# ---------------------------------------------------------------------------
# Independent eigenvalue oracle: Householder + Sturm bisection.
# ---------------------------------------------------------------------------

def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form with full
    Householder reflections.  Built for clarity on small matrices, not
    speed.  Returns (diagonal, subdiagonal)."""
    t = np.array(a, dtype=float)
    n = t.shape[0]
    for k in range(n - 2):
        x = t[k + 1 :, k].copy()
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(norm, x[0] if x[0] != 0.0 else 1.0)
        v /= np.linalg.norm(v)
        p = np.eye(n)
        p[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v)
        t = p @ t @ p
    d = np.diag(t).copy()
    e = np.diag(t, -1).copy()
    return d, e

def _count_eigenvalues_below(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly less
    than x, by counting negative pivots of the LDL^T factorisation."""
    count = 0
    t = 1.0
    for i in range(len(d)):
        off = e[i - 1] ** 2 if i > 0 else 0.0
        t = d[i] - x - off / t
        if t == 0.0:
            t = -1e-300
        if t < 0.0:
            count += 1
    return count

def sturm_eigenvalues(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, by bisection
    on the Sturm count."""
    d, e = _householder_tridiagonalize(a)
    n = len(d)
    radius = np.zeros(n)
    for i in range(n):
        r = abs(e[i - 1]) if i > 0 else 0.0
        if i < n - 1:
            r += abs(e[i])
        radius[i] = r
    lo = float(np.min(d - radius)) - 1.0
    hi = float(np.max(d + radius)) + 1.0
    out = []
    for k in range(n):
        a_, b_ = lo, hi
        # invariant: count(a_) <= k < count(b_)
        while b_ - a_ > tol:
            mid = 0.5 * (a_ + b_)
            if _count_eigenvalues_below(d, e, mid) > k:
                b_ = mid
            else:
                a_ = mid
        out.append(0.5 * (a_ + b_))
    return np.array(sorted(out, reverse=True))


def explicit_left_circulant(s: np.ndarray) -> np.ndarray:
    n = len(s)
    return np.array([[s[(r + j) % n] for j in range(n)] for r in range(n)], dtype=float)


# ---------------------------------------------------------------------------
# Dense solver.
# ---------------------------------------------------------------------------

class TestSymmetricEigenvalues:
    def test_diagonal_example(self):
        vals = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3.0, 2.0, 1.0], atol=1e-12)

    def test_two_by_two_example(self):
        vals = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0], atol=1e-12)

    def test_uacg_order_9_adjacency(self):
        a = build_uacg(9).adjacency.astype(float)
        vals = symmetric_eigenvalues(a)
        expected = [5.3589, 2.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0, -3.3589]
        assert np.allclose(vals, expected, atol=1e-4)

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = rng.normal(size=(6, 6))
            vals = symmetric_eigenvalues(b + b.T)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_against_sturm_oracle(self):
        rng = np.random.default_rng(20260814)
        for _ in range(100):
            b = rng.normal(size=(8, 8))
            a = 0.5 * (b + b.T)
            got = symmetric_eigenvalues(a)
            want = sturm_eigenvalues(a)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(99)
        for n in (3, 10, 25, 40):
            b = rng.normal(size=(n, n))
            a = 0.5 * (b + b.T)
            vals = symmetric_eigenvalues(a)
            assert abs(vals.sum() - np.trace(a)) <= 1e-9 * (1 + abs(np.trace(a)))
            frob = float(np.sum(a * a))
            assert abs(np.sum(vals**2) - frob) <= 1e-9 * (1 + frob)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # checked before symmetry: a NaN is unequal to itself, and a
        # symmetric infinity used to come back as NaN eigenvalues
        for a in ([[bad, 1.0], [1.0, 0.0]], [[0.0, bad], [bad, 0.0]]):
            with pytest.raises(ValueError, match="matrix must be finite"):
                symmetric_eigenvalues(np.array(a))


LABELS = [prefix + family for family in FAMILIES for prefix in ("", "complement-")]
SPLIT_ORDERS = (
    2,
    3,
    _SPLIT_MIN_ORDER - 2,
    _SPLIT_MIN_ORDER - 1,
    _SPLIT_MIN_ORDER,
    _SPLIT_MIN_ORDER + 1,
    64,
    99,
    128,
    200,
    201,
)


def alpha_matrix(label: str, n: int, alpha: float) -> np.ndarray:
    return build_alpha_matrix(build_graph(parse_spec_label(label, n)), alpha)


def eigvalsh_sizes(monkeypatch) -> list[int]:
    """Record the order of every matrix np.linalg.eigvalsh is handed."""
    real, sizes = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


class TestReflectionSplit:
    @pytest.mark.parametrize("label", LABELS)
    def test_matches_one_full_solve(self, label):
        for n in SPLIT_ORDERS:
            for alpha in (0.0, 0.3, 0.9999, 1.0):
                a = alpha_matrix(label, n, alpha)
                want = np.linalg.eigvalsh(a)[::-1]
                got = symmetric_eigenvalues(a)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (label, n, alpha)
                assert np.all(np.diff(got) <= 0.0)

    @pytest.mark.parametrize("n", [_SPLIT_MIN_ORDER, _SPLIT_MIN_ORDER + 1])
    @pytest.mark.parametrize("label", ["uacg", "complement-unitary-cayley"])
    def test_against_sturm_oracle(self, label, n):
        a = alpha_matrix(label, n, 0.3)
        assert np.max(np.abs(symmetric_eigenvalues(a) - sturm_eigenvalues(a))) <= 1e-8

    @pytest.mark.parametrize(
        "n, solved",
        [(201, [101, 100]), (200, [101, 99]), (_SPLIT_MIN_ORDER - 1, [_SPLIT_MIN_ORDER - 1])],
    )
    def test_solves_the_two_halves_above_the_crossover(self, monkeypatch, n, solved):
        a = alpha_matrix("uacg", n, 0.3)
        sizes = eigvalsh_sizes(monkeypatch)
        assert symmetric_eigenvalues(a).size == n
        assert sizes == solved

    @pytest.mark.parametrize("i, j", [(1, 5), (0, 5)])
    def test_broken_symmetry_takes_one_full_solve(self, monkeypatch, i, j):
        n = 60
        a = alpha_matrix("uacg", n, 0.3)
        a[i, j] = a[j, i] = a[i, j] + 0.5  # a[-i % n, -j % n] keeps its value
        want = np.linalg.eigvalsh(a)[::-1]
        sizes = eigvalsh_sizes(monkeypatch)
        got = symmetric_eigenvalues(a)
        assert sizes == [n]
        assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(np.abs(want)))
        assert np.max(np.abs(got - sturm_eigenvalues(a))) <= 1e-8


def eigvalsh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every input np.linalg.eigvalsh is handed."""
    real, shapes = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def alpha_stack(label: str, n: int) -> np.ndarray:
    return np.stack([alpha_matrix(label, n, alpha) for alpha in ALPHA_GRID])


class TestStackedSolve:
    @pytest.mark.parametrize("label", LABELS)
    def test_rows_match_one_matrix_at_a_time(self, label):
        for n in SPLIT_ORDERS:
            stack = alpha_stack(label, n)
            got = symmetric_eigenvalues(stack)
            assert got.shape == (len(ALPHA_GRID), n)
            for row, a, alpha in zip(got, stack, ALPHA_GRID):
                assert np.array_equal(row, symmetric_eigenvalues(a)), (label, n, alpha)

    @pytest.mark.parametrize(
        "n, solved",
        [(201, [101, 100]), (200, [101, 99]), (_SPLIT_MIN_ORDER - 1, [_SPLIT_MIN_ORDER - 1])],
    )
    def test_one_stacked_solve_per_half(self, monkeypatch, n, solved):
        stack = alpha_stack("complement-uacg", n)
        shapes = eigvalsh_shapes(monkeypatch)
        symmetric_eigenvalues(stack)
        assert shapes == [(len(ALPHA_GRID), w, w) for w in solved]

    @pytest.mark.parametrize("n", [7, 60])
    @pytest.mark.parametrize("where", [0, 5, len(ALPHA_GRID) - 1])
    def test_one_bad_matrix_anywhere_raises(self, n, where):
        for bad, match in ((math.nan, "finite"), (math.inf, "finite"), (None, "not symmetric")):
            stack = alpha_stack("uacg", n)
            if bad is None:
                stack[where, 1, 2] += 0.5
            else:
                stack[where, 1, 2] = stack[where, 2, 1] = bad
            with pytest.raises(ValueError, match=match):
                symmetric_eigenvalues(stack)

    @pytest.mark.parametrize("shape", [(2, 3, 3, 3), (3, 2, 3), (3,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            symmetric_eigenvalues(np.zeros(shape))

    @pytest.mark.parametrize("i, j", [(1, 5), (0, 5)])
    def test_mixed_stack_takes_the_full_solve(self, monkeypatch, i, j):
        n = 60
        stack = alpha_stack("uacg", n)
        stack[3, i, j] = stack[3, j, i] = stack[3, i, j] + 0.5  # breaks matrix 3's reflection
        want = [np.linalg.eigvalsh(a)[::-1] for a in stack]
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(stack)
        assert shapes == [stack.shape]
        for row, w in zip(got, want):
            assert np.array_equal(row, w)


# ---------------------------------------------------------------------------
# Circulants.
# ---------------------------------------------------------------------------

class TestRightCirculant:
    def test_identity_row(self):
        vals = right_circulant_eigenvalues(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_shift_matrix(self):
        vals = right_circulant_eigenvalues(np.array([0.0, 1.0, 0.0, 0.0]))
        got = sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        want = sorted([1, 1j, -1, -1j], key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.allclose(got, want, atol=1e-12)

    def test_unit_indicator_gives_exponential_sums(self):
        for n in (4, 9, 12, 30):
            s = np.array([1.0 if math.gcd(j, n) == 1 else 0.0 for j in range(n)])
            vals = right_circulant_eigenvalues(s)
            assert np.max(np.abs(vals.imag)) <= 1e-9
            want = [ramanujan_sum(k, n) for k in range(n)]
            assert np.allclose(vals.real, want, atol=1e-9)

    def test_matches_explicit_matrix(self):
        # Round the sort key so conjugate pairs line up the same way in
        # both lists despite 1e-16 noise in the real parts.
        def key(z):
            return (round(z.real, 6), round(z.imag, 6))

        rng = np.random.default_rng(3)
        for n in range(2, 20):
            s = rng.normal(size=n)
            c = np.array([[s[(j - r) % n] for j in range(n)] for r in range(n)])
            got = sorted(right_circulant_eigenvalues(s), key=key)
            want = sorted(np.linalg.eigvals(c), key=key)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8


class TestLeftCirculant:
    def test_constant_symbol(self):
        vals = left_circulant_eigenvalues(np.full(5, 2.0))
        assert np.allclose(vals, [10.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_unit_indicator_order_9(self):
        s = np.array([1.0 if math.gcd(j, 9) == 1 else 0.0 for j in range(9)])
        vals = left_circulant_eigenvalues(s)
        want = [6.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0]
        assert np.allclose(vals, want, atol=1e-9)
        # Cross-check against the explicit matrix: the pairing of signs
        # matters, so the multiset must agree with a dense solve.
        dense = symmetric_eigenvalues(explicit_left_circulant(s))
        assert np.allclose(vals, dense, atol=1e-9)

    def test_even_order_example(self):
        vals = left_circulant_eigenvalues(np.array([0.0, 1.0, 0.0, 1.0]))
        assert np.allclose(vals, [2.0, 0.0, 0.0, -2.0], atol=1e-12)

    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(11)
        for n in range(1, 41):
            for _ in range(20):
                s = rng.normal(size=n)
                got = left_circulant_eigenvalues(s)
                dense = symmetric_eigenvalues(explicit_left_circulant(s))
                assert np.max(np.abs(np.sort(got) - np.sort(dense))) <= 1e-9

    def test_descending(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 7, 8):
            vals = left_circulant_eigenvalues(rng.normal(size=n))
            assert np.all(np.diff(vals) <= 1e-12)


class TestEvenOrderGraphSpectraCoincide:
    def test_all_even_orders_up_to_200(self):
        for n in range(2, 201, 2):
            a = symmetric_eigenvalues(build_uacg(n).adjacency.astype(float))
            b = symmetric_eigenvalues(build_unitary_cayley(n).adjacency.astype(float))
            assert np.max(np.abs(a - b)) <= 1e-9


# ---------------------------------------------------------------------------
# Spectrum grouping.
# ---------------------------------------------------------------------------

class TestGroupSpectrum:
    def test_exact_repeats(self):
        spec = group_spectrum(np.array([2.0, 2.0, -1.0]))
        assert spec.pairs == ((2.0, 2), (-1.0, 1))
        assert spec.n == 3

    def test_near_repeats_merge_to_mean(self):
        spec = group_spectrum(np.array([1.0000000001, 1.0]), tol=1e-8)
        assert spec.pairs == ((1.00000000005, 2),)

    def test_uacg_order_9_multiplicities(self):
        vals = symmetric_eigenvalues(build_uacg(9).adjacency.astype(float))
        spec = group_spectrum(vals, tol=1e-6)
        assert [m for _, m in spec.pairs] == [1, 1, 2, 4, 1]

    def test_values_roundtrip(self):
        vals = np.array([3.0, 1.0, 1.0, 0.0])
        spec = group_spectrum(vals)
        assert np.array_equal(spec.values(), vals)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            group_spectrum(np.array([1.0, 2.0]))

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                group_spectrum(np.array([1.0]), tol=tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        # a NaN fails every comparison, so it used to pass the sort check
        # and merge its neighbours into one NaN cluster
        with pytest.raises(ValueError, match="finite"):
            group_spectrum(np.array([3.0, bad, 1.0]))

    @given(
        data=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        tol=st.floats(min_value=1e-9, max_value=1e-3),
    )
    @settings(max_examples=200, deadline=None)
    def test_grouping_invariants(self, data, tol):
        vals = np.array(sorted(data, reverse=True))
        spec = group_spectrum(vals, tol=tol)
        assert sum(m for _, m in spec.pairs) == len(vals)
        reps = [v for v, _ in spec.pairs]
        assert all(reps[i] - reps[i + 1] > tol for i in range(len(reps) - 1))
        assert spec.n == len(vals)

    @given(
        data=st.lists(
            st.sampled_from([-2.0, -1.0, -1.0 + 1e-9, 0.0, 0.1, 0.3, 0.3 + 2e-8, 5.0]),
            max_size=40,
        ),
        tol=st.sampled_from([1e-9, 1e-8, 1e-7, 0.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_reference(self, data, tol):
        # The clustering loop group_spectrum replaced; results must be equal
        # bit for bit, since the same slices are averaged.
        vals = np.array(sorted(data, reverse=True), dtype=float)
        pairs, start = [], 0
        for i in range(1, vals.size + 1):
            if i == vals.size or vals[i - 1] - vals[i] > tol:
                pairs.append((float(vals[start:i].mean()), i - start))
                start = i
        assert group_spectrum(vals, tol=tol) == Spectrum(pairs=tuple(pairs), n=vals.size)

    @given(
        pairs=st.dictionaries(
            st.floats(min_value=-50.0, max_value=50.0),
            st.integers(min_value=1, max_value=3000),
            min_size=1,
            max_size=8,
        ),
        tol=st.sampled_from([1e-9, 1e-7, 0.5, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_expanded_values(self, pairs, tol):
        # Grouping (value, count) pairs must equal grouping the expanded
        # list bit for bit, also for clusters of many values, where numpy
        # sums pairwise.
        vals = np.array(sorted(pairs, reverse=True))
        counts = np.array([pairs[v] for v in vals], dtype=np.int64)
        assert _group(vals, counts, tol) == group_spectrum(np.repeat(vals, counts), tol)

    def test_default_tolerance_constant(self):
        assert DEFAULT_GROUP_TOL == 1e-7


class TestSpectrumType:
    def test_values_expand_multiplicities(self):
        spec = Spectrum(pairs=((2.0, 2), (-1.0, 1)), n=3)
        assert list(spec.values()) == [2.0, 2.0, -1.0]
