"""Tests for the dense symmetric eigensolver and circulant helpers.

The eigensolver is checked against an independent oracle implemented
here from scratch: Householder tridiagonalisation followed by Sturm
bisection (eigenvalue counting via the signs of the leading principal
minors of T - x*I).  The circulant routines are checked against
explicitly assembled matrices fed to the dense solver.
"""

import ast
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uacg.closedform import ALPHA_GRID, build_alpha_matrix
from uacg.graphs import FAMILIES, build_graph, build_uacg, build_unitary_cayley, parse_spec_label
from uacg.linalg import (
    _BATCH_ELEMENTS,
    _SPLIT_MIN_ENTRIES,
    DEFAULT_GROUP_TOL,
    Spectrum,
    _alpha_eigenvalues,
    _fold,
    _generators,
    _group,
    _invariant_split,
    _solve,
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
# The smallest order one matrix is split at: its n**2 entries reach _SPLIT_MIN_ENTRIES.
ONE_MATRIX_SPLIT = math.isqrt(_SPLIT_MIN_ENTRIES - 1) + 1
SPLIT_ORDERS = (
    2,
    3,
    23,
    24,
    ONE_MATRIX_SPLIT - 1,
    ONE_MATRIX_SPLIT,
    99,
    105,
    120,
    128,
    200,
    201,
    243,
)


def alpha_matrix(label: str, n: int, alpha: float) -> np.ndarray:
    return build_alpha_matrix(build_graph(parse_spec_label(label, n)), alpha)


def involutions(n: int) -> list[int]:
    return [u for u in range(1, n) if u * u % n == 1]


def order_of(u: int, n: int) -> int:
    """The multiplicative order of the unit u mod n, by brute force."""
    x, k = u % n, 1
    while x != 1 % n:
        x, k = x * u % n, k + 1
    return k


def largest_order(n: int) -> int:
    """lambda(n), the largest multiplicative order of a unit mod n."""
    return max([order_of(u, n) for u in range(1, n) if math.gcd(u, n) == 1], default=1)


def span(gens, n: int) -> set[int]:
    """The group of units mod n generated by gens."""
    group = {1 % n}
    for u in gens:
        group = {pow(u, k, n) * h % n for k in range(order_of(u, n)) for h in group}
    return group


def group_of(split) -> list[int]:
    """The elements of the split's group."""
    return [int(u) for u in split[1]]


def block_rows(split) -> list[tuple[np.ndarray, int]]:
    """Per block width, each block's indices into reps, (count, width), and
    how many leading blocks stand for a conjugate pair."""
    *_, blocks, index = split
    out, at = [], 0
    for w, count, twins in blocks:
        out.append((index[at + count * w : at + 2 * count * w].reshape(count, w), twins))
        at += 2 * count * w
    return out


def block_widths(split, twins: bool = True) -> dict[int, int]:
    """{width: count} of the split's blocks; with twins, the left-out block
    of each conjugate pair is counted too."""
    counts = Counter()
    for w, count, paired in split[-2]:
        counts[w] += count + (paired if twins else 0)
    return dict(counts)


def solved_widths(shapes, axis: int = 0) -> dict[int, int]:
    """{width: count} of the blocks handed to eigvalsh, counted along axis."""
    counts = Counter()
    for shape in shapes:
        counts[shape[-1]] += shape[axis]
    return dict(counts)


def eigvalsh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every input np.linalg.eigvalsh is handed."""
    real, shapes = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def assert_close(got: np.ndarray, want: np.ndarray, what) -> None:
    """got within 1e-12 of the largest |value| (at least 1) of want, row by row."""
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1, keepdims=True))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), what


def halves(n: int, u: int) -> list[int]:
    """The two block widths of the group {1, u}: its fixed points join the
    trivial character's block."""
    fixed = sum(1 for x in range(n) if u * x % n == x)
    return [(n - fixed) // 2, (n + fixed) // 2]


def broken(a: np.ndarray, keep: int, bump=0.5, i: int = 1, j: int = 5) -> np.ndarray:
    """a with the entries at (i, j), (keep*i, keep*j) and their transposes
    raised by bump: still invariant under the involution keep, broken under
    any other map that does not fix that orbit (a unit of order above 2
    cannot)."""
    n, out = a.shape[-1], a.copy()
    for x, y in {(i, j), (keep * i % n, keep * j % n)}:
        out[..., x, y] += bump
        if x != y:
            out[..., y, x] += bump
    return out


class TestReflectionSplit:
    """The split over G = <g> x H' (see TestInvolutionSplit), the reflection
    -1 among its elements, against one full solve."""

    @pytest.mark.parametrize("label", LABELS)
    def test_matches_one_full_solve(self, label):
        for n in SPLIT_ORDERS:
            for alpha in (0.0, 0.3, 0.9999, 1.0):
                a = alpha_matrix(label, n, alpha)
                got = symmetric_eigenvalues(a)
                assert_close(got, np.linalg.eigvalsh(a)[::-1], (label, n, alpha))
                assert np.all(np.diff(got) <= 0.0)

    @pytest.mark.parametrize("n", [45, 46])
    @pytest.mark.parametrize("label", ["uacg", "complement-unitary-cayley"])
    def test_against_sturm_oracle(self, label, n):
        # four matrices hold enough entries to be split at these orders
        stack = np.stack([alpha_matrix(label, n, alpha) for alpha in (0.0, 0.3, 0.7, 1.0)])
        assert len(stack) * n * n >= _SPLIT_MIN_ENTRIES
        for row, a in zip(symmetric_eigenvalues(stack), stack):
            assert np.max(np.abs(row - sturm_eigenvalues(a))) <= 1e-8

    @pytest.mark.parametrize(
        "n, solved", [(201, [100, 101]), (200, [99, 101]), (44, [44])]
    )
    def test_solves_the_two_halves_above_the_crossover(self, monkeypatch, n, solved):
        # broken under g and every involution but -1, which fixes 0 (and n/2);
        # one matrix of order 44 holds too few entries to be split
        a = broken(alpha_matrix("uacg", n, 0.3), keep=n - 1)
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(a)
        assert shapes == [(1, w, w) for w in solved]
        assert_close(got, np.linalg.eigvalsh(a)[::-1], n)

    @pytest.mark.parametrize("i, j", [(1, 5), (0, 5)])
    def test_broken_symmetry_takes_one_full_solve(self, monkeypatch, i, j):
        n = 201
        a = alpha_matrix("uacg", n, 0.3)
        a[i, j] = a[j, i] = a[i, j] + 0.5  # no unit but 1 maps (i, j) to (i, j) or (j, i)
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(a)
        assert shapes == [(1, n, n)]
        assert np.array_equal(got, np.linalg.eigvalsh(a)[::-1])


class TestInvolutionSplit:
    """The split over G = <g> x H': g a unit of largest order lambda(n), H'
    the involutions u*u % n == 1 outside <g>."""

    @pytest.mark.parametrize("n, order", [(105, 8), (120, 16), (195, 8), (201, 4), (243, 2)])
    def test_group_order(self, n, order):
        # <g> holds one involution besides 1, so G holds all `order` of
        # them and |G| = lambda(n) * order / 2.
        assert len(involutions(n)) == order
        split = _invariant_split(np.zeros((n, n)), 1)  # invariant under every map
        group = group_of(split)
        assert len(set(group)) == len(group) == largest_order(n) * order // 2
        assert set(involutions(n)) <= set(group)
        assert all(math.gcd(u, n) == 1 for u in group)

    @pytest.mark.parametrize("n", [2, 8, 12, 15, 24, 60, 105, 120, 195, 200, 201, 243])
    def test_each_orbit_in_one_block_per_character_its_stabilizer_kills(self, n):
        # A residue x lies in the blocks of exactly |G| / |S_x| characters of
        # G, S_x = {u in G : u*x = x}, the left-out block of each conjugate
        # pair counted: 0 and n/2 in one, the units in every one, and a
        # non-unit that some u fixes in fewer.
        split = _invariant_split(np.zeros((n, n)), _SPLIT_MIN_ENTRIES)
        reps = split[0]
        group = group_of(split)
        residues = []
        for cols, paired in block_rows(split):
            residues += reps[cols].ravel().tolist() + reps[cols[:paired]].ravel().tolist()
        assert len(residues) == n
        orbit_mins = {min(u * x % n for u in group) for x in range(n)}
        assert set(reps.tolist()) == orbit_mins
        for x in orbit_mins:
            stabilizer = [u for u in group if u * x % n == x]
            assert residues.count(x) == len(group) // len(stabilizer), x
        assert residues.count(0) == 1
        if n % 2 == 0:
            assert residues.count(n // 2) == 1
        if n == 15:
            assert 4 * 5 % 15 == 5 and residues.count(5) == 2

    @pytest.mark.parametrize(
        "n, widths",
        [
            # 201 = 3 * 67: G is all 132 units.  Orbits: the units, the
            # nonzero multiples of 3 (S = {1, 68}), {67, 134} (S = the 66
            # units = 1 mod 3) and {0}.  The trivial character keeps all
            # four; one more is 1 on the units = 1 mod 3 (units and
            # {67, 134}), 65 more on {1, 68} (units and multiples of 3), and
            # the other 65 keep the units alone.
            (201, {1: 65, 2: 66, 4: 1}),
            (200, {1: 32, 2: 22, 3: 2, 4: 19, 6: 1, 8: 3, 12: 1}),
            (ONE_MATRIX_SPLIT - 1, {ONE_MATRIX_SPLIT - 1: 1}),
            # 199 is prime: G is all 198 units, with orbits {0} and the units
            (199, {1: 197, 2: 1}),
        ],
    )
    def test_solves_the_blocks_above_the_crossover(self, monkeypatch, n, widths):
        a = alpha_matrix("uacg", n, 0.3)
        shapes = eigvalsh_shapes(monkeypatch)
        assert symmetric_eigenvalues(a).size == n
        assert all(shape[-1] == shape[-2] for shape in shapes)
        split = _invariant_split(a, 1)
        assert block_widths(split) == widths
        # one eigvalsh per width, one block of each conjugate pair
        assert len({shape[-1] for shape in shapes}) == len(shapes) == len(widths)
        assert solved_widths(shapes) == block_widths(split, twins=False)

    @pytest.mark.parametrize("keep", [200, 133])
    def test_broken_involution_takes_the_smaller_group(self, monkeypatch, keep):
        # At n = 201 g = 2 and H' = {1, 133}; a matrix broken under g and
        # under one involution is split by {1, keep} into halves that differ
        # by the fixed points of keep (0; and 0, 67, 134 for keep = 133).
        n = 201
        a = broken(alpha_matrix("uacg", n, 0.3), keep)
        want = np.linalg.eigvalsh(a)[::-1]
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(a)
        assert shapes == [(1, w, w) for w in halves(n, keep)]
        assert_close(got, want, keep)

    def test_broken_under_g_takes_the_involutions(self, monkeypatch):
        # Raised on the orbit of (1, 5) under every involution, the matrix
        # keeps them all but not g = 2, which maps (1, 5) off that orbit: it
        # is split by the four involutions into real blocks.
        n = 201
        a = alpha_matrix("uacg", n, 0.3)
        assert _generators(n)[0][0] == 2
        for u in involutions(n):
            a[u, 5 * u % n] += 0.5
            a[5 * u % n, u] += 0.5
        real, seen = np.linalg.eigvalsh, []

        def spy(x):
            seen.append((x.shape, x.dtype))
            return real(x)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        got = symmetric_eigenvalues(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", real)
        assert sorted(group_of(_invariant_split(a, 1))) == involutions(n)
        assert seen == [((1, w, w), np.float64) for w in (33, 34, 66, 68)]
        assert_close(got, np.linalg.eigvalsh(a)[::-1], "broken under g")

    @pytest.mark.parametrize("n", [*range(1, 130), 199, 200, 201, 243, 256])
    def test_generators_checked_by_brute_force(self, n):
        with_g, alone = _generators(n)
        invs = involutions(n)
        assert set(alone) <= set(invs) and len(span(alone, n)) == max(1, len(invs))
        lam = largest_order(n)
        if lam <= 2:
            assert with_g == ()
            return
        g, *rest = with_g
        assert order_of(g, n) == lam
        assert all(order_of(u, n) < lam for u in range(1, g) if math.gcd(u, n) == 1)
        assert set(rest) <= set(invs)
        group = span(with_g, n)
        assert len(group) == lam * 2 ** len(rest) and set(invs) <= group

    def test_no_n_by_group_table_at_4096(self):
        # G is all 2048 units of Z_4096; an n x |G| table of 2-byte entries
        # would take 16.8 MB.
        n = 4096
        m = np.zeros((n, n), dtype=np.int8)
        _generators.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            split = _invariant_split(m, 1)
            blocks = _fold(m, split)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(group_of(split)) == 2048
        assert sum(b.shape[-3] * b.shape[-1] for b, _ in blocks) + sum(
            w * twins for w, _, twins in split[-2]
        ) == n
        assert peak < n * 2048 * 2


def alpha_stack(label: str, n: int) -> np.ndarray:
    return np.stack([alpha_matrix(label, n, alpha) for alpha in ALPHA_GRID])


class TestStackedSolve:
    @pytest.mark.parametrize("label", LABELS)
    def test_rows_match_one_matrix_at_a_time(self, label):
        # A row is that matrix's values by the split the stack takes: the
        # same float operations, so the same bits.
        for n in SPLIT_ORDERS:
            stack = alpha_stack(label, n)
            got = symmetric_eigenvalues(stack)
            assert got.shape == (len(ALPHA_GRID), n)
            split = _invariant_split(stack, len(stack))
            for row, a, alpha in zip(got, stack, ALPHA_GRID):
                alone = _solve([b for b, _ in _fold(a, split)], split[-2])
                assert np.array_equal(row, alone), (label, n, alpha)
            assert_close(got, np.linalg.eigvalsh(stack)[:, ::-1], (label, n))

    @pytest.mark.parametrize(
        "n, widths",
        [
            (201, {1: 65, 2: 66, 4: 1}),
            (200, {1: 32, 2: 22, 3: 2, 4: 19, 6: 1, 8: 3, 12: 1}),
            (23, {23: 1}),  # eleven matrices of order 23 are too few entries to split
        ],
    )
    def test_one_stacked_solve_per_block_width(self, monkeypatch, n, widths):
        stack = alpha_stack("complement-uacg", n)
        shapes = eigvalsh_shapes(monkeypatch)
        symmetric_eigenvalues(stack)
        assert all(shape[0] == len(ALPHA_GRID) for shape in shapes)
        assert len({shape[-1] for shape in shapes}) == len(shapes)
        split = _invariant_split(stack, len(stack))
        assert block_widths(split) == widths
        assert solved_widths(shapes, axis=1) == block_widths(split, twins=False)

    @pytest.mark.parametrize(
        "n, solved", [(201, [100, 101]), (200, [99, 101]), (44, [21, 23])]
    )
    def test_one_stacked_solve_per_half(self, monkeypatch, n, solved):
        stack = broken(alpha_stack("complement-uacg", n), keep=n - 1)
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(stack)
        assert shapes == [(len(ALPHA_GRID), 1, w, w) for w in solved]
        assert_close(got, np.linalg.eigvalsh(stack)[:, ::-1], n)

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
        n = 201
        stack = alpha_stack("uacg", n)
        stack[3, i, j] = stack[3, j, i] = stack[3, i, j] + 0.5  # breaks every unit but 1
        want = [np.linalg.eigvalsh(a)[::-1] for a in stack]
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(stack)
        assert shapes == [(len(stack), 1, n, n)]
        for row, w in zip(got, want):
            assert np.array_equal(row, w)

    @pytest.mark.parametrize("keep", [200, 133])
    def test_mixed_stack_takes_the_smaller_group(self, monkeypatch, keep):
        n = 201
        stack = alpha_stack("uacg", n)
        stack[3] = broken(stack[3], keep)
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(stack)
        assert shapes == [(len(stack), 1, w, w) for w in halves(n, keep)]
        assert np.array_equal(got[3], symmetric_eigenvalues(stack[3]))  # alone, the same group
        assert_close(got, np.linalg.eigvalsh(stack)[:, ::-1], keep)


class TestAlphaEigenvalues:
    @pytest.mark.parametrize("label", LABELS)
    def test_split_matches_one_full_solve_up_to_260(self, label):
        alphas = (0.0, 0.3, 0.9999, 1.0)
        for n in range(2, 261):
            g = build_graph(parse_spec_label(label, n))
            stack = np.stack([build_alpha_matrix(g, alpha) for alpha in alphas])
            want = np.linalg.eigvalsh(stack)[:, ::-1]
            assert_close(_alpha_eigenvalues(g.adjacency, g.degrees, alphas), want, (label, n))
            assert_close(symmetric_eigenvalues(stack), want, (label, n))

    def test_rows_do_not_depend_on_their_chunk(self, monkeypatch):
        # Broken under every map but -1, a graph of order 199 is split into
        # halves 99 and 100 wide, and one alpha's halves hold more than a
        # twelfth of a chunk.
        g = build_graph(parse_spec_label("complement-uacg", 199))
        a = broken(g.adjacency, keep=198, bump=1)
        shapes = eigvalsh_shapes(monkeypatch)
        rows = _alpha_eigenvalues(a, a.sum(axis=1), ALPHA_GRID)
        assert sorted({shape[0] for shape in shapes}) == [5, 6]
        assert {shape[-1] for shape in shapes} == {99, 100}
        assert all(math.prod(shape) <= _BATCH_ELEMENTS for shape in shapes)
        for row, alpha in zip(rows, ALPHA_GRID):
            assert np.array_equal(row, _alpha_eigenvalues(a, a.sum(axis=1), (alpha,))[0])

    @pytest.mark.parametrize("keep", [200, 133])
    def test_broken_graph_takes_the_smaller_group(self, monkeypatch, keep):
        n = 201
        g = build_graph(parse_spec_label("uacg", n))
        a = broken(g.adjacency, keep, bump=1)
        shapes = eigvalsh_shapes(monkeypatch)
        got = _alpha_eigenvalues(a, a.sum(axis=1), (0.3,))
        assert shapes == [(1, 1, w, w) for w in halves(n, keep)]
        want = np.linalg.eigvalsh(0.7 * a + np.diag(0.3 * a.sum(axis=1)))[::-1]
        assert_close(got[0], want, keep)

    def test_degrees_are_checked_too(self, monkeypatch):
        g = build_graph(parse_spec_label("uacg", 201))
        degrees = g.degrees.copy()
        degrees[0] += 1  # 0 is fixed by the whole group: g and every involution still hold
        degrees[1] += 1  # breaks every one
        shapes = eigvalsh_shapes(monkeypatch)
        got = _alpha_eigenvalues(g.adjacency, degrees, (0.3,))
        assert shapes == [(1, 1, 201, 201)]
        want = np.linalg.eigvalsh(0.7 * g.adjacency + np.diag(0.3 * degrees))[::-1]
        assert_close(got[0], want, "degrees")

    def test_rejects_bad_input(self):
        g = build_graph(parse_spec_label("uacg", 9))
        a = g.adjacency.copy()
        a[1, 2] += 1
        with pytest.raises(ValueError, match="not symmetric"):
            _alpha_eigenvalues(a, g.degrees, (0.3,))
        with pytest.raises(ValueError, match="finite"):
            _alpha_eigenvalues(g.adjacency, np.full(9, math.inf), (0.3,))
        with pytest.raises(ValueError, match="alpha"):
            _alpha_eigenvalues(g.adjacency, g.degrees, (1.5,))


ORACLE_SOURCE = Path(__file__).resolve().parents[1] / "src" / "uacg" / "linalg.py"
CHECKED_ROUTES = {"blocks", "numtheory", "closedform"}


def imported_modules(source: str) -> set[str]:
    """Every module name an import statement in source names, in any scope:
    "from .blocks import x" gives "blocks", "from . import blocks" gives
    "blocks", "import uacg.numtheory" gives "uacg" and "numtheory"."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            names |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
    return names


class TestOracleIndependence:
    def test_dense_oracle_imports_none_of_the_routes_it_checks(self):
        assert not imported_modules(ORACLE_SOURCE.read_text()) & CHECKED_ROUTES

    @pytest.mark.parametrize(
        "line",
        [
            "from .blocks import unit_sum_blocks",
            "from . import numtheory",
            "import uacg.closedform",
            "def f():\n    from uacg.numtheory import factorize",
        ],
    )
    def test_guard_sees_each_import_form(self, line):
        assert imported_modules(line) & CHECKED_ROUTES


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
