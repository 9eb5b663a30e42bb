"""Tests for the dense symmetric eigensolver and circulant helpers.

The eigensolver is checked against an independent oracle implemented
here from scratch: Householder tridiagonalisation followed by Sturm
bisection (eigenvalue counting via the signs of the leading principal
minors of T - x*I).  The circulant routines are checked against
explicitly assembled matrices fed to the dense solver.
"""

import ast
import functools
import math
import tracemalloc
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uacg.linalg as linalg_mod
from uacg.closedform import ALPHA_GRID, build_alpha_matrix
from uacg.graphs import (
    FAMILIES,
    build_graph,
    build_uacg,
    build_unitary_cayley,
    complement,
    parse_spec_label,
)
from uacg.linalg import (
    _BATCH_ELEMENTS,
    DEFAULT_GROUP_TOL,
    Spectrum,
    _alpha_eigenvalues,
    _fold,
    _generators,
    _group,
    _invariant,
    _invariant_split,
    _prepare,
    _split,
    _values,
    group_spectrum,
    left_circulant_eigenvalues,
    symmetric_eigenvalues,
)
from uacg.numtheory import ramanujan_sum
from uacg.verification import check_block_route


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

    # the last is a (k, n, n) stack: one matrix at a time only
    @pytest.mark.parametrize("shape", [(2, 3, 3, 3), (3, 2, 3), (3,), (11, 9, 9), (0, 0)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            symmetric_eigenvalues(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # checked before symmetry: a NaN is unequal to itself, and a
        # symmetric infinity used to come back as NaN eigenvalues
        for a in ([[bad, 1.0], [1.0, 0.0]], [[0.0, bad], [bad, 0.0]]):
            with pytest.raises(ValueError, match="matrix must be finite"):
                symmetric_eigenvalues(np.array(a))

    @pytest.mark.parametrize(
        "a",
        [
            [["0", "1"], ["1", "0"]],
            [[False, True], [True, False]],
            [[0.0, 1j], [1j, 0.0]],
            [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
        ],
        ids=repr,
    )
    def test_rejects_entries_that_are_not_real_numbers(self, a):
        # strings and bools used to be coerced to floats
        with pytest.raises(ValueError, match="matrix must be finite real numbers"):
            symmetric_eigenvalues(a)

    def test_accepts_integer_entries(self):
        a = build_uacg(15).adjacency
        assert np.array_equal(symmetric_eigenvalues(a), symmetric_eigenvalues(a.astype(float)))

    def test_a_matrix_broken_under_g_is_solved_without_a_copy(self):
        # A seeded random matrix is broken under every unit but 1, so its one
        # block is the whole matrix; at alpha = 0 the stack is that fold, a
        # read-only view of the input, where forming (1 - alpha)*fold held
        # one more n x n float copy (8*n**2 bytes, 32 MB here).
        n = 2000
        b = np.random.default_rng(2000).normal(size=(n, n))
        a = b + b.T
        del b
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = symmetric_eigenvalues(a)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n  # the symmetry check's n x n bools and less
        assert a.flags.writeable  # the fold's view is read-only, not the input
        assert np.array_equal(got, np.linalg.eigvalsh(a)[::-1])


LABELS = [prefix + family for family in FAMILIES for prefix in ("", "complement-")]
SPLIT_ORDERS = (
    2,
    3,
    5,
    9,
    23,
    24,
    78,
    79,
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
        out.append((index[at : at + count * w].reshape(count, w), twins))
        at += count * w
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


def folds(graphs, flags=(False,)) -> list:
    """The _prepare fold of each (adjacency, degrees) pair, with the
    complement's trivial block if a flag is true."""
    return [_prepare(a, d, complement=True in flags) for a, d in graphs]


def one_graph(adjacency, degrees, alphas, flags=(False,)) -> np.ndarray:
    """_alpha_eigenvalues of one graph: its rows, flag by flag."""
    (rows,) = _alpha_eigenvalues(folds([(adjacency, degrees)], flags), alphas, flags)
    return rows


def assert_close(got: np.ndarray, want: np.ndarray, what) -> None:
    """got within 1e-12 of the largest |value| (at least 1) of want, row by row."""
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1, keepdims=True))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), what


# The sweeps below share the plain references of the uacg graph and its
# complement, so each is solved once.
PLAIN_LABELS = ("uacg", "complement-uacg")
PLAIN_ALPHAS = ALPHA_GRID + (1.0,)


@functools.cache
def plain_rows(n: int) -> np.ndarray:
    """(len(PLAIN_LABELS), len(PLAIN_ALPHAS), n): the descending values of
    one full np.linalg.eigvalsh of (1 - x)*A + x*I*d for each label and
    alpha x, A and d the graph's integer adjacency and degrees, the matrix
    formed here rather than by package code."""
    g = build_uacg(n)
    x = np.array(PLAIN_ALPHAS)[:, None, None]
    h = 1 - np.eye(n, dtype=int) - g.adjacency
    rows = np.stack([
        np.linalg.eigvalsh((1.0 - x) * a + x * np.eye(n) * d)[:, ::-1]
        for a, d in ((g.adjacency, g.degrees), (h, n - 1 - g.degrees))
    ])
    rows.setflags(write=False)
    return rows


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

    @pytest.mark.parametrize("n", [9, 15, 79, 80])
    @pytest.mark.parametrize("label", ["uacg", "complement-unitary-cayley"])
    def test_against_sturm_oracle(self, label, n):
        # every order above 2 is split, one matrix at a time too
        for alpha in (0.0, 0.3, 0.7, 1.0):
            a = alpha_matrix(label, n, alpha)
            assert group_of(_invariant_split(a)) != [1]
            assert np.max(np.abs(symmetric_eigenvalues(a) - sturm_eigenvalues(a))) <= 1e-8

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
        split = _invariant_split(np.zeros((n, n)))  # invariant under every map
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
        split = _invariant_split(np.zeros((n, n)))
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
            # 78 = 2 * 3 * 13: G is all 24 units (lambda = 12, four
            # involutions), with one orbit per divisor of 78; the trivial
            # character keeps all eight
            (78, {2: 11, 4: 12, 8: 1}),
            # 199 is prime: G is all 198 units, with orbits {0} and the units
            (199, {1: 197, 2: 1}),
        ],
    )
    def test_solves_the_blocks_one_eigvalsh_per_wide_width(self, monkeypatch, n, widths):
        a = alpha_matrix("uacg", n, 0.3)
        want = np.linalg.eigvalsh(a)[::-1]
        shapes = eigvalsh_shapes(monkeypatch)
        got = symmetric_eigenvalues(a)
        assert_close(got, want, n)
        assert all(shape[-1] == shape[-2] for shape in shapes)
        split = _invariant_split(a)
        assert block_widths(split) == widths
        # one eigvalsh per width above 2, one block of each conjugate pair;
        # no 1- or 2-wide block reaches it
        wide = {w: k for w, k in block_widths(split, twins=False).items() if w > 2}
        assert len({shape[-1] for shape in shapes}) == len(shapes) == len(wide)
        assert solved_widths(shapes) == wide

    @pytest.mark.parametrize("n", [*range(1, 130), 199, 200, 201, 243, 256])
    def test_generators_checked_by_brute_force(self, n):
        gens, invs, lam = _generators(n), involutions(n), largest_order(n)
        group = span(gens, n)
        assert set(invs) <= group
        if lam <= 2:  # every unit is an involution, and gens are independent ones
            assert set(gens) <= set(invs) and len(group) == 2 ** len(gens) == max(1, len(invs))
            return
        g, *rest = gens
        assert order_of(g, n) == lam
        assert all(order_of(u, n) < lam for u in range(1, g) if math.gcd(u, n) == 1)
        assert set(rest) <= set(invs)
        assert len(group) == lam * 2 ** len(rest)

    def test_no_n_by_group_table_at_4096(self):
        # G is all 2048 units of Z_4096; an n x |G| table of 2-byte entries
        # would take 16.8 MB.
        n = 4096
        m = np.zeros((n, n), dtype=np.int8)
        _generators.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            split = _invariant_split(m)
            blocks = _fold(m, split)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(group_of(split)) == 2048
        # every block's entries, flattened; with twins, the blocks cover n rows
        assert blocks.shape == (1, sum(count * w * w for w, count, _ in split[-2]))
        assert sum((count + twins) * w for w, count, twins in split[-2]) == n
        assert peak < n * 2048 * 2


class TestSplitContract:
    """A matrix is split by all of G or takes one full solve."""

    @pytest.mark.parametrize("label", LABELS)
    def test_every_package_graph_is_split_by_all_of_g(self, label):
        for n in range(2, 261):
            g = build_graph(parse_spec_label(label, n))
            whole = sorted(span(_generators(n), n))
            for alpha in (0.0, 0.3, 1.0):
                assert sorted(group_of(_invariant_split(build_alpha_matrix(g, alpha)))) == whole
            # _alpha_eigenvalues' check: the degrees too
            assert sorted(group_of(_invariant_split(g.adjacency, g.degrees))) == whole, n

    @pytest.mark.parametrize("n", [120, 200, 201])
    def test_broken_under_one_generator_takes_one_full_solve(self, monkeypatch, n):
        # Raised on the orbit of (1, 5) under the group of the other
        # generators, the matrix keeps them and breaks u alone: g, -1 (a
        # generator at 120 and 200, in <g> at 201) or an involution of H'.
        gens = _generators(n)
        assert (n - 1 in gens) == (n != 201)
        for u in gens:
            a = alpha_matrix("uacg", n, 0.3)
            for h in span([v for v in gens if v != u], n):
                for x, y in ((h, 5 * h % n), (5 * h % n, h)):
                    a[x, y] += 0.5
            assert [_invariant(a, None, v) for v in gens] == [v != u for v in gens]
            shapes = eigvalsh_shapes(monkeypatch)
            got = symmetric_eigenvalues(a)
            monkeypatch.undo()
            assert shapes == [(1, n, n)]
            assert np.array_equal(got, np.linalg.eigvalsh(a)[::-1]), (n, u)


class TestAlphaEigenvalues:
    @pytest.mark.parametrize("label", LABELS)
    def test_split_matches_one_full_solve_up_to_260(self, label):
        alphas = (0.0, 0.3, 0.9999, 1.0)
        for n in range(2, 261):
            g = build_graph(parse_spec_label(label, n))
            stack = np.stack([build_alpha_matrix(g, alpha) for alpha in alphas])
            if label in PLAIN_LABELS:  # the same matrices as the shared table's
                at = [PLAIN_ALPHAS.index(alpha) for alpha in alphas]
                want = plain_rows(n)[PLAIN_LABELS.index(label), at]
            else:
                want = np.linalg.eigvalsh(stack)[:, ::-1]
            assert_close(one_graph(g.adjacency, g.degrees, alphas), want, (label, n))
            assert_close(np.stack([symmetric_eigenvalues(a) for a in stack]), want, (label, n))

    @pytest.mark.parametrize("n", [45, 105])
    def test_rows_depend_on_their_matrix_and_alpha_alone(self, n):
        # both families of an order one alpha of which holds few entries
        # and of a larger one: one alpha alone, the whole grid, and the grid
        # among other orders give the same rows bit for bit
        g, k, flags = build_uacg(n), len(ALPHA_GRID), (False, True)
        grid = one_graph(g.adjacency, g.degrees, ALPHA_GRID, flags)
        among = [build_uacg(m) for m in (9, n, 200)]
        rows = list(_alpha_eigenvalues(folds(((h.adjacency, h.degrees) for h in among), flags), ALPHA_GRID, flags))
        assert np.array_equal(rows[1], grid)
        for i, alpha in enumerate(ALPHA_GRID):
            alone = one_graph(g.adjacency, g.degrees, (alpha,), flags)
            assert np.array_equal(alone, grid[i::k]), alpha

    @pytest.mark.parametrize("n", [45, 105])
    def test_one_matrix_within_1e_13_of_a_plain_solve(self, n):
        g = build_uacg(n)
        for family, h in enumerate((g, complement(g))):
            for alpha, want in zip(PLAIN_ALPHAS, plain_rows(n)[family]):
                got = symmetric_eigenvalues(build_alpha_matrix(h, alpha))
                assert np.all(np.abs(got - want) <= 1e-13 * max(1.0, np.abs(want).max())), alpha

    @pytest.mark.parametrize("n", [2, 45, 200])
    def test_alphas_all_zero_solve_the_fold_itself(self, n):
        # a chunk of zeros only, one alpha or more, solves the read-only fold
        # (no stack formed); its rows are those of zeros among other alphas
        g, flags = build_uacg(n), (False, True)
        mixed = one_graph(g.adjacency, g.degrees, (0.0, 0.3, 0.0), flags).reshape(2, 3, n)
        for zeros in [(0.0,), (0.0, 0.0)]:
            got = one_graph(g.adjacency, g.degrees, zeros, flags).reshape(2, len(zeros), n)
            for k in range(len(zeros)):
                assert_close(got[:, k], mixed[:, 0], (n, zeros))
                assert np.array_equal(got[:, k], got[:, 0])

    def test_rows_do_not_depend_on_their_chunk(self, monkeypatch):
        # Broken under every unit but 1, a graph of order 199 takes one full
        # solve, and one alpha's matrix holds more than a twelfth of a chunk.
        a = build_graph(parse_spec_label("complement-uacg", 199)).adjacency.copy()
        a[1, 5] = a[5, 1] = a[1, 5] + 1
        shapes = eigvalsh_shapes(monkeypatch)
        rows = one_graph(a, a.sum(axis=1), ALPHA_GRID)
        assert sorted({shape[0] for shape in shapes}) == [2, 3]
        assert {shape[-1] for shape in shapes} == {199}
        assert all(math.prod(shape) <= _BATCH_ELEMENTS for shape in shapes)
        for row, alpha in zip(rows, ALPHA_GRID):
            assert np.array_equal(row, one_graph(a, a.sum(axis=1), (alpha,))[0])

    def test_degrees_are_checked_too(self, monkeypatch):
        g = build_graph(parse_spec_label("uacg", 201))
        degrees = g.degrees.copy()
        degrees[0] += 1  # 0 is fixed by the whole group: g and every involution still hold
        degrees[1] += 1  # breaks every one
        shapes = eigvalsh_shapes(monkeypatch)
        got = one_graph(g.adjacency, degrees, (0.3,))
        assert shapes == [(1, 201, 201)]
        want = np.linalg.eigvalsh(0.7 * g.adjacency + np.diag(0.3 * degrees))[::-1]
        assert_close(got[0], want, "degrees")

    def test_a_fold_holds_a_read_only_view_of_the_callers_degrees(self):
        g = build_uacg(45)
        degrees = g.degrees.copy()
        fold = _prepare(g.adjacency, degrees, complement=True)
        assert np.shares_memory(fold.degrees, degrees) and fold.degrees.dtype == degrees.dtype
        assert np.array_equal(fold.degrees, g.degrees)
        with pytest.raises(ValueError, match="read-only"):
            fold.degrees[:1] = 0
        assert degrees.flags.writeable  # the caller's array keeps its flags
        degrees[0] += 1

    def test_rejects_bad_input(self):
        g = build_graph(parse_spec_label("uacg", 9))
        a = g.adjacency.copy()
        a[1, 2] += 1
        with pytest.raises(ValueError, match="not symmetric"):
            one_graph(a, g.degrees, (0.3,))
        with pytest.raises(ValueError, match="finite"):
            one_graph(g.adjacency, np.full(9, math.inf), (0.3,))
        # _alpha_eigenvalues takes alphas its caller has checked; verify's
        # checks reject a bad one before any fold is solved
        with pytest.raises(ValueError, match="alpha"):
            check_block_route(9, alphas=(1.5,))


def searched_trivial_block(blocks: tuple, index: np.ndarray) -> tuple[int, int, int]:
    """(row, column, entry) of the one block whose rows hold the orbit of 0,
    found by searching the finished layout for index 0 into reps: where its
    rows start among the rows of index, where its values start among those
    _unsorted lays out (each width's twins after its blocks), and where its
    entries start in the flat fold."""
    p = int(np.flatnonzero(index[: sum(w * count for w, count, _ in blocks)] == 0)[0])
    row = column = entry = 0
    for w, count, twins in blocks:
        if p < row + count * w:
            break
        row, column, entry = row + count * w, column + (count + twins) * w, entry + count * w * w
    k = (p - row) // w
    return row + k * w, column + k * w, entry + k * w * w


class TestComplementFromTheBaseFold:
    """With a true flag, _alpha_eigenvalues solves the complement from the
    base graph's one fold: its trivial block as J_0 - I - A_0 and n - 1 - d,
    every other value reflected, c - lambda for c = alpha*(n - 1) - (1 -
    alpha) and the graph's own values lambda."""

    ALPHAS = PLAIN_ALPHAS

    def test_both_families_up_to_301(self):
        trivial = []
        for n in range(2, 302):
            g = build_uacg(n)
            h = complement(g)
            base, comp = one_graph(
                g.adjacency, g.degrees, self.ALPHAS, (False, True)
            ).reshape(2, len(self.ALPHAS), n)
            # the base rows are those of the base graph alone, bit for bit
            assert np.array_equal(base, one_graph(g.adjacency, g.degrees, self.ALPHAS)), n
            direct = one_graph(h.adjacency, h.degrees, self.ALPHAS)
            # (test_oracle_rows_up_to_301 holds comp to a plain solve at 1e-13)
            assert_close(comp, direct, n)
            if len(_invariant_split(g.adjacency, g.degrees)[1]) == 1:
                # under the trivial group the block is J - I - A in integers
                trivial.append(n)
                assert np.array_equal(comp, direct), n
        # every order above 2 is split
        assert trivial == [2]

    @pytest.mark.parametrize("n", [9, 60, 105, 128, 201])
    def test_rows_do_not_depend_on_the_other_family(self, n):
        g = build_uacg(n)
        pair = one_graph(g.adjacency, g.degrees, self.ALPHAS, (False, True))
        alone = one_graph(g.adjacency, g.degrees, self.ALPHAS, (True,))
        swapped = one_graph(g.adjacency, g.degrees, self.ALPHAS, (True, False))
        k = len(self.ALPHAS)
        assert np.array_equal(pair[k:], alone)
        assert np.array_equal(swapped, np.concatenate([pair[k:], pair[:k]]))

    @pytest.mark.parametrize("n", [105, 200, 201])
    def test_one_eigvalsh_per_block_width_for_both_families(self, monkeypatch, n):
        g = build_uacg(n)
        split = _invariant_split(g.adjacency, g.degrees)
        reps, blocks = split[0], split[-2]
        if n == 201:
            assert [w for w, *_ in blocks] == [1, 2, 4]
        shapes = eigvalsh_shapes(monkeypatch)
        one_graph(g.adjacency, g.degrees, (0.0, 0.3, 1.0), (False, True))
        # Three alphas of the graph's blocks, one of each conjugate pair,
        # and of the complement's trivial block alone, as wide as the
        # orbits: one eigvalsh per width above 2, as one stack (every block
        # is complex here); the 1- and 2-wide stacks take no eigvalsh.
        want = Counter({w: 3 * count for w, count, _ in blocks if w > 2})
        want[reps.size] += 3 * (reps.size > 2)
        assert Counter({shape[-1]: shape[0] for shape in shapes}) == +want
        assert len(shapes) == len(+want)

    @pytest.mark.parametrize("n", [24, 60, 105, 128, 199, 200, 201, 243])
    def test_the_trivial_block_holds_the_orbit_of_zero(self, n):
        # J folds to zero outside the block the layout locates, as wide as
        # the orbits and holding every one; its values sit at the located
        # column, n and w - 1 zeros
        split = _invariant_split(np.zeros((n, n)))
        reps, elems, *_, (row, column, entry), blocks, index = split
        w = reps.size
        assert elems.size > 1 and reps[0] == 0
        assert sorted(index[row : row + w].tolist()) == list(range(w))
        ones = _fold(np.ones((n, n)), split)
        assert np.all(np.abs(np.delete(ones[0], np.s_[entry : entry + w * w])) <= 1e-12 * n)
        vals = unsorted(ones, blocks)[0]
        assert np.all(np.abs(np.delete(vals, np.s_[column : column + w])) <= 1e-12 * n)
        assert abs(vals[column : column + w].max() - n) <= 1e-12 * n
        # the oracle writes the complement's trivial values at that column:
        # the complement of J (degrees 0) is -I, so no value of J's trivial
        # block, reflected as -1 - n, is left in its rows
        fold = _prepare(np.ones((n, n)), np.zeros(n), complement=True)
        base, comp = linalg_mod._solve_chunk([fold], np.zeros((1, 1)), (False, True))[0]
        assert abs(base[0] - n) <= 1e-12 * n and np.all(np.abs(base[1:]) <= 1e-12 * n)
        assert np.all(np.abs(comp + 1.0) <= 1e-12 * n)

    def test_the_split_records_where_the_trivial_block_sits(self):
        for n in range(2, 402):
            for gens in (_generators(n), ()):
                split = _split(n, gens)
                assert split[5] == searched_trivial_block(split[-2], split[-1]), (n, gens)

    @pytest.mark.parametrize("n", [60, 201])
    def test_a_base_block_fault_moves_both_families(self, monkeypatch, n):
        # A nontrivial 1-wide block of the graph's fold raised by 1e-6 moves
        # its value by (1 - alpha)*1e-6 in the graph's rows and the value
        # reflected from it by -(1 - alpha)*1e-6 in the complement's, so the
        # reflection cannot hide a fault in the graph's blocks.
        g = build_uacg(n)
        k = len(self.ALPHAS)
        clean = one_graph(g.adjacency, g.degrees, self.ALPHAS, (False, True)).reshape(2, k, n)
        split = _invariant_split(g.adjacency, g.degrees)
        (w, _, twins), entry = split[-2][0], split[-3][2]
        assert w == 1 and entry != 0  # the first block is 1 wide and not the trivial one
        real = linalg_mod._fold

        def raised(m, split):
            flat = real(m, split).copy()
            flat[:, 0] += 1e-6
            return flat

        monkeypatch.setattr(linalg_mod, "_fold", raised)
        moved = one_graph(g.adjacency, g.degrees, self.ALPHAS, (False, True)).reshape(2, k, n) - clean
        x = np.array(self.ALPHAS)
        shift = (1 + (twins > 0)) * (1.0 - x) * 1e-6  # a twin's value is counted twice
        assert np.allclose(moved.sum(axis=2), [shift, -shift], rtol=0, atol=1e-9)
        assert np.all(np.abs(moved[:, x <= 0.9]).max(axis=2) > 0)


class TestBatchedOrders:
    """_alpha_eigenvalues holds consecutive folds and forms and solves each
    (width, dtype) group of a held chunk with one call; every row is that
    of its graph solved alone, bit for bit."""

    # Every order from 25 on is split into complex blocks (lambda(n) > 2);
    # the orders 8 and 12, with the edge {1, 5} flipped, take one real full
    # solve, as wide as some of n = 200's blocks, and hold too few entries
    # to end a chunk.
    ORDERS = (8, 200, *range(25, 48), 12, 200)

    @staticmethod
    def graph(n: int) -> tuple[np.ndarray, np.ndarray]:
        a = build_uacg(n).adjacency.copy()
        if n in (8, 12):  # broken under a generator: the trivial group's one block
            a[1, 5] = a[5, 1] = 1 - a[1, 5]
        return a, a.sum(axis=1)

    @pytest.mark.parametrize("flags", [(False,), (False, True)])
    def test_rows_equal_each_order_alone(self, monkeypatch, flags):
        # each chunk's (width, dtype) groups, as _formed forms them
        real_chunk, real_formed, chunks = linalg_mod._solve_chunk, linalg_mod._formed, []

        def chunk(folds, x, flags):
            chunks.append(set())
            return real_chunk(folds, x, flags)

        def formed(members, w, x):
            s = real_formed(members, w, x)
            chunks[-1].add((w, s.dtype))
            return s

        monkeypatch.setattr(linalg_mod, "_solve_chunk", chunk)
        monkeypatch.setattr(linalg_mod, "_formed", formed)
        # a bound well below the orders' 29,942 (41,756 with the complement)
        # entries over the grid puts chunk boundaries inside the range
        monkeypatch.setattr(linalg_mod, "_HELD_ENTRIES", 2**13)
        graphs = [self.graph(n) for n in self.ORDERS]
        rows = list(_alpha_eigenvalues(folds(graphs, flags), ALPHA_GRID, flags))
        batched = [chunk for chunk in chunks if chunk]
        k = len(ALPHA_GRID)
        assert [got.shape for got in rows] == [(len(flags) * k, n) for n in self.ORDERS]
        for (a, d), got in zip(graphs, rows):
            for i, flag in enumerate(flags):
                alone = one_graph(a, d, ALPHA_GRID, (flag,))
                assert np.array_equal(got[i * k : (i + 1) * k], alone), (len(d), flag)
        # chunk boundaries inside the range, and width groups that hold a
        # real full solve beside complex split blocks
        assert len(batched) > 2
        for w in (8, 12):
            assert any({(w, np.dtype(float)), (w, np.dtype(complex))} <= chunk for chunk in batched)

    def test_orders_2_to_301_equal_each_order_alone(self, monkeypatch):
        # one call over n = 2..301, both families, held and solved chunk by
        # chunk: every row equals its order's rows solved alone, bit for bit
        # (the sign of a zero too); the first chunk joins the real blocks of
        # orders with lambda(n) <= 2 and complex blocks of the same width
        real_chunk, real_formed, chunks = linalg_mod._solve_chunk, linalg_mod._formed, []

        def chunk(folds, x, flags):
            chunks.append(set())
            return real_chunk(folds, x, flags)

        def formed(members, w, x):
            s = real_formed(members, w, x)
            chunks[-1].add((w, s.dtype))
            return s

        flags = (False, True)
        graphs = [(g.adjacency, g.degrees) for g in map(build_uacg, range(2, 302))]
        alone = [one_graph(a, d, ALPHA_GRID, flags) for a, d in graphs]
        monkeypatch.setattr(linalg_mod, "_solve_chunk", chunk)
        monkeypatch.setattr(linalg_mod, "_formed", formed)
        rows = list(_alpha_eigenvalues(folds(graphs, flags), ALPHA_GRID, flags))
        assert len(rows) == len(alone) == 300
        for n, got, want in zip(range(2, 302), rows, alone):
            assert got.shape == want.shape == (2 * len(ALPHA_GRID), n)
            assert got.tobytes() == want.tobytes(), n
        assert len(chunks) > 2
        assert any((w, np.dtype(float)) in chunks[0] for w, dtype in chunks[0] if dtype == complex)

    def test_nothing_is_held_past_the_chunk_bound(self, monkeypatch):
        # each chunk's formed entries per fold, and each formed stack's size
        real_chunk, real_formed, sizes, stacks = linalg_mod._solve_chunk, linalg_mod._formed, [], []

        def chunk(folds, x, flags):
            sizes.append([len(x) * (f.flat.size + f.trivial.size) for f in folds])
            return real_chunk(folds, x, flags)

        def formed(members, w, x):
            s = real_formed(members, w, x)
            stacks.append(s.size)
            return s

        monkeypatch.setattr(linalg_mod, "_solve_chunk", chunk)
        monkeypatch.setattr(linalg_mod, "_formed", formed)
        graphs = [build_uacg(n) for n in range(2, 202)]
        flags = (False, True)
        list(_alpha_eigenvalues(folds(((g.adjacency, g.degrees) for g in graphs), flags), ALPHA_GRID, flags))
        # every chunk but the last reached _HELD_ENTRIES with its last fold
        assert len(sizes) > 2
        assert all(sum(chunk) >= linalg_mod._HELD_ENTRIES for chunk in sizes[:-1])
        assert all(sum(chunk[:-1]) < linalg_mod._HELD_ENTRIES for chunk in sizes)
        assert all(size <= _BATCH_ELEMENTS for chunk in sizes for size in chunk)
        assert stacks and max(stacks) <= _BATCH_ELEMENTS


EPS = np.finfo(float).eps


def adversarial_blocks(phases: bool) -> np.ndarray:
    """Seeded (k, 2, 2) Hermitian blocks [[a, conj(b)], [b, d]] at scales
    1e-8, 1 and 1e8: b = 0, a = d, |b| >> |a - d|, a*d = |b|**2 (a zero
    value), and with phases a complex b of every argument."""
    rng, out = np.random.default_rng(2028), []
    for scale in (1e-8, 1.0, 1e8):
        a, d, b = rng.normal(size=(3, 200)) * scale
        arg = rng.uniform(0.0, 2.0 * np.pi, 200)
        for aa, dd, bb in (
            (a, d, 0.0 * b),  # b = 0
            (a, a, b),  # a = d
            (a, a + b * 1e-9 * rng.normal(size=200), b),  # |b| >> |a - d|
            (a, d, d * 1e-9),  # |b| << |a - d|
            (a, b * b / a, b),  # singular
        ):
            bb = bb * np.exp(1j * arg) if phases else bb
            out.append(np.stack([aa, np.conj(bb), bb, dd], axis=-1).reshape(-1, 2, 2))
    return np.concatenate(out)


def exact_pair(block: np.ndarray) -> list[float]:
    """The two values of a 2-wide Hermitian block to 60 digits, ascending."""
    getcontext().prec = 60
    a, d = Decimal(block[0, 0].real), Decimal(block[1, 1].real)
    b = complex(block[1, 0])
    r = (((a - d) / 2) ** 2 + Decimal(b.real) ** 2 + Decimal(b.imag) ** 2).sqrt()
    return [float((a + d) / 2 - r), float((a + d) / 2 + r)]


def unsorted(flat: np.ndarray, blocks: tuple) -> np.ndarray:
    """Each row's values of flat, the split's block entries as _fold lays
    them out, each width solved by one _values call, laid out as the oracle
    lays out a row before it sorts it: width by width, each width's first
    twins blocks counted twice after its blocks."""
    vals, at = [], 0
    for w, count, twins in blocks:
        v = _values(flat[..., at : at + count * w * w].reshape(-1, w, w))
        v = v.reshape(*flat.shape[:-1], count * w)
        vals += [v, v[..., : twins * w]]
        at += count * w * w
    return np.concatenate(vals, axis=-1)


def solved(flat: np.ndarray, blocks: tuple) -> np.ndarray:
    """Descending values of each row of flat, the split's block entries as
    _fold lays them out, solved by _solve_chunk at alpha = 0 as one chunk
    of folds, as _alpha_eigenvalues solves a chunk."""
    rows = flat.reshape(-1, flat.shape[-1])
    n = sum((count + twins) * w for w, count, twins in blocks)
    ds = np.zeros(sum(count * w for w, count, _ in blocks))
    held = [linalg_mod._Fold(n, ds, blocks, row, ds, 0, None, None) for row in rows]
    got = linalg_mod._solve_chunk(held, np.zeros((1, 1)), (False,))
    return np.concatenate(got).reshape(*flat.shape[:-1], n)


class TestSmallBlocks:
    """_values takes 1-wide blocks as their diagonal and 2-wide blocks by
    the closed quadratic, so no stack of width <= 2 reaches eigvalsh."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_wide_blocks_are_lapacks_bit_for_bit(self, monkeypatch, dtype):
        s = np.random.default_rng(1).normal(size=(2, 3, 40, 1, 1)).astype(dtype)
        want = np.linalg.eigvalsh(s).reshape(2, 3, -1)
        want = np.sort(np.concatenate([want, want[..., :7]], axis=-1))[..., ::-1]
        shapes = eigvalsh_shapes(monkeypatch)
        assert np.array_equal(solved(s.reshape(2, 3, 40), ((1, 40, 7),)), want)
        assert shapes == []

    @pytest.mark.parametrize("phases", [False, True])
    def test_two_wide_blocks_match_eigvalsh(self, monkeypatch, phases):
        blocks = adversarial_blocks(phases)
        want = np.linalg.eigvalsh(blocks)
        exact = np.array([exact_pair(b) for b in blocks])
        shapes = eigvalsh_shapes(monkeypatch)
        got = solved(blocks.reshape(-1, 4), ((2, 1, 0),))[:, ::-1]
        assert shapes == []
        fro = np.sqrt((np.abs(blocks) ** 2).sum(axis=(1, 2)))[:, None]
        # within 2 eps * ||B||_F of the exact values (1.0 eps here), and of
        # eigvalsh to 4 eps for real blocks; LAPACK's complex path itself
        # strays 4.2 eps * ||B||_F from the exact values on these blocks
        assert np.all(np.abs(got - exact) <= 2 * EPS * fro)
        assert np.all(np.abs(got - want) <= (8 if phases else 4) * EPS * fro)

    def test_oracle_rows_up_to_301(self):
        for n in range(2, 302):
            g = build_uacg(n)
            rows = one_graph(g.adjacency, g.degrees, PLAIN_ALPHAS, (False, True))
            want = plain_rows(n).reshape(-1, n)
            scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
            assert np.all(np.abs(rows - want) <= 1e-13 * scale), n


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

class TestLeftCirculant:
    def test_constant_symbol(self):
        vals = left_circulant_eigenvalues(np.full(5, 2.0))
        assert np.allclose(vals, [10.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize(
        "s", [["1", "0", "1"], [True, False, True], [1j, 0, 1], [math.nan, 1.0, 1.0]], ids=repr
    )
    def test_rejects_entries_that_are_not_finite_real_numbers(self, s):
        # these used to be coerced to floats, or come back as NaN values
        with pytest.raises(ValueError, match="s must be finite real numbers"):
            left_circulant_eigenvalues(s)

    def test_unit_indicator_gives_ramanujan_sums(self):
        # the right circulant's eigenvalues are c(k, n); the left one keeps
        # c(0, n) (and c(n/2, n) for even n) and pairs the rest as +-|c(k, n)|
        for n in (4, 9, 12, 30):
            s = np.array([1.0 if math.gcd(j, n) == 1 else 0.0 for j in range(n)])
            want = [ramanujan_sum(k, n) for k in ([0, n // 2] if n % 2 == 0 else [0])]
            for k in range(1, (n + 1) // 2):
                want += [abs(ramanujan_sum(k, n)), -abs(ramanujan_sum(k, n))]
            assert np.allclose(left_circulant_eigenvalues(s), sorted(want, reverse=True), atol=1e-9)

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

    @pytest.mark.parametrize(
        "values", [["2", "1"], [True, False], [2 + 0j, 1], [Fraction(2), Fraction(1)]], ids=repr
    )
    def test_rejects_values_that_are_not_real_numbers(self, values):
        # strings and bools used to be coerced to floats
        with pytest.raises(ValueError, match="values must be finite real numbers"):
            group_spectrum(values)

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

    # (value, count) pairs for _group: near repeats and spread values alike,
    # with counts far above one, as the closed forms and the blocks give.
    value_counts = st.dictionaries(
        st.sampled_from([-2.0, -1.0, -1.0 + 1e-9, 0.0, 0.1, 0.3, 0.3 + 2e-8, 5.0])
        | st.floats(min_value=-50.0, max_value=50.0),
        st.integers(min_value=1, max_value=3000),
        min_size=1,
        max_size=8,
    )

    @staticmethod
    def sorted_pairs(pairs: dict[float, int]) -> tuple[np.ndarray, np.ndarray]:
        vals = np.array(sorted(pairs, reverse=True))
        return vals, np.array([pairs[v] for v in vals], dtype=np.int64)

    @given(pairs=value_counts, tol=st.sampled_from([1e-9, 1e-8, 1e-7, 0.25, 0.5, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_cuts_match_expanded_grouping(self, pairs, tol):
        # Reference: walk the distinct values and cut wherever the gap to
        # the next one exceeds tol (repeats have gap 0 and never cut).
        vals, counts = self.sorted_pairs(pairs)
        sizes = [int(counts[0])]
        for i in range(1, vals.size):
            if vals[i - 1] - vals[i] > tol:
                sizes.append(0)
            sizes[-1] += int(counts[i])
        for spectrum in (_group(vals, counts, tol), group_spectrum(np.repeat(vals, counts), tol)):
            assert spectrum.multiplicities() == tuple(sizes)
            assert spectrum.n == int(counts.sum())

    @given(
        value=st.floats(min_value=-50.0, max_value=50.0),
        count=st.integers(min_value=1, max_value=3000),
        tol=st.sampled_from([1e-9, 1e-7, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_value_cluster_is_exact(self, value, count, tol):
        want = ((value, count),)
        assert _group(np.array([value]), np.array([count]), tol).pairs == want
        assert group_spectrum(np.full(count, value), tol).pairs == want

    def test_one_value_cluster_is_exact_where_a_sum_is_not(self):
        # Three copies of 0.1 sum to 0.30000000000000004, whose third is not
        # 0.1; a cluster of one value keeps it anyway, beside a wider cluster.
        assert np.full(3, 0.1).mean() != 0.1
        spectrum = _group(np.array([5.0, 0.1, 0.1 - 1e-9]), np.array([2, 3, 1]), 1e-7)
        assert spectrum.pairs[0] == (5.0, 2)
        assert group_spectrum(np.array([5.0, 0.1, 0.1, 0.1]), 1e-7).pairs[1] == (0.1, 3)

    @given(pairs=value_counts, tol=st.sampled_from([1e-8, 0.5, 10.0, 200.0]))
    @settings(max_examples=200, deadline=None)
    def test_wide_cluster_mean_within_rounding_bound(self, pairs, tol):
        # A cluster of w distinct values and k members takes the dot product
        # of w terms, off by at most gamma_w * k * max|v| (gamma_w about w
        # units of rounding, eps / 2 each), then divides by k, one rounding
        # more: so its mean is within w * eps * max|v| of the exact one, plus
        # the smallest subnormal where a mean underflows.
        vals, counts = self.sorted_pairs(pairs)
        start = 0
        for value, k in _group(vals, counts, tol).pairs:
            stop = start + int(np.searchsorted(np.cumsum(counts[start:]), k)) + 1
            members = list(zip(vals[start:stop].tolist(), counts[start:stop].tolist()))
            assert sum(c for _, c in members) == k
            exact = sum(Fraction(v) * c for v, c in members) / k
            bound = len(members) * np.finfo(float).eps * max(abs(v) for v, _ in members)
            bound += math.ulp(0.0)
            assert abs(Fraction(value) - exact) <= Fraction(bound)
            start = stop
        assert start == vals.size

    def test_default_tolerance_constant(self):
        assert DEFAULT_GROUP_TOL == 1e-7


class TestSpectrumType:
    def test_values_expand_multiplicities(self):
        spec = Spectrum(pairs=((2.0, 2), (-1.0, 1)), n=3)
        assert list(spec.values()) == [2.0, 2.0, -1.0]
