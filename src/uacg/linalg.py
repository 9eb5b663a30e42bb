"""Dense symmetric eigenvalues, circulant eigenvalue formulas, spectrum grouping.

This is the numeric oracle for every closed form and bound in the package.
The dense path delegates to LAPACK through numpy.linalg.eigvalsh and takes
one matrix or a (k, n, n) stack of them; each matrix of a stack is solved on
its own by the same calls, so its row is bit-identical to solving it alone
by the same split.  The FFT circulant formulas have no caller in the
package; they stay as the reference the interval tests compare against, and
perfbench/tracer.py looks left_circulant_eigenvalues up by name.

Every matrix the package builds lives on Z_n, and its entries depend only on
gcd(i + j, n) or gcd(i - j, n), so x -> u*x (mod n) maps it to itself for
every unit u.  The dense path splits a matrix by the group G = <g> x H', g a
unit of the largest multiplicative order lambda(n) and H' generated by the
involutions u*u % n == 1 outside <g>: one block per character of G, over
the orbits of G whose stabilizer the character is 1 on (n/|G| units and a
few non-units each), an exact unitary similarity, so the values are those
of the full matrix to rounding.  A character and its conjugate give
conjugate blocks, so one of the two is solved and its values counted twice.
At n = 201 the blocks are 1, 2 and 4 wide; at a prime, 1 wide but for one
of width 2.  The invariance is checked exactly, entry by entry, for g and
each generator of H'; a matrix broken under g is split by the involutions
alone, and one broken under an involution by the group of those that hold.
A stack of fewer than _SPLIT_MIN_ENTRIES entries, where the split costs more
than it saves, takes one full solve.  The split reads the matrix alone and
shares nothing with the block route (blocks.py: no Chinese remainder
theorem, no Kronecker factors, nothing from numtheory): it finds g and the
involutions by trying every residue, so the dense path stays an independent
oracle for it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DEFAULT_GROUP_TOL",
    "Spectrum",
    "group_spectrum",
    "left_circulant_eigenvalues",
    "right_circulant_eigenvalues",
    "symmetric_eigenvalues",
]

# 1e3 x the accuracy target of the dense eigensolver; CLI-overridable.
DEFAULT_GROUP_TOL = 1e-7


@dataclass(frozen=True)
class Spectrum:
    """Distinct (value, multiplicity) pairs in descending value order."""

    pairs: tuple[tuple[float, int], ...]
    n: int

    def values(self) -> np.ndarray:
        """Expand back to the full length-n descending eigenvalue list."""
        if not self.pairs:
            return np.empty(0, dtype=float)
        vals = np.array([v for v, _ in self.pairs], dtype=float)
        mults = np.array([m for _, m in self.pairs], dtype=int)
        return np.repeat(vals, mults)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.pairs)


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


def _check_alpha(alpha: float, *, allow_one: bool) -> float:
    alpha = float(alpha)
    hi_ok = alpha <= 1.0 if allow_one else alpha < 1.0
    if not (0.0 <= alpha and hi_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"alpha must lie in {bound}, got {alpha}")
    return alpha


# Fewest entries, k * n**2 for k matrices of order n (or k alphas of one
# graph), that are split: its checks and fold are paid once per stack.  Time
# of the split over one full solve, symmetric_eigenvalues and
# _alpha_eigenvalues on both unit-sum families at n = 10, 15, ..., 200 and
# at each odd n near the crossover, 1 BLAS thread, numpy 2.4.6 with
# OpenBLAS 0.3.31 on a 2-core Xeon VM: one matrix 0.59-4.5 up to n = 78,
# then 0.27-1.12 at odd n and 0.29-1.9 at even n (above 1 at 80, 90, 100,
# 120 and 160); 3 alphas 0.55-3.2 up to 45, then 0.11-1.20 (above 1 at 60);
# 11 alphas 0.59-2.9 up to 23, then 0.04-1.14 at odd n and 0.06-2.1 at even
# n (above 1 at 24-30, and for an 11-matrix stack at 120-180).  One matrix
# of odd order 79-135 (bound_report) takes 0.37-0.96 of the time of the
# involution split this one replaced, and even orders 80-160 1.0-1.6.
_SPLIT_MIN_ENTRIES = 6144

# Most float64 entries one stacked eigvalsh input may hold: callers that solve
# many matrices at once (_alpha_eigenvalues, blocks._stacked_eigenvalues) cut
# their stacks into chunks of at most this many entries, or one matrix at a
# time where one matrix holds more.  _invariant's temporaries hold at most
# this many entries too.  perfbench verify (seeds 101, 102; 1 BLAS
# thread, numpy 2.4.6 with OpenBLAS, 2-core Xeon VM), with verify's blocks at
# most 20,000 entries per alpha: wall_s 2.51-2.65 s at 2**16, 2.54-2.62 s at
# 2**17 and 2.40-2.43 s at 2**18; peak RSS 44.3-44.9, 44.8-45.5 and 45.4-45.6
# MB.  Block root scans at n = 111,546,435 in both families peak at 55.6, 55.4
# and 56.2 MB at 2**16, 2**17 and 2**18.
_BATCH_ELEMENTS = 2**17

# Most orders whose layouts (_generators, _split) are cached.  A pass of
# verify at nmax = 201 keeps 236 layouts and 178 generator sets; those of
# one unit-sum graph of each order 2..201 hold 0.69 MB (tracemalloc).
_LAYOUTS = 512


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending.

    a is one (n, n) matrix, giving n values, or a (k, n, n) stack, giving k
    rows of n.  Every matrix must be finite and exactly symmetric (as
    constructed by this package), else ValueError.  A stack of at least
    _SPLIT_MIN_ENTRIES entries is solved as the blocks of the group of units
    all its matrices are exactly invariant under (see _invariant_split),
    one stacked eigvalsh per block width; a smaller one takes one full
    solve.  Raises numpy.linalg.LinAlgError if the underlying iteration
    fails to converge, which does not happen for the dense sizes used here.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    _check_symmetric(arr)
    split = _invariant_split(arr, math.prod(arr.shape[:-2]))
    return _solve([b for b, _ in _fold(arr, split)], split[-2])


def _alpha_eigenvalues(
    adjacency: np.ndarray, degrees: np.ndarray, alphas: Sequence[float]
) -> np.ndarray:
    """symmetric_eigenvalues of (1 - alpha)*adjacency + alpha*diag(degrees)
    for each alpha, as one stack would be split, from one check and fold of
    the graph: the degrees fold to those of each block's residues, so an
    alpha's blocks are (1 - alpha)*A_chi + alpha*diag(d_chi).  Alphas are
    solved in chunks of at most _BATCH_ELEMENTS block entries, each block
    on its own, so a row does not depend on the other alphas of its chunk.
    """
    alphas = np.array([_check_alpha(x, allow_one=True) for x in alphas]).reshape(-1, 1, 1, 1)
    a, d = np.asarray(adjacency), np.asarray(degrees)
    _check_symmetric(a, d)
    split = _invariant_split(a, len(alphas), d)
    reps, *_, blocks, _ = split
    folded = [(b, d[reps[cols]]) for b, cols in _fold(a, split)]
    step = max(1, _BATCH_ELEMENTS // sum(b.size for b, _ in folded))
    rows = []
    for start in range(0, len(alphas), step):
        chunk, stacks = alphas[start : start + step], []
        for b, diag in folded:
            stacks.append((1.0 - chunk) * b)
            on_diagonal = stacks[-1].reshape(*stacks[-1].shape[:-2], -1)[..., :: b.shape[-1] + 1]
            on_diagonal += chunk[..., 0] * diag
        rows.append(_solve(stacks, blocks))
    return np.concatenate(rows)


def _check_symmetric(m: np.ndarray, *also: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in (m, *also)):
        raise ValueError("matrix must be finite")
    if not (m == m.swapaxes(-2, -1)).all():
        raise ValueError("matrix is not symmetric")


def _invariant_split(m: np.ndarray, count: int, d: np.ndarray | None = None) -> tuple:
    """The _split by those of _generators(n) that the symmetric stack m of
    count matrices, and d if given, are exactly invariant under: g and then
    H', or the involutions alone if m or d is broken under g; the trivial
    group below _SPLIT_MIN_ENTRIES entries."""
    n = m.shape[-1]
    kept = []
    if count * n * n >= _SPLIT_MIN_ENTRIES:
        with_g, alone = _generators(n)
        if with_g and _invariant(m, d, with_g[0]):
            kept, alone = [with_g[0]], with_g[1:]
        kept += [u for u in alone if _invariant(m, d, u)]
    return _split(n, tuple(kept))


def _invariant(m: np.ndarray, d: np.ndarray | None, u: int) -> bool:
    """Whether m[..., u*x, u*y] == m[..., x, y] (mod n) for all x, y, and
    d[u*x] == d[x] if d is given.  For a symmetric m that is m[u*x, y] ==
    m[y/u, x]: the rows taken by u are the transpose of those taken by its
    inverse, compared a slice of columns at a time so that no temporary
    holds more than _BATCH_ELEMENTS entries."""
    n = m.shape[-1]
    p = np.arange(n) * u % n
    if d is not None and (d[p] != d).any():
        return False
    q = p if u * u % n == 1 else np.arange(n) * pow(u, -1, n) % n
    step = max(1, _BATCH_ELEMENTS * n // m.size)
    for i in range(0, n, step):
        rows = np.take(m, p[i : i + step], axis=-2)
        # an involution is its own inverse: one slice holds both sides
        cols = rows if q is p and step >= n else np.take(m[..., i : i + step], q, axis=-2)
        if not (rows == cols.swapaxes(-2, -1)).all():
            return False
    return True


@lru_cache(maxsize=_LAYOUTS)
def _generators(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(g, *H') and the involutions alone, found by trying every residue.

    g is the least unit of the largest multiplicative order lambda, the
    first power at which every unit is 1 (() if lambda <= 2); H' the
    involutions u*u % n == 1 outside <g>.  Involutions are taken largest
    (-1) first, each unless it lies in the group of those before it.
    """
    involutions = np.flatnonzero(np.arange(n) ** 2 % n == 1)[::-1].tolist()
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    power, early, lam = units.copy(), np.zeros(units.size, dtype=bool), 1
    while n > 2 and not (ones := power == 1).all():
        early |= ones
        power, lam = power * units % n, lam + 1
    g = int(units[np.argmin(early)])

    def independent(group: set[int]) -> list[int]:
        out = []
        for u in involutions:
            if u not in group:
                group |= {u * h % n for h in group}
                out.append(u)
        return out

    with_g = (g, *independent({1, pow(g, lam // 2, n)})) if lam > 2 else ()
    return with_g, tuple(independent({1}))


@lru_cache(maxsize=_LAYOUTS)
def _split(n: int, gens: tuple[int, ...]) -> tuple:
    """(reps, elems, lam, chars, root, blocks, index) for the group G of
    units generated by gens: gens[0] of order lam (lam = 1 if it is an
    involution), the rest involutions generating H'.

    reps are the least residues of the orbits, found by taking least labels
    along each generator's cycles, doubling the step (no n x |G| table);
    elems[a*|H'| + b] = gens[0]**a * h_b % n; root[y] = 1/sqrt(|S_y|), S_y
    the stabilizer of reps[y]; chars[c, b] = +-1 the characters of H'.
    Those of G are exp(-2*pi*i*j*a/lam) * chars[c, b]; j and lam - j give
    conjugate blocks with the same values, so only j <= lam/2 are kept.
    blocks holds (width, count, twins) per width, twins the leading blocks
    that stand for a conjugate pair; index, per width in turn, two int32
    (count, width) arrays: each block's row offsets (k*r + y)*r into the
    flattened _character_sums, and its y.
    """
    if not gens:  # the trivial group: one block, the whole matrix
        ys = np.arange(n)
        return _read_only(ys, np.ones(1), 1, np.ones((1, 1)), np.ones(n), ((n, 1, 0),), np.append(ys * n, ys))
    elems, label, lam, chars = np.ones(1, dtype=np.int64), np.arange(n), 1, np.ones((1, 1))
    for u in gens:
        powers = [1]
        while (x := powers[-1] * u % n) != 1:
            powers.append(x)
        if len(powers) > 2:
            lam = len(powers)
        else:  # Sylvester's: chars[c, b] = (-1)**popcount(c & b)
            chars = np.kron(chars, [[1.0, 1.0], [1.0, -1.0]])
        elems = np.outer(elems, powers).ravel() % n
        perm = np.arange(n) * u % n
        for _ in range((len(powers) - 1).bit_length()):
            label = np.minimum(label, label[perm])
            perm = perm[perm]
    reps = np.flatnonzero(label == np.arange(n))
    r = reps.size
    images = np.outer(elems, reps) % n
    stab = elems.size // np.bincount(label)[reps]
    # chi_k summed over S_y: |S_y| if chi_k is 1 on S_y, else 0
    kept = _character_sums((images == reps).astype(float), lam, chars).real > stab / 2
    j = np.arange(kept.shape[0]) // chars.shape[0]
    paired = (j > 0) & (2 * j != lam)
    widths, blocks, index = kept.sum(axis=1), [], []
    for w in sorted(set(widths.tolist())):
        ks = np.flatnonzero(widths == w)  # the characters with w representatives
        ks = ks[np.argsort(~paired[ks], kind="stable")]  # pairs first
        ys = np.nonzero(kept[ks])[1].reshape(-1, w)
        index += [((ks[:, None] * r + ys) * r).ravel(), ys.ravel()]
        blocks.append((w, len(ks), int(paired[ks].sum())))
    index = np.concatenate(index)
    return _read_only(reps, elems, lam, chars, 1.0 / np.sqrt(stab), tuple(blocks), index)


def _read_only(reps, elems, lam, chars, root, blocks, index):
    """The split, its arrays made read-only: the cache hands them to every
    caller."""
    index = index.astype(np.int32)
    for arr in (reps, elems, chars, root, index):
        arr.setflags(write=False)
    return reps, elems, lam, chars, root, blocks, index


def _character_sums(t: np.ndarray, lam: int, chars: np.ndarray) -> np.ndarray:
    """sum_h chi_k(h) * t[..., h, :] for _split's characters chi_k, one of
    each conjugate pair, for a real t: one product with chars, then a real
    FFT along the cyclic axis (so no complex product is needed)."""
    t = np.matmul(chars, t.reshape(*t.shape[:-2], lam, chars.shape[0], t.shape[-1]))
    if lam > 1:
        t = np.fft.rfft(t, axis=-3)
    return t.reshape(*t.shape[:-3], -1, t.shape[-1])


def _fold(m: np.ndarray, split: tuple) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of a matrix, or of each matrix in a stack, invariant under
    the split's group G: per block width, a (..., count, width, width) stack,
    complex Hermitian if lam > 1, else real, and the (count, width) indices
    into reps of its rows.

    Block chi is B[x, y] = sum_h chi(h) * m[x, h*y] / sqrt(|S_x| * |S_y|)
    over the x, y whose stabilizers chi is 1 on: m in the orthonormal basis
    sum_h chi(h) e_{h*x} / sqrt(|S_x| * |G|), so its values are those of m
    to rounding.
    """
    reps, elems, lam, chars, root, blocks, index = split
    if elems.size == 1:
        return [(m[..., None, :, :], reps[None])]
    # t[h, y, x] = m[h * reps[y], reps[x]] * root[y] * root[x]
    images = np.outer(elems, reps) % m.shape[-1]
    t = np.take(np.take(m, reps, axis=-1), images, axis=-2) * (root[:, None] * root)
    t = _character_sums(t.reshape(*t.shape[:-2], -1), lam, chars)
    t = t.reshape(*t.shape[:-2], -1)
    out, at = [], 0
    for w, count, _ in blocks:
        rows, cols = index[at : at + 2 * count * w].reshape(2, count, w)
        out.append((np.take(t, rows[:, :, None] + cols[:, None, :], axis=-1), cols))
        at += 2 * count * w
    return out


def _solve(stacks: list[np.ndarray], blocks: tuple) -> np.ndarray:
    """Descending eigenvalues from blocks: one eigvalsh per (..., count,
    width, width) stack of the split's blocks, the values of its first
    twins blocks counted twice, each matrix's values concatenated and
    sorted."""
    vals = []
    for s, (*_, twins) in zip(stacks, blocks):
        v = np.linalg.eigvalsh(s).reshape(*s.shape[:-3], -1)
        vals += [v, v[..., : twins * s.shape[-1]]]
    vals = np.concatenate(vals, axis=-1)
    vals.sort(axis=-1)
    return vals[..., ::-1].copy()


def right_circulant_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the right circulant with first row s.

    lambda_j = sum_k s_k * omega**(k*j) with omega = exp(2*pi*i/n); returned
    in that index order (not sorted), as complex numbers.
    """
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty real sequence")
    # numpy's fft uses the conjugate kernel exp(-2*pi*i*j*k/n); conjugating
    # recovers the omega**(+kj) convention for real input.
    return np.conj(np.fft.fft(arr))


def left_circulant_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric left circulant with first row s, descending.

    Row r of the matrix is s cyclically left-shifted by r.  With lambda_k the
    right circulant eigenvalues, the spectrum is {lambda_0} plus a +/-|lambda_k|
    pair for 1 <= k <= (n-1)/2 when n is odd, and {lambda_0, lambda_{n/2}} plus
    the pairs for 1 <= k <= (n-2)/2 when n is even.
    """
    lam = right_circulant_eigenvalues(s)
    n = lam.size
    vals = [lam[0].real]
    if n % 2 == 0:
        vals.append(lam[n // 2].real)
        half = (n - 2) // 2
    else:
        half = (n - 1) // 2
    for k in range(1, half + 1):
        mag = abs(lam[k])
        vals.append(mag)
        vals.append(-mag)
    return np.sort(np.asarray(vals, dtype=float))[::-1].copy()


def group_spectrum(values: np.ndarray, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """Collapse a descending eigenvalue list into (value, multiplicity) pairs.

    Adjacent values whose gap is at most tol are merged into one pair whose
    value is the mean of the merged cluster.  Rejects unsorted or non-finite
    input.
    """
    tol = _check_tol(tol)
    vals = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if vals.size and np.any(np.diff(vals) > 0):
        raise ValueError("values must be sorted in descending order")
    return _group(vals, np.ones(vals.size, dtype=np.int64), tol)


def _group(vals: np.ndarray, counts: np.ndarray, tol: float) -> Spectrum:
    """group_spectrum(np.repeat(vals, counts), tol) for descending vals and
    positive counts, bit for bit, without the repeat."""
    if vals.size == 0:
        return Spectrum(pairs=(), n=0)
    cuts = [0, *(np.flatnonzero(vals[:-1] - vals[1:] > tol) + 1).tolist(), vals.size]
    sizes = np.add.reduceat(counts, cuts[:-1]).tolist()
    memo: dict[tuple[float, int], float] = {}
    pairs = tuple(
        (_repeat_sum(vals[start:stop], counts[start:stop], k, memo) / k, k)
        for start, stop, k in zip(cuts, cuts[1:], sizes)
    )
    return Spectrum(pairs=pairs, n=sum(sizes))


def _repeat_sum(vals: np.ndarray, counts: np.ndarray, k: int, memo: dict) -> float:
    """np.repeat(vals, counts).sum() bit for bit, where k = counts.sum().

    numpy sums float64 pairwise: more than 128 values are split at half their
    number rounded down to a multiple of 8, and each part is summed the same
    way.  Following those splits expands at most 128 values at a time, and k
    copies of one value are summed once per (value, k) in memo.  Were numpy
    to split differently, the result would still be the sum to rounding.
    """
    if k <= 128 or k == vals.size:
        return float(np.repeat(vals, counts).sum())
    key = (float(vals[0]), k)
    if vals.size == 1 and key in memo:
        return memo[key]
    half = k // 2 - k // 2 % 8
    ends = np.cumsum(counts)
    i = int(np.searchsorted(ends, half))  # the entry holding the left part's last value
    j = i + int(ends[i] == half)  # the entry holding the right part's first value
    left, right = counts[: i + 1].copy(), counts[j:].copy()
    left[-1] -= ends[i] - half
    right[0] = ends[j] - half
    left_sum = _repeat_sum(vals[: i + 1], left, half, memo)
    total = left_sum + _repeat_sum(vals[j:], right, k - half, memo)
    if vals.size == 1:
        memo[key] = total
    return total
