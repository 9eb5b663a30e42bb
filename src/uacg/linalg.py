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
every unit u.  The involutions H = {u : u*u % n == 1} form a group of order
2**r, and the dense path solves a matrix as one block per character of H,
each about n/|H| wide: an exact orthogonal similarity, so the values are
those of the full matrix to rounding.  It checks the invariance exactly,
entry by entry, for each generator of H and splits by the group of those
that pass, so a matrix broken under one involution takes the smaller group.
A stack of fewer than _SPLIT_MIN_ENTRIES entries, where the split costs more
than it saves, takes one full solve.  The split reads the matrix alone and
shares nothing with the block route (blocks.py: no Chinese remainder
theorem, no Kronecker factors): it finds the involutions by trying every
residue, so the dense path stays an independent oracle for it.
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
# of the split over one full solve, both unit-sum families at even orders 14
# to 120, 1 BLAS thread, numpy 2.4.6 with OpenBLAS 0.3.31 on a 2-core Xeon
# VM: 0.82-1.38 up to n = 22 and 0.22-0.90 from 26 for 11 alphas; 0.71-2.29
# up to 42 and 0.40-1.06 from 44 for 3; one matrix 0.89-3.2 up to 78 and
# 0.72-1.29 from 80 to 120.
_SPLIT_MIN_ENTRIES = 6144

# Most float64 entries one stacked eigvalsh input may hold: callers that solve
# many matrices at once (_alpha_eigenvalues, blocks._stacked_eigenvalues) cut
# their stacks into chunks of at most this many entries, or one matrix at a
# time where one matrix holds more.  perfbench verify (seeds 101, 102; 1 BLAS
# thread, numpy 2.4.6 with OpenBLAS, 2-core Xeon VM), with verify's blocks at
# most 20,000 entries per alpha: wall_s 2.51-2.65 s at 2**16, 2.54-2.62 s at
# 2**17 and 2.40-2.43 s at 2**18; peak RSS 44.3-44.9, 44.8-45.5 and 45.4-45.6
# MB.  Block root scans at n = 111,546,435 in both families peak at 55.6, 55.4
# and 56.2 MB at 2**16, 2**17 and 2**18.
_BATCH_ELEMENTS = 2**17


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending.

    a is one (n, n) matrix, giving n values, or a (k, n, n) stack, giving k
    rows of n.  Every matrix must be finite and exactly symmetric (as
    constructed by this package), else ValueError.  A stack of at least
    _SPLIT_MIN_ENTRIES entries is solved as the blocks of the involutions
    all its matrices are exactly invariant under (see _invariant_split),
    one stacked eigvalsh per block width; a smaller one takes one full
    solve.  Raises numpy.linalg.LinAlgError if the underlying iteration
    fails to converge, which does not happen for the dense sizes used here.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    _check_symmetric(arr)
    return _solve(_fold(arr, _invariant_split(arr, math.prod(arr.shape[:-2]))))


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
    reps, *_, blocks = split
    folded = [(b, d[reps[cols]]) for b, (_, cols) in zip(_fold(a, split), blocks)]
    step = max(1, _BATCH_ELEMENTS // sum(b.size for b, _ in folded))
    rows = []
    for start in range(0, len(alphas), step):
        chunk, stacks = alphas[start : start + step], []
        for b, diag in folded:
            stacks.append((1.0 - chunk) * b)
            on_diagonal = stacks[-1].reshape(*stacks[-1].shape[:-2], -1)[..., :: b.shape[-1] + 1]
            on_diagonal += chunk[..., 0] * diag
        rows.append(_solve(stacks))
    return np.concatenate(rows)


def _check_symmetric(m: np.ndarray, *also: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in (m, *also)):
        raise ValueError("matrix must be finite")
    if not _symmetric(m):
        raise ValueError("matrix is not symmetric")


def _symmetric(m: np.ndarray) -> bool:
    return bool((m == m.swapaxes(-2, -1)).all())


def _invariant_split(m: np.ndarray, count: int, d: np.ndarray | None = None) -> tuple:
    """The _split by those generators of H = {u : u*u % n == 1}, found by
    trying every residue, largest (-1) first, that the symmetric stack m of
    count matrices, and d if given, are exactly invariant under; the trivial
    group below _SPLIT_MIN_ENTRIES entries.  m is invariant under an
    involution p iff m[p] is symmetric: m[p][x, y] = m[p*x, y] = m[x, p*y].
    """
    n = m.shape[-1]
    kept, group = [], {1}
    if count * n * n >= _SPLIT_MIN_ENTRIES:
        for u in np.flatnonzero(np.arange(n) ** 2 % n == 1)[::-1].tolist():
            if u not in group:
                group |= {u * h % n for h in group}
                p = np.arange(n) * u % n
                if _symmetric(np.take(m, p, axis=-2)) and (d is None or np.array_equal(d[p], d)):
                    kept.append(u)
    return _split(n, tuple(kept))


@lru_cache(maxsize=32)
def _split(n: int, gens: tuple[int, ...]) -> tuple:
    """(reps, images, chars, root, blocks) for the group H generated by the
    involutions gens, its elements h_b indexed by bits b picking generators.

    reps are the least residues of the orbits; images[b, y] = h_b*reps[y] % n;
    chars[c, b] = chi_c(h_b) = (-1)**popcount(b & c); root[y] =
    1/sqrt(|S_y|) for the stabilizer S_y of reps[y].  blocks holds, per
    block width, two (count, width) arrays: each block's row offsets
    (c*r + y)*r in the flattened (|H|, r, r) character sums, and its y.
    """
    if not gens:  # the trivial group: one block, the whole matrix
        ys = np.arange(n)[None]
        return _read_only(ys[0], ys, np.ones((1, 1)), np.ones(n), ((ys * n, ys),))
    elems = [1]
    for g in gens:
        elems += [g * h % n for h in elems]
    h = len(elems)
    images = np.outer(np.arange(n), elems) % n
    reps = np.flatnonzero(images.min(axis=1) == np.arange(n))
    r = reps.size
    fixes = (images[reps] == reps[:, None]).astype(np.int64)  # fixes[y, b]: h_b fixes reps[y]
    bits, odd = np.arange(h), np.zeros((h, h), dtype=np.int64)  # odd[c, b]: chi_c(h_b) = -1
    for i in range(len(gens)):
        odd ^= (bits[:, None] & bits) >> i & 1
    kept = (fixes @ odd == 0).T  # kept[c, y]: chi_c is 1 on S_y
    widths, blocks = kept.sum(axis=1), []
    for w in sorted(set(widths.tolist())):
        cs = np.flatnonzero(widths == w)  # the characters with w representatives
        ys = np.nonzero(kept[cs])[1].reshape(-1, w)
        blocks.append(((cs[:, None] * r + ys) * r, ys))
    root = 1.0 / np.sqrt(fixes.sum(axis=1))
    return _read_only(reps, images[reps].T.copy(), 1.0 - 2.0 * odd, root, tuple(blocks))


def _read_only(*split):
    """split, its arrays made read-only: the cache hands them to every caller."""
    for arr in (*split[:4], *(x for b in split[4] for x in b)):
        arr.setflags(write=False)
    return split


def _fold(m: np.ndarray, split: tuple) -> list[np.ndarray]:
    """The blocks of a matrix, or of each matrix in a stack, invariant under
    the split's group H: per block width, a (..., count, width, width) stack.

    Block chi is B[x, y] = sum_h chi(h) * m[x, h*y] / sqrt(|S_x| * |S_y|) over
    the x, y whose stabilizers chi is 1 on: m in the orthonormal basis
    sum_h chi(h) e_{h*x} / sqrt(|S_x| * |H|), so its values are those of m to
    rounding.  The character sums are one matrix product per matrix.
    """
    reps, images, chars, root, blocks = split
    h, r = images.shape
    if h == 1:
        return [m[..., None, :, :]]
    # t[b, y, x] = m[h_b * reps[y], reps[x]] * root[y] * root[x]
    t = np.take(np.take(m, reps, axis=-1), images, axis=-2) * (root[:, None] * root)
    t = np.matmul(chars, t.reshape(*t.shape[:-2], r * r)).reshape(*t.shape[:-3], -1)
    return [np.take(t, rows[:, :, None] + cols[:, None, :], axis=-1) for rows, cols in blocks]


def _solve(stacks: list[np.ndarray]) -> np.ndarray:
    """Descending eigenvalues from blocks: one eigvalsh per (..., count,
    width, width) stack, each matrix's values concatenated and sorted."""
    vals = np.concatenate(
        [np.linalg.eigvalsh(s).reshape(*s.shape[:-3], -1) for s in stacks], axis=-1
    )
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
