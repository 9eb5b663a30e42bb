"""Dense symmetric eigenvalues, circulant eigenvalue formulas, spectrum grouping.

This is the numeric oracle for every closed form and bound in the package.
The dense path delegates to LAPACK through numpy.linalg.eigvalsh.  The FFT
circulant formulas have no caller in the package; they stay as the reference
the interval tests compare against, and perfbench/tracer.py looks
left_circulant_eigenvalues up by name.

Every matrix the package builds is invariant under the reflection
i -> -i (mod n), since gcd(-x, n) = gcd(x, n).  The dense path checks that
exactly, entry by entry, and then solves the even and odd halves of the
matrix, each about n/2 wide: an exact orthogonal similarity, so the values
are those of the full matrix to rounding.  A matrix that fails the check, or
is smaller than _SPLIT_MIN_ORDER, where two calls cost more than they save,
takes one full solve.  The split reads the matrix alone and shares nothing
with the block route (blocks.py: no Chinese remainder theorem, no Kronecker
factors), so the dense path stays an independent oracle for it; a graph
built wrongly in a way that broke the symmetry would take the full solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# Smallest order solved as two halves.  Mean time per call over the unit-sum
# alpha matrices and their complements at alpha in {0, 0.25, 0.5, 0.75, 1},
# 1 BLAS thread, numpy 2.4.6 with OpenBLAS 0.3.31 on a 2-core Xeon VM: the
# split (check, halves and two eigvalsh) took 0.031 vs 0.018 ms at n = 26 and
# 0.028 vs 0.020 ms at n = 32, took 0.81-1.06 of one eigvalsh from n = 33 to 44,
# and won at every order from 45 to 80 (0.61-0.96) and at n = 201 (0.52).
_SPLIT_MIN_ORDER = 45


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending.

    The input must be finite and exactly symmetric (as constructed by this
    package).  A matrix of order at least _SPLIT_MIN_ORDER that is exactly
    invariant under the reflection i -> -i (mod n) is solved as its even and
    odd halves (see _reflection_halves); any other takes one full solve.
    Raises numpy.linalg.LinAlgError if the underlying iteration fails to
    converge, which does not happen for the dense sizes used here.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix must be finite")
    if not np.array_equal(arr, arr.T):
        raise ValueError("matrix is not symmetric")
    if arr.shape[0] >= _SPLIT_MIN_ORDER and _reflection_invariant(arr):
        vals = np.concatenate([np.linalg.eigvalsh(b) for b in _reflection_halves(arr)])
        vals.sort()
    else:
        vals = np.linalg.eigvalsh(arr)
    return vals[::-1].copy()


def _reflection_invariant(a: np.ndarray) -> bool:
    """a[i, j] == a[-i % n, -j % n] for every entry, exactly."""
    return bool((a[1:, 1:] == a[:0:-1, :0:-1]).all() and (a[0, 1:] == a[0, :0:-1]).all())


def _reflection_halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) blocks of a reflection-invariant symmetric matrix.

    With h = (n-1)//2 the residues 1..h pair with n-1..n-h, and 0 (and n/2
    for even n) are fixed.  In the orthonormal basis e_f for each fixed f,
    (e_i + e_{n-i})/sqrt(2) and (e_i - e_{n-i})/sqrt(2) for 1 <= i <= h, the
    matrix is block diagonal: the odd block is a[i, j] - a[i, n-j], and the
    even block is a[i, j] + a[i, n-j] bordered by the fixed rows, whose
    entries against a pair are sqrt(2) * a[f, j].
    """
    n = a.shape[0]
    h = (n - 1) // 2
    f = n - 2 * h  # the number of fixed points
    fixed = slice(0, n // 2 + 1, n // 2) if f == 2 else slice(0, 1)
    top = a[1 : h + 1, 1 : h + 1]
    mirror = a[1 : h + 1, n - 1 : n - h - 1 : -1]
    even = np.empty((f + h, f + h))
    even[:f, :f] = a[fixed, fixed]
    np.multiply(a[fixed, 1 : h + 1], math.sqrt(2.0), out=even[:f, f:])
    even[f:, :f] = even[:f, f:].T
    np.add(top, mirror, out=even[f:, f:])
    return even, top - mirror


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
