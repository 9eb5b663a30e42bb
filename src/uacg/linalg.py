"""Dense symmetric eigenvalues, circulant eigenvalue formulas, spectrum grouping.

This is the numeric oracle for every closed form and bound in the package.
The dense path delegates to LAPACK through numpy.linalg.eigvalsh; the
circulant paths are exact formulas evaluated with the FFT.
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


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending.

    The input must be exactly symmetric (as constructed by this package).
    Raises numpy.linalg.LinAlgError if the underlying iteration fails to
    converge, which does not happen for the dense sizes used here.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise ValueError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(arr)
    return vals[::-1].copy()


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
