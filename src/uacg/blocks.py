"""Exact block eigensolver for unit-sum Cayley graphs of odd order.

For odd n, 2i is a unit exactly when i is.  With L[i, j] = [i + j is a unit],
P = diag([i is a unit]) and J the all-ones matrix, the alpha matrices of the
unit-sum graph G and of its complement are

    A_alpha(G)          = (1 - alpha) L + alpha phi(n) I - P,
    A_alpha(complement) = (alpha n - 1) I + (1 - alpha) J - A_alpha(G),

and under the Chinese remainder theorem L, P, J and I are each a Kronecker
product over the prime powers p**e exactly dividing n.  On one factor
Z_{p**e}, with q = p**(e-1) and r = sqrt(p - 1), the triple (L, P, J) splits
into one 2x2 block on the normalised indicators of the multiples of p and of
the units,

    L = q [[0, r], [r, p - 2]],   P = diag(0, 1),   J = q [[1, r], [r, p - 1]],

and four scalar types (L, P, J): (q, 1, 0) (p-1)/2 times, (-q, 1, 0)
(p-3)/2 times, (0, 0, 0) q-1 times and (0, 1, 0) (p-1)(q-1) times.

A block of A_alpha picks one type per factor.  If the factors outside the
2x2 ones all pick L = +-q, the block is +-(prod q) times the 2x2 factors'
Kronecker product, with one unit and J = 0 unless every factor is 2x2; of
the prod (p - 2) sign choices, one more gives + than -.  Every other block
has L = J = 0 and a diagonal P, so it is listed as width-1 units and
non-units.  No block is wider than 2**omega(n); no n x n matrix is formed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations

import numpy as np

from .graphs import FAMILY_UACG, GraphSpec, edge_count
from .linalg import _BATCH_ELEMENTS, _check_alpha
from .numtheory import euler_phi, factorize

__all__ = ["block_eigenvalues", "unit_sum_blocks"]

# Most orders whose blocks are cached.  A verify pass at nmax = 201 walks its
# 100 odd orders in two checks, which a 64-order cache missed every time;
# their blocks hold about 0.5 MB, those of n = 111546435 alone 17 MB.
_BLOCK_ORDERS = 128


def _check_unit_sum(spec: GraphSpec) -> None:
    """ValueError unless spec is a unit-sum spec (or its complement) of odd
    order, the specs the block decomposition and the rank intervals cover."""
    if spec.family != FAMILY_UACG:
        raise ValueError(f"the block decomposition covers the unit-sum family, not {spec.family!r}")
    if spec.n % 2 == 0:
        raise ValueError(f"the block decomposition needs odd n >= 3, got {spec.n}")


@lru_cache(maxsize=_BLOCK_ORDERS)
def unit_sum_blocks(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The blocks of (L, P, J) for odd n >= 3, stacked by width.

    One (L, P, J, multiplicities) entry per block width, ascending: L, P and
    J have shape (count, width, width) and multiplicities has shape (count,).
    One block per sign for each set of factors picking the 2x2 type, then the
    leftover width-1 units and non-units; sum(width * multiplicities) is n.
    The arrays are read-only because the result is cached.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the block decomposition needs odd n >= 3, got {n}")
    factors = factorize(n).factors
    left_units = euler_phi(n)
    left_others = n - left_units
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    out = []
    # Widest first, so the leftovers are known when the width-1 entry is built.
    for size in reversed(range(len(factors) + 1)):
        group = []
        for pairs in combinations(range(len(factors)), size):
            lsum = units = ones = one
            # Scaling by q in factor order keeps every entry bit-identical
            # to the factor-by-factor Kronecker product.
            for i, (p, e) in enumerate(factors):
                q = p ** (e - 1)
                if i in pairs:
                    r = math.sqrt(p - 1.0)
                    lsum = np.kron(lsum, q * np.array([[0.0, r], [r, p - 2.0]]))
                    units = np.kron(units, np.diag([0.0, 1.0]))
                    ones = np.kron(ones, q * np.array([[1.0, r], [r, p - 1.0]]))
                else:
                    lsum = lsum * q
                    ones = ones * 0.0
            choices = math.prod(p - 2 for i, (p, _) in enumerate(factors) if i not in pairs)
            for sign, mult in ((1.0, (choices + 1) // 2), (-1.0, (choices - 1) // 2)):
                if mult:
                    group.append((sign * lsum, units, ones, mult))
                    left_units -= mult
                    left_others -= mult * (2**size - 1)
        if size == 0:
            group += [(zero, u, zero, k) for u, k in ((one, left_units), (zero, left_others)) if k]
        *blocks, mults = zip(*group)
        arrays = [np.stack(b) for b in blocks] + [np.array(mults, dtype=np.int64)]
        for a in arrays:
            a.setflags(write=False)
        out.append(tuple(arrays))
    return tuple(reversed(out))


@lru_cache(maxsize=_BLOCK_ORDERS)
def _stack_layout(n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The identity matrix of each block width of unit_sum_blocks(n), and the
    multiplicity of each value _stacked_eigenvalues lists; read-only.

    Cached beside the blocks because building them per call cost as much as
    the alpha axis adds to a one-alpha call: block_eigenvalues at n = 105
    (graph, complement) took 50.0, 59.8 us building them per call and 41.1,
    50.9 us cached, against 40.3, 47.9 us for a solve with alpha as a Python
    float (best of 7 x 3 x 400 calls, machine and settings as for
    linalg._BATCH_ELEMENTS).
    """
    blocks = unit_sum_blocks(n)
    eyes = tuple(np.eye(lsum.shape[-1]) for lsum, *_ in blocks)
    mults = np.concatenate([np.repeat(mult, lsum.shape[-1]) for lsum, _, _, mult in blocks])
    for a in (*eyes, mults):
        a.setflags(write=False)
    return eyes, mults


def _alpha_blocks(spec: GraphSpec, alphas: np.ndarray, block: tuple, eye: np.ndarray) -> np.ndarray:
    """One width's stack of A_alpha blocks for alphas shaped (k, 1, 1, 1):
    one float recipe for every caller, so their entries agree bit for bit."""
    lsum, units, ones, _ = block
    kept = 1.0 - alphas
    a = kept * lsum + alphas * euler_phi(spec.n) * eye - units
    if spec.complement:
        a = (alphas * spec.n - 1.0) * eye + kept * ones - a
    return a


@lru_cache(maxsize=2 * _BLOCK_ORDERS)
def _floor_terms(spec: GraphSpec) -> np.ndarray:
    """Rows multiplicity, t0, t1, rest, curve, vertex of _energy_floors, one
    column per block wider than 1; read-only.

    On a block, C = A_alpha - (2*alpha*m/n) I = C0 + alpha C1 has trace
    t0 + alpha t1, and u, the entries of C or (c11 - c22, 2 c12) at width 2,
    has |u|**2 = rest + curve * (alpha - vertex)**2.  rest is summed from the
    entries of u(vertex), so near its zero |u| is off by O(eps |C|), not the
    O(sqrt(eps) |C|) of expanded polynomial coefficients.
    """
    shift, ends = 2.0 * edge_count(spec) / spec.n, np.array([0.0, 1.0]).reshape(-1, 1, 1, 1)
    columns = []
    for block, eye in zip(unit_sum_blocks(spec.n)[1:], _stack_layout(spec.n)[0][1:]):
        c0, c1 = _alpha_blocks(spec, ends, block, eye)
        c1 = c1 - c0 - shift * eye
        if eye.shape[0] == 2:
            u0, u1 = (np.stack((c[:, 0, 0] - c[:, 1, 1], 2.0 * c[:, 0, 1]), -1) for c in (c0, c1))
        else:
            u0, u1 = c0.reshape(len(c0), -1), c1.reshape(len(c1), -1)
        curve, slope = (u1 * u1).sum(axis=1), (u0 * u1).sum(axis=1)
        vertex = np.divide(-slope, curve, out=np.zeros_like(curve), where=curve > 0)
        rest = ((u0 + vertex[:, None] * u1) ** 2).sum(axis=1)
        trace = (np.trace(c, axis1=1, axis2=2) for c in (c0, c1))
        columns.append((block[3], *trace, rest, curve, vertex))
    terms = np.concatenate([np.array(c, dtype=float) for c in columns], axis=1)
    terms.setflags(write=False)
    return terms


def _energy_floors(spec: GraphSpec, alphas: Sequence[float]) -> np.ndarray:
    """A lower bound on the alpha energy of an odd-order unit-sum spec at
    each of alphas (in [0, 1]): O(blocks) per alpha, no eigensolve.

    The energy is sum c |C|_* over the blocks, C = B(alpha) - (2*alpha*m/n) I
    and c the block's multiplicity.  A width-1 block adds c |c11|, each term
    bit-identical to the numeric route's.  A wider block adds c max(|tr C|,
    |u|), from cached coefficients: at width 2 that is exact, |mu1| + |mu2| =
    max(|mu1 + mu2|, hypot(c11 - c22, 2 c12)), and at width >= 4 it is
    max(|tr C|, |C|_F) <= |C|_*.  Each term is a norm of an affine function
    of alpha, so the floor is convex in alpha.
    """
    _check_unit_sum(spec)
    n = spec.n
    a = np.asarray(alphas, dtype=float)
    single = unit_sum_blocks(n)[0]
    scalars = _alpha_blocks(spec, a.reshape(-1, 1, 1, 1), single, _stack_layout(n)[0][0])
    shifts = 2.0 * a * edge_count(spec) / n
    floors = np.abs(scalars.reshape(len(a), -1) - shifts[:, None]) @ single[3].astype(float)
    mult, t0, t1, rest, curve, vertex = _floor_terms(spec)
    a = a[:, None]
    wide = np.maximum(np.abs(t0 + a * t1), np.sqrt(rest + curve * (a - vertex) ** 2))
    return floors + wide @ mult


def _stacked_eigenvalues(
    spec: GraphSpec, alphas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """block_eigenvalues for a sequence of alphas at once.

    Returns (values, multiplicities): values has one row per alpha and the
    read-only multiplicities are shared.  One stacked eigvalsh per block
    width and chunk of alphas.  Each matrix is built by the same float
    operations as for one alpha and solved on its own, so each row is
    bit-identical to the values of that alpha alone.
    """
    _check_unit_sum(spec)
    alphas = np.array([_check_alpha(a, allow_one=True) for a in alphas]).reshape(-1, 1, 1, 1)
    eyes, mults = _stack_layout(spec.n)
    values = np.empty((len(alphas), mults.size))
    col = 0
    for block, eye in zip(unit_sum_blocks(spec.n), eyes):
        count, width, _ = block[0].shape
        step = max(1, _BATCH_ELEMENTS // block[0].size)
        for start in range(0, len(alphas), step):
            at = slice(start, start + step)
            a = _alpha_blocks(spec, alphas[at], block, eye)
            # LAPACK returns the entry of a 1x1 matrix unchanged.
            vals = a if width == 1 else np.linalg.eigvalsh(a)
            values[at, col : col + count * width] = vals.reshape(-1, count * width)
        col += count * width
    return values, mults


def block_eigenvalues(spec: GraphSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of A_alpha for an odd-order unit-sum spec.

    One stacked eigvalsh per block width.  The values are unsorted and may
    repeat; the multiplicities sum to n.
    """
    values, mults = _stacked_eigenvalues(spec, (alpha,))
    return values[0], mults.copy()
