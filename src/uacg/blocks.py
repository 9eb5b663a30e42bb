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

_build_blocks builds each width's stack for all its sets of paired factors
at once, with no np.kron: an entry is the product, over the factors in
order, of the 2x2 entry or the scalar its factor picks, the same products
the factor-by-factor Kronecker product takes, so it is bit-identical to
that product.  The energy floor's terms for the wider blocks (_floor_terms)
need no stack: traces and Frobenius inner products of Kronecker products are
products of the factors' own, and r enters them only as r*r = p - 1, so
they are exact integers from the factorization, rounded once to float.
Both are built on an order's first visit, into its one cached _record.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cache, lru_cache
from itertools import combinations

import numpy as np

from .graphs import FAMILY_UACG, GraphSpec, edge_count
from .linalg import _BATCH_ELEMENTS, _check_alpha
from .numtheory import euler_phi, factorize

__all__ = ["block_eigenvalues", "unit_sum_blocks"]

# Most orders whose _record is kept; a verify pass at nmax = 201 walks 100
# odd orders twice, building each once (README, "Per-process state").
_BLOCK_ORDERS = 128


def _check_unit_sum(spec: GraphSpec) -> None:
    """ValueError unless spec is a unit-sum spec (or its complement) of odd
    order, the specs the block decomposition and the rank intervals cover."""
    if spec.family != FAMILY_UACG:
        raise ValueError(f"the block decomposition covers the unit-sum family, not {spec.family!r}")
    if spec.n % 2 == 0:
        raise ValueError(f"the block decomposition needs odd n >= 3, got {spec.n}")


def _pair_sets(factors: tuple, size: int) -> list[tuple[int, tuple[int, ...], int, int]]:
    """(index, pairs, sign, multiplicity) of each block of width 2**size, in
    stack order: for each set of factors picking the 2x2 type (pairs, the
    index-th in combinations order), + before -."""
    out = []
    for index, pairs in enumerate(combinations(range(len(factors)), size)):
        choices = math.prod(p - 2 for i, (p, _) in enumerate(factors) if i not in pairs)
        signed = ((1, (choices + 1) // 2), (-1, (choices - 1) // 2))
        out += [(index, pairs, sign, mult) for sign, mult in signed if mult]
    return out


@cache
def _pair_codes(omega: int, size: int) -> np.ndarray:
    """For each of omega factors, each set of size of them (combinations
    order) and each entry (i, j) of a 2**size-wide block, the entry of the
    factor's flattened 3x3 table that the block entry takes: 3 b(i) + b(j)
    on the set's k-th pair factor, b the k-th most significant of size bits
    (the order np.kron gives), and 8, the scalar, on the other factors.
    Shape (omega, sets, 2**size, 2**size), uint8, read-only; 3.1 MB over
    every size at omega = 8.  Unbounded: omega <= 8 for odd n <= 10**9, so
    there are at most 44 keys."""
    sets = list(combinations(range(omega), size))
    chosen = np.array([[i in pairs for i in range(omega)] for pairs in sets], dtype=bool)
    shifts = np.maximum(size - np.cumsum(chosen, axis=1), 0).T
    rows = np.where(chosen.T[:, :, None], (np.arange(2**size) >> shifts[:, :, None]) & 1, 2)
    codes = (3 * rows[:, :, :, None] + rows[:, :, None, :]).astype(np.uint8)
    codes.setflags(write=False)
    return codes


def unit_sum_blocks(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The blocks of (L, P, J) for odd n >= 3, stacked by width.

    One (L, P, J, multiplicities) entry per block width, ascending: L, P and
    J have shape (count, width, width) and multiplicities has shape (count,).
    One block per sign for each set of factors picking the 2x2 type, then the
    leftover width-1 units and non-units; sum(width * multiplicities) is n.
    Read-only: the order's _record holds it, and each call returns it.
    """
    return _record(n).blocks


def _build_blocks(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """unit_sum_blocks(n), built with no np.kron: each width's L and J start
    as ones, and each prime power in turn multiplies every entry of every
    block of the width by the entry of its 3x3 table that _pair_codes names:
    of q [[0, r], [r, p - 2]] (L) or q [[1, r], [r, p - 1]] (J) on a pair
    factor, q (L) or 0 (J) on the others.  The factors multiply in the
    Kronecker chain's order, so every entry is bit-identical to the chain's;
    a sign then multiplies L, as it did the chain.  P is 1 on the last
    diagonal entry and 0 elsewhere."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the block decomposition needs odd n >= 3, got {n}")
    factors = factorize(n).factors
    tables = np.zeros((len(factors), 2, 3, 3))
    for table, (p, e) in zip(tables, factors):
        q, r = p ** (e - 1), math.sqrt(p - 1.0)
        table[:, :2, :2] = q * np.array([[[0.0, r], [r, p - 2.0]], [[1.0, r], [r, p - 1.0]]])
        table[0, 2, 2] = q
    groups = [_pair_sets(factors, size) for size in range(len(factors) + 1)]
    phi = euler_phi(n)
    left_units = phi - sum(mult for group in groups for *_, mult in group)
    left_others = n - phi - sum(
        mult * (2**size - 1) for size, group in enumerate(groups) for *_, mult in group
    )
    out = []
    for size, group in enumerate(groups):
        codes = _pair_codes(len(factors), size)
        prods = np.ones((2, *codes.shape[1:]))
        for table, code in zip(tables.reshape(len(factors), 2, 9), codes):
            prods *= table.take(code, axis=1)
        index, _, signs, mults = map(list, zip(*group))
        lsum, ones = np.array(signs, dtype=float)[:, None, None] * prods[0, index], prods[1, index]
        units = np.zeros_like(lsum)
        units[:, -1, -1] = 1.0
        if size == 0:
            left = [(u, k) for u, k in ((1.0, left_units), (0.0, left_others)) if k]
            zeros = np.zeros((len(left), 1, 1))
            lsum, ones = np.concatenate((lsum, zeros)), np.concatenate((ones, zeros))
            units = np.concatenate((units, np.array([u for u, _ in left]).reshape(-1, 1, 1)))
            mults += [k for _, k in left]
        out.append((lsum, units, ones, np.array(mults, dtype=np.int64)))
    return tuple(out)


_Record = namedtuple("_Record", "blocks eyes mults floors")


@lru_cache(maxsize=_BLOCK_ORDERS)
def _record(n: int) -> _Record:
    """What the block route derives from odd n >= 3 alone, read-only: the
    blocks, each width's identity, the multiplicity of each value
    _stacked_eigenvalues lists and both families' floor terms."""
    blocks = _build_blocks(n)
    eyes = tuple(np.eye(lsum.shape[-1]) for lsum, *_ in blocks)
    mults = np.concatenate([np.repeat(mult, lsum.shape[-1]) for lsum, _, _, mult in blocks])
    floors = tuple(_floor_terms(GraphSpec(FAMILY_UACG, n, comp)) for comp in (False, True))
    for a in (*(a for block in blocks for a in block), *eyes, mults, *floors):
        a.setflags(write=False)
    return _Record(blocks, eyes, mults, floors)


def _alpha_blocks(spec: GraphSpec, alphas: np.ndarray, block: tuple, eye: np.ndarray) -> np.ndarray:
    """One width's stack of A_alpha blocks for alphas shaped (k, 1, 1, 1):
    one float recipe for every caller, so their entries agree bit for bit."""
    lsum, units, ones, _ = block
    kept = 1.0 - alphas
    a = kept * lsum + alphas * euler_phi(spec.n) * eye - units
    if spec.complement:
        a = (alphas * spec.n - 1.0) * eye + kept * ones - a
    return a


def _floor_terms(spec: GraphSpec) -> np.ndarray:
    """Rows multiplicity, t0, t1, rest, curve, vertex of _energy_floors, one
    column per block wider than 1, in stack order.

    On a block, C = A_alpha - (2*alpha*m/n) I = C0 + alpha C1 has trace
    t0 + alpha t1, and u, the entries of C or (c11 - c22, 2 c12) at width 2,
    has |u|**2 = rest + curve * (alpha - vertex)**2.

    Built from the factorization, not the block stacks.  n C0 and n C1 are
    integer combinations of X, P and I, with X = L for the graph and J - L
    for its complement.  Traces and Frobenius inner products of Kronecker
    products are products of the factors' ones, and r = sqrt(p - 1) enters
    them only as r*r = p - 1, so every <u0, u1>-type sum is an exact
    integer; |u|**2 at width 2 is 2 |C|_F**2 - (tr C)**2.  Each column is
    its exact rational value rounded once to float.
    """
    n, phi, m2 = spec.n, euler_phi(spec.n), 2 * edge_count(spec)
    factors = factorize(n).factors
    # n C0 = n X + p0 P + i0 I and n C1 = -n X + i1 I on every block.
    p0, i0, i1 = (n, -n, n * (n - phi) - m2) if spec.complement else (-n, 0, n * phi - m2)
    qs = [(p ** (e - 1), p) for p, e in factors]
    columns = []
    for size in range(1, len(factors) + 1):
        width = 2**size
        for _, pairs, sign, mult in _pair_sets(factors, size):
            # xx = <L, L> and xi = tr L = <L, P>: a pair factor gives
            # <q F, q F> = q*q (p*p - 2p + 2) and tr q F = q (p - 2), a
            # scalar q gives q*q and q
            xx, xi = 1, sign
            for i, (q, p) in enumerate(qs):
                on = i in pairs
                xx *= q * q * (p * p - 2 * p + 2) if on else q * q
                xi *= q * (p - 2) if on else q
            xp = xi
            if spec.complement and size == len(factors):
                # X = J - L on the one block with every factor paired (sign
                # +), J the Kronecker product of q [[1, r], [r, p - 1]]
                jj = math.prod(q * q * p * p for q, p in qs)
                lj = math.prod(q * q * p * (p - 1) for q, p in qs)
                xx, xp, xi = (
                    jj - 2 * lj + xx,
                    math.prod(q * (p - 1) for q, p in qs) - xp,
                    math.prod(q * p for q, p in qs) - xi,
                )
            elif spec.complement:
                xp, xi = -xp, -xi
            k00 = n * n * xx + p0 * p0 + i0 * i0 * width + 2 * n * (p0 * xp + i0 * xi) + 2 * p0 * i0
            k01 = -n * n * xx + n * (i1 - i0) * xi - n * p0 * xp + p0 * i1 + i0 * i1 * width
            k11 = n * n * xx - 2 * n * i1 * xi + i1 * i1 * width
            t0, t1 = n * xi + p0 + i0 * width, -n * xi + i1 * width
            if width == 2:
                k00, k01, k11 = 2 * k00 - t0 * t0, 2 * k01 - t0 * t1, 2 * k11 - t1 * t1
            rest = (k00 * k11 - k01 * k01) / (k11 * n * n) if k11 else k00 / (n * n)
            columns.append((mult, t0 / n, t1 / n, rest, k11 / (n * n), -k01 / k11 if k11 else 0.0))
    return np.array(columns, dtype=float).T.copy()


def _energy_floors(spec: GraphSpec, alphas: Sequence[float]) -> np.ndarray:
    """A lower bound on the alpha energy of an odd-order unit-sum spec at
    each of alphas (in [0, 1]): O(blocks) per alpha, no eigensolve.

    The energy is sum c |C|_* over the blocks, C = B(alpha) - (2*alpha*m/n) I
    and c the block's multiplicity.  A width-1 block adds c |c11|, each term
    bit-identical to the numeric route's.  A wider block adds c max(|tr C|,
    |u|), from cached coefficients: at width 2 that is exact, |mu1| + |mu2| =
    max(|mu1 + mu2|, hypot(c11 - c22, 2 c12)), and at width >= 4 it is
    max(|tr C|, |C|_F) <= |C|_*.  Each term is a norm of an affine function
    of alpha, so the floor is convex in alpha.  Its callers have routed
    spec, so it is not checked again.
    """
    record = _record(spec.n)
    a = np.asarray(alphas, dtype=float)
    single = record.blocks[0]
    scalars = _alpha_blocks(spec, a.reshape(-1, 1, 1, 1), single, record.eyes[0])
    shifts = 2.0 * a * edge_count(spec) / spec.n
    floors = np.abs(scalars.reshape(len(a), -1) - shifts[:, None]) @ single[3].astype(float)
    mult, t0, t1, rest, curve, vertex = record.floors[spec.complement]
    a = a[:, None]
    wide = np.maximum(np.abs(t0 + a * t1), np.sqrt(rest + curve * (a - vertex) ** 2))
    return floors + wide @ mult


def _stacked_eigenvalues(
    spec: GraphSpec, alphas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """block_eigenvalues for a sequence of alphas in [0, 1] at once; neither
    the spec nor the alphas are checked again (their public entry checks them).

    Returns (values, multiplicities): values has one row per alpha and the
    read-only multiplicities are shared.  One stacked eigvalsh per block
    width and chunk of alphas.  Each matrix is built by the same float
    operations as for one alpha and solved on its own, so each row is
    bit-identical to the values of that alpha alone.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 1, 1, 1)
    blocks, eyes, mults, _ = _record(spec.n)
    values = np.empty((len(alphas), mults.size))
    col = 0
    for block, eye in zip(blocks, eyes):
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
    alpha = _check_alpha(alpha, allow_one=True)
    _check_unit_sum(spec)
    (values,), mults = _stacked_eigenvalues(spec, (alpha,))
    return values, mults.copy()
