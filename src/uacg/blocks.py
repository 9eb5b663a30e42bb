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

The route solves centred pencils, not A_alpha.  With s = 2 alpha m / n, the
mean eigenvalue, every block of A_alpha(G) - s I is C0 + alpha C1 with
C0 = L - P and C1 = (phi(n)/n) I - L: the O(alpha phi(n)) terms cancel in
exact arithmetic before anything is rounded, so a value near 0 keeps its
relative accuracy up to alpha = 1.  One fused C0 + alpha C1 forms a width at
every alpha; a 1x1 block is its entry, a 2x2 block is solved by the
quadratic formula, and wider blocks by eigvalsh.  A spectrum is the centred
values plus s, and an energy is sum count |value|.  The complement needs
one block of its own: s + s' = alpha (n - 1) for its mean s', so on every
block with J = 0, all but the width-2**omega one, its centred values are
(alpha - 1) - mu for the graph's centred values mu.
The blocks, the pencils and the floor terms are built on an order's first
visit, into its one cached _record.
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
    diagonal entry and 0 elsewhere.  Above width 1, P and every J but the
    width-2**omega block's are read-only views of one block, not stacks."""
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
        # J is 0 on a scalar factor, so only the block pairing every factor has J != 0
        kinds = 2 if size == len(factors) else 1
        prods = np.ones((kinds, *codes.shape[1:]))
        for table, code in zip(tables[:, :kinds].reshape(len(factors), kinds, 9), codes):
            prods *= table.take(code, axis=1)
        index, _, signs, mults = map(list, zip(*group))
        lsum = np.array(signs, dtype=float)[:, None, None] * prods[0, index]
        unit = np.zeros(lsum.shape[1:])
        unit[-1, -1] = 1.0
        ones = prods[1, index] if kinds == 2 else _tiled(np.zeros_like(unit), len(index))
        units = _tiled(unit, len(index))
        if size == 0:
            left = [(u, k) for u, k in ((1.0, left_units), (0.0, left_others)) if k]
            zeros = np.zeros((len(left), 1, 1))
            lsum, ones = np.concatenate((lsum, zeros)), np.concatenate((ones, zeros))
            units = np.concatenate((units, np.array([u for u, _ in left]).reshape(-1, 1, 1)))
            mults += [k for _, k in left]
        out.append((lsum, units, ones, np.array(mults, dtype=np.int64)))
    return tuple(out)


def _tiled(block: np.ndarray, count: int) -> np.ndarray:
    """A (count, w, w) stack of one block, holding it once (a view)."""
    return np.ndarray((count, *block.shape), block.dtype, block, strides=(0, *block.strides))


_Record = namedtuple("_Record", "blocks mults floors pencils j_pencil circulant")


@lru_cache(maxsize=_BLOCK_ORDERS)
def _record(n: int) -> _Record:
    """What the block route derives from odd n >= 3 alone, read-only: the
    blocks, the multiplicity of each value _stacked_eigenvalues lists, both
    families' floor terms, the graph's centred pencil (C0, C1) of each width,
    the complement's of its width-2**omega block, and both families' sorted
    circulant bases (analysis._odd_eigen_arrays)."""
    blocks = _build_blocks(n)
    mults = np.concatenate([np.repeat(mult, lsum.shape[-1]) for lsum, _, _, mult in blocks])
    floors = tuple(_floor_terms(GraphSpec(FAMILY_UACG, n, comp)) for comp in (False, True))
    # 2m = (n - 1) phi, so phi - 2m/n = phi/n and the complement's 1 - phi/n
    phi = euler_phi(n)
    pencils = tuple(
        (lsum - units, phi / n * np.eye(lsum.shape[-1]) - lsum) for lsum, units, *_ in blocks
    )
    lsum, units, ones, _ = blocks[-1]
    x, eye = ones - lsum, np.eye(lsum.shape[-1])
    j_pencil = (x + (units - eye), (n - phi) / n * eye - x)
    circulant = _circulant_bases(n)
    arrays = (*(a for block in blocks for a in block), mults, *floors)
    for a in (*arrays, *(a for pair in (*pencils, j_pencil, *circulant) for a in pair)):
        a.setflags(write=False)
    return _Record(blocks, mults, floors, pencils, j_pencil, circulant)


def _ramanujan_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(c(d, n) as floats, phi(n/d)) over the divisors d of n, ascending.

    c(k, n) depends on k only through d = gcd(k, n), which phi(n/d) of the k
    in 0..n-1 share; the last divisor, n, stands for k = 0 alone.  The sums
    are integers far below 2**53, so the floats are exact.

    Both factors are multiplicative over the prime powers p**e of n, so the
    rows are built from n's factorization alone.  Where d takes p**i, n/d
    keeps t = p**(e - i), which multiplies c by mobius(t) phi(p**e) / phi(t)
    (phi(p**e) at t = 1, -p**(e - 1) at t = p, 0 above) and the count by
    phi(t).
    """
    rows = [(1, 1, 1)]
    for p, e in factorize(n).factors:
        q = p ** (e - 1)
        parts = [(p**e, q * (p - 1), 1), (q, -q, p - 1)]
        parts += [(p**i, 0, p ** (e - i - 1) * (p - 1)) for i in range(e - 1)]
        rows = [(d * dp, c * cp, m * mp) for d, c, m in rows for dp, cp, mp in parts]
    rows.sort()
    _, values, counts = zip(*rows)
    return np.array(values, dtype=float), np.array(counts, dtype=np.int64)


def _circulant_bases(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The graph's and the complement's sorted circulant base U0, grouped:
    (values, counts), values descending, each taken counts times.

    The symmetric left circulant of symbol [gcd(j, n) = 1] has eigenvalue
    t = phi(n) once and +-|c(d, n)| phi(n/d)/2 times each for every divisor
    d < n; the complement's symbol gives the same pairs and t = n - phi(n).
    At alpha its spectrum is (1 - alpha) U0, whose order does not depend on
    alpha."""
    sums, counts = _ramanujan_pairs(n)
    mags, half = np.abs(sums[:-1]), counts[:-1] // 2
    bases = []
    for top in (sums[-1], n - sums[-1]):
        values = np.concatenate([mags, -mags, [top]])
        order = np.argsort(-values, kind="stable")
        bases.append((values[order], np.concatenate([half, half, [1]])[order]))
    return tuple(bases)


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
    and c the block's multiplicity.  A width-1 block adds c |c11|, read off
    the record's pencils as _stacked_eigenvalues reads it, so each term is
    bit-identical to the numeric route's.  A wider block adds c max(|tr C|,
    |u|), from cached coefficients: at width 2 that is exact, |mu1| + |mu2| =
    max(|mu1 + mu2|, hypot(c11 - c22, 2 c12)), and at width >= 4 it is
    max(|tr C|, |C|_F) <= |C|_*.  Each term is a norm of an affine function
    of alpha, so the floor is convex in alpha.  Its callers have routed
    spec, so it is not checked again.
    """
    record = _record(spec.n)
    a = np.asarray(alphas, dtype=float)[:, None]
    c0, c1 = (c.reshape(-1) for c in record.pencils[0])
    values = c0 + a * c1
    if spec.complement:
        values = (a - 1.0) - values
    floors = np.abs(values) @ record.blocks[0][3].astype(float)
    mult, t0, t1, rest, curve, vertex = record.floors[spec.complement]
    wide = np.maximum(np.abs(t0 + a * t1), np.sqrt(rest + curve * (a - vertex) ** 2))
    return floors + wide @ mult


def _block_values(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric blocks c (..., w, w), shape (..., w):
    a 1x1 block's entry, a 2x2 block's (a + d)/2 -+ hypot((a - d)/2, b), and
    eigvalsh's above.  Each block is solved on its own, so a value does not
    depend on what else is in the stack."""
    width = c.shape[-1]
    if width == 1:
        return c[..., 0]
    if width == 2:
        a, b, d = c[..., 0, 0], c[..., 0, 1], c[..., 1, 1]
        mid, radius = (a + d) / 2, np.hypot((a - d) / 2, b)
        return np.stack((mid - radius, mid + radius), axis=-1)
    return np.linalg.eigvalsh(c)


def _stacked_eigenvalues(
    spec: GraphSpec, alphas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Centred block eigenvalues, of A_alpha - (2*alpha*m/n) I, for a sequence
    of alphas in [0, 1] at once; neither the spec nor the alphas are checked
    again (their public entry checks them).

    Returns (values, multiplicities): values has one row per alpha and the
    read-only multiplicities are shared.  Each width is formed at a chunk of
    alphas by one C0 + alpha C1 and solved by _block_values; a complement
    reflects the graph's values but on its width-2**omega block.  Every entry
    takes the same float operations at any number of alphas, so each row is
    bit-identical to the values of that alpha alone.
    """
    x = np.asarray(alphas, dtype=float).reshape(-1, 1, 1, 1)
    record = _record(spec.n)
    pencils = (*record.pencils[:-1], record.j_pencil) if spec.complement else record.pencils
    values = np.empty((len(x), record.mults.size))
    col = 0
    for i, (c0, c1) in enumerate(pencils):
        count, width, _ = c0.shape
        reflect = spec.complement and i < len(pencils) - 1
        step = max(1, _BATCH_ELEMENTS // c0.size)
        for start in range(0, len(x), step):
            at = x[start : start + step]
            vals = _block_values(c0 + at * c1)
            if reflect:
                vals = (at[..., 0] - 1.0) - vals
            values[start : start + step, col : col + count * width] = vals.reshape(len(at), -1)
        col += count * width
    return values, record.mults


def _stacked_spectra(spec: GraphSpec, alphas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """_stacked_eigenvalues plus each alpha's shift 2*alpha*m/n: the block
    eigenvalues of A_alpha itself, one row per alpha."""
    values, mults = _stacked_eigenvalues(spec, alphas)
    shifts = 2.0 * np.asarray(alphas, dtype=float) * edge_count(spec) / spec.n
    return values + shifts[:, None], mults


def block_eigenvalues(spec: GraphSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of A_alpha for an odd-order unit-sum spec.

    One fused pencil product per block width, solved blockwise.  The values
    are unsorted and may repeat; the multiplicities sum to n.
    """
    alpha = _check_alpha(alpha, allow_one=True)
    _check_unit_sum(spec)
    (values,), mults = _stacked_spectra(spec, (alpha,))
    return values, mults.copy()
