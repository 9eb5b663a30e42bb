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
(p-3)/2 times, (0, 0, 0) q-1 times and (0, 1, 0) (p-1)(q-1) times.  So both
alpha matrices are direct sums of blocks at most 2**omega(n) wide, one
Kronecker product of factor types each, and no n x n matrix is formed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .graphs import FAMILY_UACG, GraphSpec
from .linalg import _check_alpha
from .numtheory import euler_phi, factorize

__all__ = ["block_eigenvalues", "unit_sum_blocks"]

Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _factor_types(p: int, e: int) -> list[tuple[Block, int]]:
    """((L, P, J), multiplicity) for each block type of Z_{p**e}."""
    q = p ** (e - 1)
    r = math.sqrt(p - 1.0)
    pair = (
        q * np.array([[0.0, r], [r, p - 2.0]]),
        np.diag([0.0, 1.0]),
        q * np.array([[1.0, r], [r, p - 1.0]]),
    )
    scalars = (
        ((q, 1, 0), (p - 1) // 2),
        ((-q, 1, 0), (p - 3) // 2),
        ((0, 0, 0), q - 1),
        ((0, 1, 0), (p - 1) * (q - 1)),
    )
    types = [(pair, 1)]
    types.extend(
        (tuple(np.full((1, 1), float(x)) for x in triple), mult)
        for triple, mult in scalars
        if mult > 0
    )
    return types


@lru_cache(maxsize=64)
def unit_sum_blocks(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The blocks of (L, P, J) for odd n >= 3, stacked by width.

    One (L, P, J, multiplicities) entry per block width, ascending: L, P and
    J have shape (count, width, width) and multiplicities has shape (count,).
    Equal blocks are merged, so sum(width * multiplicities) over the entries
    is n.  The arrays are read-only because the result is cached.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the block decomposition needs odd n >= 3, got {n}")
    one = np.ones((1, 1))
    blocks: dict[bytes, tuple[Block, int]] = {b"": ((one, one, one), 1)}
    for p, e in factorize(n).factors:
        merged: dict[bytes, tuple[Block, int]] = {}
        for block, mult in blocks.values():
            for factor, k in _factor_types(p, e):
                # Adding 0.0 turns -0.0 into 0.0, so equal blocks get equal keys.
                new = tuple(np.kron(a, b) + 0.0 for a, b in zip(block, factor))
                key = b"".join(a.tobytes() for a in new)
                prev = merged.get(key)
                merged[key] = (new, mult * k + (prev[1] if prev else 0))
        blocks = merged
    by_width: dict[int, list[tuple[Block, int]]] = {}
    for block, mult in blocks.values():
        by_width.setdefault(block[0].shape[0], []).append((block, mult))
    out = []
    for width in sorted(by_width):
        group = by_width[width]
        arrays = [np.stack([block[i] for block, _ in group]) for i in range(3)]
        arrays.append(np.array([mult for _, mult in group], dtype=np.int64))
        for a in arrays:
            a.setflags(write=False)
        out.append(tuple(arrays))
    return tuple(out)


def block_eigenvalues(spec: GraphSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of A_alpha for an odd-order unit-sum spec.

    One stacked eigvalsh per block width.  The values are unsorted and may
    repeat; the multiplicities sum to n.
    """
    if spec.family != FAMILY_UACG:
        raise ValueError(f"the block decomposition covers the unit-sum family, not {spec.family!r}")
    alpha = _check_alpha(alpha, allow_one=True)
    n = spec.n
    phi = euler_phi(n)
    values, mults = [], []
    for lsum, units, ones, mult in unit_sum_blocks(n):
        eye = np.eye(lsum.shape[-1])
        a = (1.0 - alpha) * lsum + alpha * phi * eye - units
        if spec.complement:
            a = (alpha * n - 1.0) * eye + (1.0 - alpha) * ones - a
        values.append(np.linalg.eigvalsh(a).ravel())
        mults.append(np.repeat(mult, lsum.shape[-1]))
    return np.concatenate(values), np.concatenate(mults)
