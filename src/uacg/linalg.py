"""Dense symmetric eigenvalues, circulant eigenvalue formulas, spectrum grouping.

This is the numeric oracle for every closed form and bound in the package.
The dense path takes one (n, n) matrix, splits it into blocks (below) and
hands each width of blocks above 2 to LAPACK through numpy.linalg.eigvalsh;
1- and 2-wide blocks, most of them at the orders verify reaches, are solved
in closed form (see _values).  The FFT formula for the eigenvalues of a
symmetric left circulant (left_circulant_eigenvalues) is the reference the
interval tests compare against.

Every matrix the package builds lives on Z_n, and its entries depend only on
gcd(i + j, n) or gcd(i - j, n), so x -> u*x (mod n) maps it to itself for
every unit u.  The dense path splits a matrix by the group G = <g> x H', g a
unit of the largest multiplicative order lambda(n) and H' generated by the
involutions u*u % n == 1 outside <g> (the involutions alone when lambda(n)
<= 2): one block per character of G, over the orbits of G whose stabilizer
the character is 1 on (n/|G| units and a few non-units each), an exact
unitary similarity, so the values are those of the full matrix to rounding.
A character and its conjugate give conjugate blocks, so one of the two is
solved and its values counted twice.  At n = 201 the blocks are 1, 2 and 4
wide; at a prime, 1 wide but for one of width 2.  The invariance is checked
exactly, entry by entry, for each generator of G; a matrix broken under any
of them, or one of fewer than _SPLIT_MIN_ENTRIES entries, where the split
costs more than it saves, takes one full solve.  The split reads the matrix
alone and shares nothing with the block route (blocks.py: no Chinese
remainder theorem, no Kronecker factors, nothing from numtheory): it finds
g and the involutions by trying every residue, so the dense path stays an
independent oracle for it.

A graph's complement J - I - A is invariant whenever A is, and the fold is
linear: I folds to I in every block, and J to |G| * root[x] * root[y] in
the block of the trivial character and to 0 in every other.  So every
other block of the complement's alpha matrix is c*I - B_chi, c = alpha*(n
- 1) - (1 - alpha), B_chi the graph's own block, and its values are c -
lambda for the graph's values lambda: _alpha_eigenvalues solves the
graph's blocks and the complement's trivial block alone, from one check
and one fold of the graph.  That holds at every order: an unsplit graph's
one block is the trivial group's, the whole matrix, so there the
complement's trivial block is J - I - A and nothing is reflected.  It
takes many graphs at once and solves the blocks of consecutive graphs
together, one call per block width and dtype (see _solve_stacks).
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict, deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import starmap

import numpy as np

__all__ = [
    "DEFAULT_GROUP_TOL",
    "Spectrum",
    "group_spectrum",
    "left_circulant_eigenvalues",
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


def _real(value: float, name: str) -> float:
    """A value that is not an exact float as a float; ValueError for a bool,
    a string or any other value that is not a real number, as
    numtheory._check_int does for integers.  Callers test type(value) is
    float first, so exact floats skip the slow Real check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_tol(tol: float) -> float:
    if type(tol) is not float:
        tol = _real(tol, "tol")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


def _check_alpha(alpha: float, *, allow_one: bool) -> float:
    if type(alpha) is not float:
        alpha = _real(alpha, "alpha")
    hi_ok = alpha <= 1.0 if allow_one else alpha < 1.0
    if not (0.0 <= alpha and hi_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"alpha must lie in {bound}, got {alpha}")
    return alpha


# Fewest entries, k * n**2 for k alphas of one order n, that are split rather
# than solved whole; its timing sweeps are recorded in CHANGES.md.
_SPLIT_MIN_ENTRIES = 6144

# Most float64 entries in one stacked eigvalsh input or _invariant temporary;
# its verify and root-scan sweep is recorded in CHANGES.md.
_BATCH_ELEMENTS = 2**17

# Block entries of consecutive graphs _alpha_eigenvalues holds before it
# solves them together; its time and peak-RSS sweep is recorded in CHANGES.md.
_HELD_ENTRIES = 2**13

# Most orders whose layouts (_generators, _split) are cached; a verify pass
# at nmax = 201 keeps 236 (CHANGES.md records their size).
_LAYOUTS = 512


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All n eigenvalues of a real symmetric (n, n) matrix, sorted descending.

    The matrix must be finite and exactly symmetric (as constructed by this
    package), else ValueError.  One of at least _SPLIT_MIN_ENTRIES entries
    that is exactly invariant under each generator of G is solved as the
    blocks of G (see _invariant_split), one stacked eigvalsh per block
    width above 2 and the narrower blocks in closed form (see _values); any
    other takes one full solve.  Raises numpy.linalg.LinAlgError
    if the underlying iteration fails to converge, which does not happen for
    the dense sizes used here.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    _check_symmetric(arr)
    split = _invariant_split(arr, 1)
    return _solve(_fold(arr, split)[0], split[-2])


def _alpha_eigenvalues(
    graphs: Iterable[tuple[np.ndarray, np.ndarray]],
    alphas: Sequence[float],
    flags: Sequence[bool] = (False,),
) -> Iterator[np.ndarray]:
    """For each (adjacency, degrees) pair in graphs, in order, the
    symmetric_eigenvalues of (1 - alpha)*A + alpha*diag(d) for each flag in
    flags and each alpha, one row each, flag by flag: A and d are the
    graph's adjacency and degrees for a false flag, and its complement's,
    J - I - adjacency and n - 1 - degrees, for a true one.

    Each graph is checked, split and folded once (len(alphas) * n**2
    entries count towards _SPLIT_MIN_ENTRIES; see _prepare), split or not,
    and both families are solved from that fold; nothing of the graph but
    its fold is held.  The formed stacks of consecutive graphs are
    held up to _HELD_ENTRIES block entries and solved together, one _values
    call per block width and dtype (see _solve_stacks): each block is
    solved on its own, on the LAPACK routine its dtype takes alone, so a
    row does not depend on the other graphs or alphas of its chunk.
    """
    x = np.array([_check_alpha(v, allow_one=True) for v in alphas]).reshape(-1, 1)
    held, size, waiting = [], 0, deque()
    for pieces, rows in starmap(partial(_prepare, x=x, flags=tuple(flags)), graphs):
        solved = []
        waiting.append((rows, solved))
        for stacks in pieces():
            held.append(stacks)
            solved.append(stacks)
            size += sum(s.size for s in stacks)
            if size >= _HELD_ENTRIES:
                _solve_stacks(held)
                held, size = [], 0
        while waiting and not held:  # every graph taken so far is solved
            rows, solved = waiting.popleft()
            yield rows(solved)
    _solve_stacks(held)
    for rows, solved in waiting:
        yield rows(solved)


def _prepare(adjacency: np.ndarray, degrees: np.ndarray, x: np.ndarray, flags: tuple) -> tuple:
    """One graph of _alpha_eigenvalues checked, split and folded, as
    (pieces, rows): pieces() yields the stacks to solve for each chunk of
    the alphas in x (a (k, 1) array), at most _BATCH_ELEMENTS block entries
    or one alpha; rows(values) takes the values of every chunk's stacks
    (each stack's shape less its last axis) to the graph's rows.

    A chunk's stacks are each block width's (chunk, count, w, w) stack, an
    alpha's blocks (1 - alpha)*A_chi + alpha*diag(d_chi) formed for every
    block at once from the flat fold and the cached diagonal positions.
    The graph folds its own blocks alone; for a true flag one more stack
    holds the complement's trivial block, the one that holds the orbit of
    0, J_0 - I - A_0, and every other complement value is c - lambda, c =
    alpha*(n - 1) - (1 - alpha), for the graph's values lambda outside that
    block.  An unsplit graph's one block is the trivial one, so its
    complement's stack is J - I - A, exact in floats, and no value is
    reflected.
    """
    a, d = np.asarray(adjacency), np.asarray(degrees)
    _check_symmetric(a, d)
    split = _invariant_split(a, len(x), d)
    reps, *_, (row, column, _), blocks, index = split
    n, r, w = a.shape[-1], _rows(blocks), reps.size
    reflect, flat = True in flags, _fold(a, split)[0]
    if reflect:
        trivial = _complement_trivial(flat, split)
        dt = (n - 1 - d)[reps[index[row : row + w]]]
    ds, on_diagonal = d[reps[index[:r]]], index[r : 2 * r]
    step = max(1, _BATCH_ELEMENTS // (flat.size + reflect * w * w))

    def pieces() -> Iterator[list]:
        for start in range(0, len(x), step):
            chunk = x[start : start + step]
            s = (1.0 - chunk) * flat  # one row per alpha
            s[:, on_diagonal] += chunk * ds
            stacks = _stacks(s, blocks)
            if reflect:
                t = (1.0 - chunk) * trivial
                t[:, :: w + 1] += chunk * dt
                stacks.append(t.reshape(-1, 1, w, w))
            yield stacks

    def rows(solved: list) -> np.ndarray:
        vals = np.concatenate([_unsorted(v[: len(blocks)], blocks) for v in solved])
        if reflect:
            comp = (x * (n - 1.0) - (1.0 - x)) - vals
            comp[:, column : column + w] = np.concatenate([v[-1] for v in solved]).reshape(-1, w)
        return _descending(np.stack([comp if flag else vals for flag in flags])).reshape(-1, n)

    return pieces, rows


def _complement_trivial(flat: np.ndarray, split: tuple) -> np.ndarray:
    """The complement's trivial block J_0 - I - A_0, its entries flattened,
    from the graph's flat fold (see _fold): J folds to |G| * root[x] *
    root[y] there, I to I."""
    reps, elems, _, _, root, (row, _, entry), _, index = split
    w = reps.size
    ys = index[row : row + w]  # the trivial block's rows: every orbit
    block = elems.size * np.outer(root[ys], root[ys]).ravel() - flat[entry : entry + w * w]
    block[:: w + 1] -= 1.0
    return block


def _check_symmetric(m: np.ndarray, *also: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in (m, *also)):
        raise ValueError("matrix must be finite")
    if not (m == m.swapaxes(-2, -1)).all():
        raise ValueError("matrix is not symmetric")


def _invariant_split(m: np.ndarray, count: int, d: np.ndarray | None = None) -> tuple:
    """The _split by all of _generators(n) if count copies of the symmetric
    (n, n) m hold at least _SPLIT_MIN_ENTRIES entries and m, and d if given,
    are exactly invariant under each generator; else by the trivial group,
    one full solve."""
    n = m.shape[-1]
    gens = _generators(n) if count * n * n >= _SPLIT_MIN_ENTRIES else ()
    return _split(n, gens if all(_invariant(m, d, u) for u in gens) else ())


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
def _generators(n: int) -> tuple[int, ...]:
    """(g, *H'), found by trying every residue; the involutions alone if
    lambda <= 2.

    g is the least unit of the largest multiplicative order lambda, the
    first power at which every unit is 1; H' the involutions u*u % n == 1
    outside <g>.  Involutions are taken largest (-1) first, each unless it
    lies in the group of those before it.
    """
    involutions = np.flatnonzero(np.arange(n) ** 2 % n == 1)[::-1].tolist()
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    power, early, lam = units.copy(), np.zeros(units.size, dtype=bool), 1
    while n > 2 and not (ones := power == 1).all():
        early |= ones
        power, lam = power * units % n, lam + 1
    g = int(units[np.argmin(early)])
    group, gens = {1}, []
    if lam > 2:
        group, gens = {1, pow(g, lam // 2, n)}, [g]
    for u in involutions:
        if u not in group:
            group |= {u * h % n for h in group}
            gens.append(u)
    return tuple(gens)


@lru_cache(maxsize=_LAYOUTS)
def _split(n: int, gens: tuple[int, ...]) -> tuple:
    """(reps, elems, lam, chars, root, trivial, blocks, index) for the group
    G of units generated by gens: gens[0] of order lam (lam = 1 if it is an
    involution), the rest involutions generating H'.

    reps are the least residues of the orbits, found by taking least labels
    along each generator's cycles, doubling the step (no n x |G| table);
    elems[a*|H'| + b] = gens[0]**a * h_b % n; root[y] = 1/sqrt(|S_y|), S_y
    the stabilizer of reps[y]; chars[c, b] = +-1 the characters of H'.
    Those of G are exp(-2*pi*i*j*a/lam) * chars[c, b]; j and lam - j give
    conjugate blocks with the same values, so only j <= lam/2 are kept.
    blocks holds (width, count, twins) per width, twins the leading blocks
    that stand for a conjugate pair; index, one int32 array of three
    parts, the blocks taken width by width in each: the indices y into reps
    of each block's rows (_rows(blocks) of them), the positions of the
    blocks' diagonal entries in their flattened entries (as many), and the
    offsets (k*r + y)*r + x of those entries in the flattened
    _character_sums (none for the trivial group, whose one block is the
    matrix itself).  trivial locates the trivial character's block, the one
    whose rows hold the orbit of 0 (reps[0] = 0), as its first row's
    positions (row, column, entry) among the rows of index, among the
    values _unsorted lays out, and among the flattened entries (see
    _trivial_block); its width is reps.size.
    """
    if not gens:  # the trivial group: one block, the whole matrix
        ys = np.arange(n)
        index = np.append(ys, ys * (n + 1))
        return _read_only(ys, np.ones(1), 1, np.ones((1, 1)), np.ones(n), ((n, 1, 0),), index)
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
    widths, blocks, rows, diagonal, entries, at = kept.sum(axis=1), [], [], [], [], 0
    for w in sorted(set(widths.tolist())):
        ks = np.flatnonzero(widths == w)  # the characters with w representatives
        ks = ks[np.argsort(~paired[ks], kind="stable")]  # pairs first
        ys = np.nonzero(kept[ks])[1].reshape(-1, w)
        rows.append(ys.ravel())
        diagonal.append(at + np.arange(ys.size) * w + np.arange(ys.size) % w)
        entries.append((((ks[:, None] * r + ys) * r)[:, :, None] + ys[:, None, :]).ravel())
        blocks.append((w, len(ks), int(paired[ks].sum())))
        at += ys.size * w
    index = np.concatenate(rows + diagonal + entries)
    return _read_only(reps, elems, lam, chars, 1.0 / np.sqrt(stab), tuple(blocks), index)


def _read_only(reps, elems, lam, chars, root, blocks, index):
    """The split, its trivial block located and its arrays made read-only:
    the cache hands them to every caller."""
    index = index.astype(np.int32)
    for arr in (reps, elems, chars, root, index):
        arr.setflags(write=False)
    return reps, elems, lam, chars, root, _trivial_block(blocks, index), blocks, index


def _trivial_block(blocks: tuple, index: np.ndarray) -> tuple[int, int, int]:
    """(row, column, entry) of the one block whose rows hold the orbit of 0,
    index 0 into reps: where its rows start among the rows of index, where
    its values start among those _unsorted lays out (each width's twins
    after its blocks), and where its entries start in the flat fold."""
    p = int(np.flatnonzero(index[: _rows(blocks)] == 0)[0])
    row = column = entry = 0
    for w, count, twins in blocks:
        if p < row + count * w:
            break
        row, column, entry = row + count * w, column + (count + twins) * w, entry + count * w * w
    k = (p - row) // w
    return row + k * w, column + k * w, entry + k * w * w


def _character_sums(t: np.ndarray, lam: int, chars: np.ndarray) -> np.ndarray:
    """sum_h chi_k(h) * t[h, :] for _split's characters chi_k, one of each
    conjugate pair, for a real (|G|, c) t: one product with chars, then a
    real FFT along the cyclic axis (so no complex product is needed)."""
    t = np.matmul(chars, t.reshape(lam, chars.shape[0], t.shape[-1]))
    if lam > 1:
        t = np.fft.rfft(t, axis=0)
    return t.reshape(-1, t.shape[-1])


def _fold(m: np.ndarray, split: tuple) -> np.ndarray:
    """The blocks of the (n, n) matrix m invariant under the split's group
    G, flattened: a (1, entries) array holding each block's entries row by
    row, the blocks width by width (as _stacks reads them), complex
    Hermitian if lam > 1, else real.  One gather of the cached offsets
    takes every block; the trivial group's one block is m as float, a copy
    of an integer m, so no view of an adjacency outlives its fold.

    Block chi is B[x, y] = sum_h chi(h) * m[x, h*y] / sqrt(|S_x| * |S_y|)
    over the x, y whose stabilizers chi is 1 on: m in the orthonormal basis
    sum_h chi(h) e_{h*x} / sqrt(|S_x| * |G|), so its values are those of m
    to rounding.
    """
    reps, elems, lam, chars, root, _, blocks, index = split
    if elems.size == 1:  # one block, m itself
        return np.asarray(m, dtype=float).reshape(1, -1)
    # t[h, y, x] = m[h * reps[y], reps[x]] * root[y] * root[x]
    images = np.outer(elems, reps) % m.shape[-1]
    t = np.take(m[:, reps], images, axis=0) * (root[:, None] * root)
    t = _character_sums(t.reshape(elems.size, -1), lam, chars)
    return np.take(t.reshape(1, -1), index[2 * _rows(blocks) :], axis=1)


def _rows(blocks: tuple) -> int:
    """How many rows the split's blocks hold, all widths together."""
    return sum(w * count for w, count, _ in blocks)


def _solve(flat: np.ndarray, blocks: tuple) -> np.ndarray:
    """Descending eigenvalues of each row of flat, the entries of the
    split's blocks as _fold lays them out: the _values of each block
    width's stack, one call each."""
    return _descending(_unsorted([_values(s) for s in _stacks(flat, blocks)], blocks))


def _stacks(flat: np.ndarray, blocks: tuple) -> list[np.ndarray]:
    """Each block width's (..., count, width, width) stack of the entries
    in flat, laid out as _fold lays them out (views, not copies)."""
    stacks, at = [], 0
    for w, count, _ in blocks:
        stacks.append(flat[..., at : at + count * w * w].reshape(*flat.shape[:-1], count, w, w))
        at += count * w * w
    return stacks


def _unsorted(values: Sequence[np.ndarray], blocks: tuple) -> np.ndarray:
    """Each row's values from those of each width's (..., count, width)
    stack: width by width, each width's first twins blocks counted twice,
    after its blocks."""
    vals = []
    for v, (w, _, twins) in zip(values, blocks):
        v = v.reshape(*v.shape[:-2], -1)
        vals += [v, v[..., : twins * w]]
    return np.concatenate(vals, axis=-1)


def _descending(vals: np.ndarray) -> np.ndarray:
    """vals sorted in place along the last axis, then a descending copy."""
    vals.sort(axis=-1)
    return vals[..., ::-1].copy()


def _values(s: np.ndarray) -> np.ndarray:
    """The ascending values of each Hermitian block of the (..., w, w)
    stack s, as (..., w).

    A 1-wide block's value is its real diagonal entry, as LAPACK returns
    it.  A 2-wide block [[a, conj(b)], [b, d]] has the values mean -+
    hypot((a - d)/2, |b|), mean = (a + d)/2 (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998), within 2 eps * ||B||_F of the exact ones.
    Wider stacks take one eigvalsh each: at n <= 201 about 80% of the blocks
    are 1 or 2 wide, and a call costs far more than such a block.  Each
    block's values depend on it alone, so stacking blocks together moves
    none of them.
    """
    if s.shape[-1] == 1:
        return s[..., 0].real
    if s.shape[-1] == 2:
        a, d = s[..., 0, 0].real, s[..., 1, 1].real
        mean, r = (a + d) * 0.5, np.hypot((a - d) * 0.5, np.abs(s[..., 1, 0]))
        return np.stack([mean - r, mean + r], axis=-1)
    return np.linalg.eigvalsh(s)


def _solve_stacks(pieces: list[list[np.ndarray]]) -> None:
    """Replace each stack of (..., w, w) Hermitian blocks in each list of
    pieces by its _values, (..., w): the stacks of one width and dtype are
    solved with one call, so each block stays on the routine its dtype
    takes alone."""
    groups = defaultdict(list)
    for piece in pieces:
        for i, s in enumerate(piece):
            groups[s.shape[-1], s.dtype].append((piece, i))
    for (w, _), members in groups.items():
        stacks = [piece[i].reshape(-1, w, w) for piece, i in members]
        values, at = _values(np.concatenate(stacks) if len(stacks) > 1 else stacks[0]), 0
        for (piece, i), s in zip(members, stacks):
            piece[i] = values[at : at + len(s)].reshape(piece[i].shape[:-1])
            at += len(s)


def left_circulant_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric left circulant with first row s, descending.

    Row r of the matrix is s cyclically left-shifted by r.  With lambda_k =
    sum_j s_j * omega**(j*k), omega = exp(2*pi*i/n), the eigenvalues of the
    right circulant with first row s, the spectrum is {lambda_0} plus a
    +/-|lambda_k| pair for 1 <= k <= (n-1)/2 when n is odd, and {lambda_0,
    lambda_{n/2}} plus the pairs for 1 <= k <= (n-2)/2 when n is even.
    """
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty real sequence")
    # numpy's fft uses the conjugate kernel exp(-2*pi*i*j*k/n), which for
    # real s conjugates each lambda_k: the real parts and moduli read below
    # are the same.
    lam = np.fft.fft(arr)
    n = lam.size
    pairs = [(abs(z), -abs(z)) for z in lam[1 : (n + 1) // 2]]
    ends = lam[[0, n // 2]] if n % 2 == 0 else lam[:1]
    return np.sort(np.append(ends.real, pairs))[::-1].copy()


def group_spectrum(values: np.ndarray, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """Collapse a descending eigenvalue list into (value, multiplicity) pairs.

    Adjacent values whose gap is at most tol are merged into one pair whose
    value is the mean of the merged cluster: the value itself when every
    member is equal, else their sum over their number k, to rounding (see
    _group).  Rejects unsorted or non-finite input.
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
    positive counts, without the repeat: the same cuts and multiplicities.

    A cluster of one distinct value keeps that value exactly.  A wider one,
    of w distinct values, takes its mean as one dot product, vals @ counts
    / k, within w * eps * max|value| of the exact mean; the mean of the
    expanded list may differ from it in the last bits.
    """
    if vals.size == 0:
        return Spectrum(pairs=(), n=0)
    cuts = [0, *(np.flatnonzero(vals[:-1] - vals[1:] > tol) + 1).tolist(), vals.size]
    sizes = np.add.reduceat(counts, cuts[:-1]).tolist()
    flat = vals.tolist()
    pairs = tuple(
        (flat[a] if flat[a] == flat[b - 1] else float(vals[a:b] @ counts[a:b]) / k, k)
        for a, b, k in zip(cuts, cuts[1:], sizes)
    )
    return Spectrum(pairs=pairs, n=sum(sizes))
