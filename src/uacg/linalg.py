"""Dense symmetric eigenvalues, circulant eigenvalue formulas, spectrum grouping.

This is the numeric oracle for every closed form and bound in the package.
The dense path has two parts.  _prepare does the work that does not depend
on alpha, once per graph: it checks the matrix, splits it into blocks
(below) and folds it, into a _Fold whose arrays are read-only, so a caller
may keep it (verification keeps the fold of each order up to _LAYOUTS for
the process).
_alpha_eigenvalues (symmetric_eigenvalues is its row at alpha = 0) takes
folds and, on every call, forms each alpha's blocks from them and solves
them, a chunk of folds at a time (_solve_chunk): one call per block width
and dtype, a (blocks, w, w) stack to LAPACK through numpy.linalg.eigvalsh
for widths above 2, and 1- and 2-wide blocks, most of them at the orders
verify reaches, in closed form (see _values).  Nothing that depends on
alpha is kept.  The FFT formula for the eigenvalues of a
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
solved and its values counted twice.  The blocks are complex Hermitian when
lambda(n) > 2.  At n = 201 (lambda = 66) they are 1, 2 and 4 wide; at a
prime (lambda = n - 1), 1 wide but for one of width 2.  The invariance is
checked exactly, entry by entry, for each generator of G; a matrix broken
under any of them, or of order n <= 2 (no unit but 1), takes one full
solve.  The split reads the matrix alone and shares nothing with the block
route (blocks.py: no Chinese remainder theorem, no Kronecker factors,
nothing from numtheory): it finds g and the involutions by trying every
residue, so the dense path stays an independent oracle for it.

A graph's complement J - I - A is invariant whenever A is, and the fold is
linear: I folds to I in every block, and J to |G| * root[x] * root[y] in
the block of the trivial character and to 0 in every other.  So every
other block of the complement's alpha matrix is c*I - B_chi, c = alpha*(n
- 1) - (1 - alpha), B_chi the graph's own block, and its values are c -
lambda for the graph's values lambda: _alpha_eigenvalues solves the
graph's blocks and the complement's trivial block alone, from one check
and one fold of the graph.  That holds at every order: an unsplit graph's
one block is the trivial group's, the whole matrix, so there the
complement's trivial block is J - I - A and nothing is reflected.  Each
block is solved on its own, so each row depends on its matrix and alpha
alone.
"""

from __future__ import annotations

import math
import numbers
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
    numtheory._check_int does for integers.  Hot callers test type(value)
    is float first, so exact floats skip the slow Real check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real_array(values, name: str) -> np.ndarray:
    """values as an array of its own integer or float dtype, every value
    finite; else ValueError (no bool, str, complex or object, as _real)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite real numbers")
    return arr


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


# Most float64 entries in one stacked eigvalsh input or _invariant temporary;
# its verify and root-scan sweep is recorded in CHANGES.md.
_BATCH_ELEMENTS = 2**17

# Block entries, over every alpha, of the folds _alpha_eigenvalues forms and
# solves as one chunk; its time and peak-RSS sweep is recorded in CHANGES.md.
_HELD_ENTRIES = 2**15

# Most orders whose layouts (_generators, _split) are cached, and the largest
# order whose fold verification._order keeps (README, "Per-process state").
_LAYOUTS = 512


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All n eigenvalues of a real symmetric (n, n) matrix, sorted descending:
    the one row of _alpha_eigenvalues at alpha = 0 of its fold with zero
    degrees, whose stack is the fold itself (see _formed).

    The matrix must be one non-empty matrix, not a stack, of finite real
    numbers (see _real_array), exactly symmetric, else ValueError.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {arr.shape}")
    return next(_alpha_eigenvalues([_prepare(arr, np.zeros(arr.shape[0]))], (0.0,)))[0]


def _alpha_eigenvalues(
    folds: Iterable[_Fold], alphas: Sequence[float], flags: Sequence[bool] = (False,)
) -> Iterator[np.ndarray]:
    """For each graph's fold in folds (see _prepare), in order, the
    descending eigenvalues of (1 - alpha)*A + alpha*diag(d) for each flag in
    flags and each alpha (floats in [0, 1] the caller has checked; nothing
    is checked again here), one row each, flag by flag: A and d are the
    graph's adjacency and degrees for a false flag, and its complement's,
    J - I - adjacency and n - 1 - degrees, for a true one (which needs a
    fold prepared with complement).

    Consecutive folds are held until their blocks at every alpha reach
    _HELD_ENTRIES entries, then solved as one chunk (_solve_chunk); a fold
    past that bound alone is a chunk of its own, solved for at most
    _BATCH_ELEMENTS entries of alphas at a time.  The folds are only read.
    Each block is solved on its own, on the LAPACK routine its dtype takes
    alone, so a row depends on its matrix and alpha alone, not on the other
    graphs or alphas of the call.
    """
    x, flags = np.array(alphas, dtype=float).reshape(-1, 1), tuple(flags)
    held, size, reflect = [], 0, True in flags
    for fold in folds:
        entries = len(x) * (fold.flat.size + (fold.dt.size**2 if reflect else 0))
        if entries > _HELD_ENTRIES:
            yield from _solve_chunk(held, x, flags)
            held, size, step = [], 0, max(1, _BATCH_ELEMENTS * len(x) // entries)
            parts = [_solve_chunk([fold], x[a : a + step], flags)[0]
                     for a in range(0, len(x), step)]
            rows = np.concatenate([p.reshape(len(flags), -1, fold.n) for p in parts], axis=1)
            yield rows.reshape(-1, fold.n)
            continue
        held.append(fold)
        size += entries
        if size >= _HELD_ENTRIES:
            yield from _solve_chunk(held, x, flags)
            held, size = [], 0
    yield from _solve_chunk(held, x, flags)


@dataclass(frozen=True)
class _Fold:
    """One graph's alpha-independent fold (see _prepare).  Its arrays are
    read-only, so a cache can hand one fold to every caller; degrees is a
    view of the degrees _prepare was given, the others are the fold's own."""

    n: int
    degrees: np.ndarray  # the graph's degrees
    blocks: tuple  # the split's (width, count, twins) per block width
    flat: np.ndarray  # every block's entries, laid out as _fold lays them out
    ds: np.ndarray  # the degrees on the blocks' rows
    column: int  # where the trivial block's values start among a row's unsorted values
    trivial: np.ndarray | None  # the complement's trivial block, flattened
    dt: np.ndarray | None  # the complement's degrees on its rows


def _prepare(adjacency: np.ndarray, degrees: np.ndarray, complement: bool = False) -> _Fold:
    """One graph checked, split and folded, the work of _alpha_eigenvalues
    that does not depend on alpha: the symmetry and finiteness checks, the
    split (_invariant_split), the fold (_fold) and the degrees on the
    blocks' rows.

    With complement, the fold also holds the complement's trivial block,
    J_0 - I - A_0 at the position the split records: A_0 read from the
    graph's fold, J folded to |G| * root[x] * root[y] and I to I, with the
    complement's degrees n - 1 - d on its rows.  Every other complement
    value is c - lambda, c = alpha*(n - 1) - (1 - alpha), for the graph's
    values lambda outside that block (none for an unsplit graph: see the
    module), so one fold serves both families.
    """
    a, d = _real_array(adjacency, "matrix"), _real_array(degrees, "degrees")
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric")
    split = _invariant_split(a, d)
    reps, elems, _, _, root, (row, column, entry), blocks, index = split
    n, w = a.shape[-1], reps.size
    flat, trivial, dt = _fold(a, split)[0], None, None
    if complement:
        ys = index[row : row + w]  # the trivial block's rows: every orbit
        trivial = elems.size * np.outer(root[ys], root[ys]).ravel() - flat[entry : entry + w * w]
        trivial[:: w + 1] -= 1.0
        dt = (n - 1 - d)[reps[ys]]
    fold = _Fold(n, d.view(), blocks, flat, d[reps[index[: _rows(blocks)]]], column, trivial, dt)
    for arr in (fold.degrees, flat, fold.ds, trivial, dt):
        if arr is not None:
            arr.setflags(write=False)
    return fold


def _solve_chunk(folds: list[_Fold], x: np.ndarray, flags: tuple) -> list[np.ndarray]:
    """Each fold's rows at the alphas in x (a (k, 1) array), as
    _alpha_eigenvalues yields them.  Every block of every fold, and for a
    true flag each complement's trivial block, joins the group of its width
    and dtype, formed at every alpha at once (_formed) and solved by one
    _values call.  A fold's rows are laid out from its slices of the solved
    values: width by width, each width's first twins blocks counted twice
    after its blocks, the complement's other values reflected as c -
    lambda, and each row sorted."""
    reflect, groups = True in flags, defaultdict(list)
    for fold in folds:
        at = row = 0
        for w, count, _ in fold.blocks:
            entries, ds = fold.flat[at : at + count * w * w], fold.ds[row : row + count * w]
            groups[w, fold.flat.dtype].append((entries, ds))
            at, row = at + entries.size, row + ds.size
        if reflect:
            groups[fold.dt.size, fold.trivial.dtype].append((fold.trivial, fold.dt))
    solved = {}  # each group's values, one (k, values) slice per member, in order
    for (w, dtype), members in groups.items():
        values = _values(_formed(members, w, x)).reshape(len(x), -1)
        ends = list(accumulate(d.size for _, d in members))
        solved[w, dtype] = iter([values[:, a:b] for a, b in zip([0, *ends], ends)])
    out = []
    for fold in folds:
        vals = []
        for w, _, twins in fold.blocks:
            v = next(solved[w, fold.flat.dtype])
            vals += [v, v[:, : twins * w]]
        vals = np.concatenate(vals, axis=1)
        if reflect:
            comp, w = (x * (fold.n - 1.0) - (1.0 - x)) - vals, fold.dt.size
            comp[:, fold.column : fold.column + w] = next(solved[w, fold.trivial.dtype])
        rows = np.stack([comp if flag else vals for flag in flags])
        rows.sort(axis=-1)
        out.append(rows[..., ::-1].reshape(-1, fold.n).copy())
    return out


def _formed(members: list, w: int, x: np.ndarray) -> np.ndarray:
    """(1 - alpha)*B + alpha*diag(d) for each (entries, degrees) member, B
    its w-wide blocks flattened and d their rows' degrees, at each alpha of
    the (k, 1) x: one (k * blocks, w, w) stack, alpha by alpha, from one
    product and one diagonal add (every (w + 1)-th entry of each block).
    When every alpha is 0, the joined entries, once per alpha (equal to the
    formed stack but for the sign of a zero): at one alpha a lone member,
    such as an unsplit fold's whole matrix, is not copied."""
    entries = np.concatenate([e for e, _ in members]) if len(members) > 1 else members[0][0]
    if not x.any():
        return (entries if len(x) == 1 else np.tile(entries, len(x))).reshape(-1, w, w)
    degrees = np.concatenate([d for _, d in members]) if len(members) > 1 else members[0][1]
    s = ((1.0 - x) * entries).reshape(-1, w, w)  # alpha by alpha
    s.reshape(len(x), -1, w * w)[:, :, :: w + 1] += x[:, :, None] * degrees.reshape(-1, w)
    return s


def _invariant_split(m: np.ndarray, d: np.ndarray | None = None) -> tuple:
    """The _split by all of _generators(n) if the symmetric (n, n) m, and d
    if given, are exactly invariant under each generator; else by the
    trivial group, one full solve (as at n <= 2, which has none)."""
    n = m.shape[-1]
    gens = _generators(n)
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
    that stand for a conjugate pair; index, one int32 array of two parts,
    the blocks taken width by width in each: the indices y into reps of
    each block's rows (_rows(blocks) of them), and the offsets (k*r + y)*r
    + x of their entries in the flattened _character_sums (none for the
    trivial group, whose one block is the matrix itself).  trivial locates
    the trivial character's block, the only one whose rows hold the orbit
    of 0 (reps[0] = 0), as its first row's positions (row, column, entry)
    among the rows of index, among a row's unsorted values (each width's
    values, then its twins', as _solve_chunk lays them out), and
    among the flattened entries; it is recorded as the widths are laid out,
    character 0's place in its width added to the running offsets, (0, 0,
    0) for the trivial group.  Its width is reps.size.
    """
    if not gens:  # the trivial group: one block, the whole matrix
        ys = np.arange(n)
        return _read_only(ys, np.ones(1), 1, np.ones((1, 1)), np.ones(n), (0, 0, 0), ((n, 1, 0),),
                          ys)
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
    widths, blocks, rows, entries = kept.sum(axis=1), [], [], []
    row = column = at = 0  # the rows, values and entries laid out so far
    for w in sorted(set(widths.tolist())):
        ks = np.flatnonzero(widths == w)  # the characters with w representatives
        ks = ks[np.argsort(~paired[ks], kind="stable")]  # pairs first
        ys = np.nonzero(kept[ks])[1].reshape(-1, w)
        if w == r:  # character 0, 1 on every stabilizer, keeps every orbit
            k = w * int(np.flatnonzero(ks == 0)[0])  # its first row in this width
            trivial = (row + k, column + k, at + k * w)
        rows.append(ys.ravel())
        entries.append((((ks[:, None] * r + ys) * r)[:, :, None] + ys[:, None, :]).ravel())
        blocks.append((w, len(ks), int(paired[ks].sum())))
        row, column, at = row + ys.size, column + ys.size + blocks[-1][2] * w, at + ys.size * w
    index = np.concatenate(rows + entries)
    return _read_only(reps, elems, lam, chars, 1.0 / np.sqrt(stab), trivial, tuple(blocks), index)


def _read_only(reps, elems, lam, chars, root, trivial, blocks, index):
    """The split, its arrays made read-only: the cache hands them to every
    caller."""
    index = index.astype(np.int32)
    for arr in (reps, elems, chars, root, index):
        arr.setflags(write=False)
    return reps, elems, lam, chars, root, trivial, blocks, index


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
    row, the blocks width by width (as _solve_chunk reads them), complex
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
    return np.take(t.reshape(1, -1), index[_rows(blocks) :], axis=1)


def _rows(blocks: tuple) -> int:
    """How many rows the split's blocks hold, all widths together."""
    return sum(w * count for w, count, _ in blocks)


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


def left_circulant_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric left circulant with first row s, descending.

    Row r of the matrix is s cyclically left-shifted by r.  With lambda_k =
    sum_j s_j * omega**(j*k), omega = exp(2*pi*i/n), the eigenvalues of the
    right circulant with first row s, the spectrum is {lambda_0} plus a
    +/-|lambda_k| pair for 1 <= k <= (n-1)/2 when n is odd, and {lambda_0,
    lambda_{n/2}} plus the pairs for 1 <= k <= (n-2)/2 when n is even.
    """
    arr = _real_array(s, "s").astype(float, copy=False)
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
    _group).  Rejects unsorted or non-finite input, and input that is not
    real numbers (see _real_array).
    """
    tol = _check_tol(tol)
    vals = _real_array(values, "values").astype(float, copy=False).ravel()
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
