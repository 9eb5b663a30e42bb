"""Closed-form spectra and energies, and the alpha-matrix machinery.

For a graph G with adjacency A and degree matrix D, the alpha matrix is
A_alpha = alpha*D + (1-alpha)*A and the alpha energy is
sum_i |lambda_i(A_alpha) - 2*alpha*m/n| for 0 <= alpha < 1.  Unit-sum Cayley
graphs admit exact spectra on prime-power orders and on even orders (where
they coincide with unitary Cayley graphs and the Ramanujan sums give the
adjacency eigenvalues); the other odd orders split into small exact blocks
(see blocks.py).  The dense eigensolver is the oracle for all of them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .blocks import _ramanujan_pairs, _record, _stacked_eigenvalues, _stacked_spectra
from .graphs import (
    FAMILY_COMPLETE,
    FAMILY_UNITARY_CAYLEY,
    Graph,
    GraphSpec,
    build_graph,
    edge_count,
)
from .linalg import (
    _BATCH_ELEMENTS,
    DEFAULT_GROUP_TOL,
    Spectrum,
    _check_alpha,
    _check_tol,
    _group,
    _real,
    _real_array,
    group_spectrum,
    symmetric_eigenvalues,
)
from .numtheory import (
    _check_int,
    euler_phi,
    factorize,
    is_prime,
    largest_squarefree_divisor,
    prime_power,
)

__all__ = [
    "ALPHA_GRID",
    "ClosedFormUnavailable",
    "EnergyReport",
    "alpha_energy_from_values",
    "build_alpha_matrix",
    "complement_prime_power_energy",
    "complement_prime_power_spectrum",
    "complement_unitary_cayley_adjacency_energy",
    "complement_unitary_cayley_spectrum",
    "complete_energy",
    "complete_spectrum",
    "energy_report",
    "has_closed_spectrum",
    "regular_alpha_energy",
    "spectrum_for",
    "uacg_prime_power_energy",
    "uacg_prime_power_spectrum",
    "unitary_cayley_adjacency_energy",
    "unitary_cayley_spectrum",
]

# The eleven-point alpha grid used by the bundled energy table and the
# closed-vs-numeric cross checks.
ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.9999)

# Exactly-equal closed-form families are collapsed at this tolerance before
# distinct values are reported.
_CLOSED_GROUP_TOL = 1e-9

METHOD_CLOSED = "closed-form"
METHOD_NUMERIC = "numeric"
METHOD_REGULAR = "regular-shortcut"
_Route = namedtuple("_Route", "method spectrum energies candidates")


class ClosedFormUnavailable(RuntimeError):
    """No exact spectrum or energy formula covers the requested graph."""


def _check_odd_prime_power(p: int, m: int) -> tuple[int, int]:
    """(p, m) as ints; ValueError unless p is an odd prime and m >= 1."""
    p, m = _check_int(p, "p", 3), _check_int(m, "m", 1)
    if not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p, m


def _spectrum_from_pairs(
    values: np.ndarray, counts: np.ndarray, tol: float = _CLOSED_GROUP_TOL
) -> Spectrum:
    """values[0, i] taken counts[i] times, the first row of a route's
    spectrum (see _route), grouped at tol without the repeats; zero counts
    drop out."""
    values = values[0]
    order = np.argsort(values)[::-1]
    order = order[counts[order] > 0]
    return _group(values[order], counts[order], tol)


def _pairs(families: Callable, xs: Sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(values (k, F), counts (F,)) arrays of the F (value, count) pairs
    families(alpha) gives at each alpha in xs, as a float; they count n."""
    rows = [families(alpha) for alpha in map(float, xs)]
    counts = [count for _, count in rows[0]]
    assert sum(counts) == n
    return np.array([[value for value, _ in row] for row in rows]), np.array(counts, dtype=np.int64)


def build_alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Dense A_alpha = alpha*D + (1-alpha)*A, exactly symmetric by construction."""
    alpha = _check_alpha(alpha, allow_one=True)
    out = np.multiply(g.adjacency, 1.0 - alpha, dtype=float)
    np.fill_diagonal(out, alpha * g.degrees.astype(float))
    return out


def alpha_energy_from_values(
    values: np.ndarray, n: int, m: int, alpha: float
) -> float:
    """Energy sum |lambda_i - 2*alpha*m/n| from a full eigenvalue list."""
    n, m = _check_int(n, "n", 1), _check_int(m, "m", 0)
    alpha = _check_alpha(alpha, allow_one=False)
    vals = _real_array(values, "values").astype(float, copy=False).ravel()
    if vals.size != n:
        raise ValueError(f"expected {n} eigenvalues, got {vals.size}")
    shift = 2.0 * alpha * m / n
    return float(np.abs(vals - shift).sum())


def regular_alpha_energy(adjacency_energy: float, alpha: float) -> float:
    """For regular graphs the alpha energy is (1-alpha) times the adjacency energy."""
    alpha = _check_alpha(alpha, allow_one=False)
    energy = _real(adjacency_energy, "adjacency_energy")
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"adjacency_energy must be finite and >= 0, got {energy}")
    return (1.0 - alpha) * energy


# ---------------------------------------------------------------------------
# Prime-power orders n = p**m, p an odd prime.


def _radical_pair(p: int, m: int, alpha: float) -> tuple[float, float]:
    """The two simple eigenvalues (x -+ y)/2 shared by spectrum and energy."""
    n = p**m
    q = p ** (m - 1)
    x = (1.0 + alpha) * n - 2.0 * q - 1.0
    disc = (1.0 - n + alpha * n) ** 2 + (1.0 - alpha) * 4.0 * q
    # The discriminant is a square plus a nonnegative term on [0, 1].
    assert disc >= 0.0
    y = math.sqrt(disc)
    return (x - y) / 2.0, (x + y) / 2.0


def uacg_prime_power_spectrum(p: int, m: int, alpha: float) -> Spectrum:
    """Exact alpha-matrix spectrum of the unit-sum Cayley graph on p**m vertices.

    Six eigenvalue families; two of them are the simple roots (x -+ y)/2 of
    the quadratic coming from the non-regular part of the graph.
    """
    p, m = _check_odd_prime_power(p, m)
    alpha = _check_alpha(alpha, allow_one=True)
    return _spectrum_from_pairs(*_uacg_prime_power_pairs(p, m, (alpha,)))


def _uacg_prime_power_pairs(p: int, m: int, xs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """uacg_prime_power_spectrum's families at each alpha in xs as ungrouped
    (values, counts), unchecked."""
    n = p**m
    q = p ** (m - 1)

    def families(alpha: float) -> list[tuple[float, int]]:
        low_root, high_root = _radical_pair(p, m, alpha)
        return [
            (q * (p * alpha - 1.0) - 1.0, (p - 3) // 2),
            (low_root, 1),
            (q * (p - 1.0) * alpha - 1.0, (p - 1) * (q - 1)),
            (alpha * (n - q), q - 1),
            (q * ((p - 2.0) * alpha + 1.0) - 1.0, (p - 1) // 2),
            (high_root, 1),
        ]

    return _pairs(families, xs, n)


def uacg_prime_power_energy(p: int, m: int, alpha: float) -> float:
    """Exact alpha energy of the unit-sum Cayley graph on p**m vertices."""
    p, m = _check_odd_prime_power(p, m)
    return _uacg_prime_power_energy(p, m, _check_alpha(alpha, allow_one=False))


def _uacg_prime_power_energy(p: int, m: int, alpha: float) -> float:
    """uacg_prime_power_energy for an odd prime p, m >= 1 and a float alpha
    in [0, 1), unchecked."""
    n = p**m
    q = p ** (m - 1)
    low_root, high_root = _radical_pair(p, m, alpha)
    shift = alpha * (n - 1.0) * (p - 1.0) / p
    lead = (3.0 * n - 5.0 * q - p - 1.0) / 2.0
    poly = alpha / (2.0 * p) * (-3.0 * p * n + 9.0 * n - 4.0 * q + p * p - 2.0 * p + 1.0)
    mid = (p - 1.0) / (2.0 * p) * abs((n - p) * (1.0 - alpha) - alpha)
    return lead + poly + mid + abs(low_root - shift) + abs(high_root - shift)


def complement_prime_power_spectrum(p: int, m: int, alpha: float) -> Spectrum:
    """Exact alpha-matrix spectrum of the complement on p**m vertices.

    Five families from the complement's block structure.  The two families of
    multiplicity (p-1)/2 are alpha*q -+ (1-alpha)*q with q = p**(m-1): the
    lower one is alpha-dependent and collapses to -q only at alpha = 0.
    """
    p, m = _check_odd_prime_power(p, m)
    alpha = _check_alpha(alpha, allow_one=True)
    return _spectrum_from_pairs(*_complement_prime_power_pairs(p, m, (alpha,)))


def _complement_prime_power_pairs(p: int, m: int, xs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """complement_prime_power_spectrum's families at each alpha in xs as
    (values, counts), unchecked."""
    q = p ** (m - 1)

    def families(alpha: float) -> list[tuple[float, int]]:
        return [
            ((2.0 * alpha - 1.0) * q, (p - 1) // 2),
            (alpha * q - 1.0, q - 1),
            (alpha * q, (p - 1) * (q - 1)),
            (q - 1.0, 1),
            (float(q), (p - 1) // 2),
        ]

    return _pairs(families, xs, p**m)


def complement_prime_power_energy(p: int, m: int, alpha: float) -> float:
    """Tabulated alpha-energy formula for the complement on p**m vertices.

    Piecewise linear in alpha with the branch point at (n - p)/(n - 1); the
    two branches agree there.  This is the formula the bundled reference
    tables are generated from; see the energy notes in the README.
    """
    p, m = _check_odd_prime_power(p, m)
    return _complement_prime_power_energy(p, m, _check_alpha(alpha, allow_one=False))


def _complement_prime_power_energy(p: int, m: int, alpha: float) -> float:
    """complement_prime_power_energy for an odd prime p, m >= 1 and a float
    alpha in [0, 1), unchecked."""
    n = p**m
    q = p ** (m - 1)
    threshold = (n - p) / (n - 1.0)
    if alpha <= threshold:
        return (p * n + n - 2.0 * p + alpha * (3.0 - p - 2.0 * q)) / p
    return (p * n - n + alpha * (1.0 - p - 2.0 * q + 2.0 * n)) / p


def _prime_power_root_candidates(p: int, m: int, complement: bool) -> list[float]:
    """Sorted roots in [0, 1) of every piece of the prime-power gap
    energy - 2*(1-alpha)*(n-1), on the formulas the route prices.

    The gap is the largest of its pieces.  The tabulated complement is the
    larger of its two lines (their slopes differ by 2*(n-1)/p > 0).
    _uacg_prime_power_energy is lead + poly + (p-1)/(2p)*|M| +
    max(y, |x - 2s|), with M = (n-p)*(1-alpha) - alpha, since
    |low - s| + |high - s| = max(y, |x - 2s|) for the radical pair
    (x -+ y)/2; its six pieces take one sign of M and one of y, x - 2s and
    2s - x.  So every root of the gap is a root of a piece, and a root of a
    piece is one of the gap only where that piece is the largest: the caller
    keeps those by pricing the gap there.

    Each piece has exact int coefficients (times p for the complement, 2p
    for the direct family), so a line's root is one correctly rounded
    int/int division.  The radical piece l0 + l1*alpha + 2p*y squares to an
    integer quadratic, solved by the stable formula with an integer square
    root carried 64 bits past the point; a root where l0 + l1*alpha > 0
    belongs to no piece and fails the caller's test.
    """
    n = p**m
    q = p ** (m - 1)
    lines, quadratics = [], []
    if complement:
        lines += [(n * (1 - p), 2 * p * n - 3 * p - 2 * q + 3),
                  (2 * p - n - p * n, 2 * p * n + 2 * n - 3 * p - 2 * q + 1)]
    else:
        g0 = p * (3 * n - 5 * q - p - 1) - 4 * p * (n - 1)
        g1 = 9 * n - 3 * p * n - 4 * q + p * p - 2 * p + 1 + 4 * p * (n - 1)
        x0, x1 = 2 * p * (n - 2 * q - 1), 2 * p * n - 4 * (n - 1) * (p - 1)
        k = 4 * p * p  # (2p*y)**2 = k*((n*alpha + 1 - n)**2 + 4q*(1 - alpha))
        for sign in (1, -1):
            l0, l1 = g0 + sign * (p - 1) * (n - p), g1 - sign * (p - 1) * (n - p + 1)
            lines += [(l0 + x0, l1 + x1), (l0 - x0, l1 - x1)]
            quadratics.append((
                k * n * n - l1 * l1,
                k * (2 * n * (1 - n) - 4 * q) - 2 * l0 * l1,
                k * ((n - 1) ** 2 + 4 * q) - l0 * l0,
            ))
    roots = [-c0 / c1 for c0, c1 in lines if c1]
    for a, b, c in quadratics:
        disc = b * b - 4 * a * c
        if not a:
            roots += [-c / b] if b else []
        elif disc >= 0:
            # u = -(b + sign(b)*sqrt(disc)) * 2**64 = 2t * 2**64: roots t/a and c/t
            s = math.isqrt(disc << 128)
            u = -((b << 64) + (s if b >= 0 else -s))
            roots += [u / (a << 65), (c << 65) / u] if u else [0.0]
    return sorted({r for r in roots if 0.0 <= r < 1.0})


# ---------------------------------------------------------------------------
# Regular cases: even-order unit-sum graphs and unitary Cayley graphs.


def unitary_cayley_spectrum(n: int, alpha: float) -> Spectrum:
    """Alpha-matrix spectrum of the unitary Cayley graph: alpha*phi + (1-alpha)*c(k, n)."""
    n = _check_int(n, "n", 2)
    return _spectrum_from_pairs(*_unitary_cayley_pairs(n, (_check_alpha(alpha, allow_one=True),)))


def _unitary_cayley_pairs(n: int, xs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """unitary_cayley_spectrum at each alpha in xs as ungrouped (values,
    counts), unchecked, from one _ramanujan_pairs."""
    sums, counts, phi = *_ramanujan_pairs(n), euler_phi(n)
    return np.array([alpha * phi + (1.0 - alpha) * sums for alpha in map(float, xs)]), counts


def complement_unitary_cayley_spectrum(n: int, alpha: float) -> Spectrum:
    """Alpha-matrix spectrum of the complement of the unitary Cayley graph.

    The graph is (n - 1 - phi)-regular; that value is the simple top
    eigenvalue, and the remaining n - 1 values are
    alpha*(n - phi) - (1 - alpha)*c(k, n) - 1 for k = 1..n-1 (the k = 0
    Ramanujan value belongs to the excluded top eigenvector).
    """
    n = _check_int(n, "n", 2)
    alpha = _check_alpha(alpha, allow_one=True)
    return _spectrum_from_pairs(*_complement_unitary_cayley_pairs(n, (alpha,)))


def _complement_unitary_cayley_pairs(n: int, xs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """complement_unitary_cayley_spectrum at each alpha in xs as ungrouped
    (values, counts), unchecked."""
    sums, counts, phi = *_ramanujan_pairs(n), euler_phi(n)
    values = np.array([alpha * (n - phi) - (1.0 - alpha) * sums - 1.0 for alpha in map(float, xs)])
    values[:, -1] = n - 1.0 - phi
    return values, np.append(counts[:-1], 1)


def unitary_cayley_adjacency_energy(n: int) -> int:
    """Adjacency energy of the unitary Cayley graph: 2**k * phi(n), k = distinct primes."""
    n = _check_int(n, "n", 2)
    return 2 ** factorize(n).num_distinct_primes * euler_phi(n)


def complement_unitary_cayley_adjacency_energy(n: int) -> int:
    """Adjacency energy of the complement of the unitary Cayley graph.

    2*(n-1) + (2**k - 2)*phi(n) - r + prod(2 - p) where r is the largest
    squarefree divisor of n and the product runs over the distinct primes.
    """
    n = _check_int(n, "n", 2)
    fac = factorize(n)
    prod_two_minus = 1
    for p in fac.primes:
        prod_two_minus *= 2 - p
    return (
        2 * (n - 1)
        + (2**fac.num_distinct_primes - 2) * euler_phi(n)
        - largest_squarefree_divisor(n)
        + prod_two_minus
    )


def complete_spectrum(n: int, alpha: float) -> Spectrum:
    n = _check_int(n, "n", 2)
    return _spectrum_from_pairs(*_complete_pairs(n, (_check_alpha(alpha, allow_one=True),)))


def _complete_pairs(n: int, xs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """complete_spectrum at each alpha in xs as ungrouped (values, counts), unchecked."""
    return _pairs(lambda alpha: [(float(n - 1), 1), (alpha * n - 1.0, n - 1)], xs, n)


def complete_energy(n: int, alpha: float) -> float:
    """Alpha energy of the complete graph: 2*(1 - alpha)*(n - 1)."""
    return _complete_energy(_check_int(n, "n", 2), _check_alpha(alpha, allow_one=False))


def _complete_energy(n: int, alpha: float) -> float:
    """complete_energy for an int n >= 2 and a float alpha in [0, 1), unchecked."""
    return 2.0 * (1.0 - alpha) * (n - 1.0)


# ---------------------------------------------------------------------------
# Dispatch over GraphSpec.


def _route(spec: GraphSpec) -> _Route:
    """_Route(method, spectrum, energies, candidates) for the route that covers spec.

    This is the one place that splits specs into routes; callers read its
    fields and decide none again.  Complete and unitary Cayley graphs are
    regular with known eigenvalues, and even-order unit-sum graphs coincide
    with unitary Cayley graphs: all take the (1-alpha)-scaling shortcut on a
    known adjacency energy (METHOD_REGULAR), and candidates() is empty, as
    their gap (1-alpha)*(E_0 - 2*(n-1)) has no isolated root.  Odd
    prime-power unit-sum graphs and complements have exact formulas
    (METHOD_CLOSED), and candidates() solves each piece of their gap from the
    p and m found here.  Every other spec is an odd-order unit-sum spec
    solved by the block eigensolver (METHOD_NUMERIC), and candidates is None:
    analysis.find_borderenergetic_alphas searches its gap.

    The spectrum callable takes a non-empty sequence of float alphas in
    [0, 1], checked by the caller, and returns the eigenvalues ungrouped on
    every route: arrays (values (k, F), counts (F,)), values[k, i] taken
    counts[i] times at the k-th alpha, in no set order, zero counts
    allowed.  The formula routes give their families alpha by alpha from
    inputs built once per call (the regular route's Ramanujan pairs), the
    numeric route one stacked block solve's values and multiplicities; each
    row equals that alpha's alone.  spectrum_for and the public *_spectrum
    functions group row 0; verification expands every row.

    The energies callable maps a sequence of float alphas in [0, 1) to a
    list of energies and checks nothing: energy_report and
    analysis._classify_all check their alphas once, and the root finder and
    the CLI's tables price alphas of their own (the roots, ALPHA_GRID).  The
    formula routes loop the unchecked body of their scalar formula.  The
    numeric route walks the alphas in chunks of at most
    max(1, _BATCH_ELEMENTS // values per alpha), one stacked block solve
    each, so a long grid holds one chunk of block values at a time; it sums
    multiplicity * |value| over the blocks' centred values (those of
    A_alpha - 2*alpha*m/n I, blocks._stacked_eigenvalues) row by row, and
    its spectrum is those values plus 2*alpha*m/n.  Rows do not depend on
    each other, so each energy equals the one computed for that alpha alone.
    """
    n = spec.n
    if spec.family == FAMILY_COMPLETE:
        if spec.complement:  # edgeless
            return _Route(
                METHOD_REGULAR,
                lambda xs: (np.zeros((len(xs), 1)), np.array([n], dtype=np.int64)),
                lambda xs: [0.0] * len(xs),
                lambda: [],
            )
        return _Route(
            METHOD_REGULAR,
            lambda xs: _complete_pairs(n, xs),
            lambda xs: [_complete_energy(n, a) for a in xs],
            lambda: [],
        )
    if spec.family == FAMILY_UNITARY_CAYLEY or n % 2 == 0:
        spectrum, eps0 = (
            (_complement_unitary_cayley_pairs, complement_unitary_cayley_adjacency_energy)
            if spec.complement
            else (_unitary_cayley_pairs, unitary_cayley_adjacency_energy)
        )
        return _Route(
            METHOD_REGULAR,
            lambda xs: spectrum(n, xs),
            lambda xs: [(1.0 - a) * e for e in (float(eps0(n)),) for a in xs],
            lambda: [],
        )
    pp = prime_power(n)
    if pp is None:

        def block_energies(alphas: Sequence[float]) -> list[float]:
            weights = _record(n).mults.astype(float)
            step, out = max(1, _BATCH_ELEMENTS // weights.size), []
            for start in range(0, len(alphas), step):
                vals, _ = _stacked_eigenvalues(spec, alphas[start : start + step])
                out += [float(weights @ row) for row in np.abs(vals)]
            return out

        return _Route(METHOD_NUMERIC, lambda xs: _stacked_spectra(spec, xs), block_energies, None)
    p, m = pp
    spectrum, energy = (
        (_complement_prime_power_pairs, _complement_prime_power_energy)
        if spec.complement
        else (_uacg_prime_power_pairs, _uacg_prime_power_energy)
    )
    return _Route(
        METHOD_CLOSED,
        lambda xs: spectrum(p, m, xs),
        lambda xs: [energy(p, m, a) for a in xs],
        lambda: _prime_power_root_candidates(p, m, spec.complement),
    )


def has_closed_spectrum(spec: GraphSpec) -> bool:
    """True when an exact spectrum formula covers the requested graph."""
    return _route(spec).method != METHOD_NUMERIC


def spectrum_for(
    spec: GraphSpec,
    alpha: float,
    method: str = "auto",
    group_tol: float = DEFAULT_GROUP_TOL,
) -> tuple[Spectrum, str]:
    """Spectrum of A_alpha plus the method actually used ("closed" or "numeric").

    method "auto" prefers the exact formulas and otherwise uses the block
    eigensolver; "closed" raises ClosedFormUnavailable when no formula
    applies; "numeric" builds the dense graph (so ValueError above
    DENSE_ORDER_LIMIT) and solves its alpha matrix with the dense
    eigensolver, the oracle for both, for any spec.  The route's (values,
    counts) are grouped once: closed and regular routes at
    _CLOSED_GROUP_TOL, the block eigensolver's and the dense eigensolver's
    values at group_tol.
    """
    alpha = _check_alpha(alpha, allow_one=True)
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    group_tol = _check_tol(group_tol)
    if method == "numeric":
        vals = symmetric_eigenvalues(build_alpha_matrix(build_graph(spec), alpha))
        return group_spectrum(vals, group_tol), "numeric"
    route = _route(spec)
    if route.method != METHOD_NUMERIC:
        return _spectrum_from_pairs(*route.spectrum((alpha,))), "closed"
    if method == "closed":
        raise ClosedFormUnavailable(
            f"no exact spectrum for {spec.label()} with n={spec.n} (odd, not a prime power)"
        )
    return _spectrum_from_pairs(*route.spectrum((alpha,)), group_tol), "numeric"


@dataclass(frozen=True)
class EnergyReport:
    """An alpha-energy value plus everything needed to audit it."""

    spec: GraphSpec
    alpha: float
    n: int
    m: int
    shift: float  # 2*alpha*m/n, the mean eigenvalue of A_alpha
    energy: float
    method: str  # closed-form | numeric | regular-shortcut


def energy_report(spec: GraphSpec, alpha: float) -> EnergyReport:
    """Alpha energy of the graph a spec describes, by the best available route.

    Regular families use the (1-alpha)-scaling shortcut on their known
    adjacency energies; odd prime-power unit-sum graphs and complements use
    their exact formulas; every other spec uses the block eigensolver.  The
    one place an EnergyReport is built: alpha is checked once, then priced
    by one call of _route(spec)'s energies.
    """
    alpha = _check_alpha(alpha, allow_one=False)
    n, m = spec.n, edge_count(spec)
    route = _route(spec)
    (energy,) = route.energies((alpha,))
    return EnergyReport(spec, alpha, n, m, 2.0 * alpha * m / n, energy, route.method)
