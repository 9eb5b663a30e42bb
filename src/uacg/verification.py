"""Invariant suites: closed forms vs the dense eigensolver, structural
identities, bound containment, and root re-evaluation.

Each check walks a parameter range, records the worst residual it saw, and
reports pass/fail against its tolerance.  The CLI's verify command prints one
line per check; the test suite asserts on the same results.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import tee

import numpy as np

from .analysis import (
    VERDICT_BORDER,
    _classify_all,
    _energy_bounds,
    _odd_eigen_arrays,
    find_borderenergetic_alphas,
)
from .blocks import _energy_floors, _stacked_spectra
from .closedform import (
    ALPHA_GRID,
    METHOD_NUMERIC,
    _complete_energy,
    _route,
    complement_unitary_cayley_adjacency_energy,
    unitary_cayley_adjacency_energy,
)
from .graphs import (
    FAMILY_UACG,
    GraphSpec,
    _check_dense_order,
    build_graph,
    complement,
    edge_count,
)
# symmetric_eigenvalues has no caller here; perfbench's tracer test looks it
# up in this namespace.
from .linalg import (  # noqa: F401
    _LAYOUTS,
    _alpha_eigenvalues,
    _check_alpha,
    _check_tol,
    _Fold,
    _prepare,
    symmetric_eigenvalues,
)
from .numtheory import _check_int, euler_phi, prime_power

__all__ = [
    "CheckResult",
    "SCOPES",
    "check_block_route",
    "check_complement_even_energy",
    "check_complement_identity",
    "check_energy_consistency",
    "check_energy_sandwich",
    "check_even_spectra",
    "check_interval_containment",
    "check_prime_power_spectra",
    "check_regular_shortcut",
    "check_roots",
    "check_spectral_identities",
    "run_suite",
]

SCOPES = ("closedform", "bounds", "all")

BOUND_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
SANDWICH_ALPHAS = (0.0, 0.25, 0.5, 0.75)
EVEN_ALPHAS = (0.0, 0.3, 0.7)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    cases: int
    detail: str = ""


def odd_prime_powers(nmax: int) -> list[int]:
    """Odd prime powers p**m <= nmax, ascending."""
    return [q for q in range(3, nmax + 1, 2) if prime_power(q) is not None]


def _check_nmax(nmax: int) -> int:
    """nmax as an int; ValueError unless it is an integer in
    3..DENSE_ORDER_LIMIT, since every check builds dense graphs up to nmax."""
    return _check_dense_order(_check_int(nmax, "nmax", 3), "nmax")


def _worst(
    name: str, tol: float, rows: Iterable[tuple], keys=("n", "complement", "alpha")
) -> CheckResult:
    """Reduce (residual, cases, location) rows to one result: the largest
    residual with its first location, and the total case count.  A NaN
    residual counts as the largest: the first one is kept, and fails the
    check.  A location is a tuple of the values of keys; only the kept one
    is formatted, as "key=value" words ("" while every residual is 0)."""
    worst, cases, where = 0.0, 0, ()
    for resid, count, location in rows:
        cases += count
        if worst == worst and not resid <= worst:  # larger, or the first NaN
            worst, where = resid, location
    detail = " ".join(f"{key}={value}" for key, value in zip(keys, where))
    return CheckResult(name=name, passed=worst <= tol, worst=worst, cases=cases, detail=detail)


def _row(resids: np.ndarray, count: int, where: tuple, alphas: Sequence) -> tuple:
    """One _worst row for the residuals of one graph at alphas, count cases
    each: the largest (np.argmax finds the first, or the first NaN) at its
    location (*where, alpha)."""
    i = int(np.argmax(resids))
    return float(resids[i]), count * len(alphas), (*where, alphas[i])


def _alphas(alphas: Iterable[float], allow_one: bool = True) -> tuple[tuple, np.ndarray]:
    """alphas as given, for locations, and as a checked, non-empty float array."""
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("alphas must hold at least one alpha")
    return alphas, np.array([_check_alpha(x, allow_one=allow_one) for x in alphas])


# Each unit-sum order's fold, kept for the process once built (see _order):
# the only thing kept from one call of _dense to the next.
_FOLDS: dict[int, _Fold] = {}


def _order(n: int) -> _Fold:
    """The fold of the unit-sum graph of order n, holding its degrees and
    the complement's trivial block too (linalg._prepare): from _FOLDS, or
    built, checked and folded, and kept for the process if n <= _LAYOUTS,
    the orders whose layouts linalg caches.  None is evicted, so a sweep
    past that bound keeps its first orders and folds the rest on every
    call.  The adjacency is dropped once folded."""
    if n in _FOLDS:
        return _FOLDS[n]
    g = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
    fold = _prepare(g.adjacency, g.degrees, complement=True)
    if n <= _LAYOUTS:
        _FOLDS[n] = fold
    return fold


def _dense(
    ns: Iterable[int], alphas: Iterable[float], flags: Iterable[bool] = (False, True)
) -> Iterator[tuple[GraphSpec, int, np.ndarray, np.ndarray]]:
    """(spec, m, degrees, rows) for the unit-sum spec at each order in ns and
    complement flag in flags, rows[k] the descending dense eigenvalues at
    alphas[k], floats the caller has checked (see _alphas).  Every order
    goes through one linalg._alpha_eigenvalues call, which solves the
    blocks of consecutive orders together.  Each order's base graph is
    built, checked and folded into the blocks of the group G = <g> x H' it
    is invariant under (g a unit of largest multiplicative order, H' the
    involutions outside <g>) once per process if its order is at most
    _LAYOUTS (see _order), and its adjacency is dropped after that fold.
    J folds to zero outside the trivial character's block, so the
    complement (degrees n - 1 - d) solves that block alone and reflects the
    graph's other values.  Each row has the values of one full solve of
    that alpha's matrix to rounding.  Every stack is formed and solved on
    every call: no row, energy or result is kept."""
    alphas, flags = tuple(alphas), tuple(flags)
    ahead, folds = tee(map(_order, ns))
    for rows, fold in zip(_alpha_eigenvalues(ahead, alphas, flags), folds):
        n, degrees = fold.n, fold.degrees
        m = int(degrees.sum()) // 2
        for flag, vals in zip(flags, rows.reshape(len(flags), len(alphas), n)):
            pair = (n * (n - 1) // 2 - m, n - 1 - degrees) if flag else (m, degrees)
            yield GraphSpec(FAMILY_UACG, n, flag), *pair, vals


def _energies(vals: np.ndarray, n: int, m: int, x: np.ndarray) -> np.ndarray:
    """alpha_energy_from_values of each row of vals, at its alpha in x."""
    return np.abs(vals - (2.0 * x * m / n)[:, None]).sum(axis=1)


def _expanded(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One descending row per alpha of ungrouped (values, counts), values[k,
    i] taken counts[i] times: a route's spectrum at every alpha from one
    call (closedform._route), or the block route's."""
    return np.sort(np.repeat(values, counts, axis=1))[:, ::-1]


def _closed_rows(ns: Iterable[int], alphas: tuple, x: np.ndarray) -> list[tuple[float, int, tuple]]:
    """Rows comparing the route record's closed spectrum with the eigensolver."""
    rows = []
    for spec, _, _, vals in _dense(ns, x):
        resid = np.abs(_expanded(*_route(spec).spectrum(x)) - vals).max(axis=1)
        rows.append(_row(resid, 1, (spec.n, spec.complement), alphas))
    return rows


def check_prime_power_spectra(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-8) -> CheckResult:
    """Closed-form spectra vs the eigensolver on odd prime-power orders."""
    nmax, tol, alphas = _check_nmax(nmax), _check_tol(tol), _alphas(alphas)
    rows = _closed_rows(odd_prime_powers(nmax), *alphas)
    return _worst("prime-power spectra vs eigensolver", tol, rows)


def check_even_spectra(nmax: int, alphas=EVEN_ALPHAS, tol: float = 1e-8) -> CheckResult:
    """Character-sum spectra vs the eigensolver on even orders."""
    nmax, tol, alphas = _check_nmax(nmax), _check_tol(tol), _alphas(alphas)
    rows = _closed_rows(range(2, nmax + 1, 2), *alphas)
    return _worst("even-order spectra vs eigensolver", tol, rows)


def check_block_route(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-9) -> CheckResult:
    """Block-eigensolver spectra vs the eigensolver on every odd order, and
    vs the closed-form spectra on odd prime powers."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    (alphas, x), rows = _alphas(alphas), []
    for spec, _, _, dense in _dense(range(3, nmax + 1, 2), x):
        blocks = _expanded(*_stacked_spectra(spec, x))  # one stacked block solve
        resid = np.abs(blocks - dense).max(axis=1)
        route = _route(spec)
        if route.method != METHOD_NUMERIC:
            resid = np.maximum(resid, np.abs(blocks - _expanded(*route.spectrum(x))).max(axis=1))
        rows.append(_row(resid, 1, (spec.n, spec.complement), alphas))
    return _worst("block route vs eigensolver and closed forms", tol, rows)


def check_spectral_identities(
    nmax: int, alphas=ALPHA_GRID, rtol: float = 1e-8
) -> list[CheckResult]:
    """Trace and second-moment identities of the alpha matrix, numerically.

    Sum of eigenvalues must equal 2*alpha*m and sum of squares must equal
    alpha^2*zeta + (1-alpha)^2*2m, relative to scale 1 + |target|.
    """
    nmax, rtol = _check_nmax(nmax), _check_tol(rtol)
    (alphas, x), trace_rows, sq_rows = _alphas(alphas), [], []
    for spec, m, degrees, vals in _dense(range(2, nmax + 1), x):
        where = spec.n, spec.complement
        trace = 2.0 * x * m
        resid = np.abs(vals.sum(axis=1) - trace) / (1.0 + np.abs(trace))
        trace_rows.append(_row(resid, 1, where, alphas))
        sq = x**2 * int(degrees @ degrees) + (1.0 - x) ** 2 * 2.0 * m  # zeta = sum d**2
        resid = np.abs((vals * vals).sum(axis=1) - sq) / (1.0 + sq)
        sq_rows.append(_row(resid, 1, where, alphas))
    return [
        _worst("trace identity", rtol, trace_rows),
        _worst("second-moment identity", rtol, sq_rows),
    ]


# Diagonal entries, over every alpha, that check_complement_identity reduces
# at once; larger bounds add to a pass's peak RSS (see CHANGES.md).
_IDENTITY_ENTRIES = 2**13


def check_complement_identity(nmax: int, alphas=ALPHA_GRID, rtol: float = 1e-8) -> CheckResult:
    """A_alpha(G) + A_alpha(complement) must be alpha*(n-1) on the diagonal
    and (1-alpha) off it.

    Each order's two adjacencies are read once: the distinct (a, b) pairs of
    their off-diagonal entries (at most four for 0/1 entries) stand for the
    whole matrix.  The diagonal residuals come from the two degree vectors
    and the off-diagonal ones from those pairs, all alphas at once, with the
    float operations of the summed alpha matrices, so each residual is the
    one the full n x n sum gives, bit for bit.  Consecutive orders are
    reduced together (see _identity_rows), up to _IDENTITY_ENTRIES diagonal
    entries of alphas at a time."""
    nmax, rtol = _check_nmax(nmax), _check_tol(rtol)
    alphas, x = _alphas(alphas)
    x, rows, held = x[:, None], [], []
    for n in range(2, nmax + 1):
        g = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
        h = complement(g)
        # entries are 0/1 and the diagonal n (0, 0)s, so three counts give how
        # many off-diagonal entries hold each pair (a, b), numbered 2a + b
        both, ones_a, ones_b = map(np.count_nonzero, (g.adjacency & h.adjacency, g.adjacency, h.adjacency))
        counts = [n * n - n - ones_a - ones_b + both, ones_b - both, ones_a - both, both]
        held.append((n, g.degrees, h.degrees, [c > 0 for c in counts]))
        if len(x) * sum(order[0] for order in held) >= _IDENTITY_ENTRIES or n == nmax:
            rows += _identity_rows(held, x, alphas)
            held = []
    return _worst("complement matrix identity", rtol, rows, ("n", "alpha"))


def _identity_rows(held: list[tuple], x: np.ndarray, alphas: tuple) -> list[tuple]:
    """The _worst rows of the held (n, degrees, complement degrees, which
    pairs occur) orders at the (k, 1) alphas x: every order's diagonal
    residuals reduced by one np.maximum.reduceat, the four pairs' residuals
    taken where they occur, then each order's largest over the alphas."""
    ns, dg, dh, present = zip(*held)
    ns = np.array(ns)
    dg, dh = np.concatenate(dg).astype(float), np.concatenate(dh).astype(float)
    m = np.repeat(ns - 1.0, ns)  # n - 1 at each diagonal entry of its order
    on = np.maximum.reduceat(np.abs(x * dg + x * dh - x * m), np.cumsum([0, *ns[:-1]]), axis=1)
    a, b = np.divmod(np.arange(4.0), 2.0)
    pairs = np.abs((1.0 - x) * a + (1.0 - x) * b - (1.0 - x))
    off = np.where(np.array(present), pairs[:, None], 0.0).max(axis=2)  # residuals are >= 0
    resids = np.maximum(on, off) / (1.0 + np.maximum(x * (ns - 1.0), 1.0 - x))
    first = np.argmax(resids, axis=0).tolist()  # the largest, or the first NaN
    where = zip(ns.tolist(), first)
    return [(float(resids[i, j]), len(alphas), (n, alphas[i])) for j, (n, i) in enumerate(where)]


def _tabulated_complement_values(p: int, m: int, x: np.ndarray) -> np.ndarray:
    """The five-family value multiset the tabulated complement energy formula
    was derived from, one descending row per alpha in x.

    Its first family is the alpha-independent -p**(m-1); the corrected
    spectrum (complement_prime_power_spectrum) replaces that family with
    (2*alpha - 1)*p**(m-1), so the two agree only at alpha = 0.  This multiset
    exists solely to cross-check the energy formula against its own source.
    """
    q, ones = p ** (m - 1), np.ones_like(x)
    values = np.stack([-q * ones, x * q - 1.0, x * q, (q - 1.0) * ones, q * ones], axis=1)
    counts = [(p - 1) // 2, q - 1, (p - 1) * (q - 1), 1, (p - 1) // 2]
    return np.sort(np.repeat(values, counts, axis=1))[:, ::-1]


def check_energy_consistency(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-9) -> list[CheckResult]:
    """Energy formulas vs energies recomputed from their value multisets:
    the route's closed spectrum and the tabulated complement multiset, one
    row per alpha, each order's rows reduced as one array."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    (alphas, x), uacg_rows, comp_rows = _alphas(alphas, allow_one=False), [], []
    for q in odd_prime_powers(nmax):
        p, m = prime_power(q)
        spec, comp = GraphSpec(FAMILY_UACG, q), GraphSpec(FAMILY_UACG, q, complement=True)
        route = _route(spec)
        spectral = _energies(_expanded(*route.spectrum(x)), q, edge_count(spec), x)
        formula = route.energies(x.tolist())
        uacg_rows.append(_row(np.abs(formula - spectral), 1, (q,), alphas))
        multiset = _energies(_tabulated_complement_values(p, m, x), q, edge_count(comp), x)
        formula = _route(comp).energies(x.tolist())
        comp_rows.append(_row(np.abs(formula - multiset), 1, (q,), alphas))
    return [
        _worst("prime-power energy vs spectrum", tol, uacg_rows, ("n", "alpha")),
        _worst("complement energy formula vs generating multiset", tol, comp_rows, ("n", "alpha")),
    ]


def check_regular_shortcut(nmax: int, alphas=(0.3, 0.7), tol: float = 1e-8) -> CheckResult:
    """Even orders are regular: energy must scale as (1-alpha) times the
    adjacency energy, and the adjacency energy must match its closed form."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    (alphas, x), rows = _alphas((0.0, *alphas), allow_one=False), []
    for spec, m, _, vals in _dense(range(2, nmax + 1, 2), x, (False,)):
        energy = _energies(vals, spec.n, m, x)
        resid = np.abs(energy - (1.0 - x) * energy[0])
        resid[0] = abs(energy[0] - unitary_cayley_adjacency_energy(spec.n))  # alpha = 0
        rows.append(_row(resid, 1, (spec.n,), (0, *alphas[1:])))
    return _worst("regular energy shortcut (even orders)", tol, rows, ("n", "alpha"))


def check_complement_even_energy(nmax: int, tol: float = 1e-8) -> CheckResult:
    """Even-order complement adjacency energy vs its closed form."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows = []
    for spec, _, _, vals in _dense(range(2, nmax + 1, 2), (0.0,), (True,)):
        energy = float(np.abs(vals[0]).sum())  # no shift at alpha = 0
        rows.append((abs(energy - complement_unitary_cayley_adjacency_energy(spec.n)), 1, (spec.n,)))
    return _worst("complement adjacency energy (even orders)", tol, rows, ("n",))


def check_interval_containment(
    nmax: int, alphas=BOUND_ALPHAS, slack: float = 1e-8
) -> CheckResult:
    """Every numeric eigenvalue must fall in its rank interval (odd orders)."""
    nmax, slack = _check_nmax(nmax), _check_tol(slack)
    (alphas, x), rows = _alphas(alphas), []
    for spec, _, _, observed in _dense(range(3, nmax + 1, 2), x):
        # the circulant part's sorted order does not depend on alpha, so the
        # upper ends are (1 - alpha)*U_0 + alpha*t, t = phi(n) (n - phi(n))
        t = spec.n - euler_phi(spec.n) if spec.complement else euler_phi(spec.n)
        upper = (1.0 - x)[:, None] * _odd_eigen_arrays(spec, 0.0)[1] + (x * t)[:, None]
        violation = np.maximum(upper - 1.0 - observed, observed - upper).max(axis=1)
        rows.append(_row(violation, spec.n, (spec.n, spec.complement), alphas))
    return _worst("eigenvalue interval containment", slack, rows)


def check_energy_sandwich(nmax: int, alphas=SANDWICH_ALPHAS, slack: float = 1e-8) -> CheckResult:
    """All four lower bounds and the block energy floor <= numeric energy <=
    upper bound (odd orders)."""
    nmax, slack = _check_nmax(nmax), _check_tol(slack)
    (alphas, x), rows = _alphas(alphas, allow_one=False), []
    for spec, m, _, vals in _dense(range(3, nmax + 1, 2), x):
        energy = _energies(vals, spec.n, m, x)
        bounds = [_energy_bounds(spec, alpha) for alpha in x.tolist()]
        lower = np.maximum([max(lowers.values()) for lowers, _ in bounds], _energy_floors(spec, x))
        upper = np.array([upper for _, upper in bounds])
        resid = np.maximum(lower - energy, energy - upper)
        rows.append(_row(resid, 1, (spec.n, spec.complement), alphas))
    return _worst("energy bound sandwich", slack, rows)


def check_roots(nmax: int, tol: float = 1e-8) -> CheckResult:
    """Re-evaluate every root the root finder returns on odd prime-power orders.

    At each root the energy gap to the complete graph must vanish within tol
    and classification at tolerance 1e-6 must come back borderenergetic.
    """
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows = []
    for q in odd_prime_powers(nmax):
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=q, complement=complement_flag)
            for report in _classify_all(spec, find_borderenergetic_alphas(spec), 1e-6):
                resid = abs(report.energy - _complete_energy(q, report.alpha))
                if report.verdict != VERDICT_BORDER:
                    resid = max(resid, 1.0)  # classification disagreement is a failure
                rows.append((resid, 1, (q, complement_flag, report.alpha)))
    return _worst("borderenergetic root re-evaluation", tol, rows, ("n", "complement", "root"))


def run_suite(scope: str, nmax: int) -> list[CheckResult]:
    """All checks for a scope; ValueError on a bad scope or nmax (see
    _check_nmax) before any check runs."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    nmax = _check_nmax(nmax)
    results: list[CheckResult] = []
    if scope in ("closedform", "all"):
        results.append(check_prime_power_spectra(nmax))
        results.append(check_even_spectra(nmax))
        results.extend(check_spectral_identities(nmax))
        results.append(check_complement_identity(nmax))
        results.extend(check_energy_consistency(nmax))
        results.append(check_regular_shortcut(nmax))
        results.append(check_complement_even_energy(nmax))
        results.append(check_block_route(nmax))
    if scope in ("bounds", "all"):
        results.append(check_interval_containment(nmax))
        results.append(check_energy_sandwich(nmax))
    if scope == "all":
        results.append(check_roots(nmax))
    return results
