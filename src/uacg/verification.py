"""Invariant suites: closed forms vs the dense eigensolver, structural
identities, bound containment, and root re-evaluation.

Each check walks a parameter range, records the worst residual it saw, and
reports pass/fail against its tolerance.  The CLI's verify command prints one
line per check; the test suite asserts on the same results.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .analysis import (
    VERDICT_BORDER,
    _odd_eigen_arrays,
    classify,
    energy_bounds,
    find_borderenergetic_alphas,
)
from .blocks import _stacked_eigenvalues
from .closedform import (
    ALPHA_GRID,
    alpha_energy_from_values,
    build_alpha_matrix,
    complement_prime_power_energy,
    complement_unitary_cayley_adjacency_energy,
    complete_energy,
    has_closed_spectrum,
    spectrum_for,
    uacg_prime_power_energy,
    uacg_prime_power_spectrum,
    unitary_cayley_adjacency_energy,
)
from .graphs import (
    DENSE_ORDER_LIMIT,
    FAMILY_UACG,
    Graph,
    GraphSpec,
    build_graph,
    complement,
    zagreb_index,
)
# symmetric_eigenvalues has no caller here; perfbench's tracer test looks it
# up in this namespace.
from .linalg import _alpha_eigenvalues, _check_tol, symmetric_eigenvalues  # noqa: F401
from .numtheory import prime_power

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
    if isinstance(nmax, bool) or not isinstance(nmax, numbers.Integral):
        raise ValueError(f"nmax must be an integer, got {nmax!r}")
    if nmax < 3:
        raise ValueError(f"nmax must be >= 3, got {nmax}")
    if nmax > DENSE_ORDER_LIMIT:
        raise ValueError(
            f"nmax={nmax} exceeds the dense limit DENSE_ORDER_LIMIT={DENSE_ORDER_LIMIT}"
        )
    return int(nmax)


def _worst(name: str, tol: float, rows: Iterable[tuple[float, int, str]]) -> CheckResult:
    """Reduce (residual, cases, location) rows to one result: the largest
    residual with its first location ("" while every residual is 0), and the
    total case count."""
    worst, cases, where = 0.0, 0, ""
    for resid, count, location in rows:
        cases += count
        if resid > worst:
            worst, where = resid, location
    return CheckResult(name=name, passed=worst <= tol, worst=worst, cases=cases, detail=where)


def _dense(
    ns: Iterable[int], alphas: Iterable[float], flags: Iterable[bool] = (False, True)
) -> Iterator[tuple[GraphSpec, Graph, float, np.ndarray]]:
    """(spec, graph, alpha, descending dense eigenvalues) for the unit-sum
    spec at each order in ns and complement flag in flags: one graph per
    spec, checked and folded once into the blocks of the group G = <g> x H'
    it is invariant under (g a unit of largest multiplicative order, H' the
    involutions outside <g>), and each alpha's blocks built from those and
    solved (see linalg._alpha_eigenvalues), with the values of one full
    solve of that alpha's matrix to rounding."""
    alphas = tuple(alphas)
    for n in ns:
        for flag in flags:
            spec = GraphSpec(family=FAMILY_UACG, n=n, complement=flag)
            g = build_graph(spec)
            for alpha, vals in zip(alphas, _alpha_eigenvalues(g.adjacency, g.degrees, alphas)):
                yield spec, g, alpha, vals


def _at(spec: GraphSpec, alpha: float) -> str:
    return f"n={spec.n} complement={spec.complement} alpha={alpha}"


def _closed_rows(ns: Iterable[int], alphas: Iterable[float]) -> list[tuple[float, int, str]]:
    """Rows comparing the route table's closed spectrum with the eigensolver."""
    rows = []
    for spec, _, alpha, vals in _dense(ns, alphas):
        closed = spectrum_for(spec, alpha, method="closed")[0].values()
        rows.append((float(np.max(np.abs(closed - vals))), 1, _at(spec, alpha)))
    return rows


def check_prime_power_spectra(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-8) -> CheckResult:
    """Closed-form spectra vs the eigensolver on odd prime-power orders."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows = _closed_rows(odd_prime_powers(nmax), alphas)
    return _worst("prime-power spectra vs eigensolver", tol, rows)


def check_even_spectra(nmax: int, alphas=EVEN_ALPHAS, tol: float = 1e-8) -> CheckResult:
    """Character-sum spectra vs the eigensolver on even orders."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows = _closed_rows(range(2, nmax + 1, 2), alphas)
    return _worst("even-order spectra vs eigensolver", tol, rows)


def check_block_route(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-9) -> CheckResult:
    """Block-eigensolver spectra vs the eigensolver on every odd order, and
    vs the closed-form spectra on odd prime powers."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows, alphas = [], tuple(alphas)
    for i, (spec, _, alpha, dense) in enumerate(_dense(range(3, nmax + 1, 2), alphas)):
        k = i % len(alphas)
        if k == 0:  # every alpha of the spec in one stacked block solve
            values, mults = _stacked_eigenvalues(spec, alphas)
        blocks = np.sort(np.repeat(values[k], mults))[::-1]
        refs = [dense]
        if has_closed_spectrum(spec):
            refs.append(spectrum_for(spec, alpha, method="closed")[0].values())
        rows.append((max(float(np.max(np.abs(blocks - ref))) for ref in refs), 1, _at(spec, alpha)))
    return _worst("block route vs eigensolver and closed forms", tol, rows)


def check_spectral_identities(
    nmax: int, alphas=ALPHA_GRID, rtol: float = 1e-8
) -> list[CheckResult]:
    """Trace and second-moment identities of the alpha matrix, numerically.

    Sum of eigenvalues must equal 2*alpha*m and sum of squares must equal
    alpha^2*zeta + (1-alpha)^2*2m, relative to scale 1 + |target|.
    """
    nmax, rtol = _check_nmax(nmax), _check_tol(rtol)
    trace_rows, sq_rows, zeta = [], [], {}
    for spec, g, alpha, vals in _dense(range(2, nmax + 1), alphas):
        trace_target = 2.0 * alpha * g.m
        resid = abs(float(vals.sum()) - trace_target) / (1.0 + abs(trace_target))
        trace_rows.append((resid, 1, _at(spec, alpha)))
        if spec not in zeta:
            zeta[spec] = zagreb_index(g)
        sq_target = alpha**2 * zeta[spec] + (1.0 - alpha) ** 2 * 2.0 * g.m
        resid = abs(float((vals * vals).sum()) - sq_target) / (1.0 + sq_target)
        sq_rows.append((resid, 1, _at(spec, alpha)))
    return [
        _worst("trace identity", rtol, trace_rows),
        _worst("second-moment identity", rtol, sq_rows),
    ]


def check_complement_identity(nmax: int, alphas=ALPHA_GRID, rtol: float = 1e-8) -> CheckResult:
    """A_alpha(G) + A_alpha(complement) must be alpha*(n-1) on the diagonal
    and (1-alpha) off it."""
    nmax, rtol = _check_nmax(nmax), _check_tol(rtol)
    rows = []
    for n in range(2, nmax + 1):
        g = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
        h = complement(g)
        for alpha in alphas:
            total = build_alpha_matrix(g, alpha) + build_alpha_matrix(h, alpha)
            target = np.full((n, n), 1.0 - alpha)
            np.fill_diagonal(target, alpha * (n - 1.0))
            scale = 1.0 + max(alpha * (n - 1.0), 1.0 - alpha)
            rows.append((float(np.max(np.abs(total - target))) / scale, 1, f"n={n} alpha={alpha}"))
    return _worst("complement matrix identity", rtol, rows)


def _tabulated_complement_values(p: int, m: int, alpha: float) -> np.ndarray:
    """The five-family value multiset the tabulated complement energy formula
    was derived from.

    Its first family is the alpha-independent -p**(m-1); the corrected
    spectrum (complement_prime_power_spectrum) replaces that family with
    (2*alpha - 1)*p**(m-1), so the two agree only at alpha = 0.  This multiset
    exists solely to cross-check the energy formula against its own source.
    """
    q = p ** (m - 1)
    families = [
        (-float(q), (p - 1) // 2),
        (alpha * q - 1.0, q - 1),
        (alpha * q, (p - 1) * (q - 1)),
        (q - 1.0, 1),
        (float(q), (p - 1) // 2),
    ]
    values = np.concatenate([np.full(mult, val) for val, mult in families if mult > 0])
    return np.sort(values)[::-1]


def check_energy_consistency(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-9) -> list[CheckResult]:
    """Energy formulas vs energies recomputed from their value multisets."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    uacg_rows, comp_rows = [], []
    for q in odd_prime_powers(nmax):
        p, m = prime_power(q)
        phi = q - q // p
        edges = (q - 1) * phi // 2
        comp_edges = q * (q - 1) // 2 - edges
        for alpha in alphas:
            spec_energy = alpha_energy_from_values(
                uacg_prime_power_spectrum(p, m, alpha).values(), q, edges, alpha
            )
            resid = abs(uacg_prime_power_energy(p, m, alpha) - spec_energy)
            uacg_rows.append((resid, 1, f"n={q} alpha={alpha}"))
            multiset_energy = alpha_energy_from_values(
                _tabulated_complement_values(p, m, alpha), q, comp_edges, alpha
            )
            resid = abs(complement_prime_power_energy(p, m, alpha) - multiset_energy)
            comp_rows.append((resid, 1, f"n={q} alpha={alpha}"))
    return [
        _worst("prime-power energy vs spectrum", tol, uacg_rows),
        _worst("complement energy formula vs generating multiset", tol, comp_rows),
    ]


def check_regular_shortcut(nmax: int, alphas=(0.3, 0.7), tol: float = 1e-8) -> CheckResult:
    """Even orders are regular: energy must scale as (1-alpha) times the
    adjacency energy, and the adjacency energy must match its closed form."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows, base = [], {}
    for spec, g, alpha, vals in _dense(range(2, nmax + 1, 2), (0.0, *alphas), (False,)):
        n = spec.n
        energy = alpha_energy_from_values(vals, n, g.m, alpha)
        if n not in base:  # the first alpha of each order is 0
            base[n] = energy
            rows.append((abs(energy - unitary_cayley_adjacency_energy(n)), 1, f"n={n} alpha=0"))
        else:
            rows.append((abs(energy - (1.0 - alpha) * base[n]), 1, f"n={n} alpha={alpha}"))
    return _worst("regular energy shortcut (even orders)", tol, rows)


def check_complement_even_energy(nmax: int, tol: float = 1e-8) -> CheckResult:
    """Even-order complement adjacency energy vs its closed form."""
    nmax, tol = _check_nmax(nmax), _check_tol(tol)
    rows = []
    for spec, g, _, vals in _dense(range(2, nmax + 1, 2), (0.0,), (True,)):
        resid = abs(
            alpha_energy_from_values(vals, spec.n, g.m, 0.0)
            - complement_unitary_cayley_adjacency_energy(spec.n)
        )
        rows.append((resid, 1, f"n={spec.n}"))
    return _worst("complement adjacency energy (even orders)", tol, rows)


def check_interval_containment(
    nmax: int, alphas=BOUND_ALPHAS, slack: float = 1e-8
) -> CheckResult:
    """Every numeric eigenvalue must fall in its rank interval (odd orders)."""
    nmax, slack = _check_nmax(nmax), _check_tol(slack)
    rows = []
    for spec, _, alpha, observed in _dense(range(3, nmax + 1, 2), alphas):
        lower, upper = _odd_eigen_arrays(spec, alpha)
        violation = float(np.max(np.maximum(lower - observed, observed - upper)))
        rows.append((violation, spec.n, _at(spec, alpha)))
    return _worst("eigenvalue interval containment", slack, rows)


def check_energy_sandwich(nmax: int, alphas=SANDWICH_ALPHAS, slack: float = 1e-8) -> CheckResult:
    """All four lower bounds <= numeric energy <= upper bound (odd orders)."""
    nmax, slack = _check_nmax(nmax), _check_tol(slack)
    rows = []
    for spec, g, alpha, vals in _dense(range(3, nmax + 1, 2), alphas):
        energy = alpha_energy_from_values(vals, spec.n, g.m, alpha)
        lowers, upper = energy_bounds(spec, alpha)
        rows.append((max(max(lowers.values()) - energy, energy - upper), 1, _at(spec, alpha)))
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
            for root in find_borderenergetic_alphas(spec):
                report = classify(spec, root, tol=1e-6)
                resid = abs(report.energy - complete_energy(q, root))
                if report.verdict != VERDICT_BORDER:
                    resid = max(resid, 1.0)  # classification disagreement is a failure
                rows.append((resid, 1, f"n={q} complement={complement_flag} root={root}"))
    return _worst("borderenergetic root re-evaluation", tol, rows)


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
