"""Invariant suites: closed forms vs the dense eigensolver, structural
identities, bound containment, and root re-evaluation.

Each check walks a parameter range, records the worst residual it saw, and
reports pass/fail against its tolerance.  The CLI's verify command prints one
line per check; the test suite asserts on the same results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    VERDICT_BORDER,
    classify,
    complement_energy_bounds,
    eigenvalue_intervals,
    find_borderenergetic_alphas,
    uacg_energy_bounds,
)
from .blocks import block_eigenvalues
from .closedform import (
    ALPHA_GRID,
    alpha_energy_from_values,
    build_alpha_matrix,
    complement_even_spectrum,
    complement_prime_power_energy,
    complement_prime_power_spectrum,
    complement_unitary_cayley_adjacency_energy,
    complete_energy,
    uacg_even_spectrum,
    uacg_prime_power_energy,
    uacg_prime_power_spectrum,
    unitary_cayley_adjacency_energy,
)
from .graphs import (
    DENSE_ORDER_LIMIT,
    FAMILY_UACG,
    GraphSpec,
    build_graph,
    complement,
    zagreb_index,
)
from .linalg import symmetric_eigenvalues
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


def _result(name: str, worst: float, tol: float, cases: int, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=worst <= tol, worst=worst, cases=cases, detail=detail)


def check_prime_power_spectra(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-8) -> CheckResult:
    """Closed-form spectra vs the eigensolver on odd prime-power orders."""
    worst, cases, where = 0.0, 0, ""
    for q in odd_prime_powers(nmax):
        p, m = prime_power(q)
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=q, complement=complement_flag)
            g = build_graph(spec)
            for alpha in alphas:
                if complement_flag:
                    closed = complement_prime_power_spectrum(p, m, alpha)
                else:
                    closed = uacg_prime_power_spectrum(p, m, alpha)
                numeric = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
                resid = float(np.max(np.abs(closed.values() - numeric)))
                cases += 1
                if resid > worst:
                    worst, where = resid, f"n={q} complement={complement_flag} alpha={alpha}"
    return _result("prime-power spectra vs eigensolver", worst, tol, cases, where)


def check_even_spectra(nmax: int, alphas=EVEN_ALPHAS, tol: float = 1e-8) -> CheckResult:
    """Character-sum spectra vs the eigensolver on even orders."""
    worst, cases, where = 0.0, 0, ""
    for n in range(2, nmax + 1, 2):
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=n, complement=complement_flag)
            g = build_graph(spec)
            for alpha in alphas:
                if complement_flag:
                    closed = complement_even_spectrum(n, alpha)
                else:
                    closed = uacg_even_spectrum(n, alpha)
                numeric = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
                resid = float(np.max(np.abs(closed.values() - numeric)))
                cases += 1
                if resid > worst:
                    worst, where = resid, f"n={n} complement={complement_flag} alpha={alpha}"
    return _result("even-order spectra vs eigensolver", worst, tol, cases, where)


def check_block_route(nmax: int, alphas=ALPHA_GRID, tol: float = 1e-9) -> CheckResult:
    """Block-eigensolver spectra vs the eigensolver on every odd order, and
    vs the closed-form spectra on odd prime powers."""
    worst, cases, where = 0.0, 0, ""
    for n in range(3, nmax + 1, 2):
        pp = prime_power(n)
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=n, complement=complement_flag)
            g = build_graph(spec)
            closed = (
                complement_prime_power_spectrum if complement_flag else uacg_prime_power_spectrum
            )
            for alpha in alphas:
                vals, mults = block_eigenvalues(spec, alpha)
                blocks = np.sort(np.repeat(vals, mults))[::-1]
                refs = [symmetric_eigenvalues(build_alpha_matrix(g, alpha))]
                if pp is not None:
                    refs.append(closed(*pp, alpha).values())
                resid = max(float(np.max(np.abs(blocks - ref))) for ref in refs)
                cases += 1
                if resid > worst:
                    worst, where = resid, f"n={n} complement={complement_flag} alpha={alpha}"
    return _result("block route vs eigensolver and closed forms", worst, tol, cases, where)


def check_spectral_identities(
    nmax: int, alphas=ALPHA_GRID, rtol: float = 1e-8
) -> list[CheckResult]:
    """Trace and second-moment identities of the alpha matrix, numerically.

    Sum of eigenvalues must equal 2*alpha*m and sum of squares must equal
    alpha^2*zeta + (1-alpha)^2*2m, relative to scale 1 + |target|.
    """
    trace_worst, sq_worst, cases = 0.0, 0.0, 0
    trace_where, sq_where = "", ""
    for n in range(2, nmax + 1):
        base = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
        for g in (base, complement(base)):
            zeta = zagreb_index(g)
            for alpha in alphas:
                vals = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
                cases += 1
                trace_target = 2.0 * alpha * g.m
                resid = abs(float(vals.sum()) - trace_target) / (1.0 + abs(trace_target))
                if resid > trace_worst:
                    trace_worst = resid
                    trace_where = f"n={n} complement={g.spec.complement} alpha={alpha}"
                sq_target = alpha**2 * zeta + (1.0 - alpha) ** 2 * 2.0 * g.m
                resid = abs(float((vals * vals).sum()) - sq_target) / (1.0 + sq_target)
                if resid > sq_worst:
                    sq_worst = resid
                    sq_where = f"n={n} complement={g.spec.complement} alpha={alpha}"
    return [
        _result("trace identity", trace_worst, rtol, cases, trace_where),
        _result("second-moment identity", sq_worst, rtol, cases, sq_where),
    ]


def check_complement_identity(nmax: int, alphas=ALPHA_GRID, rtol: float = 1e-8) -> CheckResult:
    """A_alpha(G) + A_alpha(complement) must be alpha*(n-1) on the diagonal
    and (1-alpha) off it."""
    worst, cases, where = 0.0, 0, ""
    for n in range(2, nmax + 1):
        g = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
        h = complement(g)
        for alpha in alphas:
            total = build_alpha_matrix(g, alpha) + build_alpha_matrix(h, alpha)
            target = np.full((n, n), 1.0 - alpha)
            np.fill_diagonal(target, alpha * (n - 1.0))
            scale = 1.0 + max(alpha * (n - 1.0), 1.0 - alpha)
            resid = float(np.max(np.abs(total - target))) / scale
            cases += 1
            if resid > worst:
                worst, where = resid, f"n={n} alpha={alpha}"
    return _result("complement matrix identity", worst, rtol, cases, where)


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
    uacg_worst, comp_worst, cases = 0.0, 0.0, 0
    uacg_where, comp_where = "", ""
    for q in odd_prime_powers(nmax):
        p, m = prime_power(q)
        phi = q - q // p
        edges = (q - 1) * phi // 2
        comp_edges = q * (q - 1) // 2 - edges
        for alpha in alphas:
            cases += 1
            spec_energy = alpha_energy_from_values(
                uacg_prime_power_spectrum(p, m, alpha).values(), q, edges, alpha
            )
            resid = abs(uacg_prime_power_energy(p, m, alpha) - spec_energy)
            if resid > uacg_worst:
                uacg_worst, uacg_where = resid, f"n={q} alpha={alpha}"
            multiset_energy = alpha_energy_from_values(
                _tabulated_complement_values(p, m, alpha), q, comp_edges, alpha
            )
            resid = abs(complement_prime_power_energy(p, m, alpha) - multiset_energy)
            if resid > comp_worst:
                comp_worst, comp_where = resid, f"n={q} alpha={alpha}"
    return [
        _result("prime-power energy vs spectrum", uacg_worst, tol, cases, uacg_where),
        _result(
            "complement energy formula vs generating multiset", comp_worst, tol, cases, comp_where
        ),
    ]


def check_regular_shortcut(nmax: int, alphas=(0.3, 0.7), tol: float = 1e-8) -> CheckResult:
    """Even orders are regular: energy must scale as (1-alpha) times the
    adjacency energy, and the adjacency energy must match its closed form."""
    worst, cases, where = 0.0, 0, ""
    for n in range(2, nmax + 1, 2):
        g = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
        base_vals = symmetric_eigenvalues(build_alpha_matrix(g, 0.0))
        base = alpha_energy_from_values(base_vals, n, g.m, 0.0)
        resid = abs(base - unitary_cayley_adjacency_energy(n))
        cases += 1
        if resid > worst:
            worst, where = resid, f"n={n} alpha=0"
        for alpha in alphas:
            vals = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
            energy = alpha_energy_from_values(vals, n, g.m, alpha)
            resid = abs(energy - (1.0 - alpha) * base)
            cases += 1
            if resid > worst:
                worst, where = resid, f"n={n} alpha={alpha}"
    return _result("regular energy shortcut (even orders)", worst, tol, cases, where)


def check_complement_even_energy(nmax: int, tol: float = 1e-8) -> CheckResult:
    """Even-order complement adjacency energy vs its closed form."""
    worst, cases, where = 0.0, 0, ""
    for n in range(2, nmax + 1, 2):
        g = build_graph(GraphSpec(family=FAMILY_UACG, n=n, complement=True))
        vals = symmetric_eigenvalues(build_alpha_matrix(g, 0.0))
        energy = alpha_energy_from_values(vals, n, g.m, 0.0)
        resid = abs(energy - complement_unitary_cayley_adjacency_energy(n))
        cases += 1
        if resid > worst:
            worst, where = resid, f"n={n}"
    return _result("complement adjacency energy (even orders)", worst, tol, cases, where)


def check_interval_containment(
    nmax: int, alphas=BOUND_ALPHAS, slack: float = 1e-8
) -> CheckResult:
    """Every numeric eigenvalue must fall in its rank interval (odd orders)."""
    worst, cases, where = 0.0, 0, ""
    for n in range(3, nmax + 1, 2):
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=n, complement=complement_flag)
            g = build_graph(spec)
            for alpha in alphas:
                intervals = eigenvalue_intervals(spec, alpha)
                observed = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
                lower = np.array([b.lower for b in intervals])
                upper = np.array([b.upper for b in intervals])
                violation = float(
                    np.max(np.maximum(lower - observed, observed - upper))
                )
                cases += n
                if violation > worst:
                    worst = violation
                    where = f"n={n} complement={complement_flag} alpha={alpha}"
    return _result("eigenvalue interval containment", worst, slack, cases, where)


def check_energy_sandwich(nmax: int, alphas=SANDWICH_ALPHAS, slack: float = 1e-8) -> CheckResult:
    """All four lower bounds <= numeric energy <= upper bound (odd orders)."""
    worst, cases, where = 0.0, 0, ""
    for n in range(3, nmax + 1, 2):
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=n, complement=complement_flag)
            g = build_graph(spec)
            for alpha in alphas:
                vals = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
                energy = alpha_energy_from_values(vals, n, g.m, alpha)
                if complement_flag:
                    lowers, upper = complement_energy_bounds(n, alpha)
                else:
                    lowers, upper = uacg_energy_bounds(n, alpha)
                violation = max(max(lowers.values()) - energy, energy - upper)
                cases += 1
                if violation > worst:
                    worst = violation
                    where = f"n={n} complement={complement_flag} alpha={alpha}"
    return _result("energy bound sandwich", worst, slack, cases, where)


def check_roots(nmax: int, tol: float = 1e-8) -> CheckResult:
    """Re-evaluate every root the root finder returns on odd prime-power orders.

    At each root the energy gap to the complete graph must vanish within tol
    and classification at tolerance 1e-6 must come back borderenergetic.
    """
    worst, cases, where = 0.0, 0, ""
    for q in odd_prime_powers(nmax):
        for complement_flag in (False, True):
            spec = GraphSpec(family=FAMILY_UACG, n=q, complement=complement_flag)
            for root in find_borderenergetic_alphas(spec):
                report = classify(spec, root, tol=1e-6)
                resid = abs(report.energy - complete_energy(q, root))
                if report.verdict != VERDICT_BORDER:
                    resid = max(resid, 1.0)  # classification disagreement is a failure
                cases += 1
                if resid > worst:
                    worst = resid
                    where = f"n={q} complement={complement_flag} root={root}"
    return _result("borderenergetic root re-evaluation", worst, tol, cases, where)


def run_suite(scope: str, nmax: int) -> list[CheckResult]:
    """All checks for a scope; ValueError on a bad scope or nmax outside
    3..DENSE_ORDER_LIMIT, since every check builds dense graphs up to nmax."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if nmax < 3:
        raise ValueError(f"nmax must be >= 3, got {nmax}")
    if nmax > DENSE_ORDER_LIMIT:
        raise ValueError(
            f"nmax={nmax} exceeds the dense limit DENSE_ORDER_LIMIT={DENSE_ORDER_LIMIT}"
        )
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
