"""Eigenvalue localization, energy bounds, and energy-based classification.

For odd orders the alpha matrix of a unit-sum Cayley graph splits exactly into
a symmetric left-circulant part plus a diagonal whose entries take only two
values, so every eigenvalue is trapped in a unit-width interval around a
sorted circulant eigenvalue.  Those centres are Ramanujan sums c(d, n), one
run per divisor d of n, so the intervals are read from the divisors without
forming the circulant or its symbol.  Degree statistics give computable lower
and upper bounds on the alpha energy, and comparing the energy against the
complete graph's classifies a graph as borderenergetic or hyperenergetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .closedform import (
    _ramanujan_pairs,
    alpha_energy_from_values,
    build_alpha_matrix,
    complete_energy,
    energy_report,
)
from .graphs import FAMILY_UACG, GraphSpec, build_graph, edge_count
from .linalg import _check_alpha, _check_tol, symmetric_eigenvalues
from .numtheory import euler_phi

__all__ = [
    "BOUND_SLACK",
    "BoundReport",
    "ClassificationReport",
    "IndexBound",
    "ObservedBound",
    "VERDICT_BORDER",
    "VERDICT_HYPER",
    "VERDICT_NEITHER",
    "bound_report",
    "classify",
    "eigenvalue_intervals",
    "energy_bounds",
    "find_borderenergetic_alphas",
]

VERDICT_BORDER = "borderenergetic"
VERDICT_HYPER = "hyperenergetic"
VERDICT_NEITHER = "neither"

ENERGY_BOUND_NAMES = ("frobenius", "edge_count", "zagreb", "max_degree")

# Slack used when testing whether an observed value satisfies its interval.
BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class IndexBound:
    """Closed interval guaranteed to contain the k-th largest eigenvalue.

    index is the rank k, counted from 1 for the largest eigenvalue.
    """

    index: int
    lower: float
    upper: float


@dataclass(frozen=True)
class ObservedBound:
    """An IndexBound together with the numerically observed eigenvalue."""

    index: int
    lower: float
    upper: float
    observed: float
    satisfied: bool


def _check_odd_unit_sum(spec: GraphSpec) -> None:
    if spec.family != FAMILY_UACG:
        raise ValueError(f"bounds are defined for the unit-sum family, not {spec.family!r}")
    if spec.n % 2 == 0:
        raise ValueError(f"the circulant-plus-diagonal split needs odd n >= 3, got {spec.n}")


def _odd_eigen_arrays(spec: GraphSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) ends of the rank intervals of eigenvalue_intervals, as arrays.

    The circulant part has symbol (1-alpha)*[gcd(j, n) = 1], or its
    complement, whose right-circulant eigenvalues are (1-alpha)*c(k, n), or
    (1-alpha)*(n*[k = 0] - c(k, n)).  The symmetric left circulant keeps the
    k = 0 value and turns each pair k, n-k into +-|value|, so its spectrum is
    (1-alpha)*t, with t = phi(n) (n - phi(n) for the complement), plus
    +-(1-alpha)*|c(d, n)| taken phi(n/d)/2 times each for every divisor d < n.
    """
    _check_odd_unit_sum(spec)
    alpha = _check_alpha(alpha, allow_one=True)
    sums, counts = _ramanujan_pairs(spec.n)
    top = spec.n - sums[-1] if spec.complement else sums[-1]  # sums[-1] = c(0, n) = phi(n)
    mags = (1.0 - alpha) * np.abs(sums[:-1])
    half = counts[:-1] // 2
    circulant = np.repeat(
        np.concatenate([mags, -mags, [(1.0 - alpha) * top]]), np.concatenate([half, half, [1]])
    )
    upper = np.sort(circulant)[::-1] + alpha * top
    return upper - 1.0, upper


def eigenvalue_intervals(spec: GraphSpec, alpha: float) -> tuple[IndexBound, ...]:
    """Unit-width interval for each alpha-matrix eigenvalue of an odd unit-sum spec.

    The alpha matrix equals (1-alpha) times the symmetric left circulant with
    coprime-indicator symbol plus a diagonal whose entries are alpha*phi(n) on
    non-units and alpha*phi(n) - 1 on units; eigenvalue inequalities for
    matrix sums then pin the k-th sorted eigenvalue between the k-th sorted
    circulant eigenvalue plus those two diagonal extremes.  For the
    complement the symbol marks the non-coprime residues (including 0) and
    the diagonal entries are alpha*(n - phi(n)) on units and one less on
    non-units.
    """
    lower, upper = _odd_eigen_arrays(spec, alpha)
    return tuple(
        IndexBound(index=k, lower=lo, upper=up)
        for k, (lo, up) in enumerate(zip(lower.tolist(), upper.tolist()), start=1)
    )


# ---------------------------------------------------------------------------
# Energy bounds from degree statistics.


def energy_bounds(spec: GraphSpec, alpha: float) -> tuple[dict[str, float], float]:
    """(lower bounds by name, upper bound) on an odd unit-sum spec's alpha energy.

    The unit-sum graph has phi(n) vertices of degree phi(n) - 1 and n - phi(n)
    of degree phi(n); the complement's degrees are n - 1 minus those.  With m
    edges and zeta the sum of squared degrees, the squared Frobenius mass of
    the alpha matrix is alpha^2*zeta + (1-alpha)^2*2m and its trace is
    2*alpha*m.
    """
    _check_odd_unit_sum(spec)
    alpha = _check_alpha(alpha, allow_one=False)
    n = spec.n
    phi = euler_phi(n)
    counts = {phi - 1: phi, phi: n - phi}
    if spec.complement:
        counts = {n - 1 - d: c for d, c in counts.items()}
    zeta = sum(d * d * c for d, c in counts.items())
    max_degree = max(counts)
    m = edge_count(spec)
    mass = alpha * alpha * zeta + (1.0 - alpha) * (1.0 - alpha) * 2.0 * m
    mean_shift = 2.0 * alpha * m / n
    star = alpha * alpha * (max_degree + 1.0) ** 2 + 4.0 * max_degree * (1.0 - 2.0 * alpha)
    lowers = {
        # sqrt of twice the centered second moment sum (lambda_i - mean)^2
        "frobenius": math.sqrt(2.0 * max(0.0, mass - n * mean_shift * mean_shift)),
        "edge_count": 4.0 * (1.0 - alpha) * m / n,
        "zagreb": 2.0 * math.sqrt(zeta / n) - 2.0 * mean_shift,
        "max_degree": alpha * (max_degree + 1.0)
        + math.sqrt(max(0.0, star))
        - 2.0 * mean_shift,
    }
    upper = math.sqrt(max(0.0, n * mass - 4.0 * alpha * alpha * m * m))
    return lowers, upper


@dataclass(frozen=True)
class BoundReport:
    """Interval localization plus energy bounds, with observed values.

    per_index pairs every rank interval with the numerically observed
    eigenvalue and whether it satisfies the interval within BOUND_SLACK.
    Energy fields are None at alpha = 1 where the energy is undefined.
    """

    spec: GraphSpec
    alpha: float
    per_index: tuple[ObservedBound, ...]
    energy_lowers: dict[str, float] | None
    energy_upper: float | None
    energy_observed: float | None


def bound_report(spec: GraphSpec, alpha: float) -> BoundReport:
    """Evaluate all bounds for an odd unit-sum spec against numeric truth."""
    intervals = eigenvalue_intervals(spec, alpha)
    alpha = float(alpha)
    g = build_graph(spec)
    observed = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
    per_index = tuple(
        ObservedBound(
            index=b.index,
            lower=b.lower,
            upper=b.upper,
            observed=float(observed[b.index - 1]),
            satisfied=b.lower - BOUND_SLACK <= observed[b.index - 1] <= b.upper + BOUND_SLACK,
        )
        for b in intervals
    )
    if alpha < 1.0:
        lowers, upper = energy_bounds(spec, alpha)
        energy = alpha_energy_from_values(observed, g.n, g.m, alpha)
    else:
        lowers, upper, energy = None, None, None
    return BoundReport(
        spec=spec,
        alpha=alpha,
        per_index=per_index,
        energy_lowers=lowers,
        energy_upper=upper,
        energy_observed=energy,
    )


# ---------------------------------------------------------------------------
# Classification against the complete graph's energy.


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict of comparing a graph's alpha energy with the complete graph's.

    meets_hyper_inequality records the non-strict comparison
    energy >= complete_energy - tolerance, which borderenergetic cases also
    satisfy.
    """

    spec: GraphSpec
    alpha: float
    energy: float
    complete_energy: float
    verdict: str  # borderenergetic | hyperenergetic | neither
    tolerance: float
    meets_hyper_inequality: bool


def classify(spec: GraphSpec, alpha: float, tol: float = 1e-6) -> ClassificationReport:
    """Compare the graph's alpha energy against 2*(1-alpha)*(n-1).

    Equality within tol is borderenergetic; exceeding by more than tol is
    hyperenergetic; anything else is neither.
    """
    tol = _check_tol(tol)
    energy = energy_report(spec, alpha).energy
    reference = complete_energy(spec.n, alpha)
    diff = energy - reference
    if abs(diff) <= tol:
        verdict = VERDICT_BORDER
    elif diff > tol:
        verdict = VERDICT_HYPER
    else:
        verdict = VERDICT_NEITHER
    return ClassificationReport(
        spec=spec,
        alpha=float(alpha),
        energy=energy,
        complete_energy=reference,
        verdict=verdict,
        tolerance=tol,
        meets_hyper_inequality=energy >= reference - tol,
    )


# ---------------------------------------------------------------------------
# Roots of energy(alpha) = 2*(1-alpha)*(n-1).

# Coarse samples of the gap: the sixteenths of [0, 1) plus a point just under
# 1, where the energy is still defined.
_COARSE_ALPHAS = tuple(i / 16 for i in range(16)) + (1.0 - 1e-9,)


def _secant_floor(xs: list[float], vs: list[float], i: int) -> float:
    """Lower bound of a convex function on [xs[i], xs[i+1]] from its samples.

    A convex function lies above each secant extended past its ends, so on
    this interval it lies above the secant of the interval to its left and
    the secant of the interval to its right.  The larger of those two lines
    is least at an end of the interval or where the lines cross.
    """
    lines = [
        (xs[j], vs[j], (vs[j + 1] - vs[j]) / (xs[j + 1] - xs[j]))
        for j in (i - 1, i + 1)
        if 0 <= j < len(xs) - 1
    ]
    if not lines:
        return -math.inf
    points = [xs[i], xs[i + 1]]
    if len(lines) == 2 and lines[0][2] != lines[1][2]:
        (xa, va, sa), (xb, vb, sb) = lines
        cross = (vb - va + sa * xa - sb * xb) / (sa - sb)
        points.append(min(max(cross, xs[i]), xs[i + 1]))
    return min(max(v + s * (x - x0) for x0, v, s in lines) for x in points)


def _bisect(
    gap: Callable[[float], float], pos: float, neg: float, touch: float, tol: float
) -> float:
    """Root between pos (gap > touch) and neg (gap < -touch), to width tol."""
    while abs(neg - pos) > tol:
        mid = 0.5 * (pos + neg)
        if mid in (pos, neg):  # tol is below the float spacing here
            break
        val = gap(mid)
        if abs(val) <= touch:
            return mid
        if val > 0.0:
            pos = mid
        else:
            neg = mid
    return 0.5 * (pos + neg)


def _convex_roots(gap: Callable[[float], float], touch: float, tol: float) -> list[float]:
    """Roots in [0, 1) of a convex gap, ascending; see find_borderenergetic_alphas.

    A value within touch of zero counts as zero, and roots are bracketed to
    width tol.
    """
    samples = {a: gap(a) for a in _COARSE_ALPHAS}
    if all(abs(v) <= touch for v in samples.values()):
        return []
    while True:
        xs = sorted(samples)
        vs = [samples[a] for a in xs]
        if min(vs) <= touch:
            break
        mids = [
            0.5 * (xs[i] + xs[i + 1])
            for i in range(len(xs) - 1)
            if xs[i + 1] - xs[i] > tol and _secant_floor(xs, vs, i) <= touch
        ]
        mids = [a for a in mids if a not in samples]
        if not mids:
            return []
        for a in mids:
            samples[a] = gap(a)
    # The samples at or below touch form one run; a root closes each end.
    low = [i for i, v in enumerate(vs) if v <= touch]
    roots = set()
    for k, outside in ((low[0], low[0] - 1), (low[-1], low[-1] + 1)):
        if vs[k] >= -touch:
            roots.add(xs[k])
        elif 0 <= outside < len(xs):
            roots.add(_bisect(gap, xs[outside], xs[k], touch, tol))
    return sorted(roots)


def find_borderenergetic_alphas(spec: GraphSpec, tol: float = 1e-12) -> list[float]:
    """All alpha in [0, 1) where the graph's energy equals the complete graph's.

    The alpha energy is the trace norm of A_alpha - (2*alpha*m/n)*I, a matrix
    affine in alpha, so it is convex in alpha; the complete graph's energy is
    linear, so the gap between them is convex.  A convex gap has at most two
    roots, or vanishes on a whole interval.

    The gap counts as zero within machine scale, 1e-12 times the complete
    graph's energy at alpha = 0.  It is sampled at the sixteenths of [0, 1)
    and just under 1.  If every sample is zero the energies match identically
    (the complete family itself, or orders where the graph is complete) and
    the result is an empty list rather than a continuum.  While every sample
    is positive, the secants of neighbouring samples bound the gap from below
    on each interval between samples: if every bound is positive there is no
    root, and otherwise the intervals whose bound fails are halved and
    sampled again.  This resolves tangent roots and two roots closer together
    than any sample step, down to intervals of width tol.  Once a sample is
    zero or negative, a zero sample is a root and each strict sign change is
    bisected down to an interval of width tol.  Results are ascending.
    """
    tol = _check_tol(tol)
    n = spec.n
    touch = 1e-12 * max(1.0, 2.0 * (n - 1.0))

    def gap(a: float) -> float:
        return energy_report(spec, a).energy - complete_energy(n, a)

    return _convex_roots(gap, touch, tol)
