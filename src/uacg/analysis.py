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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blocks import _check_unit_sum, _energy_floors, _stacked_eigenvalues
from .closedform import (
    METHOD_CLOSED,
    METHOD_NUMERIC,
    METHOD_REGULAR,
    _complete_energy,
    _prime_power_root_candidates,
    _ramanujan_pairs,
    _route,
)
from .graphs import GraphSpec, _check_dense_order, edge_count
# symmetric_eigenvalues has no caller here; perfbench's tracer test looks it
# up in this namespace.
from .linalg import _check_alpha, _check_tol, symmetric_eigenvalues  # noqa: F401
from .numtheory import euler_phi, prime_power

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

# Slack used when testing whether an observed value satisfies its interval.
BOUND_SLACK = 1e-8


class IndexBound(NamedTuple):
    """Closed interval guaranteed to contain the k-th largest eigenvalue.

    index is the rank k, counted from 1 for the largest eigenvalue.
    """

    index: int
    lower: float
    upper: float


class ObservedBound(NamedTuple):
    """An IndexBound together with the numerically observed eigenvalue."""

    index: int
    lower: float
    upper: float
    observed: float
    satisfied: bool


def _odd_eigen_arrays(spec: GraphSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) ends of the rank intervals of eigenvalue_intervals, as
    arrays, for an odd unit-sum spec and an alpha in [0, 1] its caller checked.

    The circulant part has symbol (1-alpha)*[gcd(j, n) = 1], or its
    complement, whose right-circulant eigenvalues are (1-alpha)*c(k, n), or
    (1-alpha)*(n*[k = 0] - c(k, n)).  The symmetric left circulant keeps the
    k = 0 value and turns each pair k, n-k into +-|value|, so its spectrum is
    (1-alpha)*t, with t = phi(n) (n - phi(n) for the complement), plus
    +-(1-alpha)*|c(d, n)| taken phi(n/d)/2 times each for every divisor d < n.
    """
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

    One IndexBound per vertex, so ValueError above DENSE_ORDER_LIMIT, before
    anything is allocated, as for bound_report.
    """
    _check_dense_order(spec.n)
    _check_unit_sum(spec)
    lower, upper = _odd_eigen_arrays(spec, _check_alpha(alpha, allow_one=True))
    return tuple(map(IndexBound._make, zip(range(1, spec.n + 1), lower.tolist(), upper.tolist())))


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
    _check_unit_sum(spec)
    return _energy_bounds(spec, _check_alpha(alpha, allow_one=False))


def _energy_bounds(spec: GraphSpec, alpha: float) -> tuple[dict[str, float], float]:
    """energy_bounds for an odd unit-sum spec and an alpha in [0, 1) its
    caller checked."""
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

    per_index pairs every rank interval with the block eigensolver's
    eigenvalue of that rank and whether it satisfies the interval within
    BOUND_SLACK; verify holds both to dense solves.  Energy fields are None
    at alpha = 1 where the energy is undefined.
    """

    spec: GraphSpec
    alpha: float
    per_index: tuple[ObservedBound, ...]
    energy_lowers: dict[str, float] | None
    energy_upper: float | None
    energy_observed: float | None


def bound_report(spec: GraphSpec, alpha: float) -> BoundReport:
    """Evaluate all bounds for an odd unit-sum spec against its block spectrum,
    up to DENSE_ORDER_LIMIT since per_index holds n entries."""
    _check_dense_order(spec.n)
    _check_unit_sum(spec)
    alpha = _check_alpha(alpha, allow_one=True)
    lower, upper = _odd_eigen_arrays(spec, alpha)
    (values,), mults = _stacked_eigenvalues(spec, (alpha,))
    observed = np.sort(np.repeat(values, mults))[::-1]
    satisfied = (lower - BOUND_SLACK <= observed) & (observed <= upper + BOUND_SLACK)
    columns = (lower.tolist(), upper.tolist(), observed.tolist(), satisfied.tolist())
    per_index = tuple(map(ObservedBound._make, zip(range(1, spec.n + 1), *columns)))
    if alpha < 1.0:
        lowers, upper = _energy_bounds(spec, alpha)
        energy = float(mults @ np.abs(values - 2.0 * alpha * edge_count(spec) / spec.n))
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
    hyperenergetic; anything else is neither.  This is _classify_all for one
    alpha, so tol is checked before alpha.
    """
    return _classify_all(spec, (alpha,), tol)[0]


def _classify_all(
    spec: GraphSpec, alphas: Sequence[float], tol: float = 1e-6
) -> list[ClassificationReport]:
    """classify for each of alphas, in order: tol and then each alpha are
    checked once, and only then is the batch priced, by one call of
    _route(spec)'s energies; each report equals the one for its alpha alone."""
    tol = _check_tol(tol)
    alphas = [_check_alpha(a, allow_one=False) for a in alphas]
    out = []
    for alpha, energy in zip(alphas, _route(spec)[2](alphas)):
        reference = _complete_energy(spec.n, alpha)
        diff = energy - reference
        verdict = (
            VERDICT_BORDER if abs(diff) <= tol else VERDICT_HYPER if diff > tol else VERDICT_NEITHER
        )
        meets = energy >= reference - tol
        out.append(ClassificationReport(spec, alpha, energy, reference, verdict, tol, meets))
    return out


# ---------------------------------------------------------------------------
# Roots of energy(alpha) = 2*(1-alpha)*(n-1).

# Coarse samples of the gap: the sixteenths of [0, 1) plus a point just under
# 1, where the energy is still defined.
_COARSE_ALPHAS = tuple(i / 16 for i in range(16)) + (1.0 - 1e-9,)


def _secant_floors(xs: list[float], vs: list[float]) -> np.ndarray:
    """Lower bound of a convex function on each [xs[i], xs[i+1]] from its samples.

    A convex function lies above each secant extended past its ends, so on
    an interval it lies above the secant of the interval to its left and
    the secant of the interval to its right.  The larger of those two lines
    is least at an end of the interval or where the lines cross.  A missing
    neighbour is a nan line, which fmax and fmin pass over; an interval with
    neither neighbour gets -inf.
    """
    x, v = np.array(xs), np.array(vs)
    slope = np.diff(v) / np.diff(x)
    k = len(slope)
    lines = np.full((3, 2, k), np.nan)  # (x0, v0, slope) of the left and the right line
    lines[:, 0, 1:] = x[: k - 1], v[: k - 1], slope[: k - 1]
    lines[:, 1, :-1] = x[1:k], v[1:k], slope[1:k]
    (xa, xb), (va, vb), (sa, sb) = lines
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel lines do not cross
        cross = np.minimum(np.maximum((vb - va + sa * xa - sb * xb) / (sa - sb), x[:-1]), x[1:])
    points = np.stack((x[:-1], x[1:], cross))[:, None]
    heights = np.fmax.reduce(lines[1] + lines[2] * (points - lines[0]), axis=1)
    floors = np.fmin.reduce(heights, axis=0)
    return np.where(np.isnan(floors), -np.inf, floors)


def _bisect(
    gaps: Callable[[Sequence[float]], list[float]], pos: float, neg: float, touch: float, tol: float
) -> float:
    """Root between pos (gap > touch) and neg (gap < -touch), to width tol."""
    while abs(neg - pos) > tol:
        mid = 0.5 * (pos + neg)
        if mid in (pos, neg):  # tol is below the float spacing here
            break
        (val,) = gaps((mid,))
        if abs(val) <= touch:
            return mid
        if val > 0.0:
            pos = mid
        else:
            neg = mid
    return 0.5 * (pos + neg)


def _refine(
    gaps: Callable[[Sequence[float]], list[float]], touch: float, tol: float
) -> tuple[list[float], list[float], bool]:
    """(alphas, gaps, proven): samples of a convex gap on [0, 1), ascending.

    gaps is called once for the coarse samples and once per round with all
    of its midpoints.  While every sample is above touch, each interval
    whose secant floor (_secant_floors) is at or below touch and wider than
    tol is halved.  Stops once a sample is at or below touch, or when no
    interval is left to halve; proven says that every secant floor is then
    above touch, so the gap is above touch on all of [0, 1).
    """
    samples = dict(zip(_COARSE_ALPHAS, gaps(_COARSE_ALPHAS)))
    while True:
        xs = sorted(samples)
        vs = [samples[a] for a in xs]
        if min(vs) <= touch:
            return xs, vs, False
        dips = np.flatnonzero(_secant_floors(xs, vs) <= touch).tolist()
        mids = [0.5 * (xs[i] + xs[i + 1]) for i in dips if xs[i + 1] - xs[i] > tol]
        mids = [a for a in mids if a not in samples]
        if not mids:
            return xs, vs, not dips
        samples.update(zip(mids, gaps(mids)))


def _convex_roots(
    gaps: Callable[[Sequence[float]], list[float]], touch: float, tol: float
) -> list[float]:
    """Roots in [0, 1) of a convex gap, ascending; see find_borderenergetic_alphas.

    gaps evaluates the gap on a batch of alphas: the samples of _refine,
    then one alpha per bisection step.  A value within touch of zero counts
    as zero, and roots are bracketed to width tol.
    """
    xs, vs, _ = _refine(gaps, touch, tol)
    if min(vs) > touch or all(abs(v) <= touch for v in vs):
        return []
    # The samples at or below touch form one run; a root closes each end.
    low = [i for i, v in enumerate(vs) if v <= touch]
    roots = set()
    for k, outside in ((low[0], low[0] - 1), (low[-1], low[-1] + 1)):
        if vs[k] >= -touch:
            roots.add(xs[k])
        elif 0 <= outside < len(xs):
            roots.add(_bisect(gaps, xs[outside], xs[k], touch, tol))
    return sorted(roots)


def find_borderenergetic_alphas(spec: GraphSpec, tol: float = 1e-12) -> list[float]:
    """All alpha in [0, 1) where the graph's energy equals the complete graph's.

    The alpha energy is the trace norm of A_alpha - (2*alpha*m/n)*I, a matrix
    affine in alpha, so it is convex in alpha; the complete graph's energy is
    linear, so the gap between them is convex.  A convex gap has at most two
    roots, or vanishes on a whole interval.  The gap counts as zero within
    machine scale, touch = 1e-12 times the complete graph's energy at
    alpha = 0, and is priced on the route that energy_report takes, so each
    energy equals energy_report's for that alpha.  Results are ascending.

    On the closed-form route (odd prime powers) the roots are solved, not
    searched for: closedform._prime_power_root_candidates solves the linear
    or quadratic equation of each piece of the gap exactly, and the
    candidates at which the gap, priced in one batch, is within touch are
    the roots, a candidate within tol of the one kept before it merged into
    it.  They are the exact roots correctly rounded (2p/(3p - 2) for the
    direct family at primes p >= 7), so tables 2 and 3 equal their bundled
    fixtures to all 12 printed decimals.

    On the numeric route the gap is searched.  It is sampled at the
    sixteenths of [0, 1) and just under 1, in one batch, one stacked block
    solve.  If every sample is zero the energies match identically and the
    result is an empty list rather than a continuum.  While every sample
    is positive, the secants of neighbouring samples bound the gap from below
    on each interval between samples: if every bound is positive there is no
    root, and otherwise the intervals whose bound fails are halved and
    sampled again, each round one more batch.  This resolves tangent roots
    and two roots closer together than any sample step, down to intervals of
    width tol.  Once a sample is zero or negative, a zero sample is a root
    and each strict sign change is bisected down to an interval of width
    tol.

    That search first runs, with no eigensolve, on the gap of a convex
    lower bound of the energy (blocks._energy_floors), lowered by a
    relative 1e-9.  Against exact floors (rational terms,
    square roots to 50 digits) at alpha = i/40, i < 40, and 1 - 2**-10,
    the float floor is off by at most 1.0e-12 relative at the odd
    non-prime-power orders up to 2001, 2.1e-12 at 255,255 and 4.6e-10 at
    111,546,435 (the complement at alpha = 0.975).  Nearly all of it comes
    from the width-1 terms, which keep the numeric route's rounding; the
    wider blocks' terms are within 1e-15.  So the margin covers the worst
    case about twice, not many times over.  If that search proves the gap
    above touch on all of [0, 1), so is the true gap and the result is [];
    otherwise the search on the gap itself runs.  The roots are the same
    either way.

    On the regular-shortcut route the gap is (1 - alpha)*(E_0 - 2*(n - 1)),
    with E_0 the adjacency energy: zero on all of [0, 1) or nowhere, so the
    result is [].
    """
    tol = _check_tol(tol)
    n = spec.n
    touch = 1e-12 * max(1.0, 2.0 * (n - 1.0))
    method, _, energies = _route(spec)
    if method == METHOD_REGULAR:
        return []

    def gap_of(energies: Callable[[Sequence[float]], list[float]]) -> Callable:
        return lambda alphas: [e - _complete_energy(n, a) for e, a in zip(energies(alphas), alphas)]

    if method == METHOD_CLOSED:
        alphas = _prime_power_root_candidates(*prime_power(n), spec.complement)
        roots: list[float] = []
        for alpha, gap in zip(alphas, gap_of(energies)(alphas)):
            if abs(gap) <= touch and not (roots and alpha - roots[-1] <= tol):
                roots.append(alpha)
        return roots
    floors = gap_of(lambda xs: (_energy_floors(spec, xs) * (1.0 - 1e-9)).tolist())
    if _refine(floors, touch, tol)[2]:
        return []
    return _convex_roots(gap_of(energies), touch, tol)
