"""Tests for eigenvalue intervals, energy bounds, classification and
the borderenergetic root finder.

Observed eigenvalues and energies used as oracles come from the dense
eigensolver route (independently validated in test_linalg).  Root
anchors (3/8 for order 9, 25/57 for the order-25 complement) were
derived by hand from the linear crossing of the two energy expressions
and frozen before the finder existed.
"""

import math

import numpy as np
import pytest

import uacg.analysis
from uacg.analysis import (
    _convex_roots,
    _odd_eigen_arrays,
    BOUND_SLACK,
    ENERGY_BOUND_NAMES,
    IndexBound,
    VERDICT_BORDER,
    VERDICT_HYPER,
    VERDICT_NEITHER,
    bound_report,
    classify,
    eigenvalue_intervals,
    energy_bounds,
    find_borderenergetic_alphas,
)
from uacg.blocks import block_eigenvalues
from uacg.closedform import (
    alpha_energy_from_values,
    build_alpha_matrix,
    complete_energy,
    energy_report,
    spectrum_for,
)
from uacg.graphs import (
    DENSE_ORDER_LIMIT,
    FAMILY_COMPLETE,
    FAMILY_UACG,
    FAMILY_UNITARY_CAYLEY,
    GraphSpec,
    build_graph,
    edge_count,
    parse_spec_label,
)
from uacg.linalg import left_circulant_eigenvalues, symmetric_eigenvalues
from uacg.numtheory import euler_phi, prime_power, ramanujan_sum


def observed_values(spec: GraphSpec, alpha: float) -> np.ndarray:
    return symmetric_eigenvalues(build_alpha_matrix(build_graph(spec), alpha))


class TestEigenvalueIntervals:
    def test_order_9_adjacency_extremes(self):
        bounds = eigenvalue_intervals(GraphSpec(FAMILY_UACG, 9), 0.0)
        assert bounds[0].index == 1 and bounds[-1].index == 9
        assert (bounds[0].lower, bounds[0].upper) == (5.0, 6.0)
        assert (bounds[-1].lower, bounds[-1].upper) == (-4.0, -3.0)
        vals = observed_values(GraphSpec(FAMILY_UACG, 9), 0.0)
        assert bounds[0].lower <= vals[0] <= bounds[0].upper
        assert bounds[-1].lower <= vals[-1] <= bounds[-1].upper

    def test_unit_interval_width(self):
        for n in (9, 15, 45):
            for alpha in (0.0, 0.5, 1.0):
                for b in eigenvalue_intervals(GraphSpec(FAMILY_UACG, n), alpha):
                    assert b.upper - b.lower == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_pins_degrees(self):
        # At full degree weighting every interval is [phi-1, phi].
        from uacg.numtheory import euler_phi

        for n in (9, 15, 25):
            phi = euler_phi(n)
            for b in eigenvalue_intervals(GraphSpec(FAMILY_UACG, n), 1.0):
                assert b.lower == pytest.approx(phi - 1.0, abs=1e-12)
                assert b.upper == pytest.approx(phi, abs=1e-12)

    def test_complement_order_9(self):
        bounds = eigenvalue_intervals(GraphSpec(FAMILY_UACG, 9, complement=True), 0.0)
        assert (bounds[0].lower, bounds[0].upper) == (2.0, 3.0)
        assert (bounds[-1].lower, bounds[-1].upper) == (-4.0, -3.0)
        vals = observed_values(GraphSpec(FAMILY_UACG, 9, complement=True), 0.0)
        # The top observed value sits exactly on the upper endpoint.
        assert vals[0] == pytest.approx(3.0, abs=1e-9)
        assert vals[-1] == pytest.approx(-3.0, abs=1e-9)

    def test_containment_order_15(self):
        for comp in (False, True):
            spec = GraphSpec(FAMILY_UACG, 15, complement=comp)
            bounds = eigenvalue_intervals(spec, 0.5)
            vals = observed_values(spec, 0.5)
            assert len(bounds) == 15
            for b, v in zip(bounds, vals):
                assert b.lower - BOUND_SLACK <= v <= b.upper + BOUND_SLACK

    def test_indices_run_from_one(self):
        bounds = eigenvalue_intervals(GraphSpec(FAMILY_UACG, 9), 0.3)
        assert [b.index for b in bounds] == list(range(1, 10))

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            eigenvalue_intervals(GraphSpec(FAMILY_UACG, 10), 0.0)
        with pytest.raises(ValueError):
            eigenvalue_intervals(GraphSpec(FAMILY_UACG, 10, complement=True), 0.0)

    def test_rejects_non_uacg_family(self):
        with pytest.raises(ValueError):
            eigenvalue_intervals(GraphSpec(FAMILY_UNITARY_CAYLEY, 9), 0.0)
        with pytest.raises(ValueError):
            eigenvalue_intervals(GraphSpec(FAMILY_COMPLETE, 9), 0.0)

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            eigenvalue_intervals(GraphSpec(FAMILY_UACG, 9), -0.2)

    def test_matches_scalar_reference_bit_for_bit(self):
        # A per-rank reference from integer Ramanujan sums: the circulant
        # spectrum is (1-alpha)*t plus +-(1-alpha)*|c(k, n)| for
        # k = 1..(n-1)/2, with t = phi(n), or n - phi(n) for the complement.
        for n in range(3, 130, 2):
            phi = euler_phi(n)
            for comp in (False, True):
                t = n - phi if comp else phi
                for alpha in (0.0, 0.3, 0.5, 0.9999, 1.0):
                    beta = [(1.0 - alpha) * t]
                    for k in range(1, (n - 1) // 2 + 1):
                        mag = (1.0 - alpha) * abs(ramanujan_sum(k, n))
                        beta += [mag, -mag]
                    beta.sort(reverse=True)
                    want = tuple(
                        IndexBound(k + 1, b + alpha * t - 1.0, b + alpha * t)
                        for k, b in enumerate(beta)
                    )
                    spec = GraphSpec(FAMILY_UACG, n, comp)
                    assert eigenvalue_intervals(spec, alpha) == want
                    lower, upper = _odd_eigen_arrays(spec, alpha)
                    assert lower.tolist() == [b.lower for b in want]
                    assert upper.tolist() == [b.upper for b in want]
                    # The same centres through the FFT of the circulant symbol.
                    symbol = np.array(
                        [(1.0 - alpha) if (math.gcd(j, n) == 1) != comp else 0.0 for j in range(n)]
                    )
                    fft = left_circulant_eigenvalues(symbol) + alpha * t
                    assert np.all(np.abs(upper - fft) <= 1e-12 * (1.0 + np.abs(fft)))

    def test_beyond_dense_limit(self):
        # Block-route eigenvalues stand in for the dense solver above its
        # limit: containment and the energy sandwich at orders dense cannot
        # build, including 15015 = 3*5*7*11*13 and 255255 = 15015*17.
        for n in (DENSE_ORDER_LIMIT + 1, 15015, 255255):
            for comp in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, complement=comp)
                for alpha in (0.0, 0.3, 0.9999, 1.0):
                    vals, mults = block_eigenvalues(spec, alpha)
                    observed = np.sort(np.repeat(vals, mults))[::-1]
                    lower, upper = _odd_eigen_arrays(spec, alpha)
                    assert np.all(lower - BOUND_SLACK <= observed), (n, comp, alpha)
                    assert np.all(observed <= upper + BOUND_SLACK), (n, comp, alpha)
                    if alpha == 1.0:
                        continue
                    energy = alpha_energy_from_values(observed, n, edge_count(spec), alpha)
                    lowers, upper_energy = energy_bounds(spec, alpha)
                    for name, lo in lowers.items():
                        assert lo <= energy + BOUND_SLACK, (n, comp, alpha, name)
                    assert energy <= upper_energy + BOUND_SLACK, (n, comp, alpha)


class TestEnergyBounds:
    def test_order_9_examples(self):
        lowers, upper = energy_bounds(GraphSpec(FAMILY_UACG, 9), 0.0)
        assert set(lowers) == set(ENERGY_BOUND_NAMES)
        assert lowers["edge_count"] == pytest.approx(32.0 / 3.0, abs=1e-9)
        assert lowers["frobenius"] == pytest.approx(math.sqrt(96.0), abs=1e-9)
        assert upper == pytest.approx(math.sqrt(432.0), abs=1e-9)

    def test_complement_order_9_examples(self):
        lowers, upper = energy_bounds(GraphSpec(FAMILY_UACG, 9, complement=True), 0.0)
        assert lowers["edge_count"] == pytest.approx(16.0 / 3.0, abs=1e-9)
        assert upper == pytest.approx(math.sqrt(216.0), abs=1e-9)

    def test_complement_order_25_sandwich(self):
        spec = GraphSpec(FAMILY_UACG, 25, complement=True)
        lowers, upper = energy_bounds(spec, 0.0)
        g = build_graph(spec)
        energy = alpha_energy_from_values(observed_values(spec, 0.0), 25, g.m, 0.0)
        assert energy == pytest.approx(28.0, abs=1e-6)
        assert lowers["edge_count"] == pytest.approx(9.6, abs=1e-9)
        for name, lo in lowers.items():
            assert lo <= energy + BOUND_SLACK, name
        assert energy <= upper + BOUND_SLACK

    def test_sandwich_holds_across_orders(self):
        # The bounds hold for the spectral energy of the built matrix,
        # so the observed side must come from the dense route.
        for n in range(3, 62, 2):
            for comp in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, complement=comp)
                g = build_graph(spec)
                for alpha in (0.0, 0.25, 0.5, 0.75):
                    lowers, upper = energy_bounds(spec, alpha)
                    vals = observed_values(spec, alpha)
                    energy = alpha_energy_from_values(vals, n, g.m, alpha)
                    for name, lo in lowers.items():
                        assert lo <= energy + BOUND_SLACK, (n, comp, alpha, name)
                    assert energy <= upper + BOUND_SLACK, (n, comp, alpha)

    def test_rejects_even_order(self):
        with pytest.raises(ValueError):
            energy_bounds(GraphSpec(FAMILY_UACG, 10), 0.0)
        with pytest.raises(ValueError):
            energy_bounds(GraphSpec(FAMILY_UACG, 10, complement=True), 0.0)

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            energy_bounds(GraphSpec(FAMILY_UACG, 9), 1.0)


class TestBoundReport:
    def test_structure_and_satisfaction(self):
        rep = bound_report(GraphSpec(FAMILY_UACG, 9), 0.5)
        assert len(rep.per_index) == 9
        assert all(b.satisfied for b in rep.per_index)
        assert all(b.lower - BOUND_SLACK <= b.observed <= b.upper + BOUND_SLACK
                   for b in rep.per_index)
        assert set(rep.energy_lowers) == set(ENERGY_BOUND_NAMES)
        assert rep.energy_observed is not None
        assert rep.energy_observed <= rep.energy_upper + BOUND_SLACK

    def test_alpha_one_has_no_energy_section(self):
        rep = bound_report(GraphSpec(FAMILY_UACG, 9), 1.0)
        assert rep.energy_lowers is None
        assert rep.energy_upper is None
        assert rep.energy_observed is None
        assert len(rep.per_index) == 9

    def test_complement_report(self):
        rep = bound_report(GraphSpec(FAMILY_UACG, 15, complement=True), 0.25)
        assert all(b.satisfied for b in rep.per_index)

    def test_rejects_order_above_dense_limit(self):
        with pytest.raises(ValueError, match="DENSE_ORDER_LIMIT"):
            bound_report(GraphSpec(FAMILY_UACG, DENSE_ORDER_LIMIT + 1), 0.25)


class TestClassify:
    def test_border_point_order_9(self):
        rep = classify(GraphSpec(FAMILY_UACG, 9), 0.375)
        assert rep.verdict == VERDICT_BORDER
        assert rep.energy == pytest.approx(rep.complete_energy, abs=1e-6)
        assert rep.complete_energy == pytest.approx(complete_energy(9, 0.375), abs=1e-12)
        assert rep.meets_hyper_inequality

    def test_hyperenergetic_order_25(self):
        rep = classify(GraphSpec(FAMILY_UACG, 25), 0.0)
        assert rep.verdict == VERDICT_HYPER
        assert rep.energy > rep.complete_energy
        assert rep.meets_hyper_inequality

    def test_neither_order_9_adjacency(self):
        rep = classify(GraphSpec(FAMILY_UACG, 9), 0.0)
        assert rep.verdict == VERDICT_NEITHER
        assert not rep.meets_hyper_inequality
        assert rep.energy == pytest.approx(14.7178, abs=1e-3)
        assert rep.complete_energy == pytest.approx(16.0, abs=1e-12)

    def test_tolerance_recorded(self):
        rep = classify(GraphSpec(FAMILY_UACG, 9), 0.0, tol=1e-3)
        assert rep.tolerance == 1e-3

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify(GraphSpec(FAMILY_UACG, 9), 0.0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # a NaN tolerance used to fall through every comparison to "neither"
        with pytest.raises(ValueError):
            classify(GraphSpec(FAMILY_UACG, 15), 0.3, tol=tol)

    def test_complete_graph_is_always_borderenergetic(self):
        rep = classify(GraphSpec(FAMILY_COMPLETE, 9), 0.4)
        assert rep.verdict == VERDICT_BORDER


class TestEdgelessSpecs:
    @pytest.mark.parametrize(
        "label, n",
        [("complement-complete", 5), ("complement-uacg", 2), ("complement-unitary-cayley", 2)],
    )
    def test_energy_spectrum_verdict_and_roots(self, label, n):
        spec = parse_spec_label(label, n)
        for alpha in (0.0, 0.3, 0.7):
            assert energy_report(spec, alpha).energy == 0.0
            spectrum, _ = spectrum_for(spec, alpha)
            assert spectrum.pairs == ((0.0, n),)
            assert spectrum == spectrum_for(spec, alpha, method="numeric")[0]
            assert classify(spec, alpha).verdict == VERDICT_NEITHER
        assert find_borderenergetic_alphas(spec) == []


class TestRootFinder:
    def test_order_9_single_root(self):
        roots = find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 9))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.375, abs=1e-9)

    def test_order_25_complement_root(self):
        roots = find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 25, complement=True))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(25.0 / 57.0, abs=1e-9)

    def test_even_order_has_no_root(self):
        assert find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 4)) == []

    def test_complete_graph_identically_zero_gap(self):
        assert find_borderenergetic_alphas(GraphSpec(FAMILY_COMPLETE, 7)) == []

    def test_order_two(self):
        assert find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 2)) == []

    def test_roots_classify_as_borderenergetic(self):
        for spec in (
            GraphSpec(FAMILY_UACG, 9),
            GraphSpec(FAMILY_UACG, 27),
            GraphSpec(FAMILY_UACG, 5),
            GraphSpec(FAMILY_UACG, 9, complement=True),
            GraphSpec(FAMILY_UACG, 25, complement=True),
        ):
            roots = find_borderenergetic_alphas(spec)
            assert roots == sorted(roots)
            for a in roots:
                rep = classify(spec, a, tol=1e-6)
                assert rep.verdict == VERDICT_BORDER
                assert abs(rep.energy - rep.complete_energy) <= 1e-8

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 9), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # an infinite tolerance used to stop bisection at once, far from the root
        with pytest.raises(ValueError):
            find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 27), tol=tol)

    def test_numeric_order_needs_few_gap_evaluations(self, monkeypatch):
        calls = []
        real = uacg.analysis.energy_report

        def counting(spec, alpha):
            calls.append(alpha)
            return real(spec, alpha)

        monkeypatch.setattr(uacg.analysis, "energy_report", counting)
        assert find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 105)) == []
        assert 0 < len(calls) < 50


class TestConvexRoots:
    """The search on synthetic convex gaps, at touch = tol = 1e-12."""

    def roots(self, gap):
        return _convex_roots(gap, 1e-12, 1e-12)

    def test_two_roots_inside_one_coarse_interval(self):
        # both roots lie in [1/4, 5/16] and every coarse sample is positive
        roots = self.roots(lambda a: 1e4 * (a - 0.3) * (a - 0.3001))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.3, abs=1e-9)
        assert roots[1] == pytest.approx(0.3001, abs=1e-9)

    def test_tangent_root(self):
        # |gap| <= touch only within 1e-6 of the root
        roots = self.roots(lambda a: (a - 0.3) ** 2)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.3, abs=1e-6)

    def test_identically_zero_gap(self):
        assert self.roots(lambda a: 0.0) == []
        assert self.roots(lambda a: 1e-13 * a) == []

    def test_minimum_just_above_touch(self):
        assert self.roots(lambda a: (a - 0.3) ** 2 + 2e-12) == []

    def test_kinked_minimum_is_certified_from_the_coarse_samples(self):
        calls = []

        def gap(a):
            calls.append(a)
            return abs(a - 0.3) + 2e-12

        assert self.roots(gap) == []
        assert len(calls) == 17

    def test_root_at_zero(self):
        roots = self.roots(lambda a: a * (a - 0.3))
        assert roots[0] == 0.0
        assert roots[1] == pytest.approx(0.3, abs=1e-9)
        assert len(roots) == 2

    def test_root_below_zero_is_not_reported(self):
        roots = self.roots(lambda a: (a + 0.1) * (a - 0.3))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.3, abs=1e-9)

    def test_tolerance_below_float_spacing_terminates(self):
        roots = _convex_roots(lambda a: a - 0.3, 0.0, 1e-300)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.3, abs=1e-15)


# A plain scan of the gap on a 0.001 grid plus bisection of each sign change,
# kept here as a reference that shares no code with the convex search.
def scan_roots(spec: GraphSpec, tol: float = 1e-12) -> list[float]:
    n = spec.n
    touch = 1e-12 * max(1.0, 2.0 * (n - 1.0))

    def gap(a):
        return energy_report(spec, a).energy - complete_energy(n, a)

    grid = [i / 1000 for i in range(1000)] + [1.0 - 1e-9]
    vals = [gap(a) for a in grid]
    if all(abs(v) <= touch for v in vals):
        return []
    roots = [a for a, v in zip(grid, vals) if abs(v) <= touch]
    for lo, hi, lo_val, hi_val in zip(grid, grid[1:], vals, vals[1:]):
        if abs(lo_val) <= touch or abs(hi_val) <= touch or (lo_val > 0) == (hi_val > 0):
            continue
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            mid_val = gap(mid)
            if abs(mid_val) <= touch:
                lo = hi = mid
            elif (mid_val > 0) == (lo_val > 0):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    return [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-6]


class TestRootFinderCrossCheck:
    def test_matches_plain_scan(self):
        orders = sorted(
            set(range(3, 46, 2)) | {q for q in range(3, 244, 2) if prime_power(q) is not None}
        )
        for n in orders:
            for complement_flag in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, complement=complement_flag)
                got = find_borderenergetic_alphas(spec)
                want = scan_roots(spec)
                assert len(got) == len(want) <= 2, (spec, got, want)
                assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want)), (spec, got, want)

    @pytest.mark.parametrize(
        "spec",
        [
            GraphSpec(FAMILY_UACG, 45),  # numeric
            GraphSpec(FAMILY_UACG, 27),  # closed form
            GraphSpec(FAMILY_UACG, 25, complement=True),  # tabulated, piecewise linear
            GraphSpec(FAMILY_UNITARY_CAYLEY, 12),  # regular shortcut
        ],
        ids=lambda spec: f"{spec.label()}-{spec.n}",
    )
    def test_gap_is_convex(self, spec):
        # the search relies on convexity of the gap in alpha
        alphas = [i / 201 for i in range(201)]
        gap = np.array(
            [energy_report(spec, a).energy - complete_energy(spec.n, a) for a in alphas]
        )
        assert np.diff(gap, 2).min() >= -1e-10
