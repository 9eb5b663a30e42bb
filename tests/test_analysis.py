"""Tests for eigenvalue intervals, energy bounds, classification and
the borderenergetic root finder.

Observed eigenvalues and energies used as oracles come from the dense
eigensolver route (independently validated in test_linalg).  Root
anchors (3/8 for order 9, 25/57 for the order-25 complement) were
derived by hand from the linear crossing of the two energy expressions
and frozen before the finder existed.
"""

import math
import sys

import numpy as np
import pytest

import uacg.analysis
import uacg.closedform
import uacg.graphs
import uacg.linalg
from uacg.analysis import (
    _classify_all,
    _convex_roots,
    _odd_eigen_arrays,
    _refine,
    _secant_floors,
    BOUND_SLACK,
    IndexBound,
    ObservedBound,
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
    METHOD_CLOSED,
    METHOD_REGULAR,
    _route,
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

    def test_rejects_order_above_dense_limit(self, monkeypatch):
        # one IndexBound per vertex, about 200 B each: the limit is checked
        # before any interval is computed
        real = uacg.analysis._odd_eigen_arrays

        def refuse(*args):
            raise AssertionError("computed above the dense limit")

        monkeypatch.setattr(uacg.analysis, "_odd_eigen_arrays", refuse)
        for comp in (False, True):
            with pytest.raises(ValueError, match="DENSE_ORDER_LIMIT"):
                eigenvalue_intervals(GraphSpec(FAMILY_UACG, DENSE_ORDER_LIMIT + 1, comp), 0.25)
        monkeypatch.setattr(uacg.analysis, "_odd_eigen_arrays", real)
        for comp in (False, True):
            spec = GraphSpec(FAMILY_UACG, DENSE_ORDER_LIMIT - 1, comp)
            bounds = eigenvalue_intervals(spec, 0.25)
            assert [b.index for b in bounds] == list(range(1, DENSE_ORDER_LIMIT))
            assert [b.upper for b in bounds] == _odd_eigen_arrays(spec, 0.25)[1].tolist()

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
        assert set(lowers) == {"frobenius", "edge_count", "zagreb", "max_degree"}
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
        assert set(rep.energy_lowers) == {"frobenius", "edge_count", "zagreb", "max_degree"}
        assert rep.energy_observed is not None
        assert rep.energy_observed <= rep.energy_upper + BOUND_SLACK

    def test_records_are_immutable_with_fixed_fields(self):
        rep = bound_report(GraphSpec(FAMILY_UACG, 15), 0.3)
        first = rep.per_index[0]
        assert type(first) is ObservedBound
        assert first._fields == ("index", "lower", "upper", "observed", "satisfied")
        assert [b.index for b in rep.per_index] == list(range(1, 16))
        assert type(eigenvalue_intervals(GraphSpec(FAMILY_UACG, 15), 0.3)[0]) is IndexBound
        with pytest.raises(AttributeError):
            first.observed = 0.0

    def test_alpha_one_has_no_energy_section(self):
        rep = bound_report(GraphSpec(FAMILY_UACG, 9), 1.0)
        assert rep.energy_lowers is None
        assert rep.energy_upper is None
        assert rep.energy_observed is None
        assert len(rep.per_index) == 9

    def test_complement_report(self):
        rep = bound_report(GraphSpec(FAMILY_UACG, 15, complement=True), 0.25)
        assert all(b.satisfied for b in rep.per_index)

    def test_rejects_order_above_dense_limit(self, monkeypatch):
        # per_index holds n entries, so the limit is checked before any
        # interval or block is computed
        def refuse(*args):
            raise AssertionError("computed above the dense limit")

        monkeypatch.setattr(uacg.analysis, "_odd_eigen_arrays", refuse)
        monkeypatch.setattr(uacg.analysis, "_stacked_eigenvalues", refuse)
        for comp in (False, True):
            with pytest.raises(ValueError, match="DENSE_ORDER_LIMIT"):
                bound_report(GraphSpec(FAMILY_UACG, DENSE_ORDER_LIMIT + 1, comp), 0.25)

    def test_matches_the_intervals_and_the_dense_values(self):
        # Observed values are the block route's sorted expansion, exactly,
        # and agree with the dense solve to rounding.
        for n in range(3, 402, 2):
            for complement_flag in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, complement=complement_flag)
                for alpha in (0.0, 0.37, 0.9999, 1.0):
                    vals, mults = block_eigenvalues(spec, alpha)
                    observed = np.sort(np.repeat(vals, mults))[::-1]
                    want = tuple(
                        (b.index, b.lower, b.upper, float(observed[b.index - 1]),
                         b.lower - BOUND_SLACK <= observed[b.index - 1] <= b.upper + BOUND_SLACK)
                        for b in eigenvalue_intervals(spec, alpha)
                    )
                    got = bound_report(spec, alpha).per_index
                    assert [(b.index, b.lower, b.upper, b.observed, b.satisfied)
                            for b in got] == list(want)
                    assert all(type(b.satisfied) is bool and type(b.observed) is float
                               for b in got)
                    dense = observed_values(spec, alpha)
                    err = np.abs(observed - dense).max() / max(1.0, np.abs(dense).max())
                    assert err <= 1e-12, (n, complement_flag, alpha)

    def test_energy_equals_the_numeric_route(self):
        # Off the prime powers both sum multiplicity * |value - shift| over
        # the same blocks, so the energies agree bit for bit.
        for n in range(15, 402, 2):
            if prime_power(n) is not None:
                continue
            for comp in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, comp)
                for alpha in (0.0, 0.37, 0.9999):
                    got = bound_report(spec, alpha).energy_observed
                    assert got == energy_report(spec, alpha).energy, (n, comp, alpha)

    def test_builds_no_graph_and_solves_nothing_dense(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense path reached")

        dense = (uacg.graphs.build_graph, uacg.linalg.symmetric_eigenvalues)
        for name, module in list(sys.modules.items()):
            if name == "uacg" or name.startswith("uacg."):
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in dense):
                        monkeypatch.setattr(module, attr, refuse)
        for n in (105, 135):
            for comp in (False, True):
                rep = bound_report(GraphSpec(FAMILY_UACG, n, comp), 0.3)
                assert len(rep.per_index) == n
                assert all(b.satisfied for b in rep.per_index), (n, comp)

    def test_checks_each_input_once(self, monkeypatch):
        want = bound_report(GraphSpec(FAMILY_UACG, 105), 0.3)
        calls = []
        for module in (uacg.analysis, uacg.blocks):
            for name in ("_check_alpha", "_check_unit_sum", "_check_dense_order"):
                real = getattr(module, name, None)
                if real is not None:
                    monkeypatch.setattr(
                        module, name,
                        lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k),
                    )
        assert bound_report(GraphSpec(FAMILY_UACG, 105), 0.3) == want
        assert sorted(calls) == ["_check_alpha", "_check_dense_order", "_check_unit_sum"]

    def test_unsatisfied_interval_is_reported(self, monkeypatch):
        spec = GraphSpec(FAMILY_UACG, 15)
        real = uacg.analysis._stacked_eigenvalues

        def shifted(spec, alphas):
            # The fifth largest value is simple at this order; 0.15 moves it
            # past its interval's upper end but not past the fourth.
            (values,), mults = real(spec, alphas)
            fifth = np.sort(np.repeat(values, mults))[::-1][4]
            return np.where(values == fifth, values + 0.15, values)[None], mults

        monkeypatch.setattr(uacg.analysis, "_stacked_eigenvalues", shifted)
        rep = bound_report(spec, 0.3)
        assert [b.index for b in rep.per_index if not b.satisfied] == [5]


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

    @pytest.mark.parametrize("comp", [False, True])
    @pytest.mark.parametrize(
        "family, n",
        [(FAMILY_COMPLETE, 7), (FAMILY_UNITARY_CAYLEY, 30), (FAMILY_UACG, 10), (FAMILY_UACG, 27),
         (FAMILY_UACG, 125), (FAMILY_UACG, 15), (FAMILY_UACG, 105), (FAMILY_UACG, 1155)],
    )
    def test_batched_verdicts_equal_one_alpha_verdicts(self, family, n, comp):
        # every route: complete and edgeless, unitary Cayley and its
        # complement, even unit-sum, odd prime powers, the numeric route
        spec = GraphSpec(family, n, comp)
        grid = tuple(i / 20 for i in range(20)) + (0.9999,)
        for tol in (1e-6, 1e-3):
            assert _classify_all(spec, grid, tol) == [classify(spec, a, tol) for a in grid]
        assert _classify_all(spec, grid) == [classify(spec, a) for a in grid]


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

    def test_regular_route_has_no_roots(self, monkeypatch):
        # The gap there is (1 - alpha)*(E_0 - 2(n - 1)): never an isolated root.
        # Sampling it found one just under 1 on 943 of these specs, for
        # example the unit-sum graph at n = 1006.  Its candidate list is
        # empty, and the finder prices no energy for it.
        specs = [
            parse_spec_label(label, n)
            for label in ("uacg", "complement-uacg", "unitary-cayley",
                          "complement-unitary-cayley", "complete", "complement-complete")
            for n in range(2, 4097)
        ]
        specs = [spec for spec in specs if uacg.closedform._route(spec).method == METHOD_REGULAR]
        assert len(specs) == 20_476
        real, priced = uacg.analysis._route, []

        def spied(spec):
            route = real(spec)
            return route._replace(energies=lambda xs: priced.append(spec) or route.energies(xs))

        monkeypatch.setattr(uacg.analysis, "_route", spied)
        assert [spec for spec in specs if find_borderenergetic_alphas(spec)] == []
        assert priced == []

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

    @staticmethod
    def count_solves(monkeypatch):
        batches = []
        real = uacg.closedform._stacked_eigenvalues

        def counting(spec, alphas):
            batches.append(list(alphas))
            return real(spec, alphas)

        monkeypatch.setattr(uacg.closedform, "_stacked_eigenvalues", counting)
        return batches

    def test_numeric_order_needs_few_gap_evaluations(self, monkeypatch):
        # the energy floor proves n = 105 root-free without a block solve
        batches = self.count_solves(monkeypatch)
        for comp in (False, True):
            assert find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 105, comp)) == []
        assert batches == []

    @pytest.mark.parametrize("n", [15, 21])
    @pytest.mark.parametrize("comp", [False, True])
    def test_uncertified_order_falls_back_to_few_solves(self, monkeypatch, n, comp):
        batches = self.count_solves(monkeypatch)
        assert find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, n, comp)) == []
        assert 0 < sum(map(len, batches)) < 50
        assert 1 <= len(batches) <= 4


# Every odd prime power up to 4097, then primes and prime powers up to 10**9.
EXACT_ROOT_ORDERS = [q for q in range(3, 4098, 2) if prime_power(q) is not None] + [
    1_000_003, 10_000_019, 100_000_007, 999_999_937, 3**18, 5**12, 7**10
]


class TestExactPrimePowerRoots:
    """The closed-form route returns the exact root, correctly rounded,
    within 4 ulps; each formula is one int/int division."""

    @staticmethod
    def assert_one_exact_root(spec, want):
        roots = find_borderenergetic_alphas(spec)
        assert len(roots) == 1, (spec, roots, want)
        assert abs(roots[0] - want) <= 4 * math.ulp(want), (spec, roots, want)

    def test_direct_family_at_primes(self):
        primes = [p for p in EXACT_ROOT_ORDERS if p >= 7 and prime_power(p)[1] == 1]
        assert len(primes) == 565
        for p in primes:
            self.assert_one_exact_root(GraphSpec(FAMILY_UACG, p), 2 * p / (3 * p - 2))

    def test_tabulated_complement(self):
        for n in EXACT_ROOT_ORDERS:
            p, m = prime_power(n)
            q = n // p
            want = p / (2 * p + 1) if m == 1 else n * (p - 1) / (2 * p * n - 3 * p - 2 * q + 3)
            self.assert_one_exact_root(GraphSpec(FAMILY_UACG, n, complement=True), want)

    def test_candidates_are_priced_in_one_batch(self, monkeypatch):
        # Live invariant: the finder prices a route's root candidates in one
        # energies call
        batches = []
        real = uacg.analysis._route

        def spied(spec):
            route = real(spec)
            return route._replace(energies=lambda xs: batches.append(list(xs)) or route.energies(xs))

        monkeypatch.setattr(uacg.analysis, "_route", spied)
        for comp in (False, True):
            find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 27, comp))
        assert len(batches) == 2 and all(0 < len(b) <= 8 for b in batches)


def secant_floor(xs, vs, i):
    """_secant_floors for one interval, one line at a time: the reference."""
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


class TestSecantFloors:
    @pytest.mark.parametrize("size", [2, 3, 4, 17, 40])
    @pytest.mark.parametrize("shape", ["quadratic", "kink", "linear", "noise"])
    def test_equals_the_reference_bit_for_bit(self, size, shape):
        rng = np.random.default_rng(size)
        for _ in range(200):
            xs = np.sort(rng.choice(np.linspace(0.0, 1.0, 1025), size, replace=False))
            c, k = rng.random(), 10.0 ** rng.integers(-3, 4)
            vs = {
                "quadratic": k * (xs - c) ** 2,
                "kink": k * np.abs(xs - c) + 1e-12,
                "linear": k * xs + 0.1,  # parallel secants
                "noise": rng.normal(size=size),
            }[shape]
            xs, vs = xs.tolist(), vs.tolist()
            want = [secant_floor(xs, vs, i) for i in range(size - 1)]
            assert _secant_floors(xs, vs).tolist() == want, (xs, vs)


class TestConvexRoots:
    """The search on synthetic convex gaps, at touch = tol = 1e-12."""

    def roots(self, gap):
        return _convex_roots(lambda xs: [gap(a) for a in xs], 1e-12, 1e-12)

    def test_two_roots_inside_one_coarse_interval(self):
        # both roots lie in [1/4, 5/16] and every coarse sample is positive
        roots = self.roots(lambda a: 1e4 * (a - 0.3) * (a - 0.3001))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.3, abs=1e-9)
        assert roots[1] == pytest.approx(0.3001, abs=1e-9)

    def test_each_round_of_midpoints_is_one_batch(self):
        batches = []

        def gaps(alphas):
            batches.append(list(alphas))
            return [1e4 * (a - 0.3) * (a - 0.3001) for a in alphas]

        assert len(_convex_roots(gaps, 1e-12, 1e-12)) == 2
        assert batches[0] == list(uacg.analysis._COARSE_ALPHAS)
        # the first round halves both coarse intervals next to the roots
        assert batches[1] == [0.28125, 0.34375]

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
        roots = _convex_roots(lambda xs: [a - 0.3 for a in xs], 0.0, 1e-300)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize(
        "gap, tol, proven",
        [
            (lambda a: (a - 0.3) ** 2 + 1e-3, 1e-12, True),
            (lambda a: abs(a - 0.3) + 1e-3, 1e-12, True),
            (lambda a: (a - 0.3) ** 2 + 2e-12, 1e-12, True),
            (lambda a: (a - 0.3) ** 2 + 2e-12, 1e-3, False),  # stopped at width tol
            (lambda a: a - 0.3, 1e-12, False),  # a sample at or below touch
        ],
    )
    def test_refine_proves_only_a_gap_above_touch(self, gap, tol, proven):
        xs, vs, got = _refine(lambda xs: [gap(a) for a in xs], 1e-12, tol)
        assert got is proven
        assert vs == [gap(a) for a in xs]


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

    def test_batched_gap_matches_scalar_reference(self):
        # Off the closed-form route, _convex_roots fed one energy_report per
        # alpha makes the same decisions, so the roots agree bit for bit.  The
        # closed-form route solves its pieces instead of searching: the same
        # number of roots, each within 2e-9 of the search's and a zero of the
        # same gap within touch.
        specs = [
            GraphSpec(family, n, complement_flag)
            for family in (FAMILY_UACG, FAMILY_UNITARY_CAYLEY, FAMILY_COMPLETE)
            for n in range(2, 141)
            for complement_flag in (False, True)
        ]
        specs += [
            GraphSpec(FAMILY_UACG, q, complement_flag)
            for q in range(141, 260, 2)
            if prime_power(q) is not None
            for complement_flag in (False, True)
        ]
        for spec in specs:
            n = spec.n

            def scalar_gaps(alphas):
                return [energy_report(spec, a).energy - complete_energy(n, a) for a in alphas]

            touch = 1e-12 * max(1.0, 2.0 * (n - 1.0))
            want = _convex_roots(scalar_gaps, touch, 1e-12)
            got = find_borderenergetic_alphas(spec)
            if _route(spec).method != METHOD_CLOSED:
                assert got == want, spec
                continue
            assert len(got) == len(want), (spec, got, want)
            assert all(abs(g - w) <= 2e-9 for g, w in zip(got, want)), (spec, got, want)
            assert all(abs(gap) <= touch for gap in scalar_gaps(got)), (spec, got)

    def test_floor_certificate_keeps_every_root_list(self):
        # On every odd non-prime-power order the result equals the search on
        # the exact gap, whether or not the energy floor certified it.
        for n in range(15, 2002, 2):
            if prime_power(n) is not None:
                continue
            for comp in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, comp)
                energies = _route(spec).energies

                def gaps(alphas):
                    return [e - complete_energy(n, a) for e, a in zip(energies(alphas), alphas)]

                want = _convex_roots(gaps, 1e-12 * 2.0 * (n - 1.0), 1e-12)
                assert find_borderenergetic_alphas(spec) == want, spec

    def test_no_odd_non_prime_power_order_up_to_2001_has_a_root(self):
        # The census: at every odd order with two or more distinct primes,
        # both unit-sum families stay above the complete graph's energy on
        # all of [0, 1).  The block caches hold 128 orders, so most of these
        # orders' blocks and floor terms are built afresh here.
        for n in range(15, 2002, 2):
            if prime_power(n) is None:
                for comp in (False, True):
                    spec = GraphSpec(FAMILY_UACG, n, comp)
                    assert find_borderenergetic_alphas(spec) == [], spec

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
