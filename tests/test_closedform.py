"""Tests for the closed-form spectra and energies.

Oracle design: every closed-form spectrum is cross-checked against the
dense symmetric eigensolver applied to an explicitly built blended
matrix alpha*D + (1-alpha)*A.  The eigensolver itself is validated
against an independent Sturm-bisection oracle in test_linalg, so the
two routes here are genuinely independent.  Frozen numeric anchors
below (14.717, 6.472, 30.367, ...) were computed from the dense route
before the closed forms were written.
"""

import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uacg.analysis as analysis_mod
import uacg.blocks as blocks_mod
import uacg.closedform as closedform_mod
from uacg.analysis import (
    _classify_all,
    bound_report,
    classify,
    eigenvalue_intervals,
    energy_bounds,
    find_borderenergetic_alphas,
)
from uacg.blocks import block_eigenvalues
from uacg.closedform import (
    ALPHA_GRID,
    ClosedFormUnavailable,
    EnergyReport,
    METHOD_CLOSED,
    METHOD_NUMERIC,
    METHOD_REGULAR,
    _ramanujan_pairs,
    _route,
    alpha_energy_from_values,
    build_alpha_matrix,
    complement_prime_power_energy,
    complement_prime_power_spectrum,
    complement_unitary_cayley_adjacency_energy,
    complement_unitary_cayley_spectrum,
    complete_energy,
    complete_spectrum,
    energy_report,
    has_closed_spectrum,
    regular_alpha_energy,
    spectrum_for,
    uacg_prime_power_energy,
    uacg_prime_power_spectrum,
    unitary_cayley_adjacency_energy,
    unitary_cayley_spectrum,
)
from uacg.cli import FAMILY_CHOICES
from uacg.graphs import (
    FAMILIES,
    FAMILY_COMPLETE,
    FAMILY_UACG,
    FAMILY_UNITARY_CAYLEY,
    GraphSpec,
    build_graph,
    build_uacg,
    complement,
    complete,
    parse_spec_label,
)
from uacg.linalg import Spectrum, symmetric_eigenvalues
from uacg.numtheory import (
    euler_phi,
    factorize,
    largest_squarefree_divisor,
    prime_power,
    ramanujan_sum,
)

ODD_PRIME_POWERS = [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125]

# One or two specs on every route, for the batched-equals-scalar tests:
# complete, edgeless, unitary Cayley and its complement, even unit-sum, odd
# prime powers, and the numeric route at two, three and four prime factors.
GRID_SPECS = [
    GraphSpec(FAMILY_COMPLETE, 7),
    GraphSpec(FAMILY_COMPLETE, 7, complement=True),
    *(GraphSpec(FAMILY_UNITARY_CAYLEY, 30, comp) for comp in (False, True)),
    *(GraphSpec(FAMILY_UACG, 10, comp) for comp in (False, True)),
    *(GraphSpec(FAMILY_UACG, n, comp) for n in (27, 125) for comp in (False, True)),
    *(GraphSpec(FAMILY_UACG, n, comp) for n in (15, 105, 1155) for comp in (False, True)),
]
GRID = tuple(i / 20 for i in range(20)) + (0.9999,)


def dense_values(spec: GraphSpec, alpha: float) -> np.ndarray:
    """Numeric route: eigensolve the explicitly assembled matrix."""
    return symmetric_eigenvalues(build_alpha_matrix(build_graph(spec), alpha))


def even_spectrum(n: int, alpha: float, complement: bool = False):
    """The route table's closed spectrum of the unit-sum family at order n."""
    return spectrum_for(GraphSpec(FAMILY_UACG, n, complement), alpha, method="closed")[0]


def public_spectrum(spec: GraphSpec, alpha: float) -> Spectrum:
    """The public closed spectrum function that covers spec."""
    n, comp = spec.n, spec.complement
    if spec.family == FAMILY_COMPLETE:
        return Spectrum(pairs=((0.0, n),), n=n) if comp else complete_spectrum(n, alpha)
    if spec.family == FAMILY_UNITARY_CAYLEY or n % 2 == 0:
        return (complement_unitary_cayley_spectrum if comp else unitary_cayley_spectrum)(n, alpha)
    return (complement_prime_power_spectrum if comp else uacg_prime_power_spectrum)(
        *prime_power(n), alpha
    )


def dense_energy(spec: GraphSpec, alpha: float) -> float:
    g = build_graph(spec)
    vals = symmetric_eigenvalues(build_alpha_matrix(g, alpha))
    return alpha_energy_from_values(vals, g.spec.n, g.m, alpha)


class TestBuildAlphaMatrix:
    def test_alpha_zero_is_adjacency(self):
        g = build_uacg(9)
        assert np.array_equal(build_alpha_matrix(g, 0.0), g.adjacency.astype(float))

    def test_alpha_one_is_degree_diagonal(self):
        g = build_uacg(9)
        assert np.array_equal(build_alpha_matrix(g, 1.0), np.diag(g.degrees).astype(float))

    def test_alpha_half_blends(self):
        g = build_uacg(12)
        got = build_alpha_matrix(g, 0.5)
        want = 0.5 * (g.adjacency.astype(float) + np.diag(g.degrees))
        assert np.allclose(got, want, atol=0)

    def test_rejects_out_of_range_alpha(self):
        g = build_uacg(5)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="alpha must lie in"):
                build_alpha_matrix(g, bad)

    @pytest.mark.parametrize("label", ["uacg", "complement-uacg", "unitary-cayley", "complete"])
    def test_matches_the_reference_bit_for_bit(self, label):
        for n in (2, 9, 46, 201):
            g = build_graph(parse_spec_label(label, n))
            for alpha in ALPHA_GRID + (1.0,):
                want = (1.0 - alpha) * g.adjacency.astype(float)
                want[np.diag_indices(n)] = alpha * g.degrees.astype(float)
                assert np.array_equal(build_alpha_matrix(g, alpha), want), (label, n, alpha)


class TestEnergyFromValues:
    def test_uacg_order_9_adjacency_energy(self):
        spec = GraphSpec(FAMILY_UACG, 9)
        assert abs(dense_energy(spec, 0.0) - 14.717) <= 1e-3

    def test_uacg_order_9_midpoint(self):
        spec = GraphSpec(FAMILY_UACG, 9)
        assert abs(dense_energy(spec, 0.5) - 8.438) <= 1e-3

    def test_complete_order_9(self):
        spec = GraphSpec(FAMILY_COMPLETE, 9)
        assert abs(dense_energy(spec, 0.0) - 16.0) <= 1e-12

    def test_alpha_zero_reduces_to_absolute_sum(self):
        # With no degree blending the mean shift vanishes, so the energy
        # is the plain sum of absolute eigenvalues.
        g = build_uacg(9)
        vals = symmetric_eigenvalues(build_alpha_matrix(g, 0.0))
        assert alpha_energy_from_values(vals, 9, g.m, 0.0) == pytest.approx(
            float(np.abs(vals).sum()), abs=1e-12
        )

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            alpha_energy_from_values(np.array([1.0, -1.0]), 2, 1, 1.0)

    @pytest.mark.parametrize(
        "values",
        [
            [math.nan, 1.0, 2.0],
            [math.inf, 1.0, 2.0],
            ["1", "2", "3"],
            [1j, 1.0, 2.0],
            [True, False, True],
            [Fraction(1), 1.0, 2.0],
        ],
        ids=repr,
    )
    def test_rejects_values_that_are_not_finite_reals(self, values):
        with pytest.raises(ValueError, match="values must be finite real numbers"):
            alpha_energy_from_values(values, 3, 2, 0.3)

    def test_accepts_integer_values(self):
        want = alpha_energy_from_values([1.0, 2.0, 3.0], 3, 2, 0.3)
        assert alpha_energy_from_values(np.array([1, 2, 3], dtype=np.int8), 3, 2, 0.3) == want


class TestRegularShortcut:
    def test_examples(self):
        assert regular_alpha_energy(16.0, 0.0) == 16.0
        assert regular_alpha_energy(4.0, 0.5) == 2.0

    def test_matches_dense_route_on_regular_graphs(self):
        for n in (4, 8, 10, 16):
            spec = GraphSpec(FAMILY_UACG, n)
            base = dense_energy(spec, 0.0)
            for alpha in (0.0, 0.3, 0.7, 0.9999):
                assert abs(regular_alpha_energy(base, alpha) - dense_energy(spec, alpha)) <= 1e-8

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            regular_alpha_energy(10.0, 1.0)

    @pytest.mark.parametrize(
        "energy, match",
        [
            ("4", "a real number"),
            (True, "a real number"),
            (None, "a real number"),
            (4 + 0j, "a real number"),
            (math.nan, "finite and >= 0"),
            (math.inf, "finite and >= 0"),
            (-3, "finite and >= 0"),
            (-1e-300, "finite and >= 0"),
        ],
        ids=repr,
    )
    def test_rejects_an_energy_that_is_not_finite_and_nonnegative(self, energy, match):
        with pytest.raises(ValueError, match=f"adjacency_energy must be {match}"):
            regular_alpha_energy(energy, 0.5)

    @pytest.mark.parametrize("energy", [4, np.int64(4), np.float32(4.0), Fraction(4)], ids=repr)
    def test_accepts_every_real_type(self, energy):
        assert regular_alpha_energy(energy, 0.5) == 2.0


class TestPrimePowerSpectrum:
    def test_order_9_adjacency(self):
        spec = uacg_prime_power_spectrum(3, 2, 0.0)
        vals = {round(v, 4): mult for v, mult in spec.pairs}
        assert vals == {5.3589: 1, 2.0: 1, 0.0: 2, -1.0: 4, -3.3589: 1}

    def test_multiplicities_sum_to_order(self):
        for p, m in ((3, 2), (3, 3), (5, 1), (5, 2), (7, 2), (11, 1)):
            for alpha in ALPHA_GRID:
                spec = uacg_prime_power_spectrum(p, m, alpha)
                assert sum(mu for _, mu in spec.pairs) == p**m

    def test_matches_dense_route(self):
        for q in ODD_PRIME_POWERS:
            p, m = factorize(q).factors[0]
            gspec = GraphSpec(FAMILY_UACG, q)
            for alpha in ALPHA_GRID:
                closed = np.sort(uacg_prime_power_spectrum(p, m, alpha).values())
                dense = np.sort(dense_values(gspec, alpha))
                assert np.max(np.abs(closed - dense)) <= 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            uacg_prime_power_spectrum(2, 3, 0.0)
        with pytest.raises(ValueError):
            uacg_prime_power_spectrum(4, 1, 0.0)
        with pytest.raises(ValueError):
            uacg_prime_power_spectrum(3, 0, 0.0)
        with pytest.raises(ValueError):
            uacg_prime_power_spectrum(3, 2, 1.5)


class TestPrimePowerEnergy:
    def test_frozen_anchors(self):
        assert abs(uacg_prime_power_energy(3, 2, 0.0) - 14.717) <= 1e-3
        assert abs(uacg_prime_power_energy(3, 3, 0.5) - 30.367) <= 1e-3
        assert abs(uacg_prime_power_energy(5, 2, 0.9) - 10.641) <= 1e-3
        assert abs(uacg_prime_power_energy(5, 1, 0.0) - 6.472) <= 1e-3

    def test_matches_spectrum_summation(self):
        for q in ODD_PRIME_POWERS:
            p, m = factorize(q).factors[0]
            n = p**m
            edge = (n - 1) * euler_phi(n) // 2
            for alpha in ALPHA_GRID:
                vals = uacg_prime_power_spectrum(p, m, alpha).values()
                want = alpha_energy_from_values(vals, n, edge, alpha)
                assert abs(uacg_prime_power_energy(p, m, alpha) - want) <= 1e-9

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            uacg_prime_power_energy(3, 2, 1.0)


class TestEvenSpectrum:
    def test_order_4_adjacency(self):
        assert even_spectrum(4, 0.0).pairs == ((2.0, 1), (0.0, 2), (-2.0, 1))

    def test_order_4_degree_diagonal(self):
        assert even_spectrum(4, 1.0).pairs == ((2.0, 4),)

    def test_order_6_extremes(self):
        vals = even_spectrum(6, 0.0).values()
        assert vals[0] == pytest.approx(2.0, abs=1e-12)
        assert vals[-1] == pytest.approx(-2.0, abs=1e-12)

    def test_matches_dense_route(self):
        for n in (4, 6, 8, 10, 12, 30, 60):
            for alpha in (0.0, 0.3, 0.7, 0.9999, 1.0):
                closed = np.sort(even_spectrum(n, alpha).values())
                dense = np.sort(dense_values(GraphSpec(FAMILY_UACG, n), alpha))
                assert np.max(np.abs(closed - dense)) <= 1e-8

    def test_rejects_odd_order(self):
        # The even-order form does not reach odd orders: n = 15 has no closed form.
        with pytest.raises(ClosedFormUnavailable):
            even_spectrum(15, 0.0)


class TestUnitaryCayleySpectrum:
    def test_matches_dense_route_all_orders(self):
        for n in (2, 3, 4, 5, 9, 12, 15, 36):
            for alpha in (0.0, 0.5, 1.0):
                closed = np.sort(unitary_cayley_spectrum(n, alpha).values())
                dense = np.sort(dense_values(GraphSpec(FAMILY_UNITARY_CAYLEY, n), alpha))
                assert np.max(np.abs(closed - dense)) <= 1e-8

    def test_ramanujan_values_match_per_k_loop(self):
        # One ramanujan_sum per divisor d, taken phi(n/d) times, must give the
        # per-k values exactly, with k = 0 alone in the last pair.
        for n in [*range(1, 130), 1155, 4096]:
            values, counts = _ramanujan_pairs(n)
            want = sorted(ramanujan_sum(k, n) for k in range(n))
            assert sorted(np.repeat(values, counts).tolist()) == want
            assert (values[-1], counts[-1]) == (ramanujan_sum(0, n), 1)

    def test_ramanujan_pairs_match_per_divisor_reference(self):
        # Built prime by prime, the rows equal one ramanujan_sum and one
        # euler_phi per divisor exactly, from a single factorization of n.
        for n in [*range(1, 400), 15015, 60084, 99990, 255255, 4849845]:
            divisors = [1]
            for p, e in factorize(n).factors:
                divisors = [d * p**i for d in divisors for i in range(e + 1)]
            divisors.sort()
            want_values = np.array([ramanujan_sum(d % n, n) for d in divisors], dtype=float)
            want_counts = np.array([euler_phi(n // d) for d in divisors], dtype=np.int64)
            factorize.cache_clear()
            values, counts = _ramanujan_pairs(n)
            assert factorize.cache_info().misses <= 1, n
            assert values.dtype == want_values.dtype and counts.dtype == want_counts.dtype
            assert np.array_equal(values, want_values), n
            assert np.array_equal(counts, want_counts), n

    def test_adjacency_energy_closed_form(self):
        for n in (4, 6, 9, 12, 30, 105):
            distinct_primes = len(factorize(n).factors)
            want = 2 ** distinct_primes * euler_phi(n)
            assert unitary_cayley_adjacency_energy(n) == want
            vals = unitary_cayley_spectrum(n, 0.0).values()
            assert abs(np.abs(vals).sum() - want) <= 1e-8


class TestComplementPrimePowerSpectrum:
    def test_order_9_adjacency(self):
        spec = complement_prime_power_spectrum(3, 2, 0.0)
        assert spec.pairs == ((3.0, 1), (2.0, 1), (0.0, 4), (-1.0, 2), (-3.0, 1))

    def test_multiplicities_sum_to_order(self):
        for p, m in ((3, 2), (3, 3), (5, 2), (7, 1)):
            for alpha in ALPHA_GRID:
                spec = complement_prime_power_spectrum(p, m, alpha)
                assert sum(mu for _, mu in spec.pairs) == p**m

    def test_matches_dense_route(self):
        for q in ODD_PRIME_POWERS:
            p, m = factorize(q).factors[0]
            gspec = GraphSpec(FAMILY_UACG, q, complement=True)
            for alpha in ALPHA_GRID:
                closed = np.sort(complement_prime_power_spectrum(p, m, alpha).values())
                dense = np.sort(dense_values(gspec, alpha))
                assert np.max(np.abs(closed - dense)) <= 1e-8

    def test_adjacency_energy_order_25(self):
        vals = complement_prime_power_spectrum(5, 2, 0.0).values()
        assert abs(np.abs(vals).sum() - 28.0) <= 1e-6


class TestComplementPrimePowerEnergy:
    def test_frozen_anchors(self):
        assert abs(complement_prime_power_energy(3, 2, 0.0) - 10.0) <= 1e-9
        assert abs(complement_prime_power_energy(3, 2, 0.9) - 9.0) <= 1e-9

    def test_branches_are_continuous(self):
        # The two branch expressions meet at the crossover point
        # alpha* = (n - p) / (n - 1).
        for p, m in ((3, 2), (3, 3), (5, 2), (7, 1), (11, 1)):
            n = p**m
            q = n // p
            astar = (n - p) / (n - 1)
            lo = (p * n + n - 2 * p + astar * (3 - p - 2 * q)) / p
            hi = (p * n - n + astar * (1 - p - 2 * q + 2 * n)) / p
            assert abs(lo - hi) <= 1e-12
            assert abs(complement_prime_power_energy(p, m, astar) - lo) <= 1e-12

    def test_tracks_tabulated_values_not_spectrum(self):
        # Documented split: the energy expression reproduces the bundled
        # reference tables, which follow an uncorrected eigenvalue
        # family.  The spectrum routine returns the corrected family
        # (the one the eigensolver confirms), so away from alpha = 0 the
        # two must not be conflated.
        vals = complement_prime_power_spectrum(3, 2, 0.5).values()
        spectral = alpha_energy_from_values(vals, 9, 12, 0.5)
        tabulated = complement_prime_power_energy(3, 2, 0.5)
        assert abs(tabulated - 9.0) <= 1e-9
        assert abs(spectral - 6.0) <= 1e-9
        assert abs(tabulated - spectral) > 0.1

    def test_agrees_with_spectrum_at_alpha_zero(self):
        for p, m in ((3, 2), (3, 3), (5, 2), (7, 1)):
            n = p**m
            edge = complement(build_uacg(n)).m
            vals = complement_prime_power_spectrum(p, m, 0.0).values()
            want = alpha_energy_from_values(vals, n, edge, 0.0)
            assert abs(complement_prime_power_energy(p, m, 0.0) - want) <= 1e-9


class TestComplementEvenSpectrum:
    def test_order_4(self):
        assert even_spectrum(4, 0.0, complement=True).pairs == ((1.0, 2), (-1.0, 2))
        assert even_spectrum(4, 1.0, complement=True).pairs == ((1.0, 4),)

    def test_matches_dense_route(self):
        for n in (4, 6, 8, 12, 30):
            for alpha in (0.0, 0.3, 0.7, 1.0):
                closed = np.sort(even_spectrum(n, alpha, complement=True).values())
                dense = np.sort(
                    dense_values(GraphSpec(FAMILY_UACG, n, complement=True), alpha)
                )
                assert np.max(np.abs(closed - dense)) <= 1e-8


class TestComplementUnitaryCayley:
    def test_matches_dense_route(self):
        for n in (3, 4, 5, 9, 12, 15):
            for alpha in (0.0, 0.5, 1.0):
                closed = np.sort(complement_unitary_cayley_spectrum(n, alpha).values())
                dense = np.sort(
                    dense_values(GraphSpec(FAMILY_UNITARY_CAYLEY, n, complement=True), alpha)
                )
                assert np.max(np.abs(closed - dense)) <= 1e-8

    def test_adjacency_energy_closed_form(self):
        for n in (4, 6, 9, 12, 30, 105):
            k = len(factorize(n).factors)
            rad = largest_squarefree_divisor(n)
            prod = math.prod(2 - p for p, _ in factorize(n).factors)
            want = 2 * (n - 1) + (2**k - 2) * euler_phi(n) - rad + prod
            assert complement_unitary_cayley_adjacency_energy(n) == want
            g = complement(build_graph(GraphSpec(FAMILY_UNITARY_CAYLEY, n)))
            vals = symmetric_eigenvalues(g.adjacency.astype(float))
            assert abs(np.abs(vals).sum() - want) <= 1e-8


class TestCompleteGraph:
    def test_spectrum(self):
        spec = complete_spectrum(5, 0.0)
        assert spec.pairs == ((4.0, 1), (-1.0, 4))

    def test_energy(self):
        assert complete_energy(9, 0.0) == pytest.approx(16.0, abs=1e-12)
        assert complete_energy(9, 0.5) == pytest.approx(8.0, abs=1e-12)
        assert complete_energy(5, 0.9999) == pytest.approx(0.0008, abs=1e-12)

    def test_matches_dense_route(self):
        for alpha in (0.0, 0.4, 1.0):
            closed = np.sort(complete_spectrum(7, alpha).values())
            dense = np.sort(dense_values(GraphSpec(FAMILY_COMPLETE, 7), alpha))
            assert np.max(np.abs(closed - dense)) <= 1e-10


class TestDispatch:
    def test_has_closed_spectrum(self):
        assert has_closed_spectrum(GraphSpec(FAMILY_UACG, 9))
        assert has_closed_spectrum(GraphSpec(FAMILY_UACG, 10))
        assert not has_closed_spectrum(GraphSpec(FAMILY_UACG, 15))
        assert not has_closed_spectrum(GraphSpec(FAMILY_UACG, 15, complement=True))
        assert has_closed_spectrum(GraphSpec(FAMILY_UNITARY_CAYLEY, 15))
        assert has_closed_spectrum(GraphSpec(FAMILY_UNITARY_CAYLEY, 15, complement=True))
        assert has_closed_spectrum(GraphSpec(FAMILY_COMPLETE, 15))

    def test_has_closed_spectrum_matches_energy_route(self):
        for label in FAMILY_CHOICES:
            for n in range(2, 65):
                gspec = parse_spec_label(label, n)
                numeric = energy_report(gspec, 0.3).method == METHOD_NUMERIC
                assert has_closed_spectrum(gspec) == (not numeric), gspec

    def test_spectrum_for_auto_falls_back(self):
        spec, method = spectrum_for(GraphSpec(FAMILY_UACG, 15), 0.3)
        assert method == "numeric"
        dense = np.sort(dense_values(GraphSpec(FAMILY_UACG, 15), 0.3))
        assert np.allclose(np.sort(spec.values()), dense, atol=1e-9)

    def test_spectrum_for_closed_raises_when_unavailable(self):
        with pytest.raises(ClosedFormUnavailable):
            spectrum_for(GraphSpec(FAMILY_UACG, 15), 0.3, method="closed")

    def test_spectrum_for_closed_path(self):
        spec, method = spectrum_for(GraphSpec(FAMILY_UACG, 9), 0.0, method="closed")
        assert method == "closed"
        assert spec.pairs[0][0] == pytest.approx(5.3589, abs=1e-4)

    def test_spectrum_for_numeric_override(self):
        spec, method = spectrum_for(GraphSpec(FAMILY_UACG, 9), 0.0, method="numeric")
        assert method == "numeric"
        assert sum(mu for _, mu in spec.pairs) == 9

    def test_spectrum_for_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            spectrum_for(GraphSpec(FAMILY_UACG, 9), 0.0, method="magic")

    def test_numeric_spectrum_group_tol(self):
        spec, method = spectrum_for(GraphSpec(FAMILY_UACG, 9), 0.0, "numeric", group_tol=1e-6)
        assert [mu for _, mu in spec.pairs] == [1, 1, 2, 4, 1]
        assert method == "numeric"

    def test_every_route_returns_ungrouped_pairs(self):
        for spec in GRID_SPECS:
            values, counts = _route(spec)[1]((0.3,))
            assert values.dtype == float and counts.dtype.kind == "i", spec
            assert values.shape == (1, *counts.shape) and counts.ndim == 1, spec
            assert counts.min() >= 0 and counts.sum() == spec.n, spec

    def test_spectrum_for_groups_the_public_pairs_exactly(self):
        # Each formula exists once: spectrum_for groups the route's pairs as
        # the public *_spectrum function groups the same ones.
        checked = set()
        for n in range(2, 301):
            for family in FAMILIES:
                for comp in (False, True):
                    spec = GraphSpec(family, n, comp)
                    if not has_closed_spectrum(spec):
                        continue
                    for alpha in (0.0, 0.3, 0.9999, 1.0):
                        got, method = spectrum_for(spec, alpha)
                        assert method == "closed"
                        assert got == public_spectrum(spec, alpha), (spec, alpha)
                    checked.add((family, comp, n % 2 == 0))
        assert len(checked) == 12  # every family and complement at odd and even n


# One value of each type an alpha or tolerance must not be coerced from.
NOT_REAL = [True, False, np.bool_(False), "0.5", b"0.5", 0.5 + 0j, Decimal("0.5"), None, [0.5]]

# A spec on each route of the route table.
ROUTE_SPECS = {
    "edgeless": GraphSpec(FAMILY_COMPLETE, 9, complement=True),
    "complete": GraphSpec(FAMILY_COMPLETE, 9),
    "regular": GraphSpec(FAMILY_UACG, 10, complement=True),
    "closed": GraphSpec(FAMILY_UACG, 9, complement=True),
    "numeric": GraphSpec(FAMILY_UACG, 15),
}

# Every public function that takes an alpha, reached with the bad value x;
# the routed ones on every route.  The names in HALF_OPEN also reject 1.0.
ALPHA_SLOTS = {
    **{f"energy_report-{r}": lambda x, s=s: energy_report(s, x) for r, s in ROUTE_SPECS.items()},
    **{f"classify-{r}": lambda x, s=s: classify(s, x) for r, s in ROUTE_SPECS.items()},
    **{f"spectrum_for-{r}": lambda x, s=s: spectrum_for(s, x) for r, s in ROUTE_SPECS.items()},
    "spectrum_for-dense": lambda x: spectrum_for(GraphSpec(FAMILY_UACG, 15), x, "numeric"),
    "block_eigenvalues": lambda x: block_eigenvalues(GraphSpec(FAMILY_UACG, 15), x),
    "energy_bounds": lambda x: energy_bounds(GraphSpec(FAMILY_UACG, 15), x),
    "eigenvalue_intervals": lambda x: eigenvalue_intervals(GraphSpec(FAMILY_UACG, 15), x),
    "bound_report": lambda x: bound_report(GraphSpec(FAMILY_UACG, 15), x),
    "complete_energy": lambda x: complete_energy(9, x),
    "uacg_prime_power_energy": lambda x: uacg_prime_power_energy(3, 2, x),
    "complement_prime_power_energy": lambda x: complement_prime_power_energy(3, 2, x),
}
HALF_OPEN = [
    name
    for name in ALPHA_SLOTS
    if name.startswith(("energy_report", "classify", "energy_bounds")) or name.endswith("_energy")
]
BAD_ALPHAS = [float("nan"), float("inf"), -float("inf"), -0.1, -1e-300, 1.5, True, "0.5"]

# Every public function that takes a tol, on every route.
TOL_SLOTS = {
    **{f"classify-{r}": lambda x, s=s: classify(s, 0.3, x) for r, s in ROUTE_SPECS.items()},
    **{
        f"find_borderenergetic_alphas-{r}": lambda x, s=s: find_borderenergetic_alphas(s, x)
        for r, s in ROUTE_SPECS.items()
    },
}
BAD_TOLS = [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3, True, "0.5"]


class TestRealInputs:
    """An alpha or a tolerance is a real number or a ValueError, as integers
    are for _check_int: no bool, string or other type is coerced."""

    @pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
    def test_alpha_rejects_each_non_real_type(self, bad):
        spec = GraphSpec(FAMILY_UACG, 9)
        for call in (
            lambda: energy_report(spec, bad),
            lambda: spectrum_for(spec, bad),
            lambda: uacg_prime_power_spectrum(3, 2, bad),
            lambda: build_alpha_matrix(build_graph(spec), bad),
        ):
            with pytest.raises(ValueError, match="alpha must be a real number"):
                call()

    @pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
    def test_tol_rejects_each_non_real_type(self, bad):
        with pytest.raises(ValueError, match="tol must be a real number"):
            spectrum_for(GraphSpec(FAMILY_UACG, 15), 0.3, group_tol=bad)
        with pytest.raises(ValueError, match="tol must be a real number"):
            spectrum_for(GraphSpec(FAMILY_UACG, 9), 0.3, method="numeric", group_tol=bad)

    @pytest.mark.parametrize("bad", BAD_ALPHAS, ids=repr)
    @pytest.mark.parametrize("slot", ALPHA_SLOTS)
    def test_every_alpha_slot_rejects_a_bad_alpha(self, slot, bad):
        with pytest.raises(ValueError, match="alpha must"):
            ALPHA_SLOTS[slot](bad)

    @pytest.mark.parametrize("slot", HALF_OPEN)
    def test_energy_slots_reject_alpha_one(self, slot):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
            ALPHA_SLOTS[slot](1.0)

    @pytest.mark.parametrize("bad", BAD_TOLS, ids=repr)
    @pytest.mark.parametrize("slot", TOL_SLOTS)
    def test_every_tol_slot_rejects_a_bad_tol(self, slot, bad):
        with pytest.raises(ValueError, match="tol must"):
            TOL_SLOTS[slot](bad)

    @pytest.mark.parametrize("route", ROUTE_SPECS)
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.0, True])
    @pytest.mark.parametrize("where", [0, 7, 21])
    def test_a_bad_alpha_anywhere_in_a_batch_stops_it_before_any_energy(
        self, monkeypatch, route, bad, where
    ):
        # _classify_all is the batch entry of classify, sweep and check_roots;
        # it reads _route through the analysis module's binding
        real, solved = analysis_mod._route, []

        def spying(spec):
            method, spectrum, energies = real(spec)
            return method, spectrum, lambda xs: solved.append(xs) or energies(xs)

        monkeypatch.setattr(analysis_mod, "_route", spying)
        alphas = list(GRID)
        alphas.insert(where, bad)
        with pytest.raises(ValueError, match="alpha must"):
            _classify_all(ROUTE_SPECS[route], alphas)
        assert solved == []
        assert len(_classify_all(ROUTE_SPECS[route], GRID)) == len(GRID)
        assert len(solved) == 1

    @pytest.mark.parametrize(
        "alpha", [np.float64(0.5), np.float32(0.5), Fraction(1, 2), 0, np.int64(0)], ids=repr
    )
    def test_accepts_every_real_type(self, alpha):
        spec = GraphSpec(FAMILY_UACG, 9)
        assert energy_report(spec, alpha) == energy_report(spec, float(alpha))
        assert spectrum_for(spec, alpha, group_tol=alpha or 1) == spectrum_for(
            spec, float(alpha), group_tol=float(alpha or 1)
        )


class TestEnergyReport:
    def test_method_selection(self):
        assert energy_report(GraphSpec(FAMILY_UACG, 9), 0.3).method == METHOD_CLOSED
        assert energy_report(GraphSpec(FAMILY_UACG, 15), 0.3).method == METHOD_NUMERIC
        assert energy_report(GraphSpec(FAMILY_UACG, 4), 0.3).method == METHOD_REGULAR
        assert energy_report(GraphSpec(FAMILY_COMPLETE, 9), 0.3).method == METHOD_REGULAR
        assert (
            energy_report(GraphSpec(FAMILY_UNITARY_CAYLEY, 15), 0.3).method
            == METHOD_REGULAR
        )

    def test_report_fields(self):
        rep = energy_report(GraphSpec(FAMILY_UACG, 9), 0.5)
        assert rep.n == 9
        assert rep.m == 24
        assert rep.shift == pytest.approx(2 * 0.5 * 24 / 9, abs=1e-12)
        assert rep.energy == pytest.approx(8.438, abs=1e-3)

    def test_numeric_path_matches_dense(self):
        for n in (14, 15, 21, 33, 1155):
            for comp in (False, True):
                gspec = GraphSpec(FAMILY_UACG, n, complement=comp)
                rep = energy_report(gspec, 0.4)
                assert rep.energy == pytest.approx(dense_energy(gspec, 0.4), abs=1e-9)

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            energy_report(GraphSpec(FAMILY_UACG, 9), 1.0)

    def test_batched_energies_match_one_alpha_on_every_route(self):
        alphas = (0.0, 0.3, 0.7, 0.9999, 0.3)
        for family in (FAMILY_UACG, FAMILY_UNITARY_CAYLEY, FAMILY_COMPLETE):
            for n, comp in itertools.product((2, 9, 10, 15, 25, 105), (False, True)):
                gspec = GraphSpec(family, n, comp)
                want = [energy_report(gspec, alpha).energy for alpha in alphas]
                got = _route(gspec)[2](alphas)
                assert got == want, gspec
                assert all(type(e) is float for e in got), gspec

    def test_batched_spectra_match_one_alpha_on_every_route(self):
        # one spectrum call over a grid gives each alpha's own row bit for
        # bit, the sign of a zero too, and that row is the one the public
        # spectrum of that alpha groups
        alphas = (0.0, *ALPHA_GRID, 1.0 - 1e-6, 1.0)
        for family in (FAMILY_UACG, FAMILY_UNITARY_CAYLEY, FAMILY_COMPLETE):
            for n, comp in itertools.product((2, 9, 10, 15, 25, 105), (False, True)):
                gspec = GraphSpec(family, n, comp)
                spectrum = _route(gspec)[1]
                values, counts = spectrum(alphas)
                assert values.shape == (len(alphas), counts.size), gspec
                for row, alpha in zip(values, alphas):
                    (one,), one_counts = spectrum((alpha,))
                    assert one.tobytes() == row.tobytes(), (gspec, alpha)
                    assert np.array_equal(one_counts, counts), (gspec, alpha)
                    if has_closed_spectrum(gspec):
                        want = repr(public_spectrum(gspec, alpha))
                        assert repr(closedform_mod._spectrum_from_pairs(row[None], counts)) == want
                        assert repr(spectrum_for(gspec, alpha)[0]) == want, (gspec, alpha)
                    else:
                        blocks, mults = block_eigenvalues(gspec, alpha)
                        assert blocks.tobytes() == row.tobytes(), (gspec, alpha)
                        assert np.array_equal(mults, counts), (gspec, alpha)

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=str)
    def test_batched_reports_equal_one_alpha_reports(self, spec):
        # one batch priced by one energies call gives each alpha's own report
        want = [(r.alpha, r.energy) for r in (energy_report(spec, alpha) for alpha in GRID)]
        assert [(r.alpha, r.energy) for r in _classify_all(spec, GRID)] == want
        assert _classify_all(spec, ()) == []

    def test_batched_reports_reject_alpha_one(self):
        spec = GraphSpec(FAMILY_UACG, 15)
        with pytest.raises(ValueError, match="alpha must lie in") as batch:
            _classify_all(spec, (0.5, 1.0))
        energy_report(spec, 0.5)
        with pytest.raises(ValueError) as one:
            energy_report(spec, 1.0)
        assert str(batch.value) == str(one.value)

    def test_long_block_grid_holds_one_chunk_of_values(self):
        # 1,000 alphas at n = 255,255 (1,362 block values each): all of
        # them at once would be a 10.9 MB values array alone.  The energies
        # walk the grid in chunks of _BATCH_ELEMENTS // 1,362 = 96 alphas,
        # about 1 MB of values each.
        energies = _route(GraphSpec(FAMILY_UACG, 255255))[2]
        alphas = [i / 1000 for i in range(1000)]
        first = energies(alphas[:1])  # the order's cached record, outside the trace
        tracemalloc.start()
        try:
            got = energies(alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len(got) == 1000 and got[0] == first[0]

    @pytest.mark.parametrize("comp", [False, True])
    def test_closed_form_energies_check_nothing_again(self, monkeypatch, comp):
        # (p, m) comes from prime_power(n), and energy_report and
        # _classify_all have checked each alpha (TestRealInputs), so the
        # energies callable checks neither
        alphas = [i / 64 for i in range(64)]
        public = complement_prime_power_energy if comp else uacg_prime_power_energy
        want = [public(5, 3, alpha) for alpha in alphas]
        calls = []
        for name in ("_check_odd_prime_power", "_check_alpha"):
            monkeypatch.setattr(closedform_mod, name, lambda *a, name=name, **k: calls.append(name))
        assert _route(GraphSpec(FAMILY_UACG, 125, comp))[2](alphas) == want
        assert calls == []

    @pytest.mark.parametrize(
        "spec",
        [GraphSpec(FAMILY_UACG, 10), GraphSpec(FAMILY_UACG, 12, True),
         GraphSpec(FAMILY_UNITARY_CAYLEY, 15), GraphSpec(FAMILY_UNITARY_CAYLEY, 21, True)],
        ids=str,
    )
    def test_regular_energies_check_nothing_again(self, monkeypatch, spec):
        # each value is bit-identical to the public (1 - alpha) scaling
        alphas = [i / 64 for i in range(64)] + [0.1, 1.0 - 1e-9]
        base = energy_report(spec, 0.0).energy
        want = [regular_alpha_energy(base, alpha) for alpha in alphas]
        calls = []
        monkeypatch.setattr(closedform_mod, "_check_alpha", lambda *a, **k: calls.append(a))
        method, _, energies = _route(spec)
        assert method == METHOD_REGULAR
        got = energies(alphas)
        assert got == want and all(type(e) is float for e in got)
        assert calls == []

    def test_numeric_spectrum_checks_alpha_once(self, monkeypatch):
        want = spectrum_for(GraphSpec(FAMILY_UACG, 105, True), 0.3)
        calls = []
        for module in (closedform_mod, blocks_mod):
            real = module._check_alpha
            monkeypatch.setattr(
                module, "_check_alpha", lambda *a, real=real, **k: calls.append(a) or real(*a, **k)
            )
        assert spectrum_for(GraphSpec(FAMILY_UACG, 105, True), 0.3) == want
        assert len(calls) == 1

    def test_all_methods_agree_with_dense_route(self):
        # The complement's energy at odd prime-power orders follows the
        # tabulated formula, which matches its spectrum only at alpha = 0
        # (TestComplementPrimePowerEnergy); its spectrum is checked here.
        # Numeric spectra are grouped at DEFAULT_GROUP_TOL, so a merged
        # cluster's mean sits within a few multiples of it of each value.
        for label in FAMILY_CHOICES:
            for n in (2, 3, 9, 10, 15, 25, 21):
                gspec = parse_spec_label(label, n)
                odd_prime_power = n % 2 == 1 and prime_power(n) is not None
                tabulated = label == "complement-uacg" and odd_prime_power
                for alpha in (0.0, 0.3, 0.7, 0.9999):
                    spectrum, _ = spectrum_for(gspec, alpha)
                    dense = dense_values(gspec, alpha)
                    assert np.max(np.abs(spectrum.values() - dense)) <= 1e-6
                    if alpha == 0.0 or not tabulated:
                        rep = energy_report(gspec, alpha)
                        assert rep.energy == pytest.approx(dense_energy(gspec, alpha), abs=1e-8)


@given(
    n=st.integers(min_value=2, max_value=40),
    alpha_pct=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=60, deadline=None)
def test_energy_report_nonnegative_and_reproducible(n, alpha_pct):
    alpha = alpha_pct / 100.0
    gspec = GraphSpec(FAMILY_UACG, n)
    rep = energy_report(gspec, alpha)
    assert rep.energy >= 0.0
    assert rep.energy == energy_report(gspec, alpha).energy
