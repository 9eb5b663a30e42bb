"""Tests for the verification suites.

Each check compares two independent computation routes, so a correct
library must pass every suite.  Expected case counts are asserted
alongside pass flags to guard against checks that silently iterate
over nothing.
"""

import numpy as np
import pytest

import uacg.closedform as closedform_mod
import uacg.verification as verification_mod
from uacg.closedform import ALPHA_GRID
from uacg.graphs import FAMILY_UACG, GraphSpec
from uacg.linalg import _BATCH_ELEMENTS, Spectrum, symmetric_eigenvalues
from uacg.verification import (
    CheckResult,
    SCOPES,
    check_block_route,
    check_complement_even_energy,
    check_complement_identity,
    check_energy_consistency,
    check_energy_sandwich,
    check_even_spectra,
    check_interval_containment,
    check_prime_power_spectra,
    check_regular_shortcut,
    check_roots,
    check_spectral_identities,
    odd_prime_powers,
    run_suite,
)


class TestOddPrimePowers:
    def test_small_list(self):
        assert odd_prime_powers(30) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]

    def test_excludes_evens_and_composites(self):
        values = odd_prime_powers(200)
        assert 2 not in values and 4 not in values
        assert 15 not in values and 45 not in values
        assert 121 in values and 125 in values and 169 in values


class TestWorstReducer:
    def test_keeps_first_location_of_largest_residual(self):
        rows = [(0.0, 1, "a"), (2.0, 1, "b"), (2.0, 3, "c"), (1.0, 1, "d")]
        assert verification_mod._worst("x", 1.0, rows) == CheckResult("x", False, 2.0, 6, "b")

    def test_no_location_while_every_residual_is_zero(self):
        rows = [(0.0, 2, "a"), (0.0, 1, "b")]
        assert verification_mod._worst("x", 0.0, rows) == CheckResult("x", True, 0.0, 3, "")


class TestIndividualChecks:
    def test_prime_power_spectra_counts_and_passes(self):
        res = check_prime_power_spectra(27, alphas=(0.0, 0.5))
        # 11 odd prime powers up to 27, 2 families, 2 alphas.
        assert res.cases == 11 * 2 * 2
        assert res.passed
        assert res.worst <= 1e-8

    def test_even_spectra(self):
        res = check_even_spectra(40)
        assert res.cases == 20 * 2 * 3
        assert res.passed

    def test_spectral_identities(self):
        trace, moment = check_spectral_identities(41, alphas=(0.0, 0.5))
        assert trace.name == "trace identity"
        assert moment.name == "second-moment identity"
        # orders 2..41, uacg + complement, 2 alphas.
        assert trace.cases == 40 * 2 * 2
        assert trace.passed and moment.passed

    def test_complement_identity(self):
        res = check_complement_identity(41, alphas=(0.0, 0.5))
        assert res.cases == 40 * 2
        assert res.passed

    def test_energy_consistency(self):
        direct, tabulated = check_energy_consistency(27, alphas=(0.0, 0.3))
        assert direct.passed and tabulated.passed
        assert direct.cases == 11 * 2
        assert tabulated.cases == 11 * 2

    def test_interval_containment(self):
        res = check_interval_containment(21, alphas=(0.0, 1.0))
        # sum of odd orders 3..21 times 2 families times 2 alphas.
        assert res.cases == sum(range(3, 22, 2)) * 2 * 2
        assert res.passed

    def test_energy_sandwich(self):
        res = check_energy_sandwich(21)
        assert res.cases == 10 * 2 * 4
        assert res.passed

    def test_roots(self):
        res = check_roots(27)
        assert res.passed
        assert res.cases >= 9  # at least one root per odd prime power family

    def test_block_route(self):
        res = check_block_route(27, alphas=(0.0, 0.5))
        # odd orders 3..27, 2 families, 2 alphas.
        assert res.cases == 13 * 2 * 2
        assert res.passed
        assert res.worst <= 1e-9

    def test_block_route_compares_closed_forms(self, monkeypatch):
        # On odd prime powers the blocks are also held to the closed forms,
        # which come from the route table: a perturbed closed form must make
        # the check fail.
        real = closedform_mod.uacg_prime_power_spectrum

        def shifted(p, m, alpha):
            s = real(p, m, alpha)
            return Spectrum(pairs=tuple((v + 1e-6, k) for v, k in s.pairs), n=s.n)

        monkeypatch.setattr(closedform_mod, "uacg_prime_power_spectrum", shifted)
        res = check_block_route(9, alphas=(0.3,))
        assert not res.passed
        assert res.worst == pytest.approx(1e-6, rel=1e-3)
        assert "complement=False" in res.detail

    def test_tightened_tolerance_can_fail(self):
        # With an absurdly small tolerance the comparison must report
        # failure rather than silently passing; guards the plumbing.
        res = check_prime_power_spectra(27, alphas=(0.5,), tol=1e-18)
        assert isinstance(res, CheckResult)
        assert not res.passed


# One perturbation of the dense eigenvalues at one order per check, each
# past that check's tolerance on any correct spectrum:
#  - a 1e-6 shift against the 1e-8 and 1e-9 spectrum tolerances;
#  - a 1e-3 shift moves the trace by 7e-3 at n = 7, alpha = 0 (target 0), and
#    the second moment by 7e-6 there, against 1 + 2m <= 43 at rtol 1e-8;
#  - scaling by 1 + 1e-6 scales a nonzero adjacency energy (n = 6, alpha = 0);
#  - a shift of 2 leaves every unit-wide rank interval;
#  - a shift of 1e6 lifts the energy of order 9 above its upper bound.
PERTURBATIONS = [
    (check_prime_power_spectra, 9, lambda v: v + 1e-6),
    (check_even_spectra, 6, lambda v: v + 1e-6),
    (check_block_route, 15, lambda v: v + 1e-6),
    (check_spectral_identities, 7, lambda v: v + 1e-3),
    (check_regular_shortcut, 6, lambda v: v * (1.0 + 1e-6)),
    (check_complement_even_energy, 6, lambda v: v * (1.0 + 1e-6)),
    (check_interval_containment, 9, lambda v: v + 2.0),
    (check_energy_sandwich, 9, lambda v: v + 1e6),
]


class TestPerturbedEigensolver:
    @pytest.mark.parametrize(
        "check, order, perturb", PERTURBATIONS, ids=[c.__name__ for c, _, _ in PERTURBATIONS]
    )
    def test_check_fails_at_the_perturbed_order(self, monkeypatch, check, order, perturb):
        real = verification_mod.symmetric_eigenvalues

        def perturbed(a):
            vals = real(a)
            return perturb(vals) if vals.shape[-1] == order else vals

        monkeypatch.setattr(verification_mod, "symmetric_eigenvalues", perturbed)
        results = check(15)
        for res in results if isinstance(results, list) else [results]:
            assert res.passed is False
            assert res.detail.split()[0] == f"n={order}"


ALL_CHECKS = [
    check_prime_power_spectra,
    check_even_spectra,
    check_block_route,
    check_spectral_identities,
    check_complement_identity,
    check_energy_consistency,
    check_regular_shortcut,
    check_complement_even_energy,
    check_interval_containment,
    check_energy_sandwich,
    check_roots,
]


class TestStackedDenseSolves:
    def test_rows_and_order_match_one_solve_per_alpha(self, monkeypatch):
        real, shapes = verification_mod.symmetric_eigenvalues, []

        def spy(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(verification_mod, "symmetric_eigenvalues", spy)
        ns = (5, 60, 201)
        rows = list(verification_mod._dense(ns, ALPHA_GRID))
        want = [
            (GraphSpec(FAMILY_UACG, n, flag), alpha)
            for n in ns
            for flag in (False, True)
            for alpha in ALPHA_GRID
        ]
        assert [(spec, alpha) for spec, _, alpha, _ in rows] == want
        for spec, g, alpha, vals in rows:
            assert g.spec == spec
            want_vals = symmetric_eigenvalues(closedform_mod.build_alpha_matrix(g, alpha))
            assert np.array_equal(vals, want_vals), (spec, alpha)
        # n = 5 and 60 take all eleven alphas in one stack; n = 201 is cut
        # into stacks of at most _BATCH_ELEMENTS entries.
        step = _BATCH_ELEMENTS // 201**2
        chunks = [min(step, len(ALPHA_GRID) - i) for i in range(0, len(ALPHA_GRID), step)]
        assert len(chunks) > 1
        assert shapes == [(11, 5, 5)] * 2 + [(11, 60, 60)] * 2 + [(k, 201, 201) for k in chunks] * 2

    def test_checks_match_one_matrix_at_a_time(self, monkeypatch):
        stacked = [check(61) for check in ALL_CHECKS]
        real = verification_mod.symmetric_eigenvalues

        def one_at_a_time(a):
            return np.stack([real(m) for m in a]) if a.ndim == 3 else real(a)

        monkeypatch.setattr(verification_mod, "symmetric_eigenvalues", one_at_a_time)
        assert [check(61) for check in ALL_CHECKS] == stacked


class TestRunSuite:
    def test_closedform_scope(self):
        results = run_suite("closedform", 25)
        assert len(results) == 10
        assert all(r.passed for r in results)
        names = [r.name for r in results]
        assert "prime-power spectra vs eigensolver" in names
        assert "complement matrix identity" in names
        assert "block route vs eigensolver and closed forms" in names

    def test_bounds_scope(self):
        results = run_suite("bounds", 15)
        assert len(results) == 2
        assert all(r.passed for r in results)

    def test_all_scope_adds_roots(self):
        results = run_suite("all", 15)
        names = [r.name for r in results]
        assert len(results) == 13
        assert any("root" in name for name in names)
        assert all(r.passed for r in results)

    def test_scope_names_exported(self):
        assert SCOPES == ("closedform", "bounds", "all")

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError):
            run_suite("everything", 20)

    def test_rejects_tiny_nmax(self):
        with pytest.raises(ValueError):
            run_suite("all", 2)
