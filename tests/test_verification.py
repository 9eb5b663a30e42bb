"""Tests for the verification suites.

Each check compares two independent computation routes, so a correct
library must pass every suite.  Expected case counts are asserted
alongside pass flags to guard against checks that silently iterate
over nothing.
"""

import math
import weakref
from collections import Counter

import numpy as np
import pytest

import uacg.closedform as closedform_mod
import uacg.graphs as graphs_mod
import uacg.linalg as linalg_mod
import uacg.verification as verification_mod
from uacg.blocks import block_eigenvalues
from uacg.closedform import ALPHA_GRID, build_alpha_matrix
from uacg.graphs import DENSE_ORDER_LIMIT, FAMILY_UACG, GraphSpec, build_graph, complement
from uacg.linalg import (
    _BATCH_ELEMENTS,
    _SPLIT_MIN_ENTRIES,
    _alpha_eigenvalues,
    _generators,
    _invariant_split,
    _split,
)
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
        rows = [(0.0, 1, ("a", 0)), (2.0, 1, ("b", 2)), (2.0, 3, ("c", 3)), (1.0, 1, ("d", 4))]
        result = verification_mod._worst("x", 1.0, rows, ("at", "k"))
        assert result == CheckResult("x", False, 2.0, 6, "at=b k=2")

    def test_no_location_while_every_residual_is_zero(self):
        rows = [(0.0, 2, ("a",)), (0.0, 1, ("b",))]
        result = verification_mod._worst("x", 0.0, rows, ("at",))
        assert result == CheckResult("x", True, 0.0, 3, "")

    @pytest.mark.parametrize("before", [[], [(1e-12, 1, ("b", 1))], [(2.0, 1, ("b", 1))]])
    def test_a_nan_residual_is_the_worst_and_fails(self, before):
        rows = [*before, (math.nan, 1, ("a", 0)), (1e-12, 1, ("c", 2)), (math.nan, 1, ("d", 3))]
        result = verification_mod._worst("x", 1e-8, rows, ("at", "k"))
        assert result.passed is False
        assert math.isnan(result.worst)
        assert (result.cases, result.detail) == (len(rows), "at=a k=0")

    def test_an_infinite_residual_fails(self):
        rows = [(1e-12, 1, ("a", 0)), (math.inf, 2, ("b", 1))]
        result = verification_mod._worst("x", 1e-8, rows, ("at", "k"))
        assert result == CheckResult("x", False, math.inf, 3, "at=b k=1")

    def test_a_graph_row_keeps_the_first_nan_or_largest(self):
        alphas = (0.0, 0.5, 1.0, 0.25)
        row = verification_mod._row(np.array([1.0, 3.0, 3.0, 2.0]), 5, (9, True), alphas)
        assert row == (3.0, 20, (9, True, 0.5))
        row = verification_mod._row(np.array([1.0, 3.0, np.nan, np.nan]), 1, (9,), alphas)
        assert math.isnan(row[0]) and row[1:] == (4, (9, 1.0))


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

    def test_energy_sandwich_holds_the_block_floor(self, monkeypatch):
        # at prime orders the floor is the energy, so lifting it fails the check
        real = verification_mod._energy_floors
        monkeypatch.setattr(
            verification_mod, "_energy_floors", lambda spec, alphas: real(spec, alphas) + 1e-6
        )
        res = check_energy_sandwich(21)
        assert res.cases == 10 * 2 * 4
        assert not res.passed

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

    def test_block_route_solves_each_spec_once(self, monkeypatch):
        # One stacked block solve per spec; its rows are bit-identical to
        # one solve per alpha, so the result is too.
        real, calls = verification_mod._stacked_eigenvalues, []

        def counting(spec, alphas):
            calls.append(spec)
            return real(spec, alphas)

        def one_at_a_time(spec, alphas):
            rows = [block_eigenvalues(spec, alpha) for alpha in alphas]
            return np.stack([vals for vals, _ in rows]), rows[0][1]

        monkeypatch.setattr(verification_mod, "_stacked_eigenvalues", counting)
        got = check_block_route(27)
        assert len(calls) == len(set(calls)) == 13 * 2
        monkeypatch.setattr(verification_mod, "_stacked_eigenvalues", one_at_a_time)
        assert check_block_route(27) == got

    def test_block_route_compares_closed_forms(self, monkeypatch):
        # On odd prime powers the blocks are also held to the closed forms,
        # which come from the route table's ungrouped pairs: perturbed pairs
        # must make the check fail, and move the public spectrum with them.
        real = closedform_mod._uacg_prime_power_pairs

        def shifted(p, m, alpha):
            values, counts = real(p, m, alpha)
            return values + 1e-6, counts

        before = closedform_mod.uacg_prime_power_spectrum(3, 2, 0.3)
        monkeypatch.setattr(closedform_mod, "_uacg_prime_power_pairs", shifted)
        res = check_block_route(9, alphas=(0.3,))
        assert not res.passed
        assert res.worst == pytest.approx(1e-6, rel=1e-3)
        assert res.detail == "n=9 complement=False alpha=0.3"
        after = closedform_mod.uacg_prime_power_spectrum(3, 2, 0.3)
        assert [v for v, _ in after.pairs] == pytest.approx([v + 1e-6 for v, _ in before.pairs])

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


def perturb_seam(monkeypatch, order, perturb, families=(False, True)):
    """Replace the dense oracle seam so that the rows of the given order are
    perturbed, for the families (complement flags) named."""
    real = verification_mod._alpha_eigenvalues

    def perturbed(graphs, alphas, flags):
        for rows in real(graphs, alphas, flags):
            if rows.shape[-1] == order:
                per_flag = rows.reshape(len(flags), -1, order)
                for k, flag in enumerate(flags):
                    if flag in families:
                        per_flag[k] = perturb(per_flag[k])
            yield rows

    monkeypatch.setattr(verification_mod, "_alpha_eigenvalues", perturbed)


def results_of(check, nmax):
    results = check(nmax)
    return results if isinstance(results, list) else [results]


# The complement flags whose dense rows a check reads, where not both.
READS = {check_regular_shortcut: (False,), check_complement_even_energy: (True,)}


class TestPerturbedEigensolver:
    @pytest.mark.parametrize(
        "check, order, perturb", PERTURBATIONS, ids=[c.__name__ for c, _, _ in PERTURBATIONS]
    )
    def test_check_fails_at_the_perturbed_order(self, monkeypatch, check, order, perturb):
        perturb_seam(monkeypatch, order, perturb)
        for res in results_of(check, 15):
            assert res.passed is False
            assert res.detail.split()[0] == f"n={order}"

    COMPLEMENT_ONLY = [p for p in PERTURBATIONS if True in READS.get(p[0], (False, True))]

    @pytest.mark.parametrize(
        "check, order, perturb", COMPLEMENT_ONLY, ids=[c.__name__ for c, _, _ in COMPLEMENT_ONLY]
    )
    def test_a_complement_only_fault_is_found_on_the_complement(
        self, monkeypatch, check, order, perturb
    ):
        perturb_seam(monkeypatch, order, perturb, families=(True,))
        for res in results_of(check, 15):
            assert res.passed is False
            words = res.detail.split()
            assert words[0] == f"n={order}"
            # the even complement energy check is keyed by n alone
            assert check is check_complement_even_energy or words[1] == "complement=True"

    # (check, order, families): a NaN in the rows of families a check reads
    NAN_CASES = [
        (check, order, families)
        for check, order, _ in PERTURBATIONS
        for families in [(False, True), (False,), (True,)]
        if set(families) & set(READS.get(check, (False, True)))
    ]

    @pytest.mark.parametrize(
        "check, order, families",
        NAN_CASES,
        ids=[f"{c.__name__}-{'-'.join(map(str, f))}" for c, _, f in NAN_CASES],
    )
    def test_a_nan_eigenvalue_fails_at_its_order(self, monkeypatch, check, order, families):
        def one_nan(rows):
            rows = rows.copy()
            rows[-1, order // 2] = math.nan  # one value of the last alpha's row
            return rows

        perturb_seam(monkeypatch, order, one_nan, families)
        for res in results_of(check, 15):
            assert res.passed is False and math.isnan(res.worst), res
            assert res.detail.split()[0] == f"n={order}", res


def drop_j(block, split):
    """The complement's trivial block without its J term."""
    reps, elems, _, _, root, (row, _, _), _, index = split
    ys = index[row : row + reps.size]
    return block - elems.size * np.outer(root[ys], root[ys]).ravel()


def raise_last_entry(block, split):
    """The complement's trivial block, its last diagonal entry off by 1e-6."""
    block = block.copy()
    block[-1] += 1e-6
    return block


class TestComplementTrivialBlock:
    """Every order's complement solves one block of its own, the trivial
    character's (the whole matrix at an unsplit order), and reflects every
    other value from the graph's blocks: a fault in that block fails the
    checks on the complement family alone."""

    @pytest.mark.parametrize("fault", [drop_j, raise_last_entry])
    def test_a_fault_fails_on_the_complement_only(self, monkeypatch, fault):
        clean = list(verification_mod._dense(range(2, 32), ALPHA_GRID))
        real = linalg_mod._complement_trivial

        def faulty_block(flat, split):
            return fault(real(flat, split), split)

        monkeypatch.setattr(linalg_mod, "_complement_trivial", faulty_block)
        faulty = list(verification_mod._dense(range(2, 32), ALPHA_GRID))
        for (spec, *_, want), (_, *_, got) in zip(clean, faulty):
            # the graph's rows do not move; the complement's move at every
            # order, split (n >= 24 at eleven alphas) or not
            assert np.array_equal(got, want) == (not spec.complement), spec
        for res in [*check_spectral_identities(31), check_prime_power_spectra(31)]:
            assert res.passed is False, res
            assert res.detail.split()[1] == "complement=True", res


def flipped_complement(orders, i, j):
    """complement, with the symmetric pair (i, j) flipped at the given orders."""

    def broken(g):
        h = complement(g)
        if g.n not in orders:
            return h
        a = h.adjacency.copy()
        a[i, j] = a[j, i] = 1 - a[i, j]
        return graphs_mod._finish(h.spec, a)

    return broken


def matrix_complement_identity(nmax, alphas, rtol=1e-8, complement=complement):
    """check_complement_identity as one n x n sum of the two alpha matrices
    per (n, alpha), compared entry by entry with its target."""
    rows = []
    for n in range(2, nmax + 1):
        g = build_graph(GraphSpec(family=FAMILY_UACG, n=n))
        h = complement(g)
        for alpha in alphas:
            total = build_alpha_matrix(g, alpha)
            total += build_alpha_matrix(h, alpha)
            on = float(np.max(np.abs(total.diagonal() - alpha * (n - 1.0))))
            np.fill_diagonal(total, 1.0 - alpha)
            total -= 1.0 - alpha
            off = float(np.max(np.abs(total, out=total)))
            scale = 1.0 + max(alpha * (n - 1.0), 1.0 - alpha)
            rows.append((max(on, off) / scale, 1, (n, alpha)))
    return verification_mod._worst("complement matrix identity", rtol, rows, ("n", "alpha"))


class TestComplementIdentity:
    """check_complement_identity reads each order's two adjacencies once, as
    the distinct pairs of their off-diagonal entries."""

    def test_equals_the_full_matrix_comparison(self):
        assert check_complement_identity(61) == matrix_complement_identity(61, ALPHA_GRID)

    # at n = 7, 0 is adjacent to every other vertex (the pair becomes
    # (1, 1)), and 1 + 6 = 7 is no unit (the pair becomes (0, 0))
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 6)])
    def test_a_flipped_pair_fails_at_its_order(self, monkeypatch, i, j):
        broken = flipped_complement({7}, i, j)
        monkeypatch.setattr(verification_mod, "complement", broken)
        res = check_complement_identity(15)
        assert res.passed is False
        assert res.detail == "n=7 alpha=0.0"
        assert res.worst == 0.5  # |1 - 0| off the diagonal, over 1 + max(0, 1)
        assert res == matrix_complement_identity(15, ALPHA_GRID, complement=broken)

    def test_equals_the_full_matrix_comparison_when_broken(self, monkeypatch):
        broken = flipped_complement({10, 20, 30, 40}, 1, 2)
        monkeypatch.setattr(verification_mod, "complement", broken)
        alphas = (0.0, 0.25, 0.9999, 1.0)
        got = check_complement_identity(40, alphas)
        assert not got.passed
        assert got == matrix_complement_identity(40, alphas, complement=broken)

    def test_rejects_a_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha must lie in"):
            check_complement_identity(9, alphas=(1.5,))


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


def full_solve(graphs, alphas, flags=(False,)):
    """For each (adjacency, degrees) pair, one np.linalg.eigvalsh per alpha
    matrix, as built by build_alpha_matrix, of the graph (a false flag) or
    its complement (a true one), flag by flag."""
    for adjacency, degrees in graphs:
        n, rows = len(degrees), []
        for flag in flags:
            a, d = (1 - np.eye(n, dtype=int) - adjacency, n - 1 - degrees) if flag else (adjacency, degrees)
            rows += [np.linalg.eigvalsh((1.0 - x) * a + np.diag(x * d))[::-1] for x in alphas]
        yield np.stack(rows)


# The tolerance keyword of each check that is not called tol.
TOLERANCE_NAMES = {
    check_spectral_identities: "rtol",
    check_complement_identity: "rtol",
    check_interval_containment: "slack",
    check_energy_sandwich: "slack",
}


class TestCheckInputs:
    """Every public check validates nmax and its tolerance where it is
    entered, before any graph is built."""

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.__name__ for c in ALL_CHECKS])
    @pytest.mark.parametrize(
        "nmax, match",
        [
            (True, "integer"),
            (15.5, "integer"),
            ("15", "integer"),
            (2, ">= 3"),
            (DENSE_ORDER_LIMIT + 1, "dense limit"),
        ],
    )
    def test_rejects_a_bad_nmax(self, monkeypatch, check, nmax, match):
        def fail(*args, **kwargs):
            raise AssertionError("the check started work")

        # every check reaches one of these before its first result
        monkeypatch.setattr(verification_mod, "build_graph", fail)
        monkeypatch.setattr(verification_mod, "prime_power", fail)
        with pytest.raises(ValueError, match=match):
            check(nmax)

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.__name__ for c in ALL_CHECKS])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-8])
    def test_rejects_a_bad_tolerance(self, check, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            check(15, **{TOLERANCE_NAMES.get(check, "tol"): bad})

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.__name__ for c in ALL_CHECKS])
    @pytest.mark.parametrize("bad", ["1e-8", True, None, 1e-8 + 0j], ids=repr)
    def test_rejects_a_non_real_tolerance(self, check, bad):
        with pytest.raises(ValueError, match="tol must be a real number"):
            check(15, **{TOLERANCE_NAMES.get(check, "tol"): bad})

    def test_accepts_a_numpy_integer_nmax(self):
        assert check_block_route(np.int64(9), alphas=(0.3,)).cases == 4 * 2


def one_graph(adjacency, degrees, alphas, flags=(False,)):
    """The rows of one graph through the batched seam."""
    (rows,) = _alpha_eigenvalues([(adjacency, degrees)], alphas, flags)
    return rows


class TestStackedDenseSolves:
    def test_rows_and_order_match_one_solve_per_alpha(self, monkeypatch):
        real, calls = np.linalg.eigvalsh, []

        def spy(a):
            calls.append((a.shape, a.dtype))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        ns = (5, 60, 199)
        rows = list(verification_mod._dense(ns, ALPHA_GRID))
        monkeypatch.setattr(np.linalg, "eigvalsh", real)
        assert [spec for spec, *_ in rows] == [
            GraphSpec(FAMILY_UACG, n, flag) for n in ns for flag in (False, True)
        ]
        for spec, _, _, vals in rows:
            assert vals.shape == (len(ALPHA_GRID), spec.n)
            base = build_graph(GraphSpec(FAMILY_UACG, spec.n))
            entries = spec.n * spec.n
            for alpha, row in zip(ALPHA_GRID, vals):
                if (entries >= _SPLIT_MIN_ENTRIES) == (
                    len(ALPHA_GRID) * entries >= _SPLIT_MIN_ENTRIES
                ):
                    # one alpha of one family alone is split as the pair of
                    # families at eleven alphas is, through the same seam
                    alone = one_graph(base.adjacency, base.degrees, (alpha,), (spec.complement,))
                    assert np.array_equal(row[None], alone), (spec, alpha)
                (full,) = full_solve([(base.adjacency, base.degrees)], (alpha,), (spec.complement,))
                assert np.max(np.abs(row - full[0])) <= 1e-12 * max(1.0, np.max(np.abs(full)))
        # Each (width, dtype) takes one eigvalsh: n = 5 one real stack of its
        # 2 x 11 full matrices; n = 60 (blocks at most 12 wide) and 199 (at
        # most 2) their groups' complex blocks at eleven alphas, the
        # complement adding its trivial block alone, as wide as its orbits.
        want = Counter({(5, np.dtype(float)): 22})
        for n in (60, 199):
            g = build_graph(GraphSpec(FAMILY_UACG, n))
            split = _invariant_split(g.adjacency, len(ALPHA_GRID), g.degrees)
            for w, count, _ in split[-2]:
                want[w, np.dtype(complex)] += count * len(ALPHA_GRID) * (w > 2)
            want[len(split[0]), np.dtype(complex)] += len(ALPHA_GRID) * (len(split[0]) > 2)
        assert all(len(shape) == 3 and shape[1] == shape[2] for shape, _ in calls)
        assert Counter({(shape[-1], dtype): shape[0] for shape, dtype in calls}) == +want
        assert len(calls) == len(+want)
        assert max(shape[-1] for shape, dtype in calls if dtype == complex) == 12
        assert all(math.prod(shape) <= _BATCH_ELEMENTS for shape, _ in calls)

    def test_checks_match_one_matrix_at_a_time(self, monkeypatch):
        split = [check(61) for check in ALL_CHECKS]
        monkeypatch.setattr(verification_mod, "_alpha_eigenvalues", full_solve)
        full = [check(61) for check in ALL_CHECKS]
        for got, want in zip(split, full):
            for a, b in zip(*(r if isinstance(r, list) else [r] for r in (got, want))):
                assert (a.name, a.passed, a.cases) == (b.name, b.passed, b.cases)
                assert abs(a.worst - b.worst) <= 1e-9, (a, b)


class TestOneBuildPerOrder:
    @pytest.mark.parametrize("flags", [(False, True), (False,), (True,)])
    def test_dense_graphs_equal_build_graph(self, monkeypatch, flags):
        built = []

        def counting(spec):
            built.append(spec)
            return build_graph(spec)

        monkeypatch.setattr(verification_mod, "build_graph", counting)
        monkeypatch.setattr(verification_mod, "complement", None)  # never taken
        rows = list(verification_mod._dense(range(2, 40), (0.3,), flags))
        assert built == [GraphSpec(FAMILY_UACG, n) for n in range(2, 40)]
        assert [spec for spec, *_ in rows] == [
            GraphSpec(FAMILY_UACG, n, flag) for n in range(2, 40) for flag in flags
        ]
        for spec, m, degrees, vals in rows:
            want = build_graph(spec)
            assert m == want.m and type(m) is int, spec
            assert degrees.dtype == want.degrees.dtype, spec
            assert np.array_equal(degrees, want.degrees), spec
            assert vals.shape == (1, spec.n)

    def test_no_adjacency_outlives_its_fold(self, monkeypatch):
        refs = []

        def building(spec):
            g = build_graph(spec)
            refs.append(weakref.ref(g.adjacency))
            return g

        monkeypatch.setattr(verification_mod, "build_graph", building)
        # at each yielded row, no adjacency built so far is alive
        alive = [sum(ref() is not None for ref in refs) for _ in verification_mod._dense(range(2, 80), ALPHA_GRID)]
        assert len(refs) == 78 and alive == [0] * (2 * 78)

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=[c.__name__ for c in ALL_CHECKS])
    def test_a_second_call_does_the_same_work(self, monkeypatch, check):
        # nothing (graph, fold or eigenvalues) is kept from one call to the
        # next; the graphs the seam takes are counted as it takes them
        counts = {"build_graph": 0, "_alpha_eigenvalues": 0, "graphs": 0}
        real_build, real_seam = verification_mod.build_graph, verification_mod._alpha_eigenvalues

        def building(spec):
            counts["build_graph"] += 1
            return real_build(spec)

        def seam(graphs, *args):
            counts["_alpha_eigenvalues"] += 1

            def taken():
                for graph in graphs:
                    counts["graphs"] += 1
                    yield graph

            return real_seam(taken(), *args)

        monkeypatch.setattr(verification_mod, "build_graph", building)
        monkeypatch.setattr(verification_mod, "_alpha_eigenvalues", seam)
        first = check(25)
        calls = dict(counts)
        assert check(25) == first
        assert {name: 2 * k for name, k in calls.items()} == counts
        # one base graph per order each check walks, and every order a
        # check solves goes through one seam call
        assert calls["build_graph"] == BUILDS_AT_25.get(check, 0)
        solves = check in BUILDS_AT_25 and check is not check_complement_identity
        assert calls["_alpha_eigenvalues"] == int(solves)
        assert calls["graphs"] == (calls["build_graph"] if solves else 0)


# Orders each check walks at nmax = 25: 10 odd prime powers, 12 even orders,
# 12 odd orders, or 24 orders 2..25.
BUILDS_AT_25 = {
    check_prime_power_spectra: 10,
    check_even_spectra: 12,
    check_block_route: 12,
    check_spectral_identities: 24,
    check_complement_identity: 24,
    check_regular_shortcut: 12,
    check_complement_even_energy: 12,
    check_interval_containment: 12,
    check_energy_sandwich: 12,
}


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

    @pytest.mark.parametrize("nmax", [50.0, True, "50"])
    def test_rejects_a_non_integer_nmax_before_any_check(self, monkeypatch, nmax):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verification_mod, "check_prime_power_spectra", fail)
        monkeypatch.setattr(verification_mod, "check_interval_containment", fail)
        for scope in SCOPES:
            with pytest.raises(ValueError, match="nmax must be an integer"):
                run_suite(scope, nmax)

    def test_accepts_a_numpy_integer_nmax(self):
        assert len(run_suite("bounds", np.int64(9))) == 2

    def test_second_pass_has_no_layout_cache_misses(self):
        # The dense oracle's layout caches hold every order one pass walks.
        run_suite("all", 201)
        before = _split.cache_info().misses, _generators.cache_info().misses
        run_suite("all", 201)
        assert (_split.cache_info().misses, _generators.cache_info().misses) == before
