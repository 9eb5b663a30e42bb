"""Tests for the exact block eigensolver on odd orders.

Small orders are compared with the dense eigensolver by
verification.check_block_route; here the orders are ones the dense
oracle cannot reach, so the blocks are held to identities that need no
n x n matrix: the multiplicities count every vertex, and the trace and
second moment of A_alpha follow from the edge count and degrees.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

import uacg.analysis as analysis_mod
import uacg.blocks as blocks_mod
import uacg.closedform as closedform_mod
import uacg.graphs as graphs_mod
from uacg.analysis import _COARSE_ALPHAS, _classify_all, find_borderenergetic_alphas
from uacg.blocks import (
    _BATCH_ELEMENTS,
    _energy_floors,
    _record,
    _stacked_eigenvalues,
    block_eigenvalues,
    unit_sum_blocks,
)
from uacg.closedform import _route, energy_report, spectrum_for
from uacg.graphs import (
    DENSE_ORDER_LIMIT,
    FAMILY_UACG,
    FAMILY_UNITARY_CAYLEY,
    GraphSpec,
    edge_count,
)
from uacg.numtheory import euler_phi, factorize, prime_power
from uacg.verification import check_block_route

LARGE_ORDERS = (1155, 15015, 255255)
ALPHAS = (0.0, 0.3, 0.7, 0.9999)


def _reference_factor_types(p, e):
    """Every (L, P, J) type of Z_{p**e}, the four scalar types as 1x1 arrays."""
    q = p ** (e - 1)
    r = math.sqrt(p - 1.0)
    pair = (
        q * np.array([[0.0, r], [r, p - 2.0]]),
        np.diag([0.0, 1.0]),
        q * np.array([[1.0, r], [r, p - 1.0]]),
    )
    scalars = (
        ((q, 1, 0), (p - 1) // 2),
        ((-q, 1, 0), (p - 3) // 2),
        ((0, 0, 0), q - 1),
        ((0, 1, 0), (p - 1) * (q - 1)),
    )
    types = [(pair, 1)]
    types.extend(
        (tuple(np.full((1, 1), float(x)) for x in triple), mult)
        for triple, mult in scalars
        if mult > 0
    )
    return types


def reference_unit_sum_blocks(n):
    """unit_sum_blocks by brute force: the Kronecker product of every choice
    of one type per factor, equal blocks merged on their bytes."""
    one = np.ones((1, 1))
    blocks = {b"": ((one, one, one), 1)}
    for p, e in factorize(n).factors:
        merged = {}
        for block, mult in blocks.values():
            for factor, k in _reference_factor_types(p, e):
                # Adding 0.0 turns -0.0 into 0.0, so equal blocks get equal keys.
                new = tuple(np.kron(a, b) + 0.0 for a, b in zip(block, factor))
                key = b"".join(a.tobytes() for a in new)
                prev = merged.get(key)
                merged[key] = (new, mult * k + (prev[1] if prev else 0))
        blocks = merged
    by_width = {}
    for block, mult in blocks.values():
        by_width.setdefault(block[0].shape[0], []).append((block, mult))
    return tuple(
        tuple(np.stack([block[i] for block, _ in group]) for i in range(3))
        + (np.array([mult for _, mult in group], dtype=np.int64),)
        for group in (by_width[w] for w in sorted(by_width))
    )


def kron_unit_sum_blocks(n):
    """unit_sum_blocks as an np.kron chain per set of paired factors, widest
    first: the build whose bytes unit_sum_blocks must reproduce."""
    factors = factorize(n).factors
    left_units = euler_phi(n)
    left_others = n - left_units
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    out = []
    for size in reversed(range(len(factors) + 1)):
        group = []
        for pairs in combinations(range(len(factors)), size):
            lsum = units = ones = one
            for i, (p, e) in enumerate(factors):
                q = p ** (e - 1)
                if i in pairs:
                    r = math.sqrt(p - 1.0)
                    lsum = np.kron(lsum, q * np.array([[0.0, r], [r, p - 2.0]]))
                    units = np.kron(units, np.diag([0.0, 1.0]))
                    ones = np.kron(ones, q * np.array([[1.0, r], [r, p - 1.0]]))
                else:
                    lsum = lsum * q
                    ones = ones * 0.0
            choices = math.prod(p - 2 for i, (p, _) in enumerate(factors) if i not in pairs)
            for sign, mult in ((1.0, (choices + 1) // 2), (-1.0, (choices - 1) // 2)):
                if mult:
                    group.append((sign * lsum, units, ones, mult))
                    left_units -= mult
                    left_others -= mult * (2**size - 1)
        if size == 0:
            group += [(zero, u, zero, k) for u, k in ((one, left_units), (zero, left_others)) if k]
        *blocks, mults = zip(*group)
        out.append(tuple(np.stack(b) for b in blocks) + (np.array(mults, dtype=np.int64),))
    return tuple(reversed(out))


def exact_inner(x, y, weight):
    """<u(x), u(y)> for blocks x, y with r dropped: u the entries, or
    (c11 - c22, 2 c12) at width 2, each product weighted by its r*r."""
    if x.shape[0] == 2:
        return (x[0, 0] - x[1, 1]) * (y[0, 0] - y[1, 1]) + 4 * x[0, 1] * y[0, 1] * weight[0, 1]
    return int((x * y * weight).sum())


def exact_floor_terms(spec):
    """_floor_terms by brute force in exact arithmetic, one column of
    Fractions per block wider than 1, in stack order.

    Each block is built as integer matrices with r = sqrt(p - 1) left out of
    its off-diagonal entries, and every sum of entry products is weighted by
    the r*r = p - 1 it drops.  n C0 = n A_0 and n C1 = n (A_1 - A_0) - 2m I
    come from the definition of A_alpha; the sign counts from multiplying
    out the other factors' choices of +-q.
    """
    n, phi, m = spec.n, euler_phi(spec.n), edge_count(spec)
    factors = factorize(n).factors
    columns = []
    for size in range(1, len(factors) + 1):
        for pairs in combinations(range(len(factors)), size):
            lsum = units = ones = weight = np.ones((1, 1), dtype=object)
            plus, minus = 1, 0
            for i, (p, e) in enumerate(factors):
                q = p ** (e - 1)
                if i in pairs:
                    lsum = np.kron(lsum, np.array([[0, q], [q, q * (p - 2)]], dtype=object))
                    units = np.kron(units, np.array([[0, 0], [0, 1]], dtype=object))
                    ones = np.kron(ones, np.array([[q, q], [q, q * (p - 1)]], dtype=object))
                    weight = np.kron(weight, np.array([[1, p - 1], [p - 1, 1]], dtype=object))
                else:
                    lsum, ones = lsum * q, ones * 0
                    up, down = (p - 1) // 2, (p - 3) // 2
                    plus, minus = plus * up + minus * down, plus * down + minus * up
            eye = np.eye(2**size, dtype=np.int64).astype(object)
            for sign, mult in ((1, plus), (-1, minus)):
                if not mult:
                    continue
                a0, a1 = sign * lsum - units, phi * eye - units
                if spec.complement:
                    a0, a1 = ones - eye - a0, (n - 1) * eye - a1
                c0, c1 = n * a0, n * (a1 - a0) - 2 * m * eye
                pairs_of = ((c0, c0), (c0, c1), (c1, c1))
                k00, k01, k11 = (exact_inner(x, y, weight) for x, y in pairs_of)
                nn = n * n
                vertex = Fraction(-k01, k11) if k11 else Fraction(0)
                rest = Fraction(k00, nn) - (Fraction(k01 * k01, k11 * nn) if k11 else 0)
                trace = (Fraction(int(np.trace(c)), n) for c in (c0, c1))
                columns.append((mult, *trace, rest, Fraction(k11, nn), vertex))
    return columns


def reference_block_eigenvalues(spec, alpha):
    """block_eigenvalues one alpha at a time, with alpha a Python float: the
    per-alpha solve the stacked one must reproduce bit for bit."""
    n = spec.n
    phi = euler_phi(n)
    values, mults = [], []
    for lsum, units, ones, mult in unit_sum_blocks(n):
        eye = np.eye(lsum.shape[-1])
        a = (1.0 - alpha) * lsum + alpha * phi * eye - units
        if spec.complement:
            a = (alpha * n - 1.0) * eye + (1.0 - alpha) * ones - a
        values.append(np.linalg.eigvalsh(a).ravel())
        mults.append(np.repeat(mult, lsum.shape[-1]))
    return np.concatenate(values), np.concatenate(mults)


def zagreb(n: int, complement: bool) -> int:
    """Sum of squared degrees: phi - 1 on the phi units, phi elsewhere."""
    phi = euler_phi(n)
    degrees = {phi - 1: phi, phi: n - phi}
    if complement:
        degrees = {n - 1 - d: c for d, c in degrees.items()}
    return sum(d * d * c for d, c in degrees.items())


@pytest.mark.parametrize("n", LARGE_ORDERS)
@pytest.mark.parametrize("comp", [False, True])
class TestLargeOrders:
    def test_multiplicities_sum_to_n(self, n, comp):
        vals, mults = block_eigenvalues(GraphSpec(FAMILY_UACG, n, comp), 0.3)
        assert vals.shape == mults.shape
        assert np.all(mults > 0)
        assert int(mults.sum()) == n

    def test_trace_and_second_moment(self, n, comp):
        spec = GraphSpec(FAMILY_UACG, n, comp)
        m = edge_count(spec)
        zeta = zagreb(n, comp)
        for alpha in ALPHAS:
            vals, mults = block_eigenvalues(spec, alpha)
            trace = 2.0 * alpha * m
            moment = alpha**2 * zeta + (1.0 - alpha) ** 2 * 2.0 * m
            # At alpha = 0 the trace is 0, so its error is relative to the
            # size of the terms that cancel.
            scale = float(mults @ np.abs(vals))
            assert float(mults @ vals) == pytest.approx(trace, rel=1e-10, abs=1e-10 * scale)
            assert float(mults @ (vals * vals)) == pytest.approx(moment, rel=1e-10)

    def test_energy_report_builds_no_dense_graph(self, n, comp, monkeypatch):
        def refuse(spec):
            raise AssertionError("dense graph built")

        monkeypatch.setattr(closedform_mod, "build_graph", refuse)
        monkeypatch.setattr(graphs_mod, "build_graph", refuse)
        spec = GraphSpec(FAMILY_UACG, n, comp)
        for alpha in ALPHAS:
            rep = energy_report(spec, alpha)
            assert rep.method == "numeric"
            vals, mults = block_eigenvalues(spec, alpha)
            assert rep.energy == pytest.approx(float(mults @ np.abs(vals - rep.shift)), rel=1e-12)


class TestUnitSumBlocks:
    # 225, 3375 and 4849845 = 3**2 * 5 * 7 * 11 * 13 * 17 * 19 are not
    # squarefree, so they have leftover diagonal entries.
    def test_widths_and_count(self):
        for n in (225, 3375, 15015, 4849845):
            omega = factorize(n).num_distinct_primes
            total = units_total = 0
            for lsum, units, ones, mults in unit_sum_blocks(n):
                width = lsum.shape[-1]
                assert width <= 2**omega
                assert lsum.shape == units.shape == ones.shape == (mults.size, width, width)
                assert np.all(mults > 0)
                total += width * int(mults.sum())
                units_total += int(mults @ np.trace(units, axis1=1, axis2=2))
                flat = np.concatenate([lsum, units, ones], axis=1).reshape(mults.size, -1)
                for i in range(mults.size):
                    assert not np.any(np.all(flat[i] == flat[i + 1 :], axis=1))
            assert total == n
            assert units_total == euler_phi(n)

    @pytest.mark.parametrize("n", [*range(3, 602, 2), 3375, 15015, 45045, 255255])
    def test_matches_kronecker_reference(self, n, monkeypatch):
        got = {}
        for builder in (blocks_mod._build_blocks, reference_unit_sum_blocks):
            monkeypatch.setattr(blocks_mod, "_build_blocks", builder)
            # A fresh record cache, so the identities and multiplicities
            # follow the swapped-in blocks.
            record = lru_cache(maxsize=64)(blocks_mod._record.__wrapped__)
            monkeypatch.setattr(blocks_mod, "_record", record)
            for comp in (False, True):
                spec = GraphSpec(FAMILY_UACG, n, comp)
                for alpha in (0.0, 0.3, 0.9999, 1.0):
                    vals, mults = block_eigenvalues(spec, alpha)
                    shift = 2.0 * alpha * edge_count(spec) / n
                    expanded = np.sort(np.repeat(vals, mults))
                    energy = float(mults @ np.abs(vals - shift))
                    got.setdefault((comp, alpha), []).append((expanded, energy))
        for (new, new_energy), (ref, ref_energy) in got.values():
            assert np.array_equal(new, ref)
            assert abs(new_energy - ref_energy) <= 1e-15 * max(1.0, abs(ref_energy))

    def test_equals_the_kron_build_bit_for_bit(self):
        for n in (*range(3, 4002, 2), 15015, 255255, 4849845, 111_546_435):
            got, want = unit_sum_blocks(n), kron_unit_sum_blocks(n)
            assert len(got) == len(want), n
            for got_width, want_width in zip(got, want):
                for a, b in zip(got_width, want_width):
                    assert (a.shape, a.dtype) == (b.shape, b.dtype), n
                    assert a.tobytes() == b.tobytes(), n
                    assert not a.flags.writeable, n

    def test_cached_arrays_are_read_only(self):
        lsum, _, _, mults = unit_sum_blocks(1155)[0]
        assert unit_sum_blocks(1155) is unit_sum_blocks(1155)
        with pytest.raises(ValueError):
            lsum[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            mults[0] = 1
        blocks, eyes, mults, floors = _record(1155)
        assert blocks is unit_sum_blocks(1155)
        arrays = [*(a for block in blocks for a in block), *eyes, mults, *floors]
        assert not any(a.flags.writeable for a in arrays)

    def test_block_eigenvalues_returns_its_own_multiplicities(self):
        spec = GraphSpec(FAMILY_UACG, 1155)
        _, shared = _stacked_eigenvalues(spec, (0.3,))
        with pytest.raises(ValueError):
            shared[0] = 1
        _, mults = block_eigenvalues(spec, 0.3)
        want = mults.copy()
        mults[0] += 1
        assert np.array_equal(block_eigenvalues(spec, 0.3)[1], want)
        assert np.array_equal(_stacked_eigenvalues(spec, (0.3,))[1], want)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_rejects_even_or_small_orders(self, n):
        with pytest.raises(ValueError):
            unit_sum_blocks(n)

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            block_eigenvalues(GraphSpec(FAMILY_UNITARY_CAYLEY, 15), 0.3)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            block_eigenvalues(GraphSpec(FAMILY_UACG, 15), alpha)

    def test_spectrum_above_dense_limit(self):
        n = DENSE_ORDER_LIMIT + 1
        assert n % 2 == 1 and prime_power(n) is None  # on the numeric route
        spectrum, used = spectrum_for(GraphSpec(FAMILY_UACG, n), 0.5)
        assert used == "numeric"
        assert spectrum.n == n
        assert sum(spectrum.multiplicities()) == n


# Odd orders up to 2001 every 20th, and two whose widest blocks are cut into
# chunks of alphas.
STACKED_ORDERS = (*range(3, 2002, 40), 2001, 15015, 255255)
STACKED_ALPHAS = (*_COARSE_ALPHAS, 0.3001, 1.0, 0.0)


class TestStackedEigenvalues:
    @pytest.mark.parametrize("n", STACKED_ORDERS)
    @pytest.mark.parametrize("comp", [False, True])
    def test_rows_match_one_alpha_at_a_time(self, n, comp):
        spec = GraphSpec(FAMILY_UACG, n, comp)
        vals, mults = _stacked_eigenvalues(spec, STACKED_ALPHAS)
        assert vals.shape == (len(STACKED_ALPHAS), mults.size)
        for row, alpha in zip(vals, STACKED_ALPHAS):
            for one_vals, one_mults in (
                block_eigenvalues(spec, alpha),
                reference_block_eigenvalues(spec, alpha),
            ):
                assert np.array_equal(row, one_vals)
                assert np.array_equal(mults, one_mults)

    @pytest.mark.parametrize("n", [15, 105, 15015])
    @pytest.mark.parametrize("comp", [False, True])
    def test_numeric_energies_sum_each_alpha_blocks(self, n, comp):
        spec = GraphSpec(FAMILY_UACG, n, comp)
        alphas = STACKED_ALPHAS[:-2]
        m = edge_count(spec)
        want = []
        for alpha in alphas:
            vals, mults = block_eigenvalues(spec, alpha)
            want.append(float(mults @ np.abs(vals - 2.0 * alpha * m / n)))
        assert _route(spec)[2](alphas) == want

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    @pytest.mark.parametrize("where", [0, 5, 17])
    def test_rejects_any_bad_alpha(self, bad, where):
        # The stacked solve takes alphas its callers have checked; the public
        # entries that hand it a batch check every alpha of it.
        alphas = list(_COARSE_ALPHAS)
        alphas.insert(where, bad)
        with pytest.raises(ValueError):
            _classify_all(GraphSpec(FAMILY_UACG, 105), alphas)
        with pytest.raises(ValueError):
            check_block_route(15, alphas)

    @pytest.mark.parametrize("comp", [False, True])
    def test_root_scan_keeps_each_stack_small(self, comp, monkeypatch):
        # 111546435 = 3 * 5 * ... * 23 has blocks up to 256 wide.
        spec = GraphSpec(FAMILY_UACG, 111_546_435, comp)
        shapes = []
        real = np.linalg.eigvalsh

        def spy(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        # The energy floor certifies the order: the scan solves nothing.
        assert find_borderenergetic_alphas(spec) == []
        assert shapes == []
        _route(spec)[2](_COARSE_ALPHAS)
        for shape in shapes:
            one_alpha = math.prod(shape[1:])
            assert math.prod(shape) <= max(_BATCH_ELEMENTS, one_alpha), shape
        assert any(shape[0] > 1 for shape in shapes)
        assert any(math.prod(shape[1:]) > _BATCH_ELEMENTS for shape in shapes)


class TestWidthOneBlocks:
    @pytest.mark.parametrize("comp", [False, True])
    def test_values_equal_eigvalsh_of_each_entry(self, comp):
        # _stacked_eigenvalues reads width-1 blocks without LAPACK, which
        # returns a 1x1 matrix's entry unchanged.
        for n in (*range(3, 1002, 2), 15015, 255255):
            spec = GraphSpec(FAMILY_UACG, n, comp)
            count = unit_sum_blocks(n)[0][0].shape[0]
            vals, _ = _stacked_eigenvalues(spec, _COARSE_ALPHAS)
            for row, alpha in zip(vals, _COARSE_ALPHAS):
                want = reference_block_eigenvalues(spec, alpha)[0][:count]
                assert np.array_equal(row[:count], want), (n, alpha)


FLOOR_ALPHAS = tuple(i / 40 for i in range(41))


def block_energies(spec, alphas):
    """sum over the block values of multiplicity * |value - 2*alpha*m/n|,
    rounded as the numeric route rounds it."""
    vals, mults = _stacked_eigenvalues(spec, alphas)
    m, n = edge_count(spec), spec.n
    return np.array([mults @ np.abs(v - 2.0 * a * m / n) for v, a in zip(vals, alphas)])


class TestEnergyFloors:
    @pytest.mark.parametrize("comp", [False, True])
    def test_floor_is_a_convex_lower_bound(self, comp):
        for n in (*range(3, 2002, 2), 255255, 111_546_435):
            spec = GraphSpec(FAMILY_UACG, n, comp)
            floors = _energy_floors(spec, FLOOR_ALPHAS)
            energies = block_energies(spec, FLOOR_ALPHAS)
            assert np.all(floors <= energies * (1.0 + 1e-12)), n
            # blocks no wider than 2 are summed exactly, up to rounding on
            # the scale of the largest energy
            if prime_power(n) is not None:
                assert np.abs(floors - energies).max() <= 1e-12 * energies.max(), n
            assert np.diff(floors, 2).min() >= -1e-12 * floors.max(), n

    @pytest.mark.parametrize("comp", [False, True])
    def test_terms_equal_exact_rationals(self, comp):
        for n in (*range(3, 2002, 2), 15015, 255255, 4849845, 111_546_435):
            spec = GraphSpec(FAMILY_UACG, n, comp)
            want = exact_floor_terms(spec)
            got = _record(n).floors[comp]
            assert got.shape == (6, len(want)), n
            wide = np.concatenate([mults for *_, mults in unit_sum_blocks(n)[1:]])
            assert np.array_equal(got[0], wide), n
            for column, exact in zip(got.T, want):
                for value, x in zip(column, exact):
                    assert abs(value - float(x)) <= 4 * math.ulp(float(x)), (n, column, exact)

    def test_rejects_other_families(self, monkeypatch):
        # The floor checks no spec: its callers route the spec first, and
        # the route table turns every other family away before the floor.
        reached = []

        def spy(spec, alphas):
            reached.append(spec)
            return _energy_floors(spec, alphas)

        monkeypatch.setattr(analysis_mod, "_energy_floors", spy)
        for comp in (False, True):
            assert find_borderenergetic_alphas(GraphSpec(FAMILY_UNITARY_CAYLEY, 15, comp)) == []
        assert reached == []
        assert find_borderenergetic_alphas(GraphSpec(FAMILY_UACG, 105)) == []
        assert reached == [GraphSpec(FAMILY_UACG, 105)]
