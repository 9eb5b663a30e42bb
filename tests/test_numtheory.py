"""Tests for the exact integer arithmetic helpers.

Oracles used here are written independently of the implementation: the
totient is counted by brute force over residues, and the unit-indexed
exponential sums are evaluated with complex arithmetic.  Expected values
in the example tests were frozen from those oracles before the
implementation was run against them.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uacg.closedform import (
    alpha_energy_from_values,
    complement_prime_power_energy,
    complement_prime_power_spectrum,
    complement_unitary_cayley_adjacency_energy,
    complement_unitary_cayley_spectrum,
    complete_energy,
    complete_spectrum,
    uacg_prime_power_energy,
    uacg_prime_power_spectrum,
    unitary_cayley_adjacency_energy,
    unitary_cayley_spectrum,
)
from uacg.graphs import FAMILY_UACG, GraphSpec
from uacg.numtheory import (
    _check_int,
    euler_phi,
    factorize,
    is_prime,
    largest_squarefree_divisor,
    prime_power,
    ramanujan_sum,
)
from uacg.verification import check_energy_consistency


def brute_phi(n: int) -> int:
    """Count residues in 1..n coprime to n directly."""
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def complex_ramanujan(k: int, n: int) -> complex:
    """Sum exp(2*pi*i*k*j/n) over the units j mod n."""
    return sum(
        cmath.exp(2j * cmath.pi * k * j / n)
        for j in range(1, n + 1)
        if math.gcd(j, n) == 1
    )


def brute_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization used as an independent check."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(9) == 6
        assert euler_phi(12) == 4

    def test_brute_force_agreement(self):
        for n in range(1, 2001):
            assert euler_phi(n) == brute_phi(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)
        with pytest.raises(ValueError):
            euler_phi(-3)

    @given(
        a=st.integers(min_value=1, max_value=300),
        b=st.integers(min_value=1, max_value=300),
    )
    def test_multiplicative_on_coprime_arguments(self, a, b):
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


class TestRamanujanSum:
    def test_examples(self):
        assert ramanujan_sum(0, 9) == 6
        assert ramanujan_sum(3, 9) == -3
        assert ramanujan_sum(1, 9) == 0

    def test_k_zero_gives_totient(self):
        for n in range(1, 201):
            assert ramanujan_sum(0, n) == euler_phi(n)

    def test_complex_exponential_oracle(self):
        for n in range(1, 201):
            for k in range(n):
                z = complex_ramanujan(k, n)
                assert abs(z.imag) < 1e-9
                assert abs(ramanujan_sum(k, n) - z.real) <= 1e-9

    def test_k_one_gives_mobius(self):
        # c(1, n) is the Moebius function: 0 unless n is squarefree, else
        # (-1)**(number of primes)
        for n in range(2, 2001):
            fac = brute_factorize(n)
            squarefree = all(e == 1 for _, e in fac)
            assert ramanujan_sum(1, n) == ((-1) ** len(fac) if squarefree else 0)

    def test_row_sums_vanish(self):
        for n in range(2, 201):
            assert sum(ramanujan_sum(k, n) for k in range(n)) == 0

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            ramanujan_sum(9, 9)
        with pytest.raises(ValueError):
            ramanujan_sum(-1, 9)


class TestFactorize:
    def test_examples(self):
        assert factorize(1).factors == ()
        assert factorize(81).factors == ((3, 4),)
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_roundtrip_and_ordering(self):
        for n in range(1, 100001, 7):
            fac = factorize(n).factors
            value = 1
            last_p = 0
            for p, e in fac:
                assert p > last_p
                assert e >= 1
                assert is_prime(p)
                value *= p**e
                last_p = p
            assert value == n

    def test_matches_brute_oracle(self):
        for n in range(2, 3001):
            assert factorize(n).factors == brute_factorize(n)

    def test_cache_is_bounded_and_eviction_keeps_results(self):
        size = factorize.cache_info().maxsize
        assert size is not None and 0 < size < 10**6
        factorize.cache_clear()
        # Fill past the bound, so the first orders are evicted, then ask again.
        for n in [*range(1, size + 201), *range(1, 201)]:
            assert factorize(n).factors == brute_factorize(n)
        assert factorize.cache_info().currsize == size

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(10**9 + 1)


class TestPrimePower:
    def test_examples(self):
        assert prime_power(27) == (3, 3)
        assert prime_power(5) == (5, 1)
        assert prime_power(15) is None

    def test_against_factorization(self):
        for n in range(2, 2001):
            fac = brute_factorize(n)
            expected = fac[0] if len(fac) == 1 else None
            assert prime_power(n) == expected


class TestLargestSquarefreeDivisor:
    def test_examples(self):
        assert largest_squarefree_divisor(7) == 7
        assert largest_squarefree_divisor(12) == 6
        assert largest_squarefree_divisor(81) == 3

    def test_is_product_of_distinct_primes(self):
        for n in range(1, 2001):
            rad = largest_squarefree_divisor(n)
            assert n % rad == 0
            assert all(e == 1 for _, e in brute_factorize(rad))
            expected = math.prod(p for p, _ in brute_factorize(n)) if n > 1 else 1
            assert rad == expected


# Every public entry point that takes an integer, each reached with the
# non-integer x in one integer slot.
INTEGER_SLOTS = {
    "factorize": lambda x: factorize(x),
    "euler_phi": lambda x: euler_phi(x),
    "prime_power": lambda x: prime_power(x),
    "is_prime": lambda x: is_prime(x),
    "largest_squarefree_divisor": lambda x: largest_squarefree_divisor(x),
    "ramanujan_sum-k": lambda x: ramanujan_sum(x, 9),
    "ramanujan_sum-n": lambda x: ramanujan_sum(2, x),
    "GraphSpec": lambda x: GraphSpec(FAMILY_UACG, x),
    "verify-nmax": lambda x: check_energy_consistency(x),
    "complete_energy": lambda x: complete_energy(x, 0.3),
    "complete_spectrum": lambda x: complete_spectrum(x, 0.3),
    "unitary_cayley_spectrum": lambda x: unitary_cayley_spectrum(x, 0.3),
    "complement_unitary_cayley_spectrum": lambda x: complement_unitary_cayley_spectrum(x, 0.3),
    "unitary_cayley_adjacency_energy": lambda x: unitary_cayley_adjacency_energy(x),
    "complement_unitary_cayley_adjacency_energy": (
        lambda x: complement_unitary_cayley_adjacency_energy(x)
    ),
    "uacg_prime_power_spectrum-p": lambda x: uacg_prime_power_spectrum(x, 2, 0.3),
    "uacg_prime_power_spectrum-m": lambda x: uacg_prime_power_spectrum(3, x, 0.3),
    "uacg_prime_power_energy-m": lambda x: uacg_prime_power_energy(3, x, 0.3),
    "complement_prime_power_spectrum-p": lambda x: complement_prime_power_spectrum(x, 1, 0.3),
    "complement_prime_power_energy-m": lambda x: complement_prime_power_energy(5, x, 0.3),
    "alpha_energy_from_values-n": lambda x: alpha_energy_from_values([1.0, -1.0], x, 1, 0.3),
    "alpha_energy_from_values-m": lambda x: alpha_energy_from_values([1.0, -1.0], 2, x, 0.3),
}


class TestIntegerInputs:
    @pytest.mark.parametrize("value", [6.5, 6.0, True])
    @pytest.mark.parametrize("slot", INTEGER_SLOTS)
    def test_public_functions_reject_a_non_integer(self, slot, value):
        with pytest.raises(ValueError, match="must be an integer"):
            INTEGER_SLOTS[slot](value)

    def test_rejects_even_after_the_integer_is_cached(self):
        # factorize's cache keys 12 and 12.0 (and 1 and True) apart
        assert factorize(12).n == 12 and euler_phi(1) == 1
        for bad in (12.0, True):
            with pytest.raises(ValueError, match="integer"):
                factorize(bad)

    def test_numpy_integers_come_back_as_ints(self):
        assert type(euler_phi(np.int64(12))) is int and euler_phi(np.int64(12)) == 4
        assert type(_check_int(np.int32(7), "n", 1)) is int

    @pytest.mark.parametrize("value, match", [(0, ">= 1"), (11, "<= 10")])
    def test_range(self, value, match):
        with pytest.raises(ValueError, match=match):
            _check_int(value, "n", 1, 10)
