"""Tests for the exact integer arithmetic helpers.

Oracles used here are written independently of the implementation: the
totient is counted by brute force over residues, and the unit-indexed
exponential sums are evaluated with complex arithmetic.  Expected values
in the example tests were frozen from those oracles before the
implementation was run against them.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uacg.numtheory import (
    euler_phi,
    factorize,
    is_prime,
    largest_squarefree_divisor,
    mobius,
    prime_power,
    ramanujan_sum,
)


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


class TestMobius:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(6) == 1

    def test_squarefree_characterisation(self):
        for n in range(1, 2001):
            fac = brute_factorize(n)
            if any(e >= 2 for _, e in fac):
                assert mobius(n) == 0
            else:
                assert mobius(n) == (-1) ** len(fac)

    @given(n=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200)
    def test_divisor_sum_identity(self, n):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


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
            assert mobius(rad) != 0
            expected = math.prod(p for p, _ in brute_factorize(n)) if n > 1 else 1
            assert rad == expected
