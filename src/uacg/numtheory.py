"""Exact integer arithmetic behind the closed-form spectra.

Totients, Ramanujan sums c(k, n) and trial-division factorizations.
Everything in this module is integer arithmetic; no floating point enters
here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "TRIAL_DIVISION_LIMIT",
    "Factorization",
    "euler_phi",
    "factorize",
    "is_prime",
    "largest_squarefree_divisor",
    "prime_power",
    "ramanujan_sum",
]

# Trial division is the only factorization method provided; inputs are
# desk-scale by design.
TRIAL_DIVISION_LIMIT = 10**9

# Factorizations kept by `factorize`, least recently used dropped first: room
# for every order up to DENSE_ORDER_LIMIT (4096), the largest `verify --nmax`,
# at about 0.4 kB each, where an unbounded cache grows with every new order.
_FACTORIZE_CACHE_SIZE = 4096


def _check_int(value: int, name: str, low: int, high: int | None = None) -> int:
    """value as an int; ValueError for a bool, a non-integer (6.0 included)
    or one outside low..high."""
    if type(value) is not int:  # exact ints skip the slow Integral check; bools do not
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)  # numpy integers overflow where ints grow
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


@dataclass(frozen=True)
class Factorization:
    """n = prod(p**e) with primes strictly increasing and every exponent >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def num_distinct_primes(self) -> int:
        return len(self.factors)


# typed: 12.0 and True must miss the entries of 12 and 1 and be rejected.
@lru_cache(maxsize=_FACTORIZE_CACHE_SIZE, typed=True)
def factorize(n: int) -> Factorization:
    """Complete prime factorization of n by trial division.

    factorize(1) has an empty factor list.  Raises ValueError unless n is an
    integer in 1..TRIAL_DIVISION_LIMIT.
    """
    n = _check_int(n, "n", 1, TRIAL_DIVISION_LIMIT)
    factors: list[tuple[int, int]] = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(n, tuple(factors))


def euler_phi(n: int) -> int:
    """Count of 1 <= j <= n with gcd(j, n) == 1, via the product formula."""
    fac = factorize(n)
    phi = fac.n
    for p, _ in fac.factors:
        phi = phi // p * (p - 1)
    return phi


def ramanujan_sum(k: int, n: int) -> int:
    """Ramanujan sum c(k, n) = mu(t) * phi(n) / phi(t) with t = n / gcd(k, n).

    mu is the Moebius function: 0 on non-squarefree t, else (-1)**(number of
    primes of t).  This equals the sum of e^(2*pi*i*k*j/n) over the units j
    mod n, which is always an integer.  k must satisfy 0 <= k < n.
    """
    n = _check_int(n, "n", 1)
    k = _check_int(k, "k", 0, n - 1)
    t = n // math.gcd(k, n)
    fac = factorize(t)
    if any(e > 1 for _, e in fac.factors):
        return 0
    mu = -1 if fac.num_distinct_primes % 2 else 1
    return mu * (euler_phi(n) // euler_phi(t))


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n == p**m if n is a prime power, else None (n = 1)."""
    fac = factorize(n)
    return fac.factors[0] if fac.num_distinct_primes == 1 else None


def is_prime(n: int) -> bool:
    pp = prime_power(n)
    return pp is not None and pp[1] == 1


def largest_squarefree_divisor(n: int) -> int:
    """Product of the distinct primes of n (1 for n = 1)."""
    out = 1
    for p in factorize(n).primes:
        out *= p
    return out
