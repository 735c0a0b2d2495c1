"""The deterministic Miller-Rabin primality test and its bound, and the sieve."""

import math
import time

import numpy as np
import pytest

from cyclosrg.gauss_theory import class_number, classify_index2, mult_order
from cyclosrg.ntheory import (
    PRIME_TEST_BOUND,
    TRIAL_DIVISION_BOUND,
    factorize,
    is_prime,
    prime_factors,
    primes_upto,
    reduce_order,
)
from cyclosrg.family_search import pair_family_check

PSI_12 = 318665857834031151167461  # strong pseudoprime to the first 12 prime bases


def test_is_prime_matches_sieve():
    sieve = set(primes_upto(20000))
    assert [n for n in range(-5, 20001) if is_prime(n)] == sorted(sieve)


def test_is_prime_rejects_psi12_pseudoprime():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    # the largest prime below psi_12
    assert is_prime(PSI_12 - 20)
    assert not any(is_prime(n) for n in range(PSI_12 - 19, PSI_12))


def test_is_prime_refuses_beyond_its_bound():
    assert PRIME_TEST_BOUND == 3317044064679887385961981
    assert not is_prime(PRIME_TEST_BOUND - 1)
    for n in (PRIME_TEST_BOUND, 10**30 + 57):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)



@pytest.mark.parametrize(
    "fn, args",
    [
        (is_prime, (2.0,)),
        (is_prime, (7.5,)),
        (factorize, (12.0,)),
        (pair_family_check, (2.0, 7)),
        (pair_family_check, (2, 7.0)),
    ],
)
def test_number_theory_refuses_floats(fn, args):
    with pytest.raises(TypeError):
        fn(*args)


@pytest.mark.parametrize("fn, warm, args", [(mult_order, (2, 7), (2.0, 7)), (class_number, (np.int64(7),), (7.0,))])
def test_cached_closed_forms_refuse_floats_after_an_equal_call(fn, warm, args):
    # the caches key on type, so a float equal to a cached argument is refused as it is cold
    fn(*warm)
    with pytest.raises(TypeError):
        fn(*args)


@pytest.mark.parametrize("n", [0, -12])
def test_factorize_refuses_nonpositive(n):
    with pytest.raises(ValueError, match="positive integer"):
        factorize(n)


@pytest.mark.parametrize("n", [2, 7, 12, 91, 97, 10**12 + 39])
def test_number_theory_accepts_numpy_integers(n):
    assert is_prime(np.int64(n)) == is_prime(n)
    fac = factorize(np.int64(n))
    assert fac == factorize(n)
    assert all(type(p) is int for p in fac)


def test_factorize_stops_trial_division_at_its_bound():
    assert TRIAL_DIVISION_BOUND == 10**6
    assert factorize(10**12 + 39) == {10**12 + 39: 1}
    assert factorize(2**40 * 3**5 * 999983) == {2: 40, 3: 5, 999983: 1}
    # both factors lie just above the bound, so the cofactor is composite and refused
    start = time.perf_counter()
    with pytest.raises(ValueError, match=str(TRIAL_DIVISION_BOUND)):
        factorize(1000003 * 1000033)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("fn", [mult_order, classify_index2])
def test_public_number_theory_is_bounded_on_large_moduli(fn):
    start = time.perf_counter()
    try:
        fn(2, 100000000000000000039)
    except ValueError:
        pass
    assert time.perf_counter() - start < 1.0


def _reference_primes_upto(n):
    # a byte-array sieve of Eratosthenes, written independently of primes_upto
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, b in enumerate(sieve) if b]


def test_primes_upto_matches_reference_sieve():
    for n in [*range(-3, 200), 4095, 4096, 19997, 20000]:
        assert primes_upto(n) == _reference_primes_upto(n), n


def test_reduce_order_matches_mult_order():
    # the scans reduce ell - 1 over its prime divisors to find ord_ell(p)
    primes = primes_upto(2000)
    for p in primes_upto(60):
        for ell in primes:
            if ell != p:
                assert reduce_order(p, ell, ell - 1, prime_factors(ell - 1)) == mult_order(p, ell), (p, ell)
