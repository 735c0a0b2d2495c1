"""The deterministic Miller-Rabin primality test and its bound."""

import pytest

from cyclosrg.ntheory import PRIME_TEST_BOUND, is_prime, primes_upto

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

