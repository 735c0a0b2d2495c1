"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE n PASS/FAIL line (visible with -s)
covering: the named constructions, the bounded search tables, class
numbers, numeric Gauss sum cross-checks, randomized oracle equivalence,
and the closed-form two-value collapse for all twelve families.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from conftest import divisors, get_field
from cyclosrg.cyclotomy import CyclotomicInteger, classify
from cyclosrg.family_search import (
    pair_family_check,
    scan_pairs,
    scan_triples,
    triple_family_check,
    verify_named_example,
)
from cyclosrg.gauss_theory import (
    class_number,
    gauss_sum_numeric,
    index2_gauss_prime_power,
    index2_gauss_two_primes,
    semiprimitive_gauss,
)
from cyclosrg.ntheory import primes_upto
from cyclosrg.srg_engine import (
    difference_count_oracle,
    predicted_spectrum_prime_power,
    predicted_spectrum_two_primes,
    srg_from_spectrum,
)

PAIR_FAMILIES = ((2, 7), (3, 107), (5, 19), (5, 499), (17, 67), (41, 163))
TRIPLE_FAMILIES = ((2, 3, 5), (2, 5, 3), (3, 5, 7), (3, 7, 5), (3, 17, 19), (3, 19, 17))


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL {label}")
        raise
    elapsed = time.perf_counter() - t0
    within = budget is None or elapsed < budget
    suffix = f"({elapsed:.2f}s)" if budget is None else f"({elapsed:.2f}s of {budget:.0f}s)"
    print(f"ACCEPTANCE {num} {'PASS' if within else 'FAIL'} {label} {suffix}")
    assert within, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def prime_powers_upto(limit: int) -> list[tuple[int, int, int]]:
    out = []
    for p in primes_upto(limit):
        q, f = p, 1
        while q <= limit:
            out.append((p, f, q))
            q *= p
            f += 1
    return sorted(out, key=lambda t: t[2])


def test_criterion_1_delange_end_to_end():
    with criterion(1, "q=4096 N=45 classes {0,5,10}", budget=5.0):
        rep = verify_named_example("delange")
        assert rep.ok
        assert rep.spectrum == (17, -15)
        cert = rep.certificate
        assert cert.parameters() == (4096, 273, 20, 18)
        assert (cert.mult_r, cert.mult_s) == (1911, 2184)
        assert rep.predicted_matches
        # closed forms at h0 = 5
        h0 = 5
        assert (2 ** (h0 + 3) - 1) // 15 == 17
        assert (-7 * 2**h0 - 1) // 15 == -15
        # the difference-count oracle reproduces lambda and mu exactly
        oracle = difference_count_oracle(classify(get_field(2, 12), 45), (0, 5, 10))
        assert oracle is not None
        assert (oracle.lam, oracle.mu) == (20, 18)
        assert oracle == cert


def test_criterion_2_order_75_classes():
    with criterion(2, "q=2^20 N=75 classes {0,3,6,9,12}", budget=60.0):
        rep = verify_named_example("ikuta75")
        assert rep.ok
        assert rep.example.q == 2**20 and rep.example.k == 69905
        assert rep.spectrum == (273, -239)
        cert = rep.certificate
        assert (cert.lam, cert.mu) == (4692, 4658)
        assert (cert.mult_r, cert.mult_s) == (489335, 559240)
        assert cert.mult_r + cert.mult_s == rep.example.q - 1


def test_criterion_3_order_49_classes():
    with criterion(3, "q=2^21 N=49 classes {0..6}", budget=120.0):
        rep = verify_named_example("ikuta49")
        assert rep.ok
        assert rep.example.q == 2**21 and rep.example.k == 299593
        assert rep.spectrum == (585, -439)
        cert = rep.certificate
        assert (cert.lam, cert.mu) == (42924, 42778)


def test_criterion_4_odd_characteristic():
    with criterion(4, "q=3^12 N=35 class {0}", budget=60.0):
        rep = verify_named_example("ex53_m1")
        assert rep.ok
        assert rep.example.q == 3**12 and rep.example.k == 15184
        assert rep.spectrum == (118, -125)
        cert = rep.certificate
        assert (cert.lam, cert.mu) == (427, 434)
        # every connection sum lands in the rational integers inside Z[xi_3]
        cm = classify(get_field(3, 12), 35)
        sums = cm.connection_sums((0,))
        assert all(val.is_rational_integer for val in sums)


def test_criterion_5_search_tables():
    with criterion(5, "bounded pair and triple scans", budget=30.0):
        pairs = scan_pairs(50, 500)
        assert pairs.hit_keys() == PAIR_FAMILIES
        assert tuple(c.h for c in pairs.hits) == (1, 3, 1, 3, 1, 1)
        assert tuple(c.b for c in pairs.hits) == (-1, 1, 1, 1, 1, 1)
        triples = scan_triples(5, 400)
        assert triples.hit_keys() == TRIPLE_FAMILIES
        assert tuple(c.b for c in triples.hits) == (1, 1, -1, -1, -1, -1)


def test_criterion_6_class_numbers():
    with criterion(6, "imaginary quadratic class numbers"):
        table = {7: 1, 15: 2, 19: 1, 35: 2, 67: 1, 107: 3, 163: 1, 323: 4, 499: 3}
        for d, expected in table.items():
            assert class_number(d) == expected, f"class_number({d})"


def test_criterion_7_gauss_sum_numerics():
    with criterion(7, "numeric Gauss sum cross-checks"):
        # closed forms on four small fields, every full-order character
        fld = get_field(2, 2)
        expected = semiprimitive_gauss(2, 3, 2).value()
        for j in (1, 2):
            num = gauss_sum_numeric(fld, 3, j)
            assert abs(num.value - expected) < 1e-6
        fld = get_field(3, 2)
        expected = semiprimitive_gauss(3, 4, 2).value()
        for j in (1, 3):
            num = gauss_sum_numeric(fld, 4, j)
            assert abs(num.value - expected) < 1e-6
        fld = get_field(2, 3)
        plus, minus = index2_gauss_prime_power(2, 7, 1).conjugate_values()
        for j in range(1, 7):
            num = gauss_sum_numeric(fld, 7, j).value
            assert min(abs(num - plus), abs(num - minus)) < 1e-6
        fld = get_field(2, 4)
        plus, minus = index2_gauss_two_primes(2, 3, 5, 1).conjugate_values()
        for j in (1, 2, 4, 7, 8, 11, 13, 14):
            num = gauss_sum_numeric(fld, 15, j).value
            assert min(abs(num - plus), abs(num - minus)) < 1e-6
        # characters of order 5 and 3 inside the same field are semi-primitive
        for j, order in ((3, 5), (5, 3), (6, 5), (10, 3), (12, 5)):
            expected = semiprimitive_gauss(2, order, 4).value()
            num = gauss_sum_numeric(fld, 15, j).value
            assert abs(num - expected) < 1e-6

        # |g(chi)|^2 = q for every nontrivial character, q <= 2^10, via an
        # independent route: one inverse FFT gives all characters at once
        for p, f, q in prime_powers_upto(1024):
            if q < 3:
                continue
            fld = get_field(p, f)
            tr = fld.trace[np.asarray(fld.antilog)]
            psi = np.exp(2j * np.pi * tr / p)
            g = np.fft.ifft(psi) * (q - 1)
            assert abs(g[0] + 1.0) < 1e-6  # trivial character sums to -1
            assert np.max(np.abs(np.abs(g[1:]) ** 2 - q)) < 1e-9
            if q <= 64:
                for j in range(1, q - 1):
                    direct = gauss_sum_numeric(fld, q - 1, j).value
                    assert abs(direct - g[j]) < 1e-9


def test_criterion_8_randomized_oracle_equivalence():
    with criterion(8, "randomized oracle equivalence and period sums"):
        # spectrum route vs difference-count route on random symmetric unions
        rng = random.Random(777001)
        pool = [(p, f, q) for p, f, q in prime_powers_upto(4096) if q >= 4]
        checked = 0
        while checked < 60:
            p, f, q = rng.choice(pool)
            fld = get_field(p, f)
            candidates = [d for d in divisors(q - 1) if 2 <= d <= 512]
            if not candidates:
                continue
            N = rng.choice(candidates)
            cm = classify(fld, N)
            shift = cm.negation_shift
            orbits = sorted({tuple(sorted({i, (i + shift) % N})) for i in range(N)})
            chosen = [orb for orb in orbits if rng.random() < 0.5]
            if not chosen:
                chosen = [rng.choice(orbits)]
            D = tuple(sorted(set(i for orb in chosen for i in orb)))
            sums = cm.connection_sums(D)
            k = len(D) * (q - 1) // N
            by_spectrum = srg_from_spectrum(q, k, sums)
            by_oracle = difference_count_oracle(cm, D)
            if by_spectrum is None:
                assert by_oracle is None, (p, f, N, D)
            else:
                assert by_oracle is not None, (p, f, N, D)
                assert by_oracle == by_spectrum, (p, f, N, D)
            # equal certificates are one set member: the route is not graph data
            assert len({by_spectrum, by_oracle}) == 1 and hash(by_spectrum) == hash(by_oracle), (p, f, N, D)
            checked += 1
        assert checked >= 50

        # period sums: sum of all Gauss periods is exactly -1
        rng = random.Random(424243)
        pool = [(p, f, q) for p, f, q in prime_powers_upto(1 << 16) if q >= 4]
        checked = 0
        while checked < 120:
            p, f, q = rng.choice(pool)
            candidates = [d for d in divisors(q - 1) if d >= 2 and d * p <= (1 << 18)]
            if not candidates:
                continue
            N = rng.choice(candidates)
            cm = classify(get_field(p, f), N)
            total = sum(cm.periods(), CyclotomicInteger.from_int(p, 0))
            assert total.is_rational_integer and total.to_int() == -1, (p, f, N)
            checked += 1
        assert checked >= 100


def test_criterion_9_twelve_family_collapse():
    with criterion(9, "closed-form collapse for all twelve families at m=2"):
        for p, p1 in PAIR_FAMILIES:
            check = pair_family_check(p, p1)
            assert check.ok, (p, p1)
            ps = predicted_spectrum_prime_power(p, p1, 2)
            assert len(ps.integer_values()) == 2, (p, p1)
            cert = ps.certificate()
            assert cert is not None and not cert.degenerate, (p, p1)
            assert set(ps.integer_values()) == {check.r_m2, check.s_m2}, (p, p1)
            # eigenvalue formulas: r = ((p1-b)/2 p^h0 - 1)/p1 and
            # s = (-(p1+b)/2 p^h0 - 1)/p1 with h0 = (f - h)/2 at m = 2
            f2 = p1 * (p1 - 1) // 2
            h0 = (f2 - check.h) // 2
            assert check.r_m2 == ((p1 - check.b) // 2 * p**h0 - 1) // p1
            assert check.s_m2 == (-(p1 + check.b) // 2 * p**h0 - 1) // p1
            assert ps.N == p1 * p1 and ps.v == p**f2
        for p, p1, p2 in TRIPLE_FAMILIES:
            check = triple_family_check(p, p1, p2)
            assert check.ok, (p, p1, p2)
            ps = predicted_spectrum_two_primes(p, p1, p2, 2)
            assert len(ps.integer_values()) == 2, (p, p1, p2)
            cert = ps.certificate()
            assert cert is not None and not cert.degenerate, (p, p1, p2)
            assert set(ps.integer_values()) == {check.r_m2, check.s_m2}, (p, p1, p2)
            # r = ((b + p1 p2)/2 p^h0 - 1)/(p1 p2), s with the minus sign
            n2 = p1 * p1 * p2
            f2 = (p1 - 1) * p1 * (p2 - 1) // 2
            h0 = (f2 - check.h) // 2
            assert check.r_m2 == ((check.b + p1 * p2) // 2 * p**h0 - 1) // (p1 * p2)
            assert check.s_m2 == ((check.b - p1 * p2) // 2 * p**h0 - 1) // (p1 * p2)
            assert ps.N == n2 and ps.v == p**f2
        # exact integer arithmetic: each candidate is an exact quotient, a Python int
        sample = predicted_spectrum_two_primes(3, 17, 19, 2)
        assert all(type(val) is int for _, val in sample.values)
        assert math.gcd(*sample.integer_values()) >= 1
