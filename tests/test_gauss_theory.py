"""Orders, index-2 classification, class numbers, and exact Gauss sums."""

import dataclasses
import math
import time

import numpy as np
import pytest

from cyclosrg.gauss_theory import (
    INDEX2_EXPONENT_CAP,
    QUADRATIC_FORM_BITS_CAP,
    SEMIPRIMITIVE_BITS_CAP,
    Index2Case,
    Index2Kind,
    QuadraticGaussValue,
    _solve_quadratic_form,
    _sqrt_mod_prime_power,
    class_number,
    classify_index2,
    gauss_sum_numeric,
    index2_gauss_prime_power,
    index2_gauss_two_primes,
    mult_order,
    reduced_form_counts,
    semiprimitive_gauss,
)
from cyclosrg.ntheory import euler_phi, factorize, is_squarefree, primes_upto
from cyclosrg.srg_engine import predicted_spectrum_prime_power, predicted_spectrum_two_primes

from conftest import get_field


# ---------------------------------------------------------------------------
# multiplicative order


def test_mult_order_known_values():
    assert mult_order(2, 49) == 21
    assert mult_order(2, 15) == 4
    assert mult_order(5, 361) == 171
    assert mult_order(3, 35) == 12
    assert mult_order(2, 7) == 3


def test_mult_order_matches_brute_force():
    for n in range(2, 80):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            e = 1
            x = a % n
            while x != 1:
                x = x * a % n
                e += 1
            assert mult_order(a, n) == e, (a, n)


def test_mult_order_errors():
    with pytest.raises(ValueError, match="coprime"):
        mult_order(6, 15)
    with pytest.raises(ValueError, match=">= 2"):
        mult_order(2, 1)


# ---------------------------------------------------------------------------
# index-2 classification


def test_classify_prime_power():
    case = classify_index2(2, 49)
    assert case.tag is Index2Kind.PRIME_POWER
    assert (case.p1, case.m) == (7, 2)
    assert case.order == 21


def test_classify_two_primes_mix():
    case = classify_index2(2, 15)
    assert case.tag is Index2Kind.TWO_PRIMES_SEMIPRIMITIVE_MIX
    assert (case.p1, case.m, case.p2, case.n) == (3, 1, 5, 1)
    case = classify_index2(2, 45)
    assert (case.p1, case.m, case.p2, case.n) == (3, 2, 5, 1)
    case = classify_index2(2, 75)
    assert (case.p1, case.m, case.p2, case.n) == (5, 2, 3, 1)
    case = classify_index2(3, 35)
    assert (case.p1, case.m, case.p2, case.n) == (5, 1, 7, 1)


def test_classify_half_order():
    # ord_3(2) = 2 is full, ord_7(2) = 3 = phi(7)/2, and overall index is 2
    case = classify_index2(2, 21)
    assert case.tag is Index2Kind.TWO_PRIMES_HALF_ORDER
    assert (case.p1, case.m, case.p2, case.n) == (3, 1, 7, 1)


def test_classify_not_index2():
    assert classify_index2(2, 11).tag is Index2Kind.NOT_INDEX2  # full order
    assert classify_index2(2, 17).tag is Index2Kind.NOT_INDEX2  # -1 in <2>
    assert classify_index2(4, 15).tag is Index2Kind.NOT_INDEX2  # index 4


def test_classify_index2_subgroup_property():
    # when classified index 2, <p> really has index 2 and misses -1
    from cyclosrg.ntheory import euler_phi

    for p, N in [(2, 49), (2, 15), (2, 45), (3, 35), (2, 21), (2, 75), (3, 323)]:
        case = classify_index2(p, N)
        assert case.tag is not Index2Kind.NOT_INDEX2
        subgroup = {pow(p, k, N) for k in range(case.order)}
        assert len(subgroup) == euler_phi(N) // 2
        assert N - 1 not in subgroup


def _reference_classify(p, N):
    # the classification through mult_order and euler_phi of every component
    order = mult_order(p, N)
    if 2 * order != euler_phi(N) or (order % 2 == 0 and pow(p, order // 2, N) == N - 1):
        return Index2Case(Index2Kind.NOT_INDEX2, order)
    fac = sorted(factorize(N).items())
    if len(fac) == 1:
        return Index2Case(Index2Kind.PRIME_POWER, order, p1=fac[0][0], m=fac[0][1])
    full = [mult_order(p, l**e) == euler_phi(l**e) for l, e in fac]
    if all(full):
        (p1, m), (p2, n) = sorted(fac, key=lambda le: (-le[1], le[0]))
        return Index2Case(Index2Kind.TWO_PRIMES_SEMIPRIMITIVE_MIX, order, p1=p1, m=m, p2=p2, n=n)
    (p1, m), (p2, n) = fac if full[0] else fac[::-1]
    return Index2Case(Index2Kind.TWO_PRIMES_HALF_ORDER, order, p1=p1, m=m, p2=p2, n=n)


def test_classify_matches_component_reference():
    for p in primes_upto(30):
        for N in range(3, 1500, 2):
            if math.gcd(p, N) == 1:
                assert classify_index2(p, N) == _reference_classify(p, N), (p, N)


def test_index2_orders_never_factor_the_modulus(monkeypatch):
    import cyclosrg.gauss_theory as gt
    import cyclosrg.ntheory as nt

    seen = []

    def recording(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(gt, "factorize", recording)
    monkeypatch.setattr(nt, "factorize", recording)
    gauss = index2_gauss_prime_power(2, 999983, 64)
    assert (gauss.h, gauss.f) == (class_number(999983), 999982 * 999983**63 // 2)
    assert seen and max(seen) < 999983**2
    seen.clear()
    assert index2_gauss_two_primes(2, 3, 5, 64).b == 1
    assert seen and max(seen) <= 15


def test_classify_errors():
    with pytest.raises(ValueError, match="odd"):
        classify_index2(3, 16)
    with pytest.raises(ValueError, match="coprime"):
        classify_index2(3, 9)


# ---------------------------------------------------------------------------
# class numbers


KNOWN_CLASS_NUMBERS = {1: 1, 2: 1, 3: 1, 5: 2, 7: 1, 11: 1, 15: 2, 19: 1, 21: 4, 35: 2, 67: 1, 107: 3, 163: 1, 323: 4, 499: 3}


def test_class_number_known_values():
    for d, h in KNOWN_CLASS_NUMBERS.items():
        assert class_number(d) == h, d


def test_class_number_independent_recount():
    # same reduced-form count, enumerated b-outer instead of a-outer
    def recount(d: int) -> int:
        disc = -d if d % 4 == 3 else -4 * d
        h = 0
        b = 0
        while b * b <= -disc // 3:
            for sb in ({0} if b == 0 else {b, -b}):
                if (sb - disc) % 2:
                    continue
                num = sb * sb - disc
                a = max(abs(sb), 1)
                while 4 * a * a <= num:
                    if num % (4 * a) == 0:
                        c = num // (4 * a)
                        if c >= a >= abs(sb) and not (sb < 0 and (sb == -a or a == c)):
                            if math.gcd(math.gcd(a, abs(sb)), c) == 1:
                                h += 1
                    a += 1
            b += 1
        return h

    for d in sorted(KNOWN_CLASS_NUMBERS):
        assert class_number(d) == recount(d), d


def test_reduced_form_counts_match_class_number():
    counts = reduced_form_counts(4 * 2000)
    for d in range(1, 2001):
        if is_squarefree(d):
            assert counts[d if d % 4 == 3 else 4 * d] == class_number(d), d


def test_class_number_parity_follows_genus_theory():
    # two primes divide the discriminant of Q(sqrt(-p1 p2)), so h is even; one divides that of
    # Q(sqrt(-p1)) for p1 = 3 mod 4, so h is odd: the two-prime Gauss value's b is always pinned
    bound = 5 * 10**4
    counts = reduced_form_counts(4 * bound)

    def h(d):
        return counts[d if d % 4 == 3 else 4 * d]

    primes = primes_upto(bound)
    for i, p1 in enumerate(primes):
        if p1 > 3 and p1 % 4 == 3:
            assert h(p1) % 2 == 1, p1
        for p2 in primes[i + 1:]:
            if p1 * p2 > bound:
                break
            assert h(p1 * p2) % 2 == 0, (p1, p2)


def test_class_number_errors():
    with pytest.raises(ValueError, match="squarefree"):
        class_number(12)
    with pytest.raises(ValueError, match=">= 1"):
        class_number(0)


# ---------------------------------------------------------------------------
# semi-primitive evaluation


def test_semiprimitive_known_values():
    g = semiprimitive_gauss(2, 3, 2)
    assert (g.t, g.s, g.sign, g.value()) == (1, 1, 1, 2)
    g = semiprimitive_gauss(3, 4, 2)
    assert (g.t, g.s, g.sign, g.value()) == (1, 1, -1, -3)
    g = semiprimitive_gauss(2, 5, 8)
    assert (g.t, g.s, g.sign, g.value()) == (2, 2, -1, -16)
    g = semiprimitive_gauss(2, 9, 6)
    assert g.value() == 2**3 * g.sign


def test_semiprimitive_matches_numeric():
    cases = [(2, 2, 3, 2), (3, 2, 4, 2), (2, 8, 5, 8), (2, 6, 9, 6), (5, 2, 3, 2), (2, 4, 5, 4), (3, 4, 5, 4), (7, 2, 4, 2)]
    for p, f, N, r in cases:
        assert f == r
        fld = get_field(p, f)
        exact = semiprimitive_gauss(p, N, r).value()
        for j in range(1, N):
            if math.gcd(j, N) != 1:
                continue  # chi_j must have full order N
            num = gauss_sum_numeric(fld, N, j)
            assert abs(num.value - exact) < 1e-6, (p, N, j)


def test_semiprimitive_errors():
    with pytest.raises(ValueError, match="no power"):
        semiprimitive_gauss(2, 7, 6)
    with pytest.raises(ValueError, match="multiple"):
        semiprimitive_gauss(2, 5, 6)
    with pytest.raises(ValueError, match="prime"):
        semiprimitive_gauss(4, 5, 4)


def test_semiprimitive_order_from_r_matches_mult_order():
    # the order 2t is read off the factors of r; N is never factored
    for p in primes_upto(50):
        for N in range(3, 200):
            if math.gcd(p, N) != 1:
                continue
            order = mult_order(p, N)
            if order % 2 or pow(p, order // 2, N) != N - 1:
                with pytest.raises(ValueError):
                    semiprimitive_gauss(p, N, 2 * order)
                continue
            for s in (1, 2, 3):
                if s * order // 2 * p.bit_length() > SEMIPRIMITIVE_BITS_CAP:
                    break
                g = semiprimitive_gauss(p, N, s * order)
                assert (g.t, g.s) == (order // 2, s), (p, N, s)


def test_semiprimitive_size_cap():
    # p^{r/2} of 2^16 bits is admitted and quick; one step further is rejected
    start = time.perf_counter()
    g = semiprimitive_gauss(3, 4, 2 * (SEMIPRIMITIVE_BITS_CAP // 2))
    assert abs(g.value()) == 3 ** (SEMIPRIMITIVE_BITS_CAP // 2)
    with pytest.raises(ValueError, match="cap"):
        semiprimitive_gauss(3, 4, 2 * (SEMIPRIMITIVE_BITS_CAP // 2 + 1))
    with pytest.raises(ValueError, match="cap"):
        semiprimitive_gauss(3, 4, 8 * 10**5)
    # a huge prime character order is never factored
    with pytest.raises(ValueError, match="multiple"):
        semiprimitive_gauss(3, 10**30 + 57, 2)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# index-2 exact evaluations


def test_prime_power_gauss_small():
    g = index2_gauss_prime_power(2, 7, 1)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (3, 1, 1, -1, 1)
    g = index2_gauss_prime_power(2, 7, 2)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (21, 1, 10, -1, 1)
    g = index2_gauss_prime_power(5, 19, 2)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (171, 1, 85, 1, 1)
    g = index2_gauss_prime_power(3, 107, 1)
    assert (g.h, g.b) == (3, 1)
    assert g.b**2 + 107 * g.c_abs**2 == 4 * 3**3


def test_prime_power_b_sign_matches_mod8_rule():
    # p1 = 3 mod 8 forces b = 1, p1 = 7 mod 8 forces b = -1 (when 1+p1 = 4p^h)
    for p, p1 in [(2, 7), (3, 107), (5, 19), (5, 499), (17, 67), (41, 163)]:
        g = index2_gauss_prime_power(p, p1, 1)
        assert g.b == (1 if p1 % 8 == 3 else -1), (p, p1)


def test_prime_power_gauss_matches_numeric_f8():
    fld = get_field(2, 3)
    g = index2_gauss_prime_power(2, 7, 1)
    plus, minus = g.conjugate_values()
    num = gauss_sum_numeric(fld, 7, 1).value
    assert min(abs(num - plus), abs(num - minus)) < 1e-9
    assert abs(abs(num) ** 2 - 8) < 1e-9


def test_quadratic_value_checks_its_certificate():
    good = index2_gauss_prime_power(2, 7, 1)  # (b, |c|) = (-1, 1) over F_8: 1 + 7 = 4 * 2
    assert (good.b, good.c_abs, good.h) == (-1, 1, 1)
    with pytest.raises(ValueError, match=r"b\^2 \+ delta c\^2 = 4 p\^h"):
        dataclasses.replace(good, b=3)
    with pytest.raises(ValueError, match=r"b\^2 \+ delta c\^2 = 4 p\^h"):
        dataclasses.replace(good, h=2)
    # the form holds, but p divides b and c: 2^2 + 7 * 2^2 = 4 * 2^3 and 3^2 + 11 * 3^2 = 4 * 3^3
    for p, delta, h, b in [(2, 7, 3, 2), (3, 11, 3, 3)]:
        with pytest.raises(ValueError, match="prime to p"):
            QuadraticGaussValue(p=p, delta=delta, f=h, h=h, h0=0, b=b, c_abs=b)


def test_conjugate_values_refuse_the_float_overflow():
    # h0 = 3601 overflowed float(p^h0); h0 of 384 digits formed p^h0 without end
    for args in [(2, 7, 5), (2, 999983, 64)]:
        g = index2_gauss_prime_power(*args)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="overflow a float"):
            g.conjugate_values()
        assert time.perf_counter() - start < 0.5, args
    # 2^1023 is a finite float, but (5 + sqrt(-7))/2 times it is not
    with pytest.raises(ValueError, match="overflow a float"):
        QuadraticGaussValue(2, 7, 2049, 3, 1023, 5, 1).conjugate_values()
    # h0 = 514 stays inside the float range, with the values it always had
    plus, minus = index2_gauss_prime_power(2, 7, 4).conjugate_values()
    assert plus == complex(-2.6815615859885194e154, 7.094745081829568e154)
    assert minus == plus.conjugate()


def test_two_primes_gauss_small():
    g = index2_gauss_two_primes(2, 3, 5, 1)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (4, 2, 1, 1, 1)
    g = index2_gauss_two_primes(2, 3, 5, 2)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (12, 2, 5, 1, 1)
    g = index2_gauss_two_primes(2, 5, 3, 2)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (20, 2, 9, 1, 1)
    g = index2_gauss_two_primes(3, 5, 7, 1)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (12, 2, 5, -1, 1)
    g = index2_gauss_two_primes(3, 17, 19, 1)
    assert (g.f, g.h, g.h0, g.b, g.c_abs) == (144, 4, 70, -1, 1)


def test_two_primes_gauss_matches_numeric_f16():
    fld = get_field(2, 4)
    g = index2_gauss_two_primes(2, 3, 5, 1)
    plus, minus = g.conjugate_values()
    num = gauss_sum_numeric(fld, 15, 1).value
    assert min(abs(num - plus), abs(num - minus)) < 1e-9
    # and the conjugate character lands on the other root
    num2 = gauss_sum_numeric(fld, 15, 14).value
    assert min(abs(num2 - plus), abs(num2 - minus)) < 1e-9
    assert abs(num * num2 - 16) < 1e-9


def test_index2_magnitude_identity():
    # |g|^2 = q: b^2 + delta c^2 = 4 p^h forces |(b + c sqrt(-delta))/2|^2 p^{2 h0} = p^f
    for g in [
        index2_gauss_prime_power(2, 7, 2),
        index2_gauss_prime_power(3, 107, 1),
        index2_gauss_two_primes(2, 3, 5, 2),
        index2_gauss_two_primes(3, 17, 19, 1),
    ]:
        assert (g.b**2 + g.delta * g.c_abs**2) * g.p ** (2 * g.h0) == 4 * g.p**g.f


# ---------------------------------------------------------------------------
# the quadratic form b^2 + delta c^2 = 4 p^h


def _reference_solve(p: int, delta: int, h: int) -> list[tuple[int, int]]:
    """The brute-force scan over c that Cornacchia's algorithm replaced."""
    target = 4 * p**h
    out = []
    c = 1
    while delta * c * c < target:
        bb = target - delta * c * c
        b = math.isqrt(bb)
        if b * b == bb and b >= 1 and b % p and c % p:
            out.append((b, c))
        c += 1
    return out


def test_solver_matches_reference_scan():
    # p = 2, delta not 3 mod 4 and gcd(b, c) = 2 all occur; the order of the
    # list (increasing c) is part of the contract
    cases = nonempty = 0
    for delta in filter(is_squarefree, range(3, 200)):
        for p in primes_upto(30):
            if delta % p == 0:
                continue
            for h in range(1, 7):
                if delta >= 4 * p**h:
                    continue
                want = _reference_solve(p, delta, h)
                assert _solve_quadratic_form(p, delta, h) == want, (p, delta, h)
                cases += 1
                nonempty += bool(want)
    assert cases == 5122 and nonempty > 500


def test_solver_named_cases():
    # gcd(b, c) = 2: 4^2 + 7 * 2^2 = 44, and no primitive solution exists
    assert _solve_quadratic_form(11, 7, 1) == [(4, 2)]
    # gauss-index2 --p 41 --p1 13 --p2 11 --m 1: c_max is about 1.9e7
    start = time.perf_counter()
    assert _solve_quadratic_form(41, 143, 10) == [(231619298, 549240)]
    assert time.perf_counter() - start < 0.01
    # -delta is not a square modulo p: no solution, as with the scan
    assert _solve_quadratic_form(5, 7, 3) == _reference_solve(5, 7, 3) == []
    # p | delta forces p | b
    assert _solve_quadratic_form(7, 7, 2) == []


def test_solver_errors_and_cap():
    with pytest.raises(ValueError, match="delta >= 2"):
        _solve_quadratic_form(5, 1, 1)
    with pytest.raises(ValueError, match="h >= 1"):
        _solve_quadratic_form(5, 7, 0)
    h = QUADRATIC_FORM_BITS_CAP // 2  # 2 has bit length 2
    start = time.perf_counter()
    assert _solve_quadratic_form(2, 999983, h) == []
    with pytest.raises(ValueError, match="cap"):
        _solve_quadratic_form(2, 999983, h + 1)
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_square_roots_modulo_prime_powers(p):
    for k in range(1, 13):
        pk = p**k
        if pk > 4096:
            break
        for a in range(-60, 60):
            if a % p == 0:
                continue
            want = [r for r in range(pk) if (r * r - a) % pk == 0]
            assert sorted(_sqrt_mod_prime_power(a, p, k)) == want, (a, p, k)


def test_index2_exponent_cap():
    start = time.perf_counter()
    assert index2_gauss_prime_power(2, 7, INDEX2_EXPONENT_CAP).b == -1
    for m in (INDEX2_EXPONENT_CAP + 1, 8000):
        with pytest.raises(ValueError, match="cap"):
            index2_gauss_prime_power(2, 7, m)
        with pytest.raises(ValueError, match="cap"):
            index2_gauss_two_primes(2, 3, 5, m)
    # p1 beyond the class-number cap is rejected before p1^m is factored
    with pytest.raises(ValueError, match="cap"):
        index2_gauss_prime_power(2, 1000003, 1)
    assert time.perf_counter() - start < 1.0


def test_index2_domain_errors():
    with pytest.raises(ValueError, match="exceed 3"):
        index2_gauss_prime_power(2, 3, 1)
    with pytest.raises(ValueError, match="3 mod 4"):
        index2_gauss_prime_power(2, 5, 1)
    with pytest.raises(ValueError, match="index 2"):
        index2_gauss_prime_power(2, 11, 1)
    with pytest.raises(ValueError, match="prime"):
        index2_gauss_prime_power(4, 7, 1)
    with pytest.raises(ValueError, match="1 mod 4"):
        index2_gauss_two_primes(2, 3, 7, 1)
    with pytest.raises(ValueError, match="distinct"):
        index2_gauss_two_primes(2, 5, 5, 1)
    with pytest.raises(ValueError, match="two-prime index-2"):
        index2_gauss_two_primes(2, 13, 7, 1)  # gcd(phi) too large, index 6


_CLOSED_FORM_CALLS = {
    "semiprimitive": (semiprimitive_gauss, (2, 3, 2)),
    "index2-prime-power": (index2_gauss_prime_power, (2, 7, 1)),
    "index2-two-primes": (index2_gauss_two_primes, (2, 3, 5, 1)),
    "mult-order": (mult_order, (10, 10007)),
    "classify-index2": (classify_index2, (2, 7)),
    "predicted-prime-power": (predicted_spectrum_prime_power, (2, 7, 1)),
    "predicted-two-primes": (predicted_spectrum_two_primes, (2, 3, 5, 1)),
}


@pytest.mark.parametrize("call, args", list(_CLOSED_FORM_CALLS.values()), ids=list(_CLOSED_FORM_CALLS))
def test_closed_forms_take_numpy_integers(call, args):
    # numpy ints have no bit_length and refuse three-argument pow; mult_order's
    # cache is cleared first, so the numpy call is computed, not read back
    getattr(call, "cache_clear", lambda: None)()
    got = call(*map(np.int64, args))
    assert got == call(*args)
    fields = [got] if isinstance(got, int) else vars(got).values()
    assert not any(isinstance(v, np.generic) for v in fields)


# ---------------------------------------------------------------------------
# numeric reference


def test_numeric_trivial_character():
    fld = get_field(2, 4)
    num = gauss_sum_numeric(fld, 15, 0)
    assert abs(num.value - (-1)) < 1e-9


def test_numeric_error_bound_and_caps():
    fld = get_field(3, 2)
    num = gauss_sum_numeric(fld, 8, 1)
    assert num.error_bound < 1e-10
    with pytest.raises(ValueError, match="divide"):
        gauss_sum_numeric(fld, 7, 1)
    with pytest.raises(ValueError, match="lie in"):
        gauss_sum_numeric(fld, 8, 8)
    for N in (0, -7):
        with pytest.raises(ValueError, match=f"N = {N} must be at least 1"):
            gauss_sum_numeric(fld, N, 0)
    # q = 2^17 is past the cap
    with pytest.raises(ValueError, match="q <= 65536"):
        gauss_sum_numeric(get_field(2, 17), 3, 1)
