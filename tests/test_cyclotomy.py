"""Cyclotomic classes, Gauss periods, and exact ring arithmetic."""

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclosrg import cyclotomy
from cyclosrg.cyclotomy import ClassMap, CyclotomicInteger, classify
from cyclosrg.finite_field import SIZE_CAP, build_field
from cyclosrg.ntheory import is_prime
from cyclosrg.srg_engine import _sum_product, difference_count_oracle, srg_from_spectrum

from conftest import conj, divisors, fold, get_field, neg, tuple_sum


# ---------------------------------------------------------------------------
# CyclotomicInteger ring


def test_ring_canonical_fold():
    # 1 + xi + xi^2 + xi^3 + xi^4 = 0 in Z[xi_5]
    z = fold(5, [1, 1, 1, 1, 1])
    assert z == 0
    assert z.is_rational_integer
    # xi^4 = -(1 + xi + xi^2 + xi^3)
    z = fold(5, [0, 0, 0, 0, 1])
    assert z.coeffs == (-1, -1, -1, -1)


def _reference_mul(a, b):
    # schoolbook product in Z[xi_p], one coefficient pair at a time; the ring
    # has no product of its own, so this is the reference for every product
    p = a.p
    counts = [0] * p
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                counts[(i + j) % p] += ai * bj
    return fold(p, counts)


def test_ring_ops_small():
    xi = CyclotomicInteger(3, (0, 1))  # xi_3
    xi2 = fold(3, [0, 0, 1])
    one, two = CyclotomicInteger.from_int(3, 1), CyclotomicInteger.from_int(3, 2)
    assert _reference_mul(xi, xi) == xi2
    assert _reference_mul(xi, xi2) == 1
    assert (one + xi + xi2) == 0
    assert (xi + neg(xi)) == 0
    assert (xi + xi + xi) + neg(xi) == CyclotomicInteger(3, (0, 2))
    assert neg(xi) == CyclotomicInteger(3, (0, -1)) and two + neg(xi) == CyclotomicInteger(3, (2, -1))
    # norm of 1 - xi_3 is 3
    z = one + neg(xi)
    assert _reference_mul(z, conj(z)) == 3
    # two elements add; an int is not coerced, and nothing multiplies, subtracts or negates
    for op in (lambda: xi * xi, lambda: 2 * xi, lambda: 1 + xi, lambda: xi + 1, lambda: xi - xi, lambda: -xi):
        with pytest.raises(TypeError):
            op()


def test_ring_p2_degenerates_to_int():
    a = CyclotomicInteger.from_int(2, 7)
    b = CyclotomicInteger.from_int(2, -3)
    assert (a + b).to_int() == 4
    assert (a + neg(b)).to_int() == 10 and neg(a).to_int() == -7
    assert conj(a) == a
    assert a.quadratic_coordinates() == (7, 0)


def test_ring_mul_matches_numeric_embedding():
    # the reference product agrees with the product of the complex embeddings
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 11):
        for _ in range(20):
            a = CyclotomicInteger(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
            b = CyclotomicInteger(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
            lhs = _reference_mul(a, b).complex_embedding()
            rhs = a.complex_embedding() * b.complex_embedding()
            assert abs(lhs - rhs) < 1e-9


def test_ring_conjugation_is_involution_and_multiplicative():
    rng = random.Random(6)
    for p in (3, 5, 7):
        for _ in range(10):
            a = CyclotomicInteger(p, tuple(rng.randint(-5, 5) for _ in range(p - 1)))
            b = CyclotomicInteger(p, tuple(rng.randint(-5, 5) for _ in range(p - 1)))
            assert conj(conj(a)) == a
            assert conj(_reference_mul(a, b)) == _reference_mul(conj(a), conj(b))
            assert abs(conj(a).complex_embedding() - a.complex_embedding().conjugate()) < 1e-9


_PRIMES_48 = [p for p in range(2, 48) if is_prime(p)]
_BOUNDS = [0, 1, 9, 2**31, 2**62, 10**30]


def _quadratic_element(p, u, v):
    # u + v*eta0 in exponent counts: u at 0, v on the nonzero squares
    squares = {t * t % p for t in range(1, p)}
    return fold(p, [u] + [v if t in squares else 0 for t in range(1, p)])


@st.composite
def _ring_pairs(draw):
    p = draw(st.sampled_from(_PRIMES_48))
    bound = draw(st.sampled_from(_BOUNDS))
    coeffs = st.lists(st.integers(-bound, bound), min_size=p - 1, max_size=p - 1).map(tuple)
    return CyclotomicInteger(p, draw(coeffs)), CyclotomicInteger(p, draw(coeffs))


@st.composite
def _subfield_pairs(draw):
    # two elements u + v eta0, u' + v' eta0 of Q(sqrt(p*)): v' = -v makes x + y
    # rational, and u' = u - v then makes x y rational too; v' = v with
    # u' = v - u makes x y rational but not x + y (unless v = 0)
    p = draw(st.sampled_from([p for p in _PRIMES_48 if p > 2]))
    bound = draw(st.sampled_from(_BOUNDS))
    u, v = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
    mode = draw(st.sampled_from(["both", "sum", "product"]))
    if mode == "product":
        return _quadratic_element(p, u, v), _quadratic_element(p, v - u, v)
    u2 = u - v if mode == "both" else draw(st.integers(-bound, bound))
    return _quadratic_element(p, u, v), _quadratic_element(p, u2, -v)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from([p for p in _PRIMES_48 if p > 3]), st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
       st.integers(1, 46), st.integers(-10**30, 10**30).filter(bool))
def test_quadratic_coordinates_recover_subfield_elements(p, u, v, t, delta):
    x = _quadratic_element(p, u, v)
    assert x.quadratic_coordinates() == (u, v)
    # moving one exponent count breaks the constancy on its coset (p > 3: cosets of size >= 2)
    counts = [0] * p
    counts[t % (p - 1) + 1] = delta
    assert (x + fold(p, counts)).quadratic_coordinates() is None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(_ring_pairs(), _subfield_pairs()))
def test_subfield_sum_product_matches_schoolbook(pair):
    # the subfield route of srg_from_spectrum against the schoolbook x + y, x y
    x, y = pair
    total, product = x + y, _reference_mul(x, y)
    want = None
    if total.is_rational_integer and product.is_rational_integer:
        want = (total.to_int(), product.to_int())
    assert _sum_product(x, y) == want
    assert _sum_product(y, x) == want


def test_paley_certificate_large_p():
    # Paley graph on F_p, p = 1 mod 4: eta_0 + eta_1 = -1, eta_0 * eta_1 = (1 - p) / 4
    p = 32749
    eta0, eta1 = classify(build_field(p, 1), 2).periods()
    coords = eta0.quadratic_coordinates(), eta1.quadratic_coordinates()
    assert coords == ((0, 1), (-1, -1)) and all(type(c) is int for uv in coords for c in uv)
    assert _sum_product(eta0, eta1) == (-1, (1 - p) // 4)
    cert = srg_from_spectrum(p, (p - 1) // 2, [eta0, eta1])
    assert cert.parameters() == (p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4)
    assert cert.irrational and cert.mult_r == cert.mult_s == (p - 1) // 2


def test_ring_constructor_normalizes_to_int():
    for coeffs in [(np.int64(2), True), np.array([2, 1]), [np.int32(2), np.uint8(1)], (2, 1)]:
        z = CyclotomicInteger(3, coeffs)
        assert z.coeffs == (2, 1)
        assert all(type(c) is int for c in z.coeffs)
        assert z == CyclotomicInteger(3, (2, 1)) and hash(z) == hash(CyclotomicInteger(3, (2, 1)))
        # sums skip the check, so their inputs must already be ints
        assert all(type(c) is int for c in (z + z).coeffs)
    assert all(type(c) is int for c in CyclotomicInteger.from_int(3, np.int64(2)).coeffs)
    assert CyclotomicInteger(2, (np.int64(-4),)) == -4
    assert json.dumps(CyclotomicInteger(5, (False, np.int16(-3), 7, np.uint64(2))).coeffs) == "[0, -3, 7, 2]"


# coefficients at and past the edges of int64; a sum adds in int64 only while no coefficient can leave it
_EDGE_COEFFS = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30, -(10**30)]


@st.composite
def _edge_triples(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    coeff = st.one_of(st.sampled_from(_EDGE_COEFFS), st.integers(-(2**64), 2**64), st.integers(-9, 9))
    row = st.lists(coeff, min_size=p - 1, max_size=p - 1).map(tuple)
    return p, draw(row), draw(row), draw(row)


def _assert_canonical(z, coeffs):
    # the value, its storage, and the row's read-only flag, against a value built directly from coeffs
    want = CyclotomicInteger(z.p, coeffs)
    assert z.coeffs == coeffs and all(type(c) is int for c in z.coeffs)
    json.dumps(z.coeffs)
    fits = all(-(2**63) <= c < 2**63 for c in coeffs)
    assert z.row.dtype == want.row.dtype == (np.int64 if fits else object)
    assert z == want and hash(z) == hash(want)
    assert z.bound >= max(map(abs, coeffs))
    assert not z.row.flags.writeable
    with pytest.raises(ValueError):
        z.row[0] = 0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_edge_triples())
@example((3, (2**63 - 1, 1), (1, 0), (0, 0)))  # crosses 2^63, then cancels back into int64
@example((3, (-(2**63), 5), (-1, 0), (2**62, 0)))  # below -2^63, then back
@example((2, (2**62,), (2**62,), (-(2**62),)))  # 2^63 exactly, one past the largest int64
@example((5, (10**30, 0, 0, -(10**30)), (-(10**30), 1, 2, 10**30), (0, 0, 0, 0)))  # 10^30 cancels to a small row
@example((3, (2**62, -(2**62)), (2**62 - 1, -(2**62)), (0, 0)))  # the largest int64 sum, and the most negative
def test_sums_are_exact_across_the_int64_boundary(triple):
    p, xs, ys, zs = triple
    x, y, z = (CyclotomicInteger(p, c) for c in (xs, ys, zs))
    for value, coeffs in ((x, xs), (y, ys), (z, zs)):
        _assert_canonical(value, coeffs)
    s = x + y
    _assert_canonical(s, tuple_sum(x, y))
    assert not np.shares_memory(s.row, x.row) and not np.shares_memory(s.row, y.row)
    # a sum that crossed the int64 edge and cancels back holds an int64 row again
    back = s + neg(y)
    _assert_canonical(back, xs)
    assert back == x and hash(back) == hash(x)
    _assert_canonical(s + z, tuple_sum(s, z))
    # a rational value equals and hashes like its int at any size
    n = xs[0]
    r = CyclotomicInteger.from_int(p, n)
    _assert_canonical(r, (n,) + (0,) * (p - 2))
    assert r == n and hash(r) == hash(n) and r.to_int() == n and type(r.to_int()) is int
    assert (r + x == x + r) and (r + neg(r)) == 0


def test_rational_values_hash_like_their_int():
    # a value that equals an int must hash like it, or dicts and sets keep both
    for p in (2, 3, 7):
        z = CyclotomicInteger.from_int(p, 4)
        assert z == 4 and hash(z) == hash(4)
        assert {z: 1}.get(4) == 1 and len({z, 4}) == 1
    assert len({CyclotomicInteger(3, (2, 1)), CyclotomicInteger(3, (2, 1)), 2}) == 2


# wide rows at the random-unions cap N p <= 2^18: up to 65520 coefficients per value
_WIDE_SHAPES = [(65521, 1, 4, (0, 3)), (40961, 1, 5, (2, 4)), (8191, 1, 18, (2, 6, 7, 8, 11, 15, 16, 17))]


def test_count_matrix_rows_match_exponent_counts():
    # periods and connection sums are folded from their count matrices in numpy;
    # each row must be the element the scalar fold gives for it
    small = [(2, 4, 5, (0, 2)), (2, 6, 9, (0, 3, 6)), (3, 4, 8, (0, 4, 5)), (5, 2, 6, (1, 2)), (13, 1, 4, (0, 2)), (4093, 1, 6, (0, 3))]
    for p, f, N, D in small + _WIDE_SHAPES:
        cm = classify(get_field(p, f), N)
        tally = np.asarray(cm.tally)
        rows = [sum(tally[(a + i) % N] for i in D) for a in range(N)]
        for values, counts in ((cm.periods(), tally), (cm.connection_sums(D), rows)):
            assert len(values) == N
            for value, row in zip(values, counts):
                want = fold(p, row)
                assert value == want and hash(value) == hash(want), (p, f, N, D)
                assert value.row.dtype == np.int64 and not value.row.flags.writeable
                assert all(type(c) is int for c in value.coeffs)
                json.dumps(value.coeffs)


def test_ring_errors():
    with pytest.raises(ValueError, match="mixed"):
        CyclotomicInteger.from_int(3, 1) + CyclotomicInteger.from_int(5, 1)
    with pytest.raises(ValueError, match="rational"):
        CyclotomicInteger(3, (0, 1)).to_int()
    with pytest.raises(ValueError, match="coefficients"):
        CyclotomicInteger(3, (1, 2, 3))


# composites, and primes above SIZE_CAP up to 2^61 - 1, for which a (p - 1)-tuple cannot be allocated
@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 91, SIZE_CAP, 4194319, 2**61 - 1])
def test_ring_refuses_p_other_than_a_prime_within_the_field_cap(p):
    # each constructor checks p before it builds anything of length p
    calls = [
        lambda: CyclotomicInteger(p, (1, 2, 3)),
        lambda: CyclotomicInteger.from_int(p, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="p must be a prime"):
            call()


# ---------------------------------------------------------------------------
# ClassMap and periods


def test_f4_singleton_classes_and_periods():
    cm = classify(get_field(2, 2), 3)
    assert cm.class_size == 1
    assert [eta.to_int() for eta in cm.periods()] == [1, -1, -1]


def test_f16_n15_periods():
    cm = classify(get_field(2, 4), 15)
    vals = [eta.to_int() for eta in cm.periods()]
    assert sorted(set(vals)) == [-1, 1]
    assert vals.count(1) == 7 and vals.count(-1) == 8
    assert sum(vals) == -1


def test_f4096_n45_class_sizes():
    fld = get_field(2, 12)
    cm = classify(fld, 45)
    assert cm.class_size == 91
    sizes = [cm.connection_set_elements((a,)).size for a in range(45)]
    assert min(sizes) == max(sizes) == 91
    assert np.unique(cm.connection_set_elements(range(45))).tolist() == list(range(1, fld.q))


def test_class_of_membership():
    fld = get_field(3, 2)
    cm = classify(fld, 4)
    for a in range(4):
        elems = cm.connection_set_elements((a,))
        assert elems.tolist() == [int(fld.antilog[i]) for i in range(a, fld.q - 1, 4)]
        assert np.all(fld.log[elems] % 4 == a)


def test_class_layout_matches_log_mod_n():
    # every field with q <= 2^12 and every N | q-1: the class elements and the
    # tally read off the columns of the antilog table equal the ones built
    # from the class index i mod N of gamma^i, and the negation shift, read
    # off q alone, is the log of -1.  The tally is compared where
    # it has at most 2^20 cells: the 1293 larger (prime field) cases hold
    # 86% of all cells and would take most of the test's time.
    for p in filter(is_prime, range(2, 1 << 12)):
        f = 1
        while p**f <= 1 << 12:
            fld = build_field(p, f)
            q = fld.q
            tr = fld.trace[fld.antilog]
            for N in divisors(q - 1)[1:]:
                cm = classify(fld, N)
                cls = np.arange(q - 1, dtype=np.int64) % N
                if N * p <= 1 << 20:
                    reference = np.bincount(cls * p + tr, minlength=N * p).reshape(N, p)
                    assert np.array_equal(cm.tally, reference), (p, f, N)
                d = list(range(0, N, 2)) + [N - 1]
                expected = fld.antilog[np.isin(cls, d)]
                assert np.array_equal(cm.connection_set_elements(d), expected), (p, f, N)
                assert cm.negation_shift == fld.log[p - 1] % N, (p, f, N)
            f += 1


def test_period_sum_is_minus_one():
    for p, f, N in [(2, 4, 5), (2, 6, 9), (3, 2, 8), (3, 4, 16), (5, 2, 12), (7, 2, 16), (13, 1, 12), (65521, 1, 4)]:
        cm = classify(get_field(p, f), N)
        total = sum(cm.periods(), CyclotomicInteger.from_int(p, 0))
        assert total == -1, (p, f, N)


def test_period_norm_sum_identity():
    # sum over a of eta_a * conj(eta_a) = (q(N-1) + 1) / N
    for p, f, N in [(2, 4, 15), (2, 12, 45), (3, 4, 16), (5, 2, 8), (3, 2, 4)]:
        fld = get_field(p, f)
        cm = classify(fld, N)
        total = CyclotomicInteger.from_int(p, 0)
        for eta in cm.periods():
            total = total + _reference_mul(eta, conj(eta))
        assert total == (fld.q * (N - 1) + 1) // N, (p, f, N)


def test_negation_symmetry_rule():
    # -x and x lie in one class iff p = 2 or 2N | q-1
    cases = [(2, 4, 5, True), (3, 2, 4, True), (3, 2, 8, False), (5, 2, 12, True), (5, 2, 8, False), (7, 1, 6, False), (7, 1, 3, True)]
    for p, f, N, symmetric in cases:
        fld = get_field(p, f)
        cm = classify(fld, N)
        x = np.arange(1, fld.q)
        ok = bool(np.all(fld.log[fld.sub_vec(0, x)] % N == fld.log[x] % N))
        assert ok == symmetric, (p, f, N)
        assert (cm.negation_shift == 0) == symmetric
        assert cm.is_symmetric(range(N))  # the full union is always symmetric


def test_connection_sums_delange_values():
    cm = classify(get_field(2, 12), 45)
    sums = cm.connection_sums((0, 5, 10))
    vals = sorted({z.to_int() for z in sums})
    assert vals == [-15, 17]


def test_connection_sums_translation_consistency():
    # the a-th sum equals the 0-th sum of the translated class set
    cm = classify(get_field(3, 4), 10)
    D = (0, 3, 7)
    sums = cm.connection_sums(D)
    for a in range(10):
        translated = tuple((i + a) % 10 for i in D)
        assert cm.connection_sums(translated)[0] == sums[a]


def test_connection_sums_brute_force_match():
    # recompute psi(gamma^a D) by direct summation over elements, no class tally
    rng = random.Random(99)
    for p, f in [(2, 4), (2, 8), (3, 4), (5, 2), (7, 2), (13, 1)]:
        fld = get_field(p, f)
        q1 = fld.q - 1
        options = [N for N in divisors(q1) if 1 < N <= 64]
        N = rng.choice(options)
        cm = classify(fld, N)
        k = rng.randint(1, max(1, N // 2))
        D = tuple(sorted(rng.sample(range(N), k)))
        sums = cm.connection_sums(D)
        elems = cm.connection_set_elements(D)
        logs = fld.log[elems]
        for a in range(N):
            rotated = fld.antilog[(logs + a) % q1]
            counts = np.bincount(fld.trace[rotated], minlength=p)
            assert fold(p, counts) == sums[a]


def test_connection_sums_refuse_past_the_cell_cap():
    # 20000 of the 65535 classes over F_{2^16} would add 20000 * 65535 * 2 > 2^30 cells
    cm = classify(build_field(2, 16), 65535)
    with pytest.raises(ValueError, match="connection sums would add 2621400000 cells, cap is 1073741824"):
        cm.connection_sums(range(20000))
    assert cm._tally is None  # refused before the tally is read


def test_connection_set_elements_size():
    cm = classify(get_field(2, 12), 45)
    elems = cm.connection_set_elements((0, 5, 10))
    assert elems.size == 3 * 91
    assert np.all(np.isin(cm.field.log[elems] % 45, (0, 5, 10)))


def test_classify_errors():
    fld = get_field(2, 4)
    with pytest.raises(ValueError, match="divide"):
        classify(fld, 7)
    with pytest.raises(ValueError, match="at least 2"):
        classify(fld, 1)
    cm = classify(fld, 5)
    with pytest.raises(ValueError, match="nonempty"):
        cm.connection_sums(())
    with pytest.raises(ValueError, match="lie in"):
        cm.connection_sums((5,))
    # the one check of a union, public: distinct indices, sorted
    assert cm.classes((4, np.int64(0), 4, 2)) == [0, 2, 4]
    for bad in [(), (5,), (-1, 0)]:
        with pytest.raises(ValueError, match="nonempty" if not bad else r"lie in \[0, 5\)"):
            cm.classes(bad)


@pytest.mark.parametrize("bad", [0.9, 5.0, "0"])
def test_inexact_inputs_are_refused(bad):
    # int() would truncate 0.9 to class 0 and parse "0"; every entry point refuses both
    fld = get_field(2, 4)
    cm = classify(fld, 5)
    calls = [
        lambda: CyclotomicInteger(3, (bad, 0)),
        lambda: CyclotomicInteger(bad, (0, 0)),
        lambda: CyclotomicInteger.from_int(3, bad),
        lambda: classify(fld, bad),
        lambda: cm.connection_sums([bad]),
        lambda: cm.is_symmetric([0, bad]),
        lambda: cm.connection_set_elements([bad]),
        lambda: difference_count_oracle(cm, [bad]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="integer"):
            call()


# ---------------------------------------------------------------------------
# tallies by Frobenius orbits: x -> x^p maps C_a onto C_{pa mod N} and keeps
# the trace, so a tally is fixed by its rows on one class per p-orbit


def _fields_upto(bound):
    for p in filter(is_prime, range(2, bound + 1)):
        f = 1
        while p**f <= bound:
            yield p, f
            f += 1


_SMALL_FIELDS = [pf for pf in _fields_upto(1 << 10) if pf[0] ** pf[1] > 3]
# the orbit columns never win at f = 1, where every class is its own orbit
_EXTENSION_FIELDS = [pf for pf in _fields_upto(1 << 12) if pf[1] > 1]


@st.composite
def _field_and_n(draw, fields=_SMALL_FIELDS):
    p, f = draw(st.sampled_from(fields))
    return p, f, draw(st.sampled_from(divisors(p**f - 1)[1:]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_field_and_n(), st.data())
def test_class_columns_are_columns_of_the_antilog_table(pfn, data):
    p, f, N = pfn
    fld = get_field(p, f)
    reps = np.array(sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=1))), dtype=np.int64)
    got = build_field(p, f).class_columns(N, reps)
    assert got.shape == ((fld.q - 1) // N, len(reps))
    assert np.array_equal(got, fld.antilog.reshape(-1, N)[:, reps]), (p, f, N, reps)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_field_and_n())
def test_layout_tally_is_constant_on_p_orbits(pfn):
    p, f, N = pfn
    fld = get_field(p, f)
    fld.antilog  # built tables send the tally down the class layout
    tally = classify(fld, N).tally
    assert np.array_equal(tally, tally[np.arange(N) * p % N]), (p, f, N)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_field_and_n(_EXTENSION_FIELDS))
def test_orbit_route_matches_layout_route(pfn):
    # with no step cost the orbit columns win wherever they touch fewer
    # elements than the antilog table, which small fields then exercise
    p, f, N = pfn
    with mock.patch.object(cyclotomy, "_STEP_COST", 0):
        fld = build_field(p, f)
        cm = classify(fld, N)
        orbits = cm._orbits()
        tally = cm.tally
        assert fld.tables_built == (orbits is None)
    expected = classify(get_field(p, f), N).tally
    assert np.array_equal(tally, expected), (p, f, N, orbits)
    if orbits is not None:
        reps, orbit_of = orbits
        assert np.array_equal(reps[orbit_of], [min(a * p**i % N for i in range(f)) for a in range(N)])


@pytest.mark.parametrize("p, f, N", [(2, 20, 75), (2, 21, 49), (3, 12, 35)])
def test_named_fields_take_the_orbit_route(p, f, N):
    fld = build_field(p, f)
    cm = classify(fld, N)
    reps, _ = cm._orbits()
    tally = cm.tally
    assert len(reps) <= 8 and not fld.tables_built
    fld.antilog
    layout = classify(fld, N)  # a field with built tables tallies on the class layout
    assert layout._orbits() is None
    assert np.array_equal(tally, layout.tally)
