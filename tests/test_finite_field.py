"""Field table construction, the tables' arithmetic, sub_vec, and determinism."""

import hashlib
import itertools

import numpy as np
import pytest

from cyclosrg import finite_field
from cyclosrg.finite_field import (
    _CHUNK_VALUES,
    SIZE_CAP,
    FieldTable,
    _digits,
    _find_generator,
    _is_irreducible,
    _slot_layout,
    _smallest_irreducible,
    build_field,
)
from cyclosrg.gauss_theory import gauss_sum_numeric
from cyclosrg.ntheory import is_prime, prime_factors

from conftest import add, get_field, mul, power, sub


# ---------------------------------------------------------------------------
# independent scalar references: schoolbook polynomial arithmetic over Z/pZ,
# coefficient tuples low degree first, residues of length f


def _poly_mul_mod(a, b, mod_low, p):
    f = len(mod_low)
    prod = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for deg in range(2 * f - 2, f - 1, -1):
        t = prod[deg] % p
        if t:
            for i in range(f):
                prod[deg - f + i] -= t * mod_low[i]
        prod[deg] = 0
    return tuple(v % p for v in prod[:f])


def _poly_pow_mod(a, e, mod_low, p):
    result = _digits(1, p, len(mod_low))
    while e:
        if e & 1:
            result = _poly_mul_mod(result, a, mod_low, p)
        a = _poly_mul_mod(a, a, mod_low, p)
        e >>= 1
    return result


def _slow_is_irreducible(mod_low, p):
    # Rabin: x^(p^f) = x, and x^(p^(f/l)) - x is prime to the modulus for every
    # prime l | f.  Given the first, Z/pZ[x]/(modulus) is a product of fields
    # F_{p^d} with d | f, so the second holds exactly when diff^(q-1) = 1
    f = len(mod_low)
    x = _digits(p, p, f)  # the encoding of x is p
    one = _digits(1, p, f)

    def frobenius(k):
        return _poly_pow_mod(x, p**k, mod_low, p)

    if frobenius(f) != x:
        return False
    for ell in prime_factors(f):
        diff = tuple((h - xi) % p for h, xi in zip(frobenius(f // ell), x))
        if _poly_pow_mod(diff, p**f - 1, mod_low, p) != one:
            return False
    return True


def _slow_search(p, f):
    # lex-smallest monic irreducible, then the smallest encoding of order q - 1,
    # every candidate encoding from 2 up tried by scalar powers
    q = p**f
    mod_low = next(m for c0 in range(1, p) for rest in itertools.product(range(p), repeat=f - 1)
                   if _slow_is_irreducible(m := (c0,) + rest, p))
    one = _digits(1, p, f)
    exponents = [(q - 1) // ell for ell in prime_factors(q - 1)]
    gamma = next(e for e in range(2, q)
                 if all(_poly_pow_mod(_digits(e, p, f), t, mod_low, p) != one for t in exponents))
    return mod_low + (1,), gamma


def _newton_basis_traces(p, f, mod_low):
    # power sums s_k = Tr(alpha**k) of the modulus root alpha = x, by Newton's identities
    s = [f % p] + [0] * (f - 1)
    for k in range(1, f):
        acc = k * mod_low[f - k]
        for i in range(1, k):
            acc += mod_low[f - i] * s[k - i]
        s[k] = (-acc) % p
    return s


def _slow_trace(p, f, mod_low):
    # int64 digit sum of every encoding against the basis traces, one digit at a time
    x = np.arange(p**f, dtype=np.int64)
    acc = np.zeros_like(x)
    for si in _newton_basis_traces(p, f, mod_low):
        acc += x % p * si
        acc %= p
        x //= p
    return acc


def test_f4_modulus_and_gamma():
    fld = get_field(2, 2)
    assert fld.modulus == (1, 1, 1)  # x^2 + x + 1
    assert fld.gamma == 2
    # gamma^2 = gamma + 1 under x^2 = x + 1
    assert mul(fld, 2, 2) == 3


def test_f5_generator_is_2():
    fld = get_field(5, 1)
    assert fld.gamma == 2
    assert list(fld.antilog) == [1, 2, 4, 3]


def test_f3_generator_is_2():
    # 2 is the only generator of F_3; 1 generates only F_2*
    fld = get_field(3, 1)
    assert fld.gamma == 2
    assert list(fld.antilog) == [1, 2]


def test_f2_edge_case():
    fld = get_field(2, 1)
    assert fld.q == 2
    assert list(fld.antilog) == [1]
    assert fld.gamma == 1
    assert int(fld.trace[1]) == 1


def test_gamma_order_in_f4096():
    fld = get_field(2, 12)
    q1 = fld.q - 1
    assert q1 == 4095
    # gamma's power at every maximal proper divisor of 4095 is not 1, by
    # schoolbook polynomial powers that read no table
    gamma, mod_low, one = _digits(fld.gamma, 2, 12), fld.modulus[:12], _digits(1, 2, 12)
    for ell in prime_factors(q1):  # {3, 5, 7, 13}
        assert _poly_pow_mod(gamma, q1 // ell, mod_low, 2) != one
    assert _poly_pow_mod(gamma, q1, mod_low, 2) == one


def test_trace_tables_f4_f9():
    f4 = get_field(2, 2)
    assert f4.trace.tolist() == [0, 0, 1, 1]
    # explicit modulus x^2 + x + 2 over F_3; trace(x) = x + x^3
    f9 = build_field(3, 2, modulus=(2, 1, 1))
    for x in range(9):
        expected = add(f9, x, power(f9, x, 3) if x else 0)
        assert int(f9.trace[x]) == expected
    # trace fibers all have size q/p
    counts = np.bincount(f9.trace, minlength=3)
    assert list(counts) == [3, 3, 3]


def test_trace_fibers_balanced_across_fields():
    for p, f in [(2, 4), (3, 3), (5, 2), (7, 2), (2, 8), (13, 1)]:
        fld = get_field(p, f)
        counts = np.bincount(fld.trace, minlength=p)
        assert counts.min() == counts.max() == fld.q // p


def test_trace_additive_and_frobenius_invariant():
    for p, f in [(2, 6), (3, 4), (5, 3)]:
        fld = get_field(p, f)
        rng = np.random.default_rng(7)
        xs = rng.integers(0, fld.q, size=40)
        ys = rng.integers(0, fld.q, size=40)
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert int(fld.trace[add(fld, x, y)]) == (int(fld.trace[x]) + int(fld.trace[y])) % p
            if x:
                assert fld.trace[power(fld, x, p)] == fld.trace[x]


def test_dlog_round_trip_and_addition():
    for p, f in [(2, 5), (3, 3), (7, 2), (11, 1)]:
        fld = get_field(p, f)
        q1 = fld.q - 1
        assert np.array_equal(fld.log[fld.antilog], np.arange(q1))
        # log turns multiplication into addition mod q-1: the product read
        # through the tables is the schoolbook polynomial product
        mod_low = fld.modulus[:f]
        for x in range(1, min(fld.q, 30)):
            for y in (1, 2, fld.q - 1):
                prod = _poly_mul_mod(_digits(x, p, f), _digits(y, p, f), mod_low, p)
                assert mul(fld, x, y) == sum(c * p**i for i, c in enumerate(prod)), (p, f, x, y)


def test_vector_arithmetic_matches_scalar():
    # sub_vec against the Python digit reference: p = 2, odd p with f >= 2,
    # and prime fields, with arrays on both sides and the scalar-first
    # broadcast sub_vec(1, antilog) that the oracle's Zech table reads
    for p, f in [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (13, 1), (101, 1)]:
        fld = get_field(p, f)
        rng = np.random.default_rng(11)
        a = rng.integers(0, fld.q, size=200)
        b = rng.integers(0, fld.q, size=200)
        subbed = fld.sub_vec(a, b)
        assert subbed.shape == a.shape
        assert subbed.tolist() == [sub(fld, x, y) for x, y in zip(a.tolist(), b.tolist())], (p, f)
        ones = fld.sub_vec(1, fld.antilog)
        assert ones.shape == fld.antilog.shape
        assert ones.tolist() == [sub(fld, 1, y) for y in fld.antilog.tolist()], (p, f)
        neg = fld.sub_vec(0, np.arange(fld.q))
        assert [add(fld, x, y) for x, y in enumerate(neg.tolist())] == [0] * fld.q, (p, f)


def test_neg_and_sub_are_digitwise_and_build_no_tables():
    # sub_vec takes no logarithm: -x is the product by p - 1, and x - 7 is
    # x plus that product for 7; scalar calls leave antilog and log unbuilt
    for p, f in [(2, 4), (3, 3), (13, 1), (5, 2)]:
        fld = build_field(p, f)
        for x in range(fld.q):
            assert fld.sub_vec(0, x) == mul(fld, x, p - 1)
            assert fld.sub_vec(x, 7 % fld.q) == add(fld, x, mul(fld, 7 % fld.q, p - 1))
    for p, f, x, y, diff, neg in [(2, 20, 5, 3, 6, 5), (3, 12, 5, 3, 2, 7)]:
        fld = build_field(p, f)
        assert (fld.sub_vec(x, y), fld.sub_vec(0, x)) == (diff, neg)
        assert (sub(fld, x, y), sub(fld, 0, x)) == (diff, neg)
        assert not fld.tables_built


def test_field_axioms_sampled():
    fld = get_field(3, 3)
    elems = list(range(fld.q))
    for x in elems:
        assert add(fld, x, 0) == x
        assert mul(fld, x, 1) == x
        if x:
            assert mul(fld, x, power(fld, x, -1)) == 1
    # distributivity on a sample grid: products by the tables, sums by digits
    for x in range(0, fld.q, 5):
        for y in range(0, fld.q, 7):
            for z in (1, 2, 13):
                lhs = mul(fld, add(fld, x, y), z)
                rhs = add(fld, mul(fld, x, z), mul(fld, y, z))
                assert lhs == rhs


def test_determinism_rebuild():
    a = build_field(3, 4)
    b = build_field(3, 4)
    assert a.modulus == b.modulus
    assert a.gamma == b.gamma
    assert np.array_equal(a.antilog, b.antilog)
    assert np.array_equal(a.log, b.log)
    assert np.array_equal(a.trace, b.trace)


def test_explicit_modulus_validation():
    with pytest.raises(ValueError, match="reducible"):
        build_field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2
    with pytest.raises(ValueError, match="monic"):
        build_field(3, 2, modulus=(1, 1, 2))


def test_domain_errors():
    with pytest.raises(ValueError, match="prime"):
        build_field(4, 2)
    with pytest.raises(ValueError, match=">= 1"):
        build_field(2, 0)
    with pytest.raises(ValueError, match="cap"):
        build_field(2, 23)
    assert SIZE_CAP == 1 << 22


_INEXACT_CALLS = {
    "modulus-float": lambda fld: build_field(2, 3, modulus=(1.5, 1, 0, 1)),
    "modulus-str": lambda fld: build_field(2, 3, modulus=("1", 1, 0, 1)),
    "gauss-sum-index": lambda fld: gauss_sum_numeric(fld, 5, 1.5),
    "gauss-sum-order": lambda fld: gauss_sum_numeric(fld, 5.0, 1),
}


@pytest.mark.parametrize("call", list(_INEXACT_CALLS.values()), ids=list(_INEXACT_CALLS))
def test_inexact_field_inputs_are_refused(call):
    # int() would truncate 1.5 and parse "1", and a float index fails as IndexError
    with pytest.raises(TypeError, match="integer"):
        call(get_field(2, 4))


def test_numpy_integers_stay_exact_field_inputs():
    fld = get_field(2, 4)
    assert build_field(2, 3, modulus=tuple(np.array([1, 1, 0, 1]))).modulus == (1, 1, 0, 1)
    assert gauss_sum_numeric(fld, np.int64(5), np.int64(1)) == gauss_sum_numeric(fld, 5, 1)


@pytest.mark.parametrize(
    "p, f",
    [(np.int64(2), 4), (2, np.int32(5)), (np.int64(3), 2), (np.uint8(7), 3), (3, np.uint8(3)), (np.int32(13), 1)],
    ids=["int64-p2", "int32-f5", "int64-p3", "uint8-p7", "uint8-f3", "int32-p13"],
)
def test_build_field_takes_numpy_integers(p, f):
    # uint8 arithmetic would wrap in the modulus search; numpy ints have no bit_length
    fld, ref = build_field(p, f), build_field(int(p), int(f))
    assert all(type(n) is int for n in (fld.p, fld.f, fld.q))
    assert (fld.p, fld.f, fld.q, fld.modulus) == (ref.p, ref.f, ref.q, ref.modulus)
    for name in ("antilog", "log", "trace"):
        got, want = getattr(fld, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_tables_are_read_only():
    fld = get_field(2, 3)
    with pytest.raises(ValueError):
        fld.antilog[0] = 5


@pytest.mark.parametrize("bad", [[1, 2, 4, 2], [1, 2, 0, 3], [1, 2, -1, 3]], ids=["repeat", "zero", "negative"])
def test_bijection_check_raises(monkeypatch, bad):
    # F_5 has antilog [1, 2, 4, 3]; a table that misses an element must be
    # refused.  The tables are built on first read, so each read raises
    monkeypatch.setattr(finite_field, "_power_table", lambda *args: np.array(bad, dtype=np.int64)[:, None])
    fld = build_field(5, 1)
    for name in ("antilog", "log"):
        with pytest.raises(AssertionError, match="bijection"):
            getattr(fld, name)
        assert not fld.tables_built


def _small_fields():
    for p in filter(is_prime, range(2, 1 << 12)):
        f = 1
        while p**f <= 1 << 12:
            yield p, f
            f += 1


def test_tables_match_slow_reference():
    # every field with q <= 2^12: powers of gamma one _poly_mul_mod at a time,
    # and the trace of each encoding as a digit sum against the basis traces
    for p, f in _small_fields():
        fld = build_field(p, f)
        mod_low = fld.modulus[:f]
        gamma = _digits(fld.gamma, p, f)
        powers = [_digits(1, p, f)]
        for _ in range(fld.q - 2):
            powers.append(_poly_mul_mod(powers[-1], gamma, mod_low, p))
        place = p ** np.arange(f)
        assert np.array_equal(fld.antilog, np.array(powers) @ place), (p, f)
        digits = np.arange(fld.q)[:, None] // place % p
        assert np.array_equal(fld.trace, digits @ _newton_basis_traces(p, f, mod_low) % p), (p, f)


@pytest.mark.parametrize(
    "p, f", [(2, 21), (3, 13), (131, 2), (137, 2), (233, 2), (251, 2), (2039, 2), (65521, 1), (4194301, 1)]
)
def test_trace_table_is_narrow_and_exact(p, f):
    # p in [128, 256) is where digit sums in uint8 would wrap.  The moduli of
    # 131^2 and 251^2 are x^2 + 1, whose Tr(x) = 0 keeps every sum below p;
    # 137^2 and 233^2 have x^2 + x + 1 and sums up to 2p - 2.  4194301 needs uint32.
    fld = build_field(p, f)
    assert fld.trace.dtype == np.min_scalar_type(p - 1)
    assert np.array_equal(fld.trace, _slow_trace(p, f, fld.modulus[:f])), (p, f)


def test_matrix_power_search_matches_scalar_reference():
    # every field with f >= 2 and q <= 2^16: the same modulus and the same generator
    for p in filter(is_prime, range(2, 1 << 8)):
        f = 2
        while p**f <= 1 << 16:
            modulus = _smallest_irreducible(p, f)
            found = (modulus, _find_generator(p, f, p**f, modulus[:f]))
            assert found == _slow_search(p, f), (p, f)
            f += 1
    # prime fields: the smallest primitive root, found by scalar pow
    for p in [*filter(is_prime, range(2, 1 << 16)), 4194301]:
        exponents = [(p - 1) // ell for ell in prime_factors(p - 1)]
        root = next(e for e in range(1, p) if all(pow(e, t, p) != 1 for t in exponents))
        assert _find_generator(p, 1, p, (0,)) == root, p


# (3, 6) has l in {2, 3}: a product of three distinct quadratics passes
# x^(p^f) = x and the l = 2 check, so only the l = 3 unit check rejects it.
# F_2 has one irreducible quadratic, so (2, 8) holds no such sextic
@pytest.mark.parametrize("p, f_max", [(2, 8), (3, 5), (3, 6), (5, 3)])
def test_rabin_test_matches_brute_force_factoring(p, f_max):
    # a monic polynomial of degree f is reducible exactly when it is a product
    # of two monic polynomials of degrees d and f - d with 1 <= d <= f / 2
    def monic(d):
        return [low + (1,) for low in itertools.product(range(p), repeat=d)]

    def times(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        return tuple(prod)

    for f in range(1, f_max + 1):
        reducible = {times(a, b) for d in range(1, f // 2 + 1) for a in monic(d) for b in monic(f - d)}
        for poly in monic(f):
            assert _is_irreducible(poly[:f], p) == (poly not in reducible), (p, poly)


def test_slot_layout_fits_in_an_int64():
    # the layout alone, for every field with f >= 2 under the cap; no field is built
    for p in filter(is_prime, range(2, 1 << 11)):
        f = 2
        while p**f <= SIZE_CAP:
            k, m, w = _slot_layout(p, f)
            assert f * w <= 63, (p, f)
            assert w <= 12 and p**k <= _CHUNK_VALUES and (m - 1) * k < f <= m * k, (p, f)
            f += 1


def test_slot_layout_overflow_raises():
    # 7 chunks of 6 ternary digits need 4-bit slots, 160 bits for 40 digits
    with pytest.raises(OverflowError, match="int64"):
        _slot_layout(3, 40)


@pytest.mark.parametrize("cap", [2, 9, 100])
def test_narrow_chunks_give_the_same_tables(monkeypatch, cap):
    # more chunks, wider slots and more decoder groups than the default layout
    fields = [(2, 12), (3, 7), (5, 5), (7, 4), (13, 3), (61, 2)]
    expected = {pf: get_field(*pf) for pf in fields}
    monkeypatch.setattr(finite_field, "_CHUNK_VALUES", cap)
    for pf in fields:
        fld = build_field(*pf)
        assert np.array_equal(fld.antilog, expected[pf].antilog), pf


# sha256 of the little-endian int64 tables.  The named-example fields were
# pinned before the tables were built by F_p-linear maps; the others before
# odd p moved from a (q-1, f) digit array to encodings.  They cover several
# equal chunks (3^13), uneven chunks (5^9, 7^7), one-digit chunks (2039^2)
# and a prime field at the size cap.
TABLE_DIGESTS = {
    (3, 12): (
        "91d1352aef801c292e6f7d9ff53a6a598b3836c286888e86ac6088cf64ea49e9",
        "df037be173be4a702b8217fe629ab9ace091cf0b5af1e9698fc571eda308bbeb",
        "7dd3a587b0cafea9b88430f663b7951de3ea8e58e653184f6d3a22d2f4575688",
    ),
    (2, 20): (
        "4cb1763d286d33f42814e96b18116a3f53b823240feed3677dbcb0bcef577222",
        "677292fafccb4e78245cbc196e3384b55cb2221c9f94abf35a59b02d2997fad5",
        "508cba4e7249ae2f02e3dd1f428fc82c369df48a027e880d51d069113b8a024e",
    ),
    (2, 21): (
        "7da0872700af13ee0d275e5f0b578bf67a7b0b2b359f3855ef4d89e728dde246",
        "72b4831410d4964717297390dad359dd0102aa4c0a1513cd18aa204e86b63856",
        "6a36c5a9aeade880b8756b4ef74bab830add3437bf6caa601d20d1ffb5570a83",
    ),
    (3, 13): (
        "103aa6b225070748e9d5adc9e5d66b5173fdd28337036a7c7a1d126916379863",
        "bfa6b0bf99a2877b2413f4b9420ed423ab32b123a618941862a7a988fb673203",
        "ca2a3ce63202a07e6a382b5651180224d6fc30e7a5a9be8325b7aa4fe0040092",
    ),
    (5, 9): (
        "5860e5b8a559f6bd49bae48e9c992843177dfe8b13c56c6fd8114a7cffccaf13",
        "ff0272e87bbfcaea50258d8717bbeafbed21e33627ce28ea8ecbbe0a17ae0056",
        "81597dc10877914eaee8765165683a32997229868b04cecff67f6ef74378bb73",
    ),
    (7, 7): (
        "deaa49332f63092471a027f5ac73d6e59f2820c67dd9409e997ed050abfaeb64",
        "fb3917b477a633adfcec4bcd0b40a63281e2a66645c61e1707a337eb37da44ec",
        "edc593746024fadbe415b1ee1913e26f8d0c79e803061c59274fabdce0dd051e",
    ),
    (2039, 2): (
        "c1cfe18cb307f983821c27d08a7980e8f467349ab5d2768c01d88b93e31000ee",
        "27ce76c3708359961504e3380fc8450644f00aa4d3df11f8bbed93ac7af1b18a",
        "6ce3aafbe3e67b0ca159016dd17252d1693df1207638d0016adef4b4de6381a2",
    ),
    (4194301, 1): (
        "36cba2cef633d10d8cc0f57e16b9eb24ace52b1b70be7ae86475150c7fe4fe98",
        "996660273598dbcece87e83b80c76dd48abdf1152252518445b2d6ef23e1831e",
        "64c1327d9388a814d56ba9ac068e2fc9874cdd50ac82688f0223426ddb3b0d5d",
    ),
}


@pytest.mark.parametrize("p, f", sorted(TABLE_DIGESTS))
def test_named_example_tables_are_pinned(p, f):
    fld = build_field(p, f)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(table, dtype="<i8").tobytes()).hexdigest()
        for table in (fld.antilog, fld.log, fld.trace)
    )
    assert digests == TABLE_DIGESTS[p, f]
