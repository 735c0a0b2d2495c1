"""Shared test helpers: a build cache so suites can reuse field tables,
scalar references that read a field only through its tables or its digits,
the Z[xi_p] operations CyclotomicInteger leaves out (sums and products also
as Python-int coefficient tuples, which may pass int64), and Fraction references
of the closed-form eigenvalues."""

from fractions import Fraction
from functools import lru_cache

from cyclosrg.cyclotomy import CyclotomicInteger
from cyclosrg.finite_field import build_field
from cyclosrg.gauss_theory import index2_gauss_prime_power, index2_gauss_two_primes
from cyclosrg.ntheory import factorize


@lru_cache(maxsize=None)
def get_field(p: int, f: int):
    return build_field(p, f)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _digitwise(fld, x: int, y: int, sign: int) -> int:
    # one base-p digit at a time in Python ints, never through sub_vec
    out, pw = 0, 1
    for _ in range(fld.f):
        out += (x // pw % fld.p + sign * (y // pw % fld.p)) % fld.p * pw
        pw *= fld.p
    return out


def add(fld, x: int, y: int) -> int:
    return _digitwise(fld, x, y, 1)


def sub(fld, x: int, y: int) -> int:
    return _digitwise(fld, x, y, -1)


def mul(fld, x: int, y: int) -> int:
    """The product read through the tables: antilog[(log x + log y) % (q-1)]."""
    if x == 0 or y == 0:
        return 0
    return int(fld.antilog[(fld.log[x] + fld.log[y]) % (fld.q - 1)])


def power(fld, x: int, e: int) -> int:
    """x**e for nonzero x, read through the tables: antilog[log x * e % (q-1)]."""
    return int(fld.antilog[fld.log[x] * e % (fld.q - 1)])


def folded(counts) -> tuple[int, ...]:
    """sum(counts[j] xi^j, j = 0..p-1) in the power basis as Python ints, by 1 + xi + ... + xi^(p-1) = 0."""
    counts = list(counts)
    return tuple(c - counts[-1] for c in counts[:-1])


def fold(p: int, counts) -> CyclotomicInteger:
    return CyclotomicInteger(p, folded(counts))


def tuple_sum(x: CyclotomicInteger, y: CyclotomicInteger) -> tuple[int, ...]:
    """x + y coefficient by coefficient in Python ints: the reference for CyclotomicInteger's sum."""
    return tuple(a + b for a, b in zip(x.coeffs, y.coeffs))


def tuple_product(x: CyclotomicInteger, y: CyclotomicInteger) -> tuple[int, ...]:
    """x y by the schoolbook rule in Python ints, folded to the power basis; the ring has no product
    of its own, so this is the reference for every product, at any size."""
    counts = [0] * x.p
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                counts[(i + j) % x.p] += a * b
    return folded(counts)


def neg(z: CyclotomicInteger) -> CyclotomicInteger:
    return CyclotomicInteger(z.p, [-c for c in z.coeffs])


def conj(z: CyclotomicInteger) -> CyclotomicInteger:
    """Complex conjugation xi -> xi^(-1)."""
    counts = [0] * z.p
    for j, c in enumerate(z.coeffs):
        counts[-j % z.p] += c
    return fold(z.p, counts)


def reference_prime_power(p: int, p1: int, m: int) -> tuple:
    """The tagged prime-power closed forms in Fraction arithmetic, term by term as the paper gives them."""
    g = index2_gauss_prime_power(p, p1, m)
    b, c, ph0 = g.b, g.c_abs, p**g.h0
    base = -Fraction(b * ph0, 2 * p1) - Fraction(1, p1)
    return (
        ("c_zero", Fraction(b * ph0, 2) + base),
        ("c_plus", Fraction(c * ph0, 2) + base),
        ("c_minus", -Fraction(c * ph0, 2) + base),
    )


def reference_two_primes(p: int, p1: int, p2: int, m: int) -> tuple:
    """The tagged two-prime closed forms in Fraction arithmetic, term by term as the paper gives them."""
    g = index2_gauss_two_primes(p, p1, p2, m)
    b, c, ph0 = g.b, g.c_abs, p**g.h0
    N, sq, P = p1**m * p2, p ** (g.f // 2), p1 ** (m - 1)
    sign1 = -1 if p1 % 4 == 3 else 1
    sign2 = -1 if p2 % 4 == 3 else 1
    values = (
        ("c_plus", -P + Fraction(b * ph0 * P, 2) + Fraction(c * ph0 * P * p1 * p2, 2)),
        ("c_minus", -P + Fraction(b * ph0 * P, 2) - Fraction(c * ph0 * P * p1 * p2, 2)),
        ("c_one", -P - sign1 * P * p2 * sq - sign2 * p1 * P * sq + Fraction(b * ph0 * P * (p1 - 1) * (p2 - 1), 2)),
        ("c_two", -P - sign1 * P * p2 * sq - Fraction(b * ph0 * P * (p2 - 1), 2)),
        ("c_three", -P - sign2 * p1 * P * sq - Fraction(b * ph0 * P * (p1 - 1), 2)),
    )
    return tuple((tag, val / N) for tag, val in values)
