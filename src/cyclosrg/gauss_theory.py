"""Exact evaluation of Gauss sums whose character has a small decomposition.

For a multiplicative character chi of order N on F_q, q = p^f, the Gauss sum
is g(chi) = sum over a in F_q* of chi(a) psi(a).  Two families admit closed
forms used here:

* semi-primitive: some power p^t is -1 mod N; then p^{-f/2} g(chi) = +-1
  with an explicit sign, for any f = 2ts.

* index 2: the subgroup <p> has index 2 in (Z/NZ)* and -1 is not in <p>.
  For N odd this forces N = p1^m or N = p1^m p2^n.  The sum then lives in
  the imaginary quadratic field Q(sqrt(-p1)) or Q(sqrt(-p1 p2)) and equals
  ((b + c sqrt(-delta)) / 2) * p^{h0}, where b, c solve

      b^2 + delta c^2 = 4 p^h,   p does not divide b*c,

  h is the class number of Q(sqrt(-delta)), h0 = (f - h)/2, the sign of b
  is pinned by an explicit congruence, and only the sign of c is ambiguous
  (it depends on the choice of sqrt(-delta)).  (b, c) comes from
  Cornacchia's algorithm, in time polynomial in log p^h: square roots of
  -delta modulo 4 p^h give the solutions with gcd(b, c) = 1, and for odd p
  those modulo p^h, doubled, give the ones with gcd(b, c) = 2.  The two
  shapes share one builder for these steps and check their own inputs.

Exponents and sizes are capped (INDEX2_EXPONENT_CAP, QUADRATIC_FORM_BITS_CAP,
SEMIPRIMITIVE_BITS_CAP, CLASS_NUMBER_CAP) with a ValueError before the work
they bound.

Everything here is exact integer arithmetic; gauss_sum_numeric provides an
independent floating point evaluation for cross-checks.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .finite_field import FieldTable
from .ntheory import euler_phi, factorize, is_prime, is_squarefree, reduce_order

_NUMERIC_CAP = 1 << 16
# form counting takes time linear in d: about 0.08 s at the cap
CLASS_NUMBER_CAP = 10**6
# index-2 sums find the order of p by up to m powers modulo p1^m, so m is
# capped; gauss-index2 --p 2 --p1 999983 --m 64, the largest p1^m inside the
# caps, took 0.05 s in-process on a 2-vCPU VM
INDEX2_EXPONENT_CAP = 64
# Cornacchia's Euclid step costs time quadratic in the size of 4 p^h, so p^h
# is capped at 2^14 bits, counted as h times the bit length of p; the slowest
# solve inside the cap, p = 2 and h = 8192 (bit-by-bit 2-adic lift), took 0.7 s
QUADRATIC_FORM_BITS_CAP = 1 << 14
# semi-primitive sums print p^{f/2} in full: capped at 2^16 bits, counted as
# f/2 times the bit length of p; gauss-semiprimitive --p 3 --n 4 --f 65536,
# the largest value inside the cap, took 0.02 s
SEMIPRIMITIVE_BITS_CAP = 1 << 16


class Index2Kind(str, Enum):
    PRIME_POWER = "PRIME_POWER"
    TWO_PRIMES_SEMIPRIMITIVE_MIX = "TWO_PRIMES_SEMIPRIMITIVE_MIX"
    TWO_PRIMES_HALF_ORDER = "TWO_PRIMES_HALF_ORDER"
    NOT_INDEX2 = "NOT_INDEX2"


@dataclass(frozen=True)
class Index2Case:
    """Shape of (Z/NZ)* / <p> for odd N: which index-2 case applies, if any."""

    tag: Index2Kind
    order: int
    p1: int | None = None
    m: int | None = None
    p2: int | None = None
    n: int | None = None


@dataclass(frozen=True)
class SemiprimitiveGauss:
    """g(chi) = sign * p^{r/2} for a semi-primitive character of order N."""

    p: int
    N: int
    r: int
    t: int
    s: int
    sign: int

    def value(self) -> int:
        return self.sign * self.p ** (self.r // 2)


@dataclass(frozen=True)
class QuadraticGaussValue:
    """g(chi) = ((b + c sqrt(-delta)) / 2) * p^{h0}, c determined up to sign.

    b is always pinned: by genus theory h is odd for delta = p1 and even for
    delta = p1 p2, and each parity has its congruence.  c_abs is |c|.
    """

    p: int
    delta: int
    f: int
    h: int
    h0: int
    b: int
    c_abs: int

    def __post_init__(self):
        if self.b**2 + self.delta * self.c_abs**2 != 4 * self.p**self.h:
            raise ValueError("quadratic certificate fails b^2 + delta c^2 = 4 p^h")
        if self.b % self.p == 0 or self.c_abs % self.p == 0:
            raise ValueError("b and c must be prime to p")

    def conjugate_values(self) -> tuple[complex, complex]:
        """The two numeric candidates (c > 0 and c < 0); ValueError when they are not finite floats."""
        # p >= 2, so p^h0 >= 2^1024 exceeds the float range from h0 = 1024 on; refuse before forming it
        plus = complex("inf")
        if self.h0 < 1024:
            with contextlib.suppress(OverflowError):
                plus = (self.b + self.c_abs * complex(0.0, math.sqrt(self.delta))) / 2 * float(self.p**self.h0)
        if not cmath.isfinite(plus):
            raise ValueError("the numeric values ((b +- c sqrt(-delta))/2) p^h0 overflow a float")
        return plus, plus.conjugate()


class GaussSumNumeric(NamedTuple):
    value: complex
    error_bound: float


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n."""
    a, n = operator.index(a), operator.index(n)
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} and {n} are not coprime")
    phi = euler_phi(n)
    return reduce_order(a, n, phi, factorize(phi))


def classify_index2(p: int, N: int) -> Index2Case:
    """Decide whether <p> has index 2 in (Z/NZ)* without containing -1."""
    return _classify_index2(operator.index(p), operator.index(N), None)


def _classify_index2(p: int, N: int, fac: dict[int, int] | None) -> Index2Case:
    """classify_index2 given N's factors {l: e}, or None to factor N by trial division.

    The order modulo each l^e comes from the factors of l - 1 and l; modulo N it is their lcm.
    """
    if N <= 1 or N % 2 == 0:
        raise ValueError(f"N must be an odd integer >= 3, got {N}")
    if math.gcd(p, N) != 1:
        raise ValueError(f"p = {p} and N = {N} are not coprime")
    fac = sorted((fac or factorize(N)).items())
    phis = [(l - 1) * l ** (e - 1) for l, e in fac]
    orders = [reduce_order(p, l**e, phi, [*factorize(l - 1), l]) for (l, e), phi in zip(fac, phis)]
    order = math.lcm(*orders)
    minus_one_in = order % 2 == 0 and pow(p, order // 2, N) == N - 1
    if 2 * order != math.prod(phis) or minus_one_in:
        return Index2Case(Index2Kind.NOT_INDEX2, order)
    if len(fac) == 1:
        (p1, m), = fac
        return Index2Case(Index2Kind.PRIME_POWER, order, p1=p1, m=m)
    if len(fac) != 2:
        raise AssertionError("index 2 with three or more odd primes is impossible")
    # p1 is the component of full order; when both are, the repeated prime, and ties break small
    ((p1, m), o1, phi1), ((p2, n), o2, phi2) = sorted(
        zip(fac, orders, phis), key=lambda c: (c[1] != c[2], -c[0][1], c[0][0])
    )
    if o1 == phi1 and o2 == phi2:
        return Index2Case(Index2Kind.TWO_PRIMES_SEMIPRIMITIVE_MIX, order, p1=p1, m=m, p2=p2, n=n)
    if o1 == phi1 and 2 * o2 == phi2:
        return Index2Case(Index2Kind.TWO_PRIMES_HALF_ORDER, order, p1=p1, m=m, p2=p2, n=n)
    raise AssertionError("index 2 component orders do not fit any known case")


@lru_cache(maxsize=None, typed=True)
def class_number(d: int) -> int:
    """Class number of Q(sqrt(-d)) for squarefree d >= 1, by form counting.

    Counts the reduced primitive forms (a, b, c), see _reduced_primitive, with
    b^2 - 4ac = -d (d = 3 mod 4) or -4d (otherwise).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d > CLASS_NUMBER_CAP:
        raise ValueError(f"d = {d} exceeds the cap {CLASS_NUMBER_CAP}")
    if not is_squarefree(d):
        raise ValueError(f"d must be squarefree, got {d}")
    disc = -d if d % 4 == 3 else -4 * d
    h = 0
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(-a + (a + disc) % 2, a + 1, 2):  # b = disc mod 2
            num = b * b - disc
            if num % (4 * a) == 0 and _reduced_primitive(a, b, num // (4 * a), math.gcd):
                h += 1
    return h


def _reduced_primitive(a, b, c, gcd=np.gcd):
    """For |b| <= a: a <= c, b >= 0 if |b| = a or a = c, and gcd(a, b, c) = 1 (elementwise on arrays)."""
    return (a <= c) & ((b >= 0) | ((b != -a) & (a != c))) & (gcd(gcd(a, b), c) == 1)


def reduced_form_counts(n_max: int) -> np.ndarray:
    """counts[n] = number of reduced primitive forms of discriminant -n, n <= n_max.

    So h(Q(sqrt(-d))) is counts[d] (d = 3 mod 4) or counts[4d], for every
    squarefree d at once (Cohen, A Course in Computational ANT, 5.3).
    """
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for a in range(1, math.isqrt(n_max // 3) + 1):
        b = np.arange(-a, a + 1)[:, None]
        c = np.arange(a, (n_max + a * a) // (4 * a) + 1)
        n = 4 * a * c - b * b
        counts += np.bincount(n[(n <= n_max) & _reduced_primitive(a, b, c)], minlength=n_max + 1)
    return counts


def semiprimitive_gauss(p: int, N: int, f: int) -> SemiprimitiveGauss:
    """Evaluate g(chi) over F_{p^f} for chi of order N in the semi-primitive case.

    Requires the least t with p^t = -1 mod N to exist and f = 2ts.  Then
    p^{-f/2} g(chi) is (-1)^{s-1} for p = 2 and (-1)^{s-1 + (p^t+1)s/N}
    for odd p.  The order 2t of p modulo N divides f, so it comes from the
    factors of f, and N is never factored.  The result stores f as r.
    """
    p, N, f = operator.index(p), operator.index(N), operator.index(f)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if N <= 2:
        raise ValueError(f"N must be at least 3, got {N}")
    if f < 1:
        raise ValueError(f"f must be >= 1, got {f}")
    if f // 2 * p.bit_length() > SEMIPRIMITIVE_BITS_CAP:
        raise ValueError(f"p^(f/2) = {p}^{f // 2} exceeds the cap of {SEMIPRIMITIVE_BITS_CAP} bits")
    if math.gcd(p, N) != 1:
        raise ValueError(f"p = {p} and N = {N} are not coprime")
    if pow(p, f, N) != 1:
        raise ValueError(f"f = {f} is not a multiple of the order of {p} modulo {N}")
    order = reduce_order(p, N, f, factorize(f))
    if order % 2 or pow(p, order // 2, N) != N - 1:
        raise ValueError(f"no power of {p} is -1 modulo {N}")
    t = order // 2
    s = f // order
    if p == 2:
        exponent = s - 1
    else:
        exponent = (s - 1) + (p**t + 1) // N * s
    return SemiprimitiveGauss(p, N, f, t, s, -1 if exponent % 2 else 1)


def _sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """Every r in [0, p^k) with r^2 = a mod p^k, for a prime to p and k >= 1.

    Odd p: Tonelli-Shanks modulo p, then Newton steps r -= (r^2 - a) / (2r),
    each doubling the p-adic precision; the roots are +-r.  p = 2: a root
    modulo 8 lifts bit by bit (r or r + 2^(j-1) is a root modulo 2^(j+1)),
    and the roots are +-r and +-r + 2^(k-1).
    """
    pk = p**k
    if p == 2:
        if k <= 3:
            return [r for r in range(1, pk, 2) if (r * r - a) % pk == 0]
        if a % 8 != 1:
            return []
        r = 1
        for j in range(3, k):
            if (r * r - a) % (2 << j):
                r += 1 << (j - 1)
        return [r, pk - r, (r + pk // 2) % pk, (pk // 2 - r) % pk]
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        r, c, s = r * b % p, b * b % p, i
        t = t * c % p
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
    return [r, pk - r]


def _solve_quadratic_form(p: int, delta: int, h: int) -> list[tuple[int, int]]:
    """All (|b|, |c|) with b^2 + delta c^2 = 4 p^h and p dividing neither, by c.

    Cornacchia's algorithm (Cohen, Alg. 1.5.2/1.5.3): each square root r of
    -delta modulo m runs Euclid on (m, r) down to the first remainder
    x <= sqrt(m), and gives x^2 + delta y^2 = m when (m - x^2) / delta is a
    square y^2.  (Folding r into (0, m/2] is not needed: for r > m/2, Euclid
    on (m, r) and on (m, m - r) reach the same remainders below m/2; r and
    -r give the same solution.)  These are the solutions with gcd(x, y) = 1,
    and p divides neither x nor y when p does not divide delta.  With p
    dividing neither b nor c, gcd(b, c) is 1 or 2, so m = 4 p^h gives the
    first kind and, for odd p, m = p^h doubled gives the second (delta = 7,
    p = 11, h = 1 has only (4, 2)).  The cost is polynomial in log p^h; no
    loop runs over c.
    """
    if h < 1 or delta < 2:
        raise ValueError(f"need h >= 1 and delta >= 2, got h = {h}, delta = {delta}")
    if h * p.bit_length() > QUADRATIC_FORM_BITS_CAP:
        raise ValueError(f"p^h = {p}^{h} exceeds the cap of {QUADRATIC_FORM_BITS_CAP} bits")
    if delta % p == 0:
        return []  # b^2 = -delta c^2 = 0 mod p
    ph = p**h
    if p == 2:
        # b and c are odd, so every solution is primitive
        forms = [(4 * ph, 1, _sqrt_mod_prime_power(-delta, 2, h + 2))]
    else:
        roots = _sqrt_mod_prime_power(-delta, p, h)
        inv = pow(ph, -1, 4)
        crt = [r + ph * ((t - r) * inv % 4) for r in roots for t in _sqrt_mod_prime_power(-delta, 2, 2)]
        forms = [(4 * ph, 1, crt), (ph, 2, roots)]
    found = set()
    for m, scale, roots in forms:
        limit = math.isqrt(m)
        for r in roots:
            a, x = m, r
            while x > limit:
                a, x = x, a % x
            y2, rest = divmod(m - x * x, delta)
            y = math.isqrt(y2)
            if rest == 0 and y >= 1 and y * y == y2:
                found.add((scale * x, scale * y))
    return sorted(found, key=lambda bc: bc[1])


def index2_gauss_prime_power(p: int, p1: int, m: int) -> QuadraticGaussValue:
    """Exact Gauss sum for chi of order N = p1^m, p1 = 3 mod 4, p1 > 3.

    f = phi(N)/2, h = h(Q(sqrt(-p1))), h0 = (f-h)/2, and b is pinned by
    b * p^{h0} = -2 mod p1.
    """
    p, p1, m = operator.index(p), operator.index(p1), operator.index(m)
    if not is_prime(p) or not is_prime(p1):
        raise ValueError("p and p1 must be prime")
    if p1 <= 3:
        raise ValueError(f"p1 must exceed 3, got {p1}")
    if p1 % 4 != 3:
        raise ValueError(f"p1 must be 3 mod 4, got {p1}")
    refusal = "<{p}> does not have index 2 without -1 modulo {p1}**{m} (got {tag})"
    return _index2_gauss(p, p1, {p1: m}, Index2Kind.PRIME_POWER, refusal, lambda h, h0: (p1, -2 * pow(p, -h0, p1)))


def index2_gauss_two_primes(p: int, p1: int, p2: int, m: int) -> QuadraticGaussValue:
    """Exact Gauss sum for chi of order N = p1^m p2 with both components full.

    Requires {p1 mod 4, p2 mod 4} = {1, 3}, ord of p maximal modulo p1^m and
    modulo p2, and overall index 2.  h = h(Q(sqrt(-p1 p2))) is even by genus
    theory (two primes divide the discriminant), and b is pinned by
    b = 2 p^{h/2} modulo whichever of p1, p2 is 3 mod 4.
    """
    p, p1, p2, m = operator.index(p), operator.index(p1), operator.index(p2), operator.index(m)
    if not (is_prime(p) and is_prime(p1) and is_prime(p2)):
        raise ValueError("p, p1, p2 must all be prime")
    if p1 == p2:
        raise ValueError("p1 and p2 must be distinct")
    if {p1 % 4, p2 % 4} != {1, 3}:
        raise ValueError(f"need one prime 1 mod 4 and one 3 mod 4, got {p1}, {p2}")
    ell = p1 if p1 % 4 == 3 else p2
    refusal = "<{p}> modulo {N} is not the two-prime index-2 case (got {tag})"
    # the mixed case is full order modulo both p1^m and p2
    kind = Index2Kind.TWO_PRIMES_SEMIPRIMITIVE_MIX
    return _index2_gauss(p, p1 * p2, {p1: m, p2: 1}, kind, refusal, lambda h, h0: (ell, 2 * pow(p, h // 2, ell)))


def _index2_gauss(p: int, delta: int, fac: dict[int, int], kind: Index2Kind, refusal: str, pin) -> QuadraticGaussValue:
    """The value for N = prod l^e over fac = {p1: m, ...}, refused unless N is of kind.

    pin(h, h0) = (ell, want) signs b by b = want mod ell; refusal is formatted with p, p1, m, N and tag.
    """
    p1, m = next(iter(fac.items()))
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > INDEX2_EXPONENT_CAP:
        raise ValueError(f"m = {m} exceeds the cap {INDEX2_EXPONENT_CAP}")
    h = class_number(delta)
    N = math.prod(l**e for l, e in fac.items())
    case = _classify_index2(p, N, fac)
    if case.tag is not kind:
        raise ValueError(refusal.format(p=p, p1=p1, m=m, N=N, tag=case.tag.value))
    f = case.order
    # f and h(-p1) are odd for N = p1^m; for N = p1^m p2, 8 | (p1 - 1)(p2 - 1) gives 4 | f, and h is even
    if (f - h) % 2:
        raise ValueError("f - h is odd, no integral h0 exists")
    h0 = (f - h) // 2
    ell, want = pin(h, h0)
    pinned = [(sb * b, c) for b, c in _solve_quadratic_form(p, delta, h) for sb in (1, -1) if (sb * b - want) % ell == 0]
    if len(pinned) != 1:
        raise ArithmeticError(f"sign resolution found {len(pinned)} candidates, expected exactly 1")
    b, c = pinned[0]
    return QuadraticGaussValue(p=p, delta=delta, f=f, h=h, h0=h0, b=b, c_abs=c)


def gauss_sum_numeric(field: FieldTable, N: int, j: int) -> GaussSumNumeric:
    """Direct numeric g(chi_j), chi_j(gamma^k) = exp(2 pi i j k / N).

    Exact-arithmetic results should match within the returned error bound.
    Limited to q <= 2^16 to keep the direct sum cheap and accurate.
    """
    q, N, j = field.q, operator.index(N), operator.index(j)
    if q > _NUMERIC_CAP:
        raise ValueError(f"numeric Gauss sums are limited to q <= {_NUMERIC_CAP}")
    if N < 1:
        raise ValueError(f"N = {N} must be at least 1")
    if (q - 1) % N:
        raise ValueError(f"N = {N} does not divide q - 1 = {q - 1}")
    if not 0 <= j < N:
        raise ValueError(f"character index j must lie in [0, {N})")
    k = np.arange(q - 1, dtype=np.int64)
    mult_phase = (j * k) % N
    add_phase = field.trace[field.antilog]
    z = np.exp(2j * np.pi * (mult_phase / N + add_phase / field.p))
    return GaussSumNumeric(complex(z.sum()), q * 2.0**-50)
