"""Strongly regular graph certification for cyclotomic Cayley graphs.

Cay(F_q, D) with D a union of cyclotomic classes closed under negation is
k-regular with k = |D|, and its restricted eigenvalues are exactly the
connection sums psi(gamma^a D).  The graph is strongly regular iff those
sums take exactly two distinct values r > s, in which case

    mu = k + r*s,   lambda = mu + r + s,

and the multiplicities follow from trace identities.  Three routes find
the eigenvalue data independently, then derive the parameters in one
shared function, _certificate, whose result SrgCertificate re-checks:

* srg_from_spectrum: exact eigenvalues -> certificate (or None),
* difference_count_oracle: brute-force difference counting, no character
  theory at all,
* predicted_spectrum_*: closed-form eigenvalue candidates straight from the
  quadratic Gauss sum certificate (b, c, h0), each an integer numerator
  divided exactly by 2 p1 or 2 N; a remainder raises ArithmeticError.

A class union is decided in one place, verify_union: it checks D with
ClassMap.classes, refuses an asymmetric D as the oracle does, passes the
distinct sums to srg_from_spectrum, and runs the oracle when asked.  The
CLI's verify-srg and verify-example (via verify_named_example) call it.

A conference-graph spectrum (two conjugate irrational eigenvalues) is
accepted when r+s and r*s are rational integers, which srg_from_spectrum
decides in the quadratic subfield of Q(xi_p); r and s stay None, both
multiplicities are (v-1)/2, and the irrational flag is set.

The integer family criteria that the predictions feed live in
family_search, beside the scans that test them.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cyclotomy import ClassMap, CyclotomicInteger
from .finite_field import FieldTable
from .gauss_theory import QuadraticGaussValue, index2_gauss_prime_power, index2_gauss_two_primes

# the worst oracle run this admits, k|D| = 66421056 pairs (q = 2^22, N = 683, |D| = 104),
# took 0.64-0.76 s and 213 MB cold in verify-srg --oracle on a 2-vCPU VM
PAIR_BUDGET = 1 << 26
# predictions form p^h0 and p^(f/2), and p^f only when v, k or certificate() is
# read: capped at 2^20 bits, counted as f times the bit length of p; the largest
# family hit inside the scan caps, (5, 499) at m = 2, needs 372753 bits
PREDICTION_BITS_CAP = 1 << 20


@dataclass(frozen=True)
class SrgCertificate:
    """Parameters and restricted spectrum of a strongly regular graph.

    r and s are None exactly when the two restricted eigenvalues are
    conjugate irrationals (conference graphs); then both multiplicities
    equal (v-1)/2.  degenerate marks mu = 0.  source names the route that
    produced the certificate and is not graph data: == and hash ignore it,
    so two routes agree exactly when their certificates are equal (two
    Nones included).
    """

    v: int
    k: int
    lam: int
    mu: int
    r: int | None
    s: int | None
    mult_r: int | None
    mult_s: int | None
    source: str = dataclasses.field(compare=False)
    degenerate: bool
    irrational: bool

    def __post_init__(self):
        v, k, lam, mu = self.v, self.k, self.lam, self.mu
        if not 1 <= k <= v - 1:
            raise ValueError("k out of range")
        if not 0 <= lam <= k - 1 or mu < 0:
            raise ValueError("lambda or mu out of range")
        if k * (k - lam - 1) != (v - k - 1) * mu:
            raise ValueError("parameter identity k(k-lam-1) = (v-k-1)mu fails")
        if self.degenerate != (mu == 0):
            raise ValueError("degenerate flag inconsistent with mu")
        if self.irrational:
            if self.r is not None or self.s is not None:
                raise ValueError("irrational certificates carry no integer eigenvalues")
            if self.mult_r != (v - 1) // 2 or self.mult_s != (v - 1) // 2:
                raise ValueError("conference multiplicities must be (v-1)/2")
        else:
            r, s, mr, ms = self.r, self.s, self.mult_r, self.mult_s
            if None in (r, s, mr, ms):
                raise ValueError("rational certificates need r, s and multiplicities")
            if not r > s:
                raise ValueError("need r > s")
            if mu != k + r * s or lam != mu + r + s:
                raise ValueError("eigenvalue identities fail")
            if mr + ms != v - 1 or k + mr * r + ms * s != 0:
                raise ValueError("multiplicity identities fail")

    def parameters(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def same_graph_data(self, other: "SrgCertificate") -> bool:
        """Equality, which ignores the route that produced the certificate."""
        return self == other

    def to_json_dict(self, inputs: dict) -> dict:
        return {
            "source": self.source,
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "mu": self.mu,
            "r": self.r,
            "s": self.s,
            "mult_r": self.mult_r,
            "mult_s": self.mult_s,
            "degenerate_flag": self.degenerate,
            "irrational_eigenvalues": self.irrational,
            "inputs": inputs,
        }


def _exact(v) -> int | CyclotomicInteger:
    """An eigenvalue as an int when it is a rational integer, else as itself."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    if not isinstance(v, CyclotomicInteger):
        raise ValueError(f"eigenvalues must be integers or cyclotomic integers, got {type(v)!r}")
    return v.to_int() if v.is_rational_integer else v


def _sum_product(x: int | CyclotomicInteger, y: int | CyclotomicInteger) -> tuple[int, int] | None:
    """(x + y, x y) when both are rational integers, read off Q(sqrt(p*)) for two irrationals; else None."""
    if isinstance(x, int) or isinstance(y, int):
        return (x + y, x * y) if isinstance(x, int) and isinstance(y, int) else None
    if x.p != y.p:
        raise ValueError("mixed cyclotomic orders")
    xc, yc = x.quadratic_coordinates(), y.quadratic_coordinates()
    if xc is None or yc is None:
        return None
    (xu, xv), (yu, yv) = xc, yc
    if xv + yv or xu * yv + yu * xv - xv * yv:
        return None
    p_star = x.p if x.p % 4 == 1 else -x.p
    return xu + yu, xu * yu + xv * yv * ((p_star - 1) // 4)


def _certificate(v: int, k: int, e1: int, e2: int, source: str) -> SrgCertificate | None:
    """The certificate of two restricted eigenvalues with sum e1 and product e2, or None.

    mu = k + e2 and lambda = mu + e1.  Two values with a rational sum and
    product are rational exactly when their discriminant disc = e1^2 - 4 e2
    is a square; then r, s = (e1 +- sqrt(disc))/2 exactly, as disc = e1^2
    mod 4.  Otherwise they are conjugate irrationals, whose equal
    multiplicities force 2k + (v - 1) e1 = 0 (a conference graph).
    """
    mu = k + e2
    lam = mu + e1
    if lam < 0 or lam > k - 1 or mu < 0:
        return None
    if k * (k - lam - 1) != (v - k - 1) * mu:
        return None
    disc = e1 * e1 - 4 * e2
    if disc <= 0:  # no two distinct real values
        return None
    sd = math.isqrt(disc)
    if sd * sd != disc:
        # past this test v - 1 is even: an odd v - 1 would divide k, so with
        # both callers' 1 <= k <= v - 1, k = v - 1 and e1 = -2; the identity
        # above then gives lam = k - 1, e2 = 1 and disc = 0, refused above
        if 2 * k + (v - 1) * e1 != 0:
            return None
        half = (v - 1) // 2
        return SrgCertificate(v, k, lam, mu, None, None, half, half, source, mu == 0, True)
    r, s = (e1 + sd) // 2, (e1 - sd) // 2
    num = -k - s * (v - 1)
    if num % (r - s):
        return None
    mult_r = num // (r - s)
    mult_s = v - 1 - mult_r
    if mult_r < 1 or mult_s < 1:
        return None
    return SrgCertificate(v, k, lam, mu, r, s, mult_r, mult_s, source, mu == 0, False)


def srg_from_spectrum(v: int, k: int, values, source: str = "SPECTRUM") -> SrgCertificate | None:
    """Certificate from the exact multiset of restricted eigenvalues.

    values: the connection sums (CyclotomicInteger or int); repeats are
    ignored.  Returns None unless there are exactly two distinct values
    whose sum and product are rational integers and every integrality and
    feasibility identity holds.

    Two irrational values x, y with x + y and x y rational are roots of one
    rational quadratic, so both lie in the one quadratic subfield
    Q(sqrt(p*)), p* = (-1)^((p-1)/2) p, of Q(xi_p).  There x = u + v eta0 and
    y = u' + v' eta0, where eta0, the sum of xi^t over the nonzero squares t,
    satisfies eta0^2 = -eta0 + (p* - 1)/4 (Gauss).  Hence x + y and x y are
    rational exactly when v + v' = 0 and u v' + u' v - v v' = 0, and then
    x + y = u + u' and x y = u u' + v v' (p* - 1)/4.  Values outside the
    subfield, or one rational and one irrational value, give None.
    """
    v, k = operator.index(v), operator.index(k)
    if not 1 <= k <= v - 1:
        raise ValueError(f"valency k = {k} must lie in [1, v-1] for v = {v}")
    distinct = tuple(dict.fromkeys(map(_exact, values)))
    if len(distinct) != 2:
        return None
    e12 = _sum_product(*distinct)
    return None if e12 is None else _certificate(v, k, *e12, source)


def _symmetric_classes(cm: ClassMap, D) -> list[int]:
    """cm.classes(D), refused with ValueError unless their union is closed under negation."""
    d = cm.classes(D)
    if not cm.is_symmetric(d):
        raise ValueError("connection set is not symmetric (-D != D); the Cayley graph would be directed")
    return d


def _difference_counts(field: FieldTable, N: int, D: list[int]) -> tuple[np.ndarray, int]:
    """Difference counts of the union D of classes of order N, per class.

    Returns counts[j] = #{(x, y) in D^2 : x - y = gamma^j} and the number of
    pairs with x = y.  gamma^N D = D makes the count constant on each class,
    so x takes one element gamma^i of each class i in D and y all of D.
    Counts in the log domain with Zech logarithms Z(n) = log(1 - gamma^n):
    x - y = gamma^(i + Z(b - i)) for y = gamma^b, in class (i + Z(b - i))
    mod N.  The table comes from one sub_vec over the antilog table and is
    reduced mod N once; Z(0) = log(0) = -1 is replaced by 2N, so the pairs
    with x = y land in bins of their own.
    """
    n = field.q - 1
    zech = field.log[field.sub_vec(1, field.antilog)]
    zech = np.where(zech < 0, 2 * N, zech % N)
    # indexed by b - i + n in [1, 2n), so no reduction mod n per pair
    zech2 = np.concatenate((zech, zech))
    reps = np.array(D, dtype=np.int64)
    cols = (np.arange(0, n, N, dtype=np.int64)[:, None] + reps).ravel() + n
    bins = np.zeros(3 * N, dtype=np.int64)
    # blocks of about 2^18 pairs keep each temporary at 2 MB
    chunk = max(1, (1 << 18) // cols.size)
    for i in range(0, reps.size, chunk):
        rows = reps[i : i + chunk, None]
        idx = zech2[cols - rows]
        idx += rows
        bins += np.bincount(idx.ravel(), minlength=3 * N)
    return bins[:N] + bins[N : 2 * N], int(bins[2 * N :].sum())


def difference_count_oracle(cm: ClassMap, D) -> SrgCertificate | None:
    """Brute-force SRG check of Cay(F_q, D) by counting difference pairs.

    Counts r(d) = #{(x, y) in D^2 : x - y = d} for one d in each class; the
    graph is strongly regular iff r is constant on D (lambda) and constant
    off D u {0} (mu).  The differences are counted through Zech logarithms
    (see _difference_counts), still with field arithmetic only, no
    characters.
    """
    q = cm.field.q
    d = _symmetric_classes(cm, D)
    k = len(d) * cm.class_size
    if k * len(d) > PAIR_BUDGET:
        raise ValueError(f"difference pair budget exceeded: k|D| = {k * len(d)} > {PAIR_BUDGET}")
    if k == q - 1:
        return None  # complete graph
    counts, same = _difference_counts(cm.field, cm.N, d)
    if same != len(d) or int(counts.sum()) + same != k * len(d):
        raise AssertionError("difference counts do not total |D| at 0 and k|D| in all")
    lam_vals, mu_vals = counts[d], np.delete(counts, d)
    if lam_vals.min() != lam_vals.max() or mu_vals.min() != mu_vals.max():
        return None
    lam, mu = int(lam_vals[0]), int(mu_vals[0])
    cert = _certificate(q, k, lam - mu, mu - k, "ORACLE")
    if cert is None:
        raise AssertionError(f"constant counts lambda = {lam}, mu = {mu} fit no strongly regular spectrum")
    return cert


def verify_union(cm: ClassMap, D, source: str, oracle: bool) -> tuple[tuple, SrgCertificate | None, bool | None]:
    """Decide the symmetric union D: distinct sums by first occurrence, certificate, oracle agreement or None."""
    d = _symmetric_classes(cm, D)
    distinct = tuple(dict.fromkeys(cm.connection_sums(d)))
    cert = srg_from_spectrum(cm.field.q, len(d) * cm.class_size, distinct, source)
    return distinct, cert, cert == difference_count_oracle(cm, d) if oracle else None


# ---------------------------------------------------------------------------
# closed-form predictions


@dataclass(frozen=True)
class PredictedSpectrum:
    """Eigenvalue candidates of the cyclotomic Cayley graph, by closed form.

    values are (tag, eigenvalue) pairs of ints; tags name the candidate
    branch.  Each candidate is a rational combination of b, c and p^h0 and an
    algebraic integer, so an integer.  gauss is the quadratic certificate the
    formulas were built from.  v and k, the graph order and valency, are
    formed when read.  c is prime to p, so c_plus != c_minus: for two
    primes, c_one, c_two and c_three fall onto {c_plus, c_minus} exactly
    when integer_values() has two entries.
    """

    p: int
    p1: int
    m: int
    p2: int | None
    N: int
    gauss: QuadraticGaussValue
    values: tuple[tuple[str, int], ...]

    @property
    def v(self) -> int:
        return self.p**self.gauss.f

    @property
    def k(self) -> int:
        return (self.v - 1) // (self.p1 * (self.p2 or 1))

    def integer_values(self) -> list[int]:
        """The distinct candidates, largest first."""
        return sorted(set(val for _, val in self.values), reverse=True)

    def certificate(self) -> SrgCertificate | None:
        """Certificate from the predicted values."""
        return srg_from_spectrum(self.v, self.k, self.integer_values(), source="PREDICTED")


def _capped_terms(gauss: QuadraticGaussValue) -> tuple[int, int, int]:
    """(b, |c|, p^h0) of the Gauss value, refused with ValueError before p^h0 is formed if p^f passes the cap."""
    if gauss.f * gauss.p.bit_length() > PREDICTION_BITS_CAP:
        raise ValueError(f"p^f = {gauss.p}^{gauss.f} exceeds the cap of {PREDICTION_BITS_CAP} bits")
    return gauss.b, gauss.c_abs, gauss.p**gauss.h0


def _exact_values(den: int, **numerators: int) -> tuple[tuple[str, int], ...]:
    """(tag, numerator / den) for each candidate, refused with ArithmeticError unless den divides the numerator."""
    values = []
    for tag, num in numerators.items():
        val, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"closed-form candidate {tag} is not an integer: {den} does not divide its numerator")
        values.append((tag, val))
    return tuple(values)


def predicted_spectrum_prime_power(p: int, p1: int, m: int) -> PredictedSpectrum:
    """Eigenvalues of Cay(F_{p^f}, C_0 u ... u C_{p1^{m-1}-1}), N = p1^m.

    With g(chi) = ((b + c sqrt(-p1))/2) p^{h0} the three candidate values
    (over the three Legendre-symbol branches of the character argument) are

        zero branch:   b p^{h0} / 2 - b p^{h0} / (2 p1) - 1/p1
        +- branches: +-c p^{h0} / 2 - b p^{h0} / (2 p1) - 1/p1

    formed as integer numerators over 2 p1.
    """
    p, p1, m = operator.index(p), operator.index(p1), operator.index(m)
    gauss = index2_gauss_prime_power(p, p1, m)
    b, c, ph0 = _capped_terms(gauss)
    base = -b * ph0 - 2
    values = _exact_values(2 * p1, c_zero=b * ph0 * p1 + base, c_plus=c * ph0 * p1 + base, c_minus=-c * ph0 * p1 + base)
    return PredictedSpectrum(p, p1, m, None, p1**m, gauss, values)


def predicted_spectrum_two_primes(p: int, p1: int, p2: int, m: int) -> PredictedSpectrum:
    """Eigenvalues of Cay(F_{p^f}, union of C_{i p2}), N = p1^m p2.

    Five candidates c_plus, c_minus, c_one, c_two, c_three, formed as integer
    numerators over 2 N; strong regularity is exactly the collapse of the
    last three onto the first two.
    """
    p, p1, p2, m = operator.index(p), operator.index(p1), operator.index(p2), operator.index(m)
    gauss = index2_gauss_two_primes(p, p1, p2, m)
    b, c, ph0 = _capped_terms(gauss)
    N = p1**m * p2
    # f is even: the mod-4 pattern {1, 3} makes 8 divide (p1 - 1)(p2 - 1), so 4 divides f
    sq = p ** (gauss.f // 2)
    P = p1 ** (m - 1)
    sign1 = -1 if p1 % 4 == 3 else 1
    sign2 = -1 if p2 % 4 == 3 else 1
    bP, cP = b * ph0 * P, c * ph0 * P * p1 * p2
    values = _exact_values(
        2 * N,
        c_plus=-2 * P + bP + cP,
        c_minus=-2 * P + bP - cP,
        c_one=-2 * P - 2 * sign1 * P * p2 * sq - 2 * sign2 * p1 * P * sq + bP * (p1 - 1) * (p2 - 1),
        c_two=-2 * P - 2 * sign1 * P * p2 * sq - bP * (p2 - 1),
        c_three=-2 * P - 2 * sign2 * p1 * P * sq - bP * (p1 - 1),
    )
    return PredictedSpectrum(p, p1, m, p2, N, gauss, values)
