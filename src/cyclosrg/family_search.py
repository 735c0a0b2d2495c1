"""The prime pair and triple family criteria, bounded scans, and named runs.

A pair (p, p1) or triple (p, p1, p2) passing the family criterion gives a
strongly regular Cayley graph over F_{p^f} for every exponent m >= 1 of p1
in the class count N.  Each shape's criterion is written once, as array
code over a grid of primes p and candidate columns: the orders of p come
from one vectorized square-and-multiply, and the failing checks fold into
one reason bitmask per (p, candidate).  A scan runs it on its whole box,
and pair_family_check and triple_family_check on length-1 arrays.  Hits
carry full witnesses and misses reason codes, so an empty region is as
auditable as a hit.  The named examples pin the handful of instances
small enough to verify end to end on a desk machine.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import chain, compress, repeat, takewhile
from typing import NamedTuple

import numpy as np

from .cyclotomy import classify
from .finite_field import build_field
from .gauss_theory import class_number, classify_index2, reduced_form_counts
from .ntheory import is_prime, prime_factors, primes_upto
from .srg_engine import (
    PredictedSpectrum,
    SrgCertificate,
    predicted_spectrum_prime_power,
    predicted_spectrum_two_primes,
    verify_union,
)

# Scans count reduced forms and factor ell - 1 up to their bounds and test every candidate in the box,
# so both are capped; the slowest box at the caps, scan_triples(100, 10**4), takes 0.09-0.14 s on a 2-vCPU VM
SCAN_BOUND_CAP = 10**4
SCAN_BOX_CAP = 10**6

# the difference-count oracle is only run for fields up to this order
_ORACLE_Q_CAP = 4096

# reason codes for family criterion rejections
REASON_NOT_PRIME = "NOT_PRIME"
REASON_NOT_COPRIME = "NOT_COPRIME"
REASON_P1_TOO_SMALL = "P1_TOO_SMALL"
REASON_MOD4_PATTERN = "MOD4_PATTERN"
REASON_NOT_INDEX2 = "NOT_INDEX2"
REASON_DIOPHANTINE_FAIL = "DIOPHANTINE_FAIL"


# ---------------------------------------------------------------------------
# family criteria


@dataclass(frozen=True)
class FamilyCheck:
    """Outcome of the pair/triple family criterion with a full witness.

    reasons lists every failing check; ok means there is none.  For passing
    candidates the witness carries the class number h, the pinned sign b,
    the field degree f_m1 at m = 1, and the predicted integer eigenvalues
    r_m1, s_m1 at m = 1 and r_m2, s_m2 at m = 2; m > 2 members are certified
    by order lifting (full order modulo p1^2 lifts to p1^m).  The JSON keys
    are the field names and ok, with p2 left out of a pair.
    """

    p: int
    p1: int
    p2: int | None
    reasons: tuple[str, ...]
    h: int | None = None
    b: int | None = None
    f_m1: int | None = None
    r_m1: int | None = None
    s_m1: int | None = None
    r_m2: int | None = None
    s_m2: int | None = None
    r_formula: str | None = None
    s_formula: str | None = None

    @property
    def ok(self) -> bool:
        return not self.reasons

    def to_json_dict(self) -> dict:
        out = asdict(self) | {"ok": self.ok}
        if self.p2 is None:
            del out["p2"]
        return out


def _predicted(p: int, p1: int, p2: int | None, m: int) -> PredictedSpectrum:
    """The closed-form spectrum of the family's union at exponent m: N = p1^m, or p1^m p2."""
    if p2 is None:
        return predicted_spectrum_prime_power(p, p1, m)
    return predicted_spectrum_two_primes(p, p1, p2, m)


def _family_hit(p: int, p1: int, p2: int | None, h: int, b: int, a_r: int, a_s: int) -> FamilyCheck:
    """The witness of a family hit: eigenvalues at m = 1 and 2 and the formulas in p^h0.

    Both index-2 Gauss sums must pin the family's sign b.
    """
    sp1, sp2 = _predicted(p, p1, p2, 1), _predicted(p, p1, p2, 2)
    if sp1.gauss.b != b or sp2.gauss.b != b:
        raise AssertionError(f"family sign b = {b} disagrees with the index-2 Gauss sum")
    r_m1, s_m1 = max(sp1.integer_values()), min(sp1.integer_values())
    r_m2, s_m2 = max(sp2.integer_values()), min(sp2.integer_values())
    return FamilyCheck(
        p, p1, p2, (), h=h, b=b, f_m1=sp1.gauss.f, r_m1=r_m1, s_m1=s_m1, r_m2=r_m2, s_m2=s_m2,
        r_formula=f"({a_r}*{p}^h0-1)/{sp1.N}", s_formula=f"({a_s}*{p}^h0-1)/{sp1.N}",
    )


def _screen(*ns: int) -> tuple[str, ...]:
    """NOT_PRIME unless every n is prime, then NOT_COPRIME unless they are distinct; () if both hold."""
    if not all(map(is_prime, ns)):
        return (REASON_NOT_PRIME,)
    return () if len(set(ns)) == len(ns) else (REASON_NOT_COPRIME,)


# bit i of a reason mask is _CODES[i], listed in this order; NOT_COPRIME (p is a partner) hides the rest
_CODES = (REASON_NOT_COPRIME, REASON_P1_TOO_SMALL, REASON_MOD4_PATTERN, REASON_NOT_INDEX2, REASON_DIOPHANTINE_FAIL)
_REASONS = [
    (REASON_NOT_COPRIME,) if mask & 1 else tuple(code for i, code in enumerate(_CODES) if mask >> i & 1)
    for mask in range(1 << len(_CODES))
]


def _order_grids(ps: list[int], ells: list[int], halve: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(len(ps), len(ells)) boolean grids of ell | p, ord_ell(p) = n and p^n = 1 mod ell^2, for n = (ell - 1) >> halve.

    ord_ell(p) = n when n >= 1, p^n = 1 and p^(n/q) != 1 modulo ell for each prime q | n.  p is reduced modulo
    ell^2 in Python ints; one square-and-multiply over the grid then runs in int64 only when (ell^2)^2 < 2^63,
    as at every scan bound, and on Python ints (dtype object) otherwise.
    """
    rows = [[n, *(n // q for q in prime_factors(ell - 1) if n % q == 0)] for ell in ells for n in [(ell - 1) >> halve]]
    width = max(map(len, rows), default=1)
    # a row is padded with n, whose test p^n = 1 is that of its first column
    exps = np.array([row + row[:1] * (width - len(row)) for row in rows], np.int64).reshape(len(ells), width)
    dtype = np.int64 if max(ells, default=0) ** 4 < 2**63 else object
    mods = [ell * ell for ell in ells]
    square = base = np.array([[p % m for m in mods] for p in ps], dtype).reshape(len(ps), len(ells), 1)
    ell, mods = np.array(ells, dtype).reshape(-1, 1), np.array(mods, dtype).reshape(-1, 1)
    powers = np.ones((len(ps), *exps.shape), dtype)
    for bit in (exps[..., None] >> np.arange(int(exps.max(initial=0)).bit_length()) & 1 > 0).transpose(2, 0, 1):
        np.remainder(powers * square, mods, out=powers, where=bit)
        square = square * square % mods
    exact = ((powers % ell == 1) == (exps == exps[:, :1])).all(-1) & (exps[:, 0] > 0)
    return (base % ell == 0)[..., 0], exact, powers[..., 0] == 1


class _Shape(NamedTuple):
    """A family shape: ord_ell(p) = (ell - 1) >> halve per partner ell, its own tests, and its witness."""
    halve: int
    tests: Callable[..., dict[str, np.ndarray]]
    hit: Callable[[int, tuple[int, ...], int], FamilyCheck]


def _masks(ps: list[int], cols: np.ndarray, h: np.ndarray, shape: _Shape) -> np.ndarray:
    """The (len(ps), len(h)) reason masks of each p against each partner column cols[:, j] with class number h[j]."""
    ells = sorted(set(cols.ravel().tolist()))
    index = np.searchsorted(ells, cols)
    divides, exact, lift = (grid[:, index].swapaxes(0, 1) for grid in _order_grids(ps, ells, shape.halve))
    target = math.prod(cols) + 1
    top = int(target.max(initial=0))
    # 4 p^k while it is <= top, then -1s: as 4 p^k <= top needs k <= width - 3, 4 p^h reads column min(h, width - 1)
    width = top.bit_length()
    fours = [[*takewhile(top.__ge__, (4 * p**k for k in range(width)))] for p in ps]
    fours = np.array([row + [-1] * (width - len(row)) for row in fours], np.int64).reshape(len(ps), width)
    common = {REASON_NOT_COPRIME: divides.any(0), REASON_DIOPHANTINE_FAIL: fours[:, np.minimum(h, width - 1)] != target}
    tests = shape.tests(cols, h, exact, lift) | common
    return sum(test << _CODES.index(code) for code, test in tests.items())


def _check(p: int, ells: tuple[int, ...], shape: _Shape) -> FamilyCheck:
    """The family check of one candidate (p, *ells) of the given shape."""
    p, ells = operator.index(p), tuple(map(operator.index, ells))
    p1, p2 = (*ells, None)[:2]
    reasons = _screen(p, *ells)
    if reasons:
        return FamilyCheck(p, p1, p2, reasons)
    h = class_number(math.prod(ells))  # refuses a product beyond CLASS_NUMBER_CAP before any order is found
    reasons = _REASONS[_masks([p], np.array(ells).reshape(-1, 1), np.array([h]), shape)[0, 0]]
    return FamilyCheck(p, p1, p2, reasons, h=h) if reasons else shape.hit(p, ells, h)


def _pair_tests(cols: np.ndarray, h: np.ndarray, exact: np.ndarray, lift: np.ndarray) -> dict[str, np.ndarray]:
    """The pair criterion's own checks: p1 > 3, p1 = 3 mod 4, and half order o modulo p1 and p1^2 (o or p1 o)."""
    ((p1,), (half,), (lifted,)) = cols, exact, lift
    return {REASON_P1_TOO_SMALL: p1 <= 3, REASON_MOD4_PATTERN: p1 % 4 != 3, REASON_NOT_INDEX2: ~half | lifted}


def _pair_hit(p: int, ells: tuple[int], h: int) -> FamilyCheck:
    (p1,) = ells
    b = 1 if p1 % 8 == 3 else -1
    a_r, a_s = (p1 - b) // 2, -(p1 + b) // 2
    return _family_hit(p, p1, None, h, b, a_r, a_s)


def pair_family_check(p: int, p1: int) -> FamilyCheck:
    """Does (p, p1) generate the prime-power SRG family for every m >= 1?

    True iff p, p1 prime, p1 = 3 mod 4, p1 > 3, p has half order modulo p1
    and modulo p1^2 (so modulo every p1^m), and 1 + p1 = 4 p^h with
    h = h(Q(sqrt(-p1))).  Then b, c = +-1 and the spectrum is two-valued
    for every m.
    """
    return _check(p, (p1,), _PAIRS)


def _triple_tests(cols: np.ndarray, h: np.ndarray, exact: np.ndarray, lift: np.ndarray) -> dict[str, np.ndarray]:
    """The triple criterion's own checks: {p1, p2} = {1, 3} mod 4, and index 2 modulo p1^2 p2."""
    (p1, p2), (full1, full2), (lifted1, _) = cols, exact, lift
    odd = np.flatnonzero(h % 2)[:1]
    if odd.size:
        raise AssertionError(f"h(Q(sqrt(-{p1[odd][0] * p2[odd][0]}))) = {h[odd][0]} is odd, against genus theory")
    # full orders modulo p1, p1^2 and p2 have lcm (p1 - 1)(p2 - 1) / 2 when gcd(p1 - 1, p2 - 1) = 2
    index2 = full1 & ~lifted1 & full2 & (np.gcd(p1 - 1, p2 - 1) == 2)
    return {REASON_MOD4_PATTERN: p1 % 4 * (p2 % 4) != 3, REASON_NOT_INDEX2: ~index2}


def _triple_hit(p: int, ells: tuple[int, int], h: int) -> FamilyCheck:
    p1, p2 = ells
    b = (-1 if p1 % 4 == 3 else 1) * (p1 - 2 * p ** (h // 2))
    return _family_hit(p, p1, p2, h, b, (b + p1 * p2) // 2, (b - p1 * p2) // 2)


_PAIRS, _TRIPLES = _Shape(1, _pair_tests, _pair_hit), _Shape(0, _triple_tests, _triple_hit)


def triple_family_check(p: int, p1: int, p2: int) -> FamilyCheck:
    """Does (p, p1, p2) generate the two-prime SRG family for every m >= 1?

    True iff all prime, {p1, p2} = {1, 3} mod 4, p has full order modulo
    p1, p1^2 and p2 with overall index 2 modulo p1 p2, and 1 + p1 p2 = 4 p^h
    with h = h(Q(sqrt(-p1 p2))), which genus theory makes even.  Then
    p1 p2 = (R - 1)(R + 1) with R = 2 p^{h/2} >= 4 forces {p1, p2} = {R - 1, R + 1},
    so b = e (p1 - R) = +-1 with e = (-1)^{(p1-1)/2}.
    """
    return _check(p, (p1, p2), _TRIPLES)


# ---------------------------------------------------------------------------
# bounded scans


@dataclass(frozen=True)
class SearchReport:
    """Exhaustive scan outcome: hits with witnesses, misses with reasons.

    kind is "pairs" or "triples"; bounds echoes the requested box.  hits
    holds the passing FamilyCheck records sorted by (p, p1, p2); every
    other candidate appears in rejections with its failing reason codes.
    """

    kind: str
    bounds: tuple[int, int]
    hits: tuple[FamilyCheck, ...]
    rejections: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]

    def hit_keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple((c.p, c.p1) if c.p2 is None else (c.p, c.p1, c.p2) for c in self.hits)

    def rejection_reasons(self, *key: int) -> tuple[str, ...]:
        for cand, reasons in self.rejections:
            if cand == key:
                return reasons
        raise KeyError(f"candidate {key} not in the rejection list")

    def to_json_dict(self) -> dict:
        rejections = []
        for cand, reasons in self.rejections:
            entry = {"p": cand[0], "p1": cand[1], "reasons": list(reasons)}
            if len(cand) == 3:
                entry["p2"] = cand[2]
            rejections.append(entry)
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "hits": [c.to_json_dict() for c in self.hits],
            "rejections": rejections,
        }


def _check_scan_bounds(p_max: int, other_max: int) -> None:
    if p_max < 2 or other_max < 2:
        raise ValueError("search bounds must be at least 2")
    if max(p_max, other_max) > SCAN_BOUND_CAP:
        raise ValueError(f"search bounds are capped at {SCAN_BOUND_CAP}")
    if p_max * other_max > SCAN_BOX_CAP:
        raise ValueError(f"search box {p_max} x {other_max} exceeds the cap of {SCAN_BOX_CAP} candidates")


def _scan(kind: str, p_max: int, n_max: int, candidates, shape: _Shape) -> SearchReport:
    """Every prime p <= p_max against every partner column of candidates(n_max), in one (p, candidate) grid."""
    _check_scan_bounds(p_max, n_max)
    cols = candidates(n_max)
    d = math.prod(cols)  # h(Q(sqrt(-d))) counts the reduced forms of discriminant -d or -4d
    h = reduced_form_counts(4 * n_max)[np.where(d % 4 == 3, d, 4 * d)]
    ps = primes_upto(p_max)
    masks = _masks(ps, cols, h, shape)
    cols, hs = cols.tolist(), h.tolist()
    rejections = chain.from_iterable(
        compress(zip(zip(repeat(p), *cols), map(_REASONS.__getitem__, row)), row) for p, row in zip(ps, masks.tolist())
    )
    hits = [shape.hit(ps[i], tuple(col[j] for col in cols), hs[j]) for i, j in np.argwhere(masks == 0).tolist()]
    return SearchReport(kind, (p_max, n_max), tuple(hits), tuple(rejections))


def scan_pairs(p_max: int, p1_max: int) -> SearchReport:
    """Test every prime pair (p <= p_max, p1 <= p1_max) for the criterion."""
    return _scan("pairs", p_max, p1_max, lambda n: np.array([primes_upto(n)], np.int64), _PAIRS)


def _triple_candidates(n_max: int) -> np.ndarray:
    """The rows p1, p2 of every pair of distinct primes with p1 p2 <= n_max, p1 then p2 ascending."""
    ells = primes_upto(n_max // 2)
    pairs = [(p1, p2) for p1 in ells for p2 in ells[: bisect.bisect_right(ells, n_max // p1)] if p2 != p1]
    return np.array(pairs, np.int64).reshape(-1, 2).T


def scan_triples(p_max: int, n_max: int) -> SearchReport:
    """Test every ordered triple with p <= p_max and p1 * p2 <= n_max."""
    return _scan("triples", p_max, n_max, _triple_candidates, _TRIPLES)


# ---------------------------------------------------------------------------
# named desk-scale examples


@dataclass(frozen=True)
class NamedExample:
    """One fixed instance: field parameters and the connection classes.

    n is the number of cyclotomic classes; classes indexes the union
    forming the connection set D.  p2 is None for the prime-power shape
    N = p1^m and the second prime for N = p1^m p2.
    """

    name: str
    p: int
    p1: int
    p2: int | None
    m: int
    f: int
    n: int
    classes: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def k(self) -> int:
        return len(self.classes) * (self.q - 1) // self.n

    def predicted(self) -> PredictedSpectrum:
        return _predicted(self.p, self.p1, self.p2, self.m)


def _example(name: str, p: int, p1: int, p2: int | None, m: int) -> NamedExample:
    n = p1**m * (p2 or 1)
    f = classify_index2(p, n).order
    return NamedExample(name, p, p1, p2, m, f, n, tuple((p2 or 1) * i for i in range(p1 ** (m - 1))))


NAMED_EXAMPLES: dict[str, NamedExample] = {
    ex.name: ex
    for ex in (
        _example("delange", 2, 3, 5, 2),
        _example("ikuta75", 2, 5, 3, 2),
        _example("ikuta49", 2, 7, None, 2),
        _example("ex41_m2", 2, 7, None, 2),
        _example("ex51_m1", 2, 3, 5, 1),
        _example("ex52_m2", 2, 5, 3, 2),
        _example("ex53_m1", 3, 5, 7, 1),
    )
}


@dataclass(frozen=True)
class ExampleReport:
    """Outcome of one named-example verification run.

    spectrum lists the distinct exact connection sums (integers when all
    sums are rational), predicted_spectrum the closed-form values; the JSON
    reads q and k off the example.  ok is True when the computed certificate
    exists, matches the closed-form prediction, and survives the
    difference-count oracle whenever the field is small enough to run it.
    """

    example: NamedExample
    spectrum: tuple
    certificate: SrgCertificate | None
    predicted_spectrum: tuple[int, ...]
    predicted_matches: bool
    oracle_ran: bool
    oracle_agrees: bool | None
    ok: bool

    def to_json_dict(self) -> dict:
        ex = self.example
        inputs = {"p": ex.p, "p1": ex.p1, "p2": ex.p2, "m": ex.m, "N": ex.n, "D": list(ex.classes)}
        return {
            "name": ex.name,
            "ok": self.ok,
            "q": ex.q,
            "k": ex.k,
            "spectrum": list(self.spectrum),
            "predicted_spectrum": list(self.predicted_spectrum),
            "predicted_matches": self.predicted_matches,
            "oracle_ran": self.oracle_ran,
            "oracle_agrees": self.oracle_agrees,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(inputs=inputs),
        }


def verify_named_example(name: str) -> ExampleReport:
    """Full pipeline on one named instance.

    Builds the field, decides the union with verify_union, which replays
    the difference-count oracle for q <= 4096, and compares the certificate
    with the closed-form prediction.
    """
    if name not in NAMED_EXAMPLES:
        known = ", ".join(sorted(NAMED_EXAMPLES))
        raise ValueError(f"unknown example {name!r}; known names: {known}")
    ex = NAMED_EXAMPLES[name]
    field = build_field(ex.p, ex.f)
    oracle_ran = field.q <= _ORACLE_Q_CAP
    distinct, cert, oracle_agrees = verify_union(classify(field, ex.n), ex.classes, "COMPUTED", oracle_ran)
    if all(val.is_rational_integer for val in distinct):
        spectrum = tuple(sorted((val.to_int() for val in distinct), reverse=True))
    else:
        spectrum = tuple(repr(val) for val in distinct)
    predicted = ex.predicted()
    predicted_matches = cert is not None and cert == predicted.certificate()
    ok = predicted_matches and oracle_agrees is not False
    return ExampleReport(
        example=ex, spectrum=spectrum, certificate=cert, predicted_spectrum=tuple(predicted.integer_values()),
        predicted_matches=predicted_matches, oracle_ran=oracle_ran, oracle_agrees=oracle_agrees, ok=ok,
    )
