"""The prime pair and triple family criteria, bounded scans, and named runs.

A pair (p, p1) or triple (p, p1, p2) passing the family criterion gives a
strongly regular Cayley graph over F_{p^f} for every exponent m >= 1 of p1
in the class count N.  The two shapes differ only in their reasons and hit
functions: one check serves pair_family_check and triple_family_check, and
one scan, over a candidate list built once, serves scan_pairs and
scan_triples.  Both hand the reasons the integers they test (h and the
orders of p) and report hits with full witnesses and misses with reason
codes, so an empty region is as auditable as a hit.  The named examples
pin the handful of instances small enough to verify end to end on a desk
machine.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .cyclotomy import classify
from .finite_field import build_field
from .gauss_theory import class_number, classify_index2, mult_order, reduced_form_counts
from .ntheory import is_prime, prime_factors, primes_upto, reduce_order
from .srg_engine import (
    PredictedSpectrum,
    SrgCertificate,
    predicted_spectrum_prime_power,
    predicted_spectrum_two_primes,
    verify_union,
)

# Scans count reduced forms and factor ell - 1 up to their bounds and test
# every candidate in the box, so both are capped; the slowest box at the caps,
# scan_triples(100, 10**4), took 0.3-0.5 s on a 2-vCPU VM.
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


def _check(p: int, ells: tuple[int, ...], reasons_of, hit) -> FamilyCheck:
    """The family check of one candidate (p, *ells) under the shape's reasons_of and hit."""
    p, ells = operator.index(p), tuple(map(operator.index, ells))
    p1, p2 = (*ells, None)[:2]
    reasons = _screen(p, *ells)
    if reasons:
        return FamilyCheck(p, p1, p2, reasons)
    h = class_number(math.prod(ells))  # refuses a product beyond CLASS_NUMBER_CAP before any order is found
    reasons = reasons_of(p, ells, h, {ell: mult_order(p, ell) for ell in ells})
    return FamilyCheck(p, p1, p2, reasons, h=h) if reasons else hit(p, ells, h)


def _pair_reasons(p: int, ells: tuple[int], h: int, orders: dict[int, int]) -> tuple[str, ...]:
    """The pair criterion's failing checks, in order, for distinct primes, h = h(Q(sqrt(-p1))), orders[p1] = ord_p1(p)."""
    (p1,) = ells
    order = orders[p1]
    reasons: list[str] = []
    if p1 <= 3:
        reasons.append(REASON_P1_TOO_SMALL)
    if p1 % 4 != 3:
        reasons.append(REASON_MOD4_PATTERN)
    # the order modulo p1^2 is the order o modulo p1, or p1 o
    if order != (p1 - 1) // 2 or pow(p, order, p1 * p1) == 1:
        reasons.append(REASON_NOT_INDEX2)
    if 1 + p1 != 4 * p**h:
        reasons.append(REASON_DIOPHANTINE_FAIL)
    return tuple(reasons)


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
    return _check(p, (p1,), _pair_reasons, _pair_hit)


def _triple_reasons(p: int, ells: tuple[int, int], h: int, orders: dict[int, int]) -> tuple[str, ...]:
    """The triple criterion's failing checks, in order, for distinct primes, h = h(Q(sqrt(-p1 p2))), orders[pi] = ord_pi(p)."""
    p1, p2 = ells
    if h % 2:
        raise AssertionError(f"h(Q(sqrt(-{p1 * p2}))) = {h} is odd, against genus theory")
    o1, o2 = orders[p1], orders[p2]
    reasons: list[str] = []
    if {p1 % 4, p2 % 4} != {1, 3}:
        reasons.append(REASON_MOD4_PATTERN)
    # orders modulo p1^2 and p1 p2 follow from o1 and o2
    full_orders = o1 == p1 - 1 and pow(p, o1, p1 * p1) != 1 and o2 == p2 - 1
    index2_overall = 2 * math.lcm(o1, o2) == (p1 - 1) * (p2 - 1)
    if not (full_orders and index2_overall):
        reasons.append(REASON_NOT_INDEX2)
    if 1 + p1 * p2 != 4 * p**h:
        reasons.append(REASON_DIOPHANTINE_FAIL)
    return tuple(reasons)


def _triple_hit(p: int, ells: tuple[int, int], h: int) -> FamilyCheck:
    p1, p2 = ells
    b = (-1 if p1 % 4 == 3 else 1) * (p1 - 2 * p ** (h // 2))
    return _family_hit(p, p1, p2, h, b, (b + p1 * p2) // 2, (b - p1 * p2) // 2)


def triple_family_check(p: int, p1: int, p2: int) -> FamilyCheck:
    """Does (p, p1, p2) generate the two-prime SRG family for every m >= 1?

    True iff all prime, {p1, p2} = {1, 3} mod 4, p has full order modulo
    p1, p1^2 and p2 with overall index 2 modulo p1 p2, and 1 + p1 p2 = 4 p^h
    with h = h(Q(sqrt(-p1 p2))), which genus theory makes even.  Then
    p1 p2 = (R - 1)(R + 1) with R = 2 p^{h/2} >= 4 forces {p1, p2} = {R - 1, R + 1},
    so b = e (p1 - R) = +-1 with e = (-1)^{(p1-1)/2}.
    """
    return _check(p, (p1, p2), _triple_reasons, _triple_hit)


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


def _class_numbers(d_max: int) -> list[int]:
    """h(Q(sqrt(-d))) at index d for every squarefree d <= d_max, read off one count of reduced forms."""
    d = np.arange(d_max + 1)
    return reduced_form_counts(4 * d_max)[np.where(d % 4 == 3, d, 4 * d)].tolist()


def _orders(p: int, factors: dict[int, list[int]]) -> dict[int, int]:
    """{ell: ord_ell(p)} for every prime ell != p in factors, which holds the prime divisors of ell - 1."""
    return {ell: reduce_order(p, ell, ell - 1, primes) for ell, primes in factors.items() if ell != p}


def _scan(kind: str, p_max: int, n_max: int, candidates, reasons_of, hit) -> SearchReport:
    """Every prime p <= p_max against every tuple of ells in candidates(n_max), each with product <= n_max.

    The list is built once, each ell - 1 factored once and the orders of p
    found once per p; h is read off one count of reduced forms.
    """
    _check_scan_bounds(p_max, n_max)
    class_numbers = _class_numbers(n_max)
    cands = [(ells, class_numbers[math.prod(ells)]) for ells in candidates(n_max)]
    factors = {ell: prime_factors(ell - 1) for ell in {ell for ells, _ in cands for ell in ells}}
    hits: list[FamilyCheck] = []
    rejections: list[tuple[tuple[int, ...], tuple[str, ...]]] = []
    for p in primes_upto(p_max):
        orders = _orders(p, factors)
        for ells, h in cands:
            reasons = (REASON_NOT_COPRIME,) if p in ells else reasons_of(p, ells, h, orders)
            if reasons:
                rejections.append(((p,) + ells, reasons))
            else:
                hits.append(hit(p, ells, h))
    return SearchReport(kind, (p_max, n_max), tuple(hits), tuple(rejections))


def scan_pairs(p_max: int, p1_max: int) -> SearchReport:
    """Test every prime pair (p <= p_max, p1 <= p1_max) for the criterion."""
    return _scan("pairs", p_max, p1_max, lambda n: [(p1,) for p1 in primes_upto(n)], _pair_reasons, _pair_hit)


def _triple_candidates(n_max: int) -> list[tuple[int, int]]:
    """Every (p1, p2) of distinct primes with p1 p2 <= n_max, p1 then p2 ascending."""
    ells = primes_upto(n_max // 2)
    return [(p1, p2) for p1 in ells for p2 in ells[: bisect.bisect_right(ells, n_max // p1)] if p2 != p1]


def scan_triples(p_max: int, n_max: int) -> SearchReport:
    """Test every ordered triple with p <= p_max and p1 * p2 <= n_max."""
    return _scan("triples", p_max, n_max, _triple_candidates, _triple_reasons, _triple_hit)


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
