"""Bounded searches for the prime pair and triple criteria, and named runs.

A pair (p, p1) or triple (p, p1, p2) passing the family criterion gives a
strongly regular Cayley graph over F_{p^f} for every exponent m >= 1 of p1
in the class count N.  The scans test every candidate inside a bound box
and report hits with full witnesses and misses with reason codes, so an
empty region is as auditable as a hit.  The named examples pin the handful
of instances small enough to verify end to end on a desk machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import classify
from .finite_field import build_field
from .ntheory import euler_phi
from .srg_engine import (
    FamilyCheck,
    PredictedSpectrum,
    ScanTables,
    SrgCertificate,
    _pair_hit,
    _pair_reasons,
    _triple_hit,
    _triple_reasons,
    certificates_agree,
    predicted_spectrum_prime_power,
    predicted_spectrum_two_primes,
    verify_union,
)

# Scans build their tables up to their bounds and test every candidate in the
# box, so both are capped; the slowest box at the caps, scan_triples(100,
# 10**4), took 0.4-0.6 s on a 2-vCPU VM.
SCAN_BOUND_CAP = 10**4
SCAN_BOX_CAP = 10**6

# the difference-count oracle is only run for fields up to this order
_ORACLE_Q_CAP = 4096


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


def scan_pairs(p_max: int, p1_max: int) -> SearchReport:
    """Test every prime pair (p <= p_max, p1 <= p1_max) for the criterion."""
    _check_scan_bounds(p_max, p1_max)
    tables = ScanTables(max(p_max, p1_max))
    partner_primes = list(filter(tables.is_prime, range(p1_max + 1)))
    hits: list[FamilyCheck] = []
    rejections: list[tuple[tuple[int, ...], tuple[str, ...]]] = []
    for p in filter(tables.is_prime, range(p_max + 1)):
        for p1 in partner_primes:
            reasons, h = _pair_reasons(p, p1, tables)
            if reasons:
                rejections.append(((p, p1), reasons))
            else:
                hits.append(_pair_hit(p, p1, h))
    return SearchReport("pairs", (p_max, p1_max), tuple(hits), tuple(rejections))


def scan_triples(p_max: int, n_max: int) -> SearchReport:
    """Test every ordered triple with p <= p_max and p1 * p2 <= n_max."""
    _check_scan_bounds(p_max, n_max)
    tables = ScanTables(max(p_max, n_max))
    partner_primes = list(filter(tables.is_prime, range(n_max // 2 + 1)))
    hits: list[FamilyCheck] = []
    rejections: list[tuple[tuple[int, ...], tuple[str, ...]]] = []
    for p in filter(tables.is_prime, range(p_max + 1)):
        for p1 in partner_primes:
            for p2 in partner_primes:
                if p1 * p2 > n_max:
                    break
                if p1 == p2:
                    continue
                reasons, h = _triple_reasons(p, p1, p2, tables)
                if reasons:
                    rejections.append(((p, p1, p2), reasons))
                else:
                    hits.append(_triple_hit(p, p1, p2, h))
    return SearchReport("triples", (p_max, n_max), tuple(hits), tuple(rejections))


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
        if self.p2 is None:
            return predicted_spectrum_prime_power(self.p, self.p1, self.m)
        return predicted_spectrum_two_primes(self.p, self.p1, self.p2, self.m)


def _example(name: str, p: int, p1: int, p2: int | None, m: int) -> NamedExample:
    n = p1**m * (p2 or 1)
    f = euler_phi(n) // 2
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
    sums are rational).  ok is True when the computed certificate exists,
    matches the closed-form prediction, and survives the difference-count
    oracle whenever the field is small enough to run it.
    """

    example: NamedExample
    q: int
    k: int
    spectrum: tuple
    certificate: SrgCertificate | None
    predicted_values: tuple[int, ...] | None
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
            "q": self.q,
            "k": self.k,
            "spectrum": list(self.spectrum),
            "predicted_spectrum": None if self.predicted_values is None else list(self.predicted_values),
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
    k = ex.k
    predicted = ex.predicted()
    predicted_values = tuple(predicted.integer_values()) if predicted.integral else None
    predicted_matches = cert is not None and certificates_agree(cert, predicted.certificate())
    ok = predicted_matches and oracle_agrees is not False
    return ExampleReport(
        example=ex, q=field.q, k=k, spectrum=spectrum, certificate=cert, predicted_values=predicted_values,
        predicted_matches=predicted_matches, oracle_ran=oracle_ran, oracle_agrees=oracle_agrees, ok=ok,
    )
