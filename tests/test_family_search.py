"""Tests for the bounded scans and the named example pipeline."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclosrg import family_search
from cyclosrg.cyclotomy import classify
from cyclosrg.finite_field import build_field
from cyclosrg.family_search import (
    NAMED_EXAMPLES,
    REASON_DIOPHANTINE_FAIL,
    REASON_MOD4_PATTERN,
    REASON_NOT_COPRIME,
    REASON_NOT_INDEX2,
    REASON_P1_TOO_SMALL,
    SearchReport,
    pair_family_check,
    scan_pairs,
    scan_triples,
    triple_family_check,
    verify_named_example,
)
from cyclosrg.ntheory import euler_phi, is_prime
from cyclosrg.srg_engine import certificates_agree, difference_count_oracle, srg_from_spectrum
PAIR_HITS = ((2, 7), (3, 107), (5, 19), (5, 499), (17, 67), (41, 163))
TRIPLE_HITS = ((2, 3, 5), (2, 5, 3), (3, 5, 7), (3, 7, 5), (3, 17, 19), (3, 19, 17))


def test_named_registry_consistency():
    assert set(NAMED_EXAMPLES) == {
        "delange",
        "ikuta75",
        "ikuta49",
        "ex41_m2",
        "ex51_m1",
        "ex52_m2",
        "ex53_m1",
    }
    for ex in NAMED_EXAMPLES.values():
        expected_n = ex.p1**ex.m * (1 if ex.p2 is None else ex.p2)
        assert ex.n == expected_n
        assert ex.f == euler_phi(ex.n) // 2
        assert ex.f == ex.predicted().gauss.f
        assert ex.q == ex.p**ex.f
        step = 1 if ex.p2 is None else ex.p2
        assert ex.classes == tuple(step * i for i in range(ex.p1 ** (ex.m - 1)))
        assert ex.k == len(ex.classes) * (ex.q - 1) // ex.n
    # the two aliases bind identical instances under different names
    a, b = NAMED_EXAMPLES["ikuta49"], NAMED_EXAMPLES["ex41_m2"]
    assert (a.p, a.p1, a.p2, a.m) == (b.p, b.p1, b.p2, b.m)
    a, b = NAMED_EXAMPLES["ikuta75"], NAMED_EXAMPLES["ex52_m2"]
    assert (a.p, a.p1, a.p2, a.m) == (b.p, b.p1, b.p2, b.m)
    assert NAMED_EXAMPLES["delange"].classes == (0, 5, 10)
    assert NAMED_EXAMPLES["ikuta75"].classes == (0, 3, 6, 9, 12)
    assert NAMED_EXAMPLES["ikuta49"].classes == tuple(range(7))


def test_scan_pairs_table():
    report = scan_pairs(50, 500)
    assert report.kind == "pairs"
    assert report.bounds == (50, 500)
    assert report.hit_keys() == PAIR_HITS
    witnesses = {(c.p, c.p1): (c.h, c.b) for c in report.hits}
    assert witnesses == {
        (2, 7): (1, -1),
        (3, 107): (3, 1),
        (5, 19): (1, 1),
        (5, 499): (3, 1),
        (17, 67): (1, 1),
        (41, 163): (1, 1),
    }
    for check in report.hits:
        assert check.ok and check.reasons == ()
        assert check.r2 is not None and check.s2 is not None
    for _, reasons in report.rejections:
        assert reasons != ()


def test_scan_pairs_rejection_reasons():
    report = scan_pairs(10, 12)
    assert REASON_NOT_INDEX2 in report.rejection_reasons(2, 11)
    assert REASON_P1_TOO_SMALL in report.rejection_reasons(2, 3)
    assert REASON_NOT_COPRIME in report.rejection_reasons(7, 7)
    # the even p1 = 2 goes through the same order test, which finds ord_2(3) = 1, not 0
    assert report.rejection_reasons(3, 2) == pair_family_check(3, 2).reasons == (
        REASON_P1_TOO_SMALL, REASON_MOD4_PATTERN, REASON_NOT_INDEX2, REASON_DIOPHANTINE_FAIL,
    )
    with pytest.raises(KeyError):
        report.rejection_reasons(2, 7)  # a hit, so not in the rejection list


def test_scan_pairs_bound_exclusion():
    assert scan_pairs(2, 6).hits == ()
    with pytest.raises(ValueError):
        scan_pairs(1, 500)


def test_scan_triples_table():
    report = scan_triples(5, 400)
    assert report.kind == "triples"
    assert report.hit_keys() == TRIPLE_HITS
    witnesses = {(c.p, c.p1, c.p2): (c.h, c.b) for c in report.hits}
    assert witnesses == {
        (2, 3, 5): (2, 1),
        (2, 5, 3): (2, 1),
        (3, 5, 7): (2, -1),
        (3, 7, 5): (2, -1),
        (3, 17, 19): (4, -1),
        (3, 19, 17): (4, -1),
    }


def test_scan_triples_rejection_reasons():
    report = scan_triples(2, 40)
    reasons = report.rejection_reasons(2, 7, 3)
    assert REASON_DIOPHANTINE_FAIL in reasons
    assert REASON_MOD4_PATTERN in reasons


def test_scan_triples_bound_exclusion():
    assert scan_triples(2, 14).hits == ()
    with pytest.raises(ValueError):
        scan_triples(2, 1)


def test_scan_monotone_in_bounds():
    small = set(scan_pairs(50, 200).hit_keys())
    large = set(scan_pairs(50, 500).hit_keys())
    assert small <= large
    assert small == set(PAIR_HITS) - {(5, 499)}
    t_small = set(scan_triples(3, 105).hit_keys())
    t_large = set(scan_triples(5, 400).hit_keys())
    assert t_small <= t_large


def _reference_scan(kind, p_max, other_max):
    # every candidate of the box through the public checks, with no tables
    ps = [p for p in range(2, p_max + 1) if is_prime(p)]
    if kind == "pairs":
        cands = [(p, p1) for p in ps for p1 in range(2, other_max + 1) if is_prime(p1)]
        checks = [pair_family_check(*cand) for cand in cands]
    else:
        partners = [q for q in range(2, other_max // 2 + 1) if is_prime(q)]
        cands = [(p, p1, p2) for p in ps for p1 in partners for p2 in partners if p1 != p2 and p1 * p2 <= other_max]
        checks = [triple_family_check(*cand) for cand in cands]
    hits = tuple(c for c in checks if c.ok)
    rejections = tuple((cand, c.reasons) for cand, c in zip(cands, checks) if not c.ok)
    return SearchReport(kind, (p_max, other_max), hits, rejections)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(2, 200), st.integers(2, 200), st.integers(2, 600))
# the benchmark's scan boxes: pairs up to 60 x 600, triples up to 60 x 2000 and 5 x 400
@example(60, 600, 2000)
@example(5, 500, 400)
def test_scans_match_reference_loop(p_max, p1_max, n_max):
    assert scan_pairs(p_max, p1_max) == _reference_scan("pairs", p_max, p1_max)
    assert scan_triples(p_max, n_max) == _reference_scan("triples", p_max, n_max)


def test_scan_report_serialization():
    report = scan_pairs(3, 8)
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["kind"] == "pairs"
    assert parsed["bounds"] == [3, 8]
    assert [tuple((h["p"], h["p1"])) for h in parsed["hits"]] == [(2, 7)]
    assert all("reasons" in r for r in parsed["rejections"])


def test_verify_delange_end_to_end():
    rep = verify_named_example("delange")
    assert rep.ok
    assert rep.q == 4096 and rep.k == 273
    assert rep.spectrum == (17, -15)
    assert rep.certificate.parameters() == (4096, 273, 20, 18)
    assert (rep.certificate.mult_r, rep.certificate.mult_s) == (1911, 2184)
    assert rep.predicted_matches
    assert rep.oracle_ran and rep.oracle_agrees
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["certificate"]["lambda"] == 20
    assert parsed["certificate"]["inputs"]["D"] == [0, 5, 10]


def test_verify_degenerate_example():
    rep = verify_named_example("ex51_m1")
    assert rep.ok
    assert rep.certificate.parameters() == (16, 1, 0, 0)
    assert rep.certificate.degenerate
    assert rep.spectrum == (1, -1)
    assert rep.oracle_ran and rep.oracle_agrees


def test_verify_odd_characteristic_example():
    rep = verify_named_example("ex53_m1")
    assert rep.ok
    assert rep.q == 3**12 and rep.k == 15184
    assert rep.spectrum == (118, -125)
    assert rep.certificate.parameters() == (531441, 15184, 427, 434)
    assert not rep.oracle_ran  # field above the q <= 4096 oracle policy
    assert rep.oracle_agrees is None


# the index-2 SRGs inside the field cap that no named example covers; (3, 11)
# fails pair_family_check with NOT_INDEX2, as 3^5 = 1 mod 121, but m = 1 needs
# only the index-2 case modulo 11
_UNNAMED_INDEX2_SRGS = [
    family_search._example("index2_2_7_m1", 2, 7, None, 1),  # srg(8, 1, 0, 0)
    family_search._example("index2_3_11_m1", 3, 11, None, 1),  # srg(243, 22, 1, 2)
    family_search._example("index2_5_19_m1", 5, 19, None, 1),  # srg(5^9, 102796, 5379, 5412)
]


@pytest.mark.parametrize(
    "ex", [NAMED_EXAMPLES[name] for name in sorted(NAMED_EXAMPLES)] + _UNNAMED_INDEX2_SRGS, ids=lambda ex: ex.name
)
def test_oracle_agrees_on_every_named_example(ex):
    # verify_named_example runs the oracle only for q <= _ORACLE_Q_CAP; here it runs on all seven,
    # and on the unnamed index-2 SRGs, against the computed and the closed-form certificates
    cm = classify(build_field(ex.p, ex.f), ex.n)
    cert = srg_from_spectrum(ex.q, ex.k, cm.connection_sums(ex.classes), source="COMPUTED")
    oracle = difference_count_oracle(cm, ex.classes)
    assert cert is not None and oracle is not None
    assert certificates_agree(cert, oracle)
    assert certificates_agree(oracle, ex.predicted().certificate())


def test_named_example_leaves_the_tables_unbuilt(monkeypatch):
    # the tally takes one orbit column per Frobenius orbit, so 2^21 needs no antilog or log table
    built = []

    def spy(p, f):
        built.append(build_field(p, f))
        return built[-1]

    monkeypatch.setattr(family_search, "build_field", spy)
    assert verify_named_example("ikuta49").ok
    assert [fld.q for fld in built] == [1 << 21]
    assert built[0]._antilog is None and built[0]._log is None


def test_verify_unknown_name():
    with pytest.raises(ValueError, match="unknown example"):
        verify_named_example("paley")
