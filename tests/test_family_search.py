"""Tests for the bounded scans and the named example pipeline."""

import dataclasses
import itertools
import json
import math

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
    FamilyCheck,
    SearchReport,
    pair_family_check,
    scan_pairs,
    scan_triples,
    triple_family_check,
    verify_named_example,
)
from cyclosrg.gauss_theory import class_number, mult_order
from cyclosrg.ntheory import PRIME_TEST_BOUND, euler_phi, is_prime, primes_upto
from cyclosrg.srg_engine import difference_count_oracle, srg_from_spectrum
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
        assert check.r_m2 is not None and check.s_m2 is not None
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


# the reason codes in the order a check lists them
_CODE_ORDER = (REASON_NOT_COPRIME, REASON_P1_TOO_SMALL, REASON_MOD4_PATTERN, REASON_NOT_INDEX2, REASON_DIOPHANTINE_FAIL)


def _reference_reasons(p, ells):
    # the failing criteria of one candidate, each decided on plain integers as the check docstrings state them
    if p in ells:
        return (REASON_NOT_COPRIME,)
    d = math.prod(ells)
    if len(ells) == 1:
        (p1,) = ells
        n = (p1 - 1) // 2
        half = mult_order(p, p1) == n and pow(p, n, p1**2) != 1
        failing = {REASON_P1_TOO_SMALL: p1 <= 3, REASON_MOD4_PATTERN: p1 % 4 != 3, REASON_NOT_INDEX2: not half}
    else:
        p1, p2 = ells
        full = mult_order(p, p1) == p1 - 1 and pow(p, p1 - 1, p1**2) != 1 and mult_order(p, p2) == p2 - 1
        index2 = full and 2 * mult_order(p, d) == (p1 - 1) * (p2 - 1)
        failing = {REASON_MOD4_PATTERN: {p1 % 4, p2 % 4} != {1, 3}, REASON_NOT_INDEX2: not index2}
    failing[REASON_DIOPHANTINE_FAIL] = 1 + d != 4 * p ** class_number(d)
    return tuple(code for code in _CODE_ORDER if failing.get(code))


def _reference_scan(kind, p_max, other_max):
    # every candidate of the box, its reasons from _reference_reasons; a hit's witness from the public check
    ps = [p for p in range(2, p_max + 1) if is_prime(p)]
    if kind == "pairs":
        cands = [(p, p1) for p in ps for p1 in range(2, other_max + 1) if is_prime(p1)]
        check = pair_family_check
    else:
        partners = [q for q in range(2, other_max // 2 + 1) if is_prime(q)]
        cands = [(p, p1, p2) for p in ps for p1 in partners for p2 in partners if p1 != p2 and p1 * p2 <= other_max]
        check = triple_family_check
    reasons = [_reference_reasons(cand[0], cand[1:]) for cand in cands]
    hits = tuple(check(*cand) for cand, why in zip(cands, reasons) if not why)
    rejections = tuple((cand, why) for cand, why in zip(cands, reasons) if why)
    return SearchReport(kind, (p_max, other_max), hits, rejections)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(2, 200), st.integers(2, 200), st.integers(2, 600))
# the benchmark's scan boxes: pairs up to 60 x 600, triples up to 60 x 2000 and 5 x 400
@example(60, 600, 2000)
@example(5, 500, 400)
def test_scans_match_reference_loop(p_max, p1_max, n_max):
    assert scan_pairs(p_max, p1_max) == _reference_scan("pairs", p_max, p1_max)
    assert scan_triples(p_max, n_max) == _reference_scan("triples", p_max, n_max)


def test_lift_decides_the_pair_3_11():
    # 3 has half order 5 modulo 11 and 1 + 11 = 4 * 3^h with h(-11) = 1, but 3^5 = 243 = 1 mod 121
    assert (mult_order(3, 11), pow(3, 5, 121)) == (5, 1)
    assert pair_family_check(3, 11).reasons == (REASON_NOT_INDEX2,)
    assert scan_pairs(3, 11).rejection_reasons(3, 11) == (REASON_NOT_INDEX2,)


def test_lift_decides_the_index2_test_of_7_5_11():
    # 7 has full orders 4 and 10 modulo 5 and 11, with gcd(4, 10) = 2, but 7^4 = 2401 = 1 mod 25;
    # only p1 lifts, so (7, 11, 5), where 7^10 = 23 mod 121, has index 2
    assert (mult_order(7, 5), mult_order(7, 11), pow(7, 4, 25), pow(7, 10, 121)) == (4, 10, 1, 23)
    assert triple_family_check(7, 5, 11).reasons == (REASON_NOT_INDEX2, REASON_DIOPHANTINE_FAIL)
    assert triple_family_check(7, 11, 5).reasons == (REASON_DIOPHANTINE_FAIL,)
    report = scan_triples(7, 55)
    assert report.rejection_reasons(7, 5, 11) == (REASON_NOT_INDEX2, REASON_DIOPHANTINE_FAIL)
    assert report.rejection_reasons(7, 11, 5) == (REASON_DIOPHANTINE_FAIL,)


_PRIMES = primes_upto(3000)
_NEAR_BOUND = PRIME_TEST_BOUND - 168  # the largest prime below the bound, 3317044064679887385961813


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=4),
    st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=4, unique=True),
)
@example([1009], [7, 11, 29])  # p > ell^2
@example([3, 5, 7], [2, 3])
@example([2], [1093, 3511])  # the base-2 Wieferich primes: 2^(ell - 1) = 1 mod ell^2
@example([3], [11])  # 3^5 = 1 mod 121
@example([_NEAR_BOUND, 2], [7, 13])
@example([2, 3, _NEAR_BOUND], [999983])  # ell^4 > 2^63: dtype object
# either side of the int64 switch: 55103 is the largest prime with ell^4 < 2^63, and 55109 to 65521 need dtype object
@example([2, 3, 5, 7, _NEAR_BOUND], [55103])
@example([2, 3, 5, 7, _NEAR_BOUND], [55109])
@example([2, 3, 5, 7, _NEAR_BOUND], [65519])
@example([2, 3, 5, 7, _NEAR_BOUND], [65521])
def test_order_grids_match_mult_order(ps, ells):
    # one grid over every (p, ell): ell | p, ord_ell(p) = n, and p^n = 1 mod ell^2, for n = ell - 1 and (ell - 1) / 2
    for halve in (0, 1):
        divides, exact, lift = family_search._order_grids(ps, ells, halve)
        assert divides.shape == exact.shape == lift.shape == (len(ps), len(ells))
        for (i, p), (j, ell) in itertools.product(enumerate(ps), enumerate(ells)):
            n = (ell - 1) >> halve
            assert divides[i, j] == (p == ell), (p, ell)
            if p != ell:
                assert exact[i, j] == (mult_order(p, ell) == n), (p, ell, halve)
                assert lift[i, j] == (n % mult_order(p, ell * ell) == 0), (p, ell, halve)


def test_scan_report_serialization():
    report = scan_pairs(3, 8)
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["kind"] == "pairs"
    assert parsed["bounds"] == [3, 8]
    assert [tuple((h["p"], h["p1"])) for h in parsed["hits"]] == [(2, 7)]
    assert all("reasons" in r for r in parsed["rejections"])


def test_family_check_json_keys_are_its_fields():
    # the JSON of a check is its fields plus ok, p2 only where set, each under its field's name
    names = {field.name for field in dataclasses.fields(FamilyCheck)}
    for check in (pair_family_check(2, 7), triple_family_check(2, 3, 5), pair_family_check(2, 11)):
        data = check.to_json_dict()
        assert set(data) == names - ({"p2"} if check.p2 is None else set()) | {"ok"}, check
        assert data["ok"] is check.ok
        assert all(data[name] == getattr(check, name) for name in data if name != "ok")
    hit = pair_family_check(2, 7).to_json_dict()
    assert (hit["f_m1"], hit["r_m1"], hit["s_m1"], hit["r_m2"], hit["s_m2"]) == (3, 1, -1, 585, -439)
    assert triple_family_check(2, 3, 5).to_json_dict()["p2"] == 5
    assert pair_family_check(2, 11).to_json_dict()["r_m2"] is None


def test_verify_delange_end_to_end():
    rep = verify_named_example("delange")
    assert rep.ok
    assert rep.example.q == 4096 and rep.example.k == 273
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
    assert rep.example.q == 3**12 and rep.example.k == 15184
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
    assert cert == oracle == ex.predicted().certificate()
    # equal certificates are one set member: the route is not graph data
    assert len({cert, oracle}) == 1 and hash(cert) == hash(oracle)


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
