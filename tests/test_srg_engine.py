"""Spectrum certification, the difference-count oracle, and predictions."""

import ast
import dataclasses
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclosrg
from cyclosrg import family_search, srg_engine
from cyclosrg.cyclotomy import CyclotomicInteger, classify
from cyclosrg.finite_field import SIZE_CAP, build_field
from cyclosrg.family_search import (
    REASON_DIOPHANTINE_FAIL,
    REASON_MOD4_PATTERN,
    REASON_NOT_INDEX2,
    REASON_NOT_PRIME,
    pair_family_check,
    scan_triples,
    triple_family_check,
)
from cyclosrg.gauss_theory import mult_order
from cyclosrg.ntheory import euler_phi, factorize, is_prime, primes_upto
from cyclosrg.srg_engine import (
    _difference_counts,
    certificates_agree,
    difference_count_oracle,
    predicted_spectrum_prime_power,
    predicted_spectrum_two_primes,
    srg_from_spectrum,
)

from conftest import divisors, fold, get_field, reference_prime_power, reference_two_primes, sub


# ---------------------------------------------------------------------------
# srg_from_spectrum


def test_spectrum_delange_certificate():
    cert = srg_from_spectrum(4096, 273, [17, -15])
    assert cert is not None
    assert cert.parameters() == (4096, 273, 20, 18)
    assert (cert.r, cert.s) == (17, -15)
    assert (cert.mult_r, cert.mult_s) == (1911, 2184)
    assert not cert.degenerate and not cert.irrational


def test_spectrum_degenerate_matching():
    cert = srg_from_spectrum(16, 1, [1, -1])
    assert cert is not None
    assert cert.parameters() == (16, 1, 0, 0)
    assert cert.degenerate
    assert (cert.mult_r, cert.mult_s) == (7, 8)


def test_spectrum_rejects_one_or_three_values():
    assert srg_from_spectrum(16, 15, [-1]) is None
    assert srg_from_spectrum(64, 21, [5, -3, 1]) is None


def test_spectrum_rejects_infeasible():
    # two values whose implied mu is negative
    assert srg_from_spectrum(100, 9, [1, -11]) is None
    # lambda above k - 1
    assert srg_from_spectrum(50, 7, [7, 1]) is None


def test_spectrum_rejects_irrational_values_off_the_conference_condition():
    # 1 +- sqrt(5), as 2 + 2 eta0 and -2 eta0 in Z[xi_5]: lambda = 4 and mu = 2 meet
    # k (k - lambda - 1) = (v - k - 1) mu at v, k = 10, 6, but 2k + (v - 1)(r + s) = 30
    x = fold(5, [2, 2, 0, 0, 2])
    y = fold(5, [0, -2, 0, 0, -2])
    assert srg_engine._sum_product(x, y) == (2, -4)
    assert srg_from_spectrum(10, 6, [x, y]) is None


def test_spectrum_rejects_a_fractional_multiplicity():
    # srg(21, 5, 1, 1) meets k (k - lambda - 1) = (v - k - 1) mu, but r, s = 2, -2
    # would have multiplicities 35/4 and 45/4
    assert srg_from_spectrum(21, 5, [2, -2]) is None


def test_spectrum_rejects_an_empty_multiplicity():
    # K_4 as srg(4, 3, 2, 2) with values 1, -1: r = 1 would have multiplicity 0
    assert srg_from_spectrum(4, 3, [1, -1]) is None


def test_spectrum_conference_paley5():
    # eigenvalues (-1 +- sqrt(5))/2 as exact cyclotomic integers over p = 5
    cm = classify(get_field(5, 1), 2)
    sums = cm.connection_sums((0,))
    vals = list({z for z in sums})
    assert len(vals) == 2
    assert not any(z.is_rational_integer for z in vals)
    cert = srg_from_spectrum(5, 2, vals)
    assert cert is not None
    assert cert.parameters() == (5, 2, 0, 1)
    assert cert.irrational
    assert cert.r is None and cert.s is None
    assert cert.mult_r == cert.mult_s == 2


def test_spectrum_mixed_orders_and_mixed_kinds():
    # two irrational values from different Z[xi_p] are an error, not a verdict
    eta5 = classify(get_field(5, 1), 2).periods()[0]
    eta13 = classify(get_field(13, 1), 2).periods()[0]
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        srg_from_spectrum(5, 2, [eta5, eta13])
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        srg_from_spectrum(13, 6, [eta13, eta5])
    # one rational and one irrational value: sum and product are irrational
    for vals in ([eta5, -1], [2, eta5], [CyclotomicInteger.from_int(13, 1), eta5]):
        assert srg_from_spectrum(5, 2, vals) is None
    # a rational integer of another order is just an integer
    assert srg_from_spectrum(16, 5, [CyclotomicInteger.from_int(3, 1), CyclotomicInteger.from_int(7, -3)]).parameters() == (16, 5, 0, 2)


# the Petersen graph srg(10, 3, 0, 1) with r, s = 1, -2 of multiplicities 5, 4,
# and the pentagon srg(5, 2, 0, 1), a conference graph
_PETERSEN = srg_engine.SrgCertificate(10, 3, 0, 1, 1, -2, 5, 4, "TEST", False, False)
_PENTAGON = srg_engine.SrgCertificate(5, 2, 0, 1, None, None, 2, 2, "TEST", False, True)


@pytest.mark.parametrize(
    "base, changes, message",
    [
        (_PETERSEN, {"k": 0}, "k out of range"),
        (_PETERSEN, {"k": 10}, "k out of range"),
        (_PETERSEN, {"lam": 3}, "lambda or mu out of range"),
        (_PETERSEN, {"mu": -1}, "lambda or mu out of range"),
        (_PETERSEN, {"lam": 1}, "parameter identity"),
        (_PETERSEN, {"degenerate": True}, "degenerate flag"),
        (_PENTAGON, {"r": 1}, "carry no integer eigenvalues"),
        (_PENTAGON, {"mult_r": 1, "mult_s": 3}, "conference multiplicities"),
        (_PETERSEN, {"mult_s": None}, "need r, s and multiplicities"),
        (_PETERSEN, {"r": -2, "s": 1}, "need r > s"),
        (_PETERSEN, {"r": 2}, "eigenvalue identities"),
        (_PETERSEN, {"mult_r": 6, "mult_s": 3}, "multiplicity identities"),
    ],
)
def test_certificate_checks_each_identity(base, changes, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(base, **changes)


def test_spectrum_input_validation():
    with pytest.raises(ValueError, match="lie in"):
        srg_from_spectrum(16, 16, [1, -1])
    with pytest.raises(ValueError, match="eigenvalues"):
        srg_from_spectrum(16, 5, [1.5, -1])
    # a float v or k would carry into lambda, mu and the multiplicities
    for v, k in [(16, 5.0), (16.0, 5)]:
        with pytest.raises(TypeError, match="integer"):
            srg_from_spectrum(v, k, [1, -3])
    cert = srg_from_spectrum(np.int64(16), np.int64(5), [1, -3])
    assert repr(cert) == repr(srg_from_spectrum(16, 5, [1, -3]))
    assert all(type(x) is int for x in (*cert.parameters(), cert.mult_r, cert.mult_s))


def _reference_srg_from_spectrum(v, k, values, source="SPECTRUM"):
    # the derivation as it stood before it was shared with the oracle:
    # r and s straight from the values, the conference branch by the flag
    if not 1 <= k <= v - 1:
        raise ValueError(f"valency k = {k} must lie in [1, v-1] for v = {v}")
    distinct = tuple(dict.fromkeys(map(srg_engine._exact, values)))
    if len(distinct) != 2:
        return None
    x, y = distinct
    if isinstance(x, int) and isinstance(y, int):
        r, s = max(x, y), min(x, y)
        e1, e2 = r + s, r * s
        irrational = False
    elif isinstance(x, int) or isinstance(y, int):
        return None
    else:
        e12 = srg_engine._sum_product(x, y)
        if e12 is None:
            return None
        e1, e2 = e12
        irrational = True
    mu = k + e2
    lam = mu + e1
    if lam < 0 or lam > k - 1 or mu < 0:
        return None
    if k * (k - lam - 1) != (v - k - 1) * mu:
        return None
    if irrational:
        if 2 * k + (v - 1) * e1 != 0 or (v - 1) % 2:
            return None
        half = (v - 1) // 2
        return srg_engine.SrgCertificate(v, k, lam, mu, None, None, half, half, source, mu == 0, True)
    num = -k - s * (v - 1)
    den = r - s
    if num % den:
        return None
    mult_r = num // den
    mult_s = v - 1 - mult_r
    if mult_r < 1 or mult_s < 1:
        return None
    return srg_engine.SrgCertificate(v, k, lam, mu, r, s, mult_r, mult_s, source, mu == 0, False)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


# feasible (v, k, r, s): s <= -1 <= r and mu = k + rs >= 1 give
# v = (k - r)(k - s)/mu, and the multiplicity of r must be a whole number
_FEASIBLE_SPECTRA = [
    (v, mu - r * s, r, s)
    for s in range(-15, 0)
    for r in range(16)
    for mu in range(1, 41)
    for v in [(mu - r * s - r) * (mu - r * s - s) // mu]
    if (mu - r * s - r) * (mu - r * s - s) % mu == 0
    and mu - r * s < v - 1
    and (r * s - mu - s * (v - 1)) % (r - s) == 0
]


@st.composite
def _integer_spectra(draw):
    branch = draw(st.integers(0, 4))
    if branch >= 2:
        v, k, r, s = draw(st.sampled_from(_FEASIBLE_SPECTRA))
        v += draw(st.sampled_from([0, 0, 0, 1, -1]))
    elif branch == 1:
        # the complete graph k = v - 1 with -1 and any other value passes every
        # identity and fails only on a zero multiplicity
        v = draw(st.integers(2, 300))
        k = v - 1
        r, s = sorted([-1, draw(st.integers(-15, 15).filter(lambda x: x != -1))], reverse=True)
    else:
        s = draw(st.integers(-15, 14))
        r = draw(st.integers(s + 1, 15))
        v, k = draw(st.integers(2, 300)), draw(st.integers(1, 300))
    return v, k, draw(st.permutations([r, s])) + draw(st.lists(st.sampled_from([r, s]), max_size=2))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_integer_spectra())
def test_spectrum_matches_reference_derivation(case):
    v, k, values = case
    assert _outcome(srg_from_spectrum, v, k, values) == _outcome(_reference_srg_from_spectrum, v, k, values)


def test_conference_spectra_match_reference_derivation():
    # irrational period pairs, two-valued or not, over prime fields p = 1 mod 4 and 3 mod 4
    certified = 0
    for p in (5, 7, 11, 13, 17, 19, 29, 37, 41, 53):
        for N in (2, 4, 6):
            if (p - 1) % N:
                continue
            cm = classify(get_field(p, 1), N)
            for D in ((0,), tuple(range(0, N, 2)), (0, N // 2)):
                values = cm.connection_sums(D)
                k = len(set(D)) * cm.class_size
                got = _outcome(srg_from_spectrum, p, k, values)
                assert got == _outcome(_reference_srg_from_spectrum, p, k, values), (p, N, D)
                certified += "irrational=True" in got
    assert certified >= 5


# ---------------------------------------------------------------------------
# difference-count oracle


def test_oracle_paley_graphs():
    # Paley(q): srg(q, (q-1)/2, (q-5)/4, (q-1)/4)
    for p, f in [(5, 1), (13, 1), (3, 2), (17, 1)]:
        fld = get_field(p, f)
        q = fld.q
        cm = classify(fld, 2)
        cert = difference_count_oracle(cm, (0,))
        assert cert is not None
        assert cert.parameters() == (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)
        if cert.irrational:
            assert cert.mult_r == cert.mult_s == (q - 1) // 2  # conference form
        # Paley(9) has integer eigenvalues 1, -2
        if q == 9:
            assert (cert.r, cert.s) == (1, -2)


def test_oracle_delange_graph():
    cm = classify(get_field(2, 12), 45)
    cert = difference_count_oracle(cm, (0, 5, 10))
    assert cert is not None
    assert cert.parameters() == (4096, 273, 20, 18)
    assert (cert.r, cert.s, cert.mult_r, cert.mult_s) == (17, -15, 1911, 2184)
    assert cert.source == "ORACLE"


def test_oracle_degenerate_and_none_cases():
    fld = get_field(2, 4)
    cm = classify(fld, 15)
    cert = difference_count_oracle(cm, (0,))  # C_0 = {1}: perfect matching
    assert cert is not None and cert.degenerate
    assert cert.parameters() == (16, 1, 0, 0)
    assert difference_count_oracle(cm, range(15)) is None  # complete graph
    # two singleton classes give a 2-regular non-SRG
    assert difference_count_oracle(cm, (0, 1)) is None
    # a union of two quintic classes happens to hit srg(16, 6, 2, 2)
    cm5 = classify(fld, 5)
    cert = difference_count_oracle(cm5, (0, 1))
    assert cert is not None and cert.parameters() == (16, 6, 2, 2)


def test_oracle_rejects_directed_set():
    fld = get_field(7, 1)
    cm = classify(fld, 6)  # -C_0 = C_3
    # the one refusal, word for word the one verify_union and verify-srg give
    for call in (difference_count_oracle, lambda cm, D: srg_engine.verify_union(cm, D, "SPECTRUM", False)):
        with pytest.raises(ValueError) as info:
            call(cm, (0,))
        assert str(info.value) == _DIRECTED
    cert = difference_count_oracle(cm, (0, 3))  # symmetric union is fine
    assert cert is None or cert.parameters()[0] == 7


def test_oracle_budget(monkeypatch):
    # k = 21845 (k^2 > 2^26) counts k |D| = 21845 pairs
    cm = classify(get_field(2, 16), 3)
    spectrum = srg_from_spectrum(cm.field.q, cm.class_size, cm.connection_sums((0,)))
    cert = difference_count_oracle(cm, (0,))
    assert cert is not None and cert.same_graph_data(spectrum)
    # k = |D| = 32760 gives k |D| > 2^26: refused before any Zech table is built
    cm = classify(get_field(65521, 1), 65520)
    monkeypatch.setattr(srg_engine, "_difference_counts", lambda field, N, D: pytest.fail("counted past the budget"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        difference_count_oracle(cm, range(0, 65520, 2))
    assert time.perf_counter() - start < 1


def test_oracle_count_guard_survives_optimize():
    # python -O strips asserts; the guard on the difference counts must still raise
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from cyclosrg.cyclotomy import classify
        from cyclosrg.finite_field import FieldTable, build_field
        from cyclosrg.srg_engine import difference_count_oracle

        FieldTable.sub_vec = lambda self, a, b: np.ones(np.broadcast(a, b).shape, dtype=np.int64)
        try:
            difference_count_oracle(classify(build_field(13, 1), 2), (0,))
        except AssertionError as exc:
            print(f"optimize={sys.flags.optimize} raised: {exc}")
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize=1 raised: difference counts"), proc.stdout


def test_oracle_refuses_constant_counts_that_fit_no_spectrum():
    # F_13, N = 2, D = (0,), k = 6: lambda = 5, mu = 0 gives r, s = 6, -1 and
    # mult_r = 6/7; lambda = 1, mu = 4 gives irrational values off the
    # conference line 2k + (v - 1)(lambda - mu) = 0.  Both totals pass the count guard.
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from cyclosrg import srg_engine
        from cyclosrg.cyclotomy import classify
        from cyclosrg.finite_field import build_field

        cm = classify(build_field(13, 1), 2)
        for lam, mu in [(5, 0), (1, 4)]:
            srg_engine._difference_counts = lambda field, N, D: (np.array([lam, mu]), len(D))
            try:
                srg_engine.difference_count_oracle(cm, (0,))
            except AssertionError as exc:
                print(f"optimize={sys.flags.optimize} raised: {exc}")
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"optimize=1 raised: constant counts lambda = {lam}, mu = {mu} fit no strongly regular spectrum"
        for lam, mu in [(5, 0), (1, 4)]
    ], proc.stdout


def test_src_has_no_assert_statements():
    # correctness guards must be raises: python -O strips every assert
    src = Path(__file__).resolve().parents[1] / "src" / "cyclosrg"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_private_names():
    # every module reaches the others through their public names only: it
    # imports no private name, and reads x._name only where x is self, cls
    # or a class the module defines
    src = Path(__file__).resolve().parents[1] / "src" / "cyclosrg"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {"self", "cls"} | {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{alias.name}" for alias in node.names if _is_private(alias.name)]
            elif isinstance(node, ast.Attribute) and _is_private(node.attr):
                if not (isinstance(node.value, ast.Name) and node.value.id in own):
                    found.append(f"{path.name}:{node.lineno}:{node.attr}")
    assert found == []


# public names that no code in src/ reads, each kept on purpose
_UNREAD_BY_DESIGN = {
    "connection_set_elements": "the perfbench tracer wraps it by name; the oracle tests read it",
    "from_int": "a rational integer in Z[xi_p]; perfbench starts its sum of the periods from from_int(p, 0)",
    "hit_keys": "a scan report's hits for library callers; perfbench and demo 04 read it",
    "rejection_reasons": "a scan report's per-candidate lookup; demo 04 reads it",
    "collapse_holds": "the collapse of the two-prime candidates onto two values; the acceptance tests read it",
    "conjugate_values": "the numeric pair of a quadratic Gauss value; demo 03 and the acceptance tests read it",
}


def test_no_public_name_goes_unread():
    # every public module function and public method or property is read by
    # name somewhere in src/, exported in __all__, or allowlisted above
    src = Path(__file__).resolve().parents[1] / "src" / "cyclosrg"
    defined, read = [], set(cyclosrg.__all__)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{path.name}:{node.name}", m.name) for m in node.body if isinstance(m, ast.FunctionDef)]
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [(where, name) for where, name in defined if not name.startswith("_") and name not in read]
    assert sorted(name for _, name in unread) == sorted(_UNREAD_BY_DESIGN), unread


def _reference_difference_counts(fld, elems):
    # every difference digit by digit through sub_vec, then one bincount by encoding
    return np.bincount(fld.sub_vec(elems[None, :], elems[:, None]).ravel(), minlength=fld.q)


# every field with 3 <= q <= 2^10: p = 2, prime fields and odd p with f > 1
_SMALL_FIELDS = [(p, f) for p in range(2, 1 << 10) if is_prime(p) for f in range(1, 11) if 2 < p**f <= 1 << 10]


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_difference_counts_match_per_digit_reference(seed):
    rng = np.random.default_rng(seed)
    for p, f in _SMALL_FIELDS:
        fld = get_field(p, f)
        N = int(rng.choice([N for N in divisors(fld.q - 1) if N >= 2]))
        D = np.flatnonzero(rng.random(N) < rng.random()).tolist() or [int(rng.integers(N))]
        elems = classify(fld, N).connection_set_elements(D)
        counts, same = _difference_counts(fld, N, D)
        ref = _reference_difference_counts(fld, elems)
        assert ref[0] == elems.size and same == len(D), (p, f, N, D)
        # the reference is constant on each class, and equal to counts there
        assert np.array_equal(ref[fld.antilog], np.tile(counts, (fld.q - 1) // N)), (p, f, N, D)


def test_oracle_agrees_with_spectrum_on_small_grid():
    for p, f, N, D in [
        (2, 4, 5, (0,)),
        (2, 4, 3, (0,)),
        (2, 6, 9, (0, 3, 6)),
        (3, 2, 4, (0, 2)),
        (5, 2, 8, (0, 4)),
        (13, 1, 4, (0, 2)),
        (2, 8, 17, (0,)),
    ]:
        fld = get_field(p, f)
        cm = classify(fld, N)
        sums = cm.connection_sums(D)
        k = len(D) * cm.class_size
        from_spectrum = srg_from_spectrum(fld.q, k, sums)
        from_oracle = difference_count_oracle(cm, D)
        assert (from_spectrum is None) == (from_oracle is None), (p, f, N, D)
        if from_spectrum is not None:
            assert from_spectrum.same_graph_data(from_oracle), (p, f, N, D)


def _oracle_fields() -> dict[int, list[tuple[int, int, list[int]]]]:
    # fields with q <= 2^16 and p <= 4096 by the bit length of q, each with its
    # N <= 512 and N p <= 2^18, which keeps the Z[xi_p] values cheap
    out: dict[int, list[tuple[int, int, list[int]]]] = {}
    for p in filter(is_prime, range(2, 1 << 12)):
        for f in range(1, 17):
            q = p**f
            Ns = [N for N in divisors(q - 1) if 2 <= N <= 512 and N * p <= 1 << 18] if 2 < q <= 1 << 16 else []
            if Ns:
                out.setdefault(q.bit_length(), []).append((p, f, Ns))
    return out


_ORACLE_FIELDS = _oracle_fields()


@st.composite
def _symmetric_unions(draw):
    bits = draw(st.sampled_from(sorted(_ORACLE_FIELDS)))
    p, f, Ns = draw(st.sampled_from(_ORACLE_FIELDS[bits]))
    N = draw(st.sampled_from(Ns))
    t = classify(get_field(p, f), N).negation_shift
    orbits = sorted({tuple(sorted({i, (i + t) % N})) for i in range(N)})
    chosen = draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    return p, f, N, sorted(i for o, c in zip(orbits, chosen) if c for i in o) or list(orbits[0])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_symmetric_unions())
def test_spectrum_agrees_with_oracle_up_to_q_2_16(case):
    p, f, N, D = case
    cm = classify(get_field(p, f), N)
    from_spectrum = srg_from_spectrum(cm.field.q, len(D) * cm.class_size, cm.connection_sums(D))
    from_oracle = difference_count_oracle(cm, D)
    assert (from_spectrum is None) == (from_oracle is None)
    if from_spectrum is not None:
        assert from_spectrum.same_graph_data(from_oracle)


_DIRECTED = "connection set is not symmetric (-D != D); the Cayley graph would be directed"


def _reference_union(cm, D, source, oracle):
    # the union pipeline as verify-srg ran it inline before verify_union:
    # all N sums to srg_from_spectrum, duplicates removed again for the spectrum
    D = tuple(sorted(D))
    if not cm.is_symmetric(D):
        raise ValueError(_DIRECTED)
    sums = cm.connection_sums(D)
    k = len(D) * (cm.field.q - 1) // cm.N
    cert = srg_from_spectrum(cm.field.q, k, sums, source=source)
    agrees = certificates_agree(cert, difference_count_oracle(cm, D)) if oracle else None
    return tuple(dict.fromkeys(sums)), cert, agrees


def test_verify_union_matches_inline_pipeline():
    # every field with q <= 256, every N in [2, 24] dividing q - 1, seeded symmetric unions
    seen = {"conference": 0, "irrational_non_srg": 0, "srg": 0, "directed": 0}
    for q in range(3, 257):
        fac = factorize(q)
        if len(fac) != 1:
            continue
        ((p, f),) = fac.items()
        for N in (N for N in divisors(q - 1) if 2 <= N <= 24):
            cm = classify(get_field(p, f), N)
            rng = random.Random(q * 100 + N)
            t = cm.negation_shift
            orbits = sorted({tuple(sorted({i, (i + t) % N})) for i in range(N)})
            for _ in range(3):
                chosen = [o for o in orbits if rng.random() < 0.5] or [rng.choice(orbits)]
                D = [i for o in chosen for i in o]
                rng.shuffle(D)
                for source, oracle in (("SPECTRUM", False), ("COMPUTED", True)):
                    got = srg_engine.verify_union(cm, D, source, oracle)
                    want = _reference_union(cm, D, source, oracle)
                    assert got[0] == want[0] and [type(x) for x in got[0]] == [type(x) for x in want[0]]
                    assert (repr(got[1]), got[2]) == (repr(want[1]), want[2]), (q, N, D, source)
                cert, distinct = got[1], got[0]
                if cert is not None:
                    seen["conference" if cert.irrational else "srg"] += 1
                elif any(not s.is_rational_integer for s in distinct):
                    seen["irrational_non_srg"] += 1
            if t:  # one class alone is not symmetric
                for fn in (srg_engine.verify_union, _reference_union):
                    with pytest.raises(ValueError) as info:
                        fn(cm, [0], "SPECTRUM", True)
                    assert str(info.value) == _DIRECTED
                seen["directed"] += 1
    assert all(seen.values()), seen


def test_verify_union_passes_only_distinct_sums(monkeypatch):
    calls = []

    def spy(v, k, values, source="SPECTRUM"):
        calls.append(list(values))
        return srg_from_spectrum(v, k, values, source)

    monkeypatch.setattr(srg_engine, "srg_from_spectrum", spy)
    # each case has N sums but fewer distinct values, certified or not
    for p, f, N, D in [(2, 4, 5, (0,)), (2, 4, 15, (0, 1)), (2, 6, 9, (0, 1)), (2, 6, 21, (0, 7, 14)), (17, 1, 4, (0, 2))]:
        cm = classify(get_field(p, f), N)
        distinct, _, _ = srg_engine.verify_union(cm, D, "SPECTRUM", True)
        assert len(cm.connection_sums(D)) == N > len(distinct)
        assert calls[-1] == list(distinct)
        assert len(set(calls[-1])) == len(calls[-1])
    assert len(calls) == 5


def test_certificates_agree_rule():
    cert = srg_from_spectrum(4096, 273, [17, -15])
    assert certificates_agree(None, None)
    assert not certificates_agree(cert, None)
    assert not certificates_agree(None, cert)
    # the route that produced a certificate is not graph data
    assert certificates_agree(cert, dataclasses.replace(cert, source="ORACLE"))
    assert not certificates_agree(cert, srg_from_spectrum(16, 5, [1, -3]))


def test_oracle_common_neighbor_spot_check():
    # independent adjacency-matrix verification of lambda and mu
    fld = get_field(2, 4)
    cm = classify(fld, 5)
    D = (0,)
    cert = difference_count_oracle(cm, D)
    assert cert is not None
    q = fld.q
    elems = set(int(x) for x in cm.connection_set_elements(D))
    adj = np.zeros((q, q), dtype=np.int64)
    for x in range(q):
        for y in range(q):
            if x != y and sub(fld, x, y) in elems:
                adj[x, y] = 1
    assert np.all(adj == adj.T)
    assert np.all(adj.sum(axis=1) == cert.k)
    common = adj @ adj
    for x in range(q):
        for y in range(x + 1, q):
            expected = cert.lam if adj[x, y] else cert.mu
            assert common[x, y] == expected, (x, y)


# ---------------------------------------------------------------------------
# closed-form predictions


def test_predicted_prime_power_small_and_large_m():
    sp = predicted_spectrum_prime_power(2, 7, 1)
    assert sp.integer_values() == [1, -1]
    assert (sp.v, sp.k, sp.N) == (8, 1, 7)
    sp = predicted_spectrum_prime_power(2, 7, 2)
    assert sp.integer_values() == [585, -439]
    assert (sp.v, sp.k, sp.N) == (2**21, (2**21 - 1) // 7, 49)
    assert sp.two_valued and sp.collapse_holds()


def _accepted_predictions():
    # prime power: p < 30, p1 < 200, m <= 3; two primes: p < 30, p1, p2 < 60, m <= 2
    for p in primes_upto(29):
        for args in [(p, p1, m) for p1 in primes_upto(199) for m in (1, 2, 3)] + [
            (p, p1, p2, m) for p1 in primes_upto(59) for p2 in primes_upto(59) for m in (1, 2)
        ]:
            try:
                sp = predicted_spectrum_prime_power(*args) if len(args) == 3 else predicted_spectrum_two_primes(*args)
            except ValueError:
                continue
            yield args, sp


def test_integer_closed_forms_match_the_fraction_reference():
    # the closed forms are rational eigenvalues, so integers: each exact quotient
    # of an integer numerator equals the paper's formula evaluated in Fractions
    counts = {3: 0, 4: 0}
    for args, sp in _accepted_predictions():
        want = reference_prime_power(*args) if len(args) == 3 else reference_two_primes(*args)
        assert sp.values == want, args
        assert all(type(val) is int for _, val in sp.values), args
        counts[len(args)] += 1
    assert counts == {3: 226, 4: 482}


def test_closed_forms_refuse_a_remainder(monkeypatch):
    # an off-by-one p^h0 leaves a remainder, which must raise, not round
    capped = srg_engine._capped_terms
    monkeypatch.setattr(srg_engine, "_capped_terms", lambda gauss: (*capped(gauss)[:2], capped(gauss)[2] + 1))
    with pytest.raises(ArithmeticError, match="not an integer"):
        predicted_spectrum_prime_power(2, 7, 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        predicted_spectrum_two_primes(2, 3, 5, 1)


def test_predicted_prime_power_certificate_matches_parameters():
    sp = predicted_spectrum_prime_power(2, 7, 2)
    cert = sp.certificate()
    assert cert is not None
    assert cert.v == 2**21 and cert.k == 299593
    assert (cert.lam, cert.mu) == (42924, 42778)


def test_predicted_two_primes_values():
    sp = predicted_spectrum_two_primes(2, 3, 5, 2)
    assert sp.integer_values() == [17, -15]
    assert sp.collapse_holds() and sp.two_valued
    named = dict(sp.values)
    assert named["c_one"] == named["c_plus"] == 17
    assert named["c_three"] == named["c_minus"] == -15
    sp = predicted_spectrum_two_primes(2, 5, 3, 2)
    assert sp.integer_values() == [273, -239]
    sp = predicted_spectrum_two_primes(3, 5, 7, 1)
    assert sp.integer_values() == [118, -125]
    named = dict(sp.values)
    assert named["c_one"] == named["c_two"] == -125
    assert named["c_three"] == 118


@pytest.mark.parametrize(
    "predict, args",
    [
        # every other cap admits this one: f = 499982500153, so 2^f is about 62 GB
        (predicted_spectrum_prime_power, (2, 999983, 2)),
        (predicted_spectrum_two_primes, (2, 3, 5, 64)),
    ],
)
def test_predictions_capped_before_powers(predict, args):
    # the largest family hit inside the scan caps, (5, 499) at m = 2, still
    # passes: test_family_search.test_scan_pairs_table finds all six hits
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        predict(*args)
    assert time.perf_counter() - start < 1.0


def test_predicted_two_primes_delange_certificate():
    cert = predicted_spectrum_two_primes(2, 3, 5, 2).certificate()
    assert cert is not None
    assert cert.parameters() == (4096, 273, 20, 18)


def test_predictions_match_computed_spectra():
    # closed form vs actual connection sums, fields small enough to build
    cases = [
        (2, 7, 1, None),  # q = 8
        (2, 3, 1, 5),     # q = 16
        (2, 3, 2, 5),     # q = 4096
        (2, 5, 1, 3),     # q = 16
    ]
    for p, p1, m, p2 in cases:
        if p2 is None:
            sp = predicted_spectrum_prime_power(p, p1, m)
            N = p1**m
            D = tuple(range(p1 ** (m - 1)))
        else:
            sp = predicted_spectrum_two_primes(p, p1, p2, m)
            N = p1**m * p2
            D = tuple(i * p2 for i in range(p1 ** (m - 1)))
        f = euler_phi(N) // 2
        fld = get_field(p, f)
        cm = classify(fld, N)
        computed = sorted({z.to_int() for z in cm.connection_sums(D)}, reverse=True)
        assert computed == sp.integer_values(), (p, p1, m, p2)


def _index2_predictions_inside_the_field_cap():
    """Every prediction that predicted_spectrum_* accepts with p^f <= SIZE_CAP.

    f = phi(N)/2 <= 22 bounds p1 and p2 by 47 and m by 2, and f >= 3 bounds p by 2^(22/3) < 162.
    """
    found = []
    for p1 in primes_upto(47):
        for p2 in [None, *primes_upto(47)]:
            for m in (1, 2, 3):
                f = euler_phi(p1**m * (p2 or 1)) // 2
                for p in primes_upto(161):
                    if p**f > SIZE_CAP:
                        break
                    try:
                        found.append(
                            predicted_spectrum_prime_power(p, p1, m)
                            if p2 is None
                            else predicted_spectrum_two_primes(p, p1, p2, m)
                        )
                    except ValueError:
                        pass
    return found


def test_index2_predictions_meet_the_exact_route_inside_the_field_cap():
    # the paper's union over each field: every exact sum is a candidate, and both certificates agree
    predictions = _index2_predictions_inside_the_field_cap()
    srgs = 0
    for sp in predictions:
        cm = classify(build_field(sp.p, sp.gauss.f), sp.N)
        D = [(sp.p2 or 1) * i for i in range(sp.p1 ** (sp.m - 1))]
        distinct, cert, _ = srg_engine.verify_union(cm, D, "SPECTRUM", oracle=False)
        key = (sp.p, sp.p1, sp.p2, sp.m)
        assert {z.to_int() for z in distinct} <= {val for _, val in sp.values}, key
        assert certificates_agree(cert, sp.certificate()), key
        srgs += cert is not None
    assert (len(predictions), srgs) == (32, 10)


# ---------------------------------------------------------------------------
# family criteria


def test_pair_family_known_hits():
    for p, p1 in [(2, 7), (3, 107), (5, 19), (5, 499), (17, 67), (41, 163)]:
        check = pair_family_check(p, p1)
        assert check.ok, (p, p1, check.reasons)
        assert check.b == (1 if p1 % 8 == 3 else -1)
        assert 1 + p1 == 4 * p**check.h


def test_family_checks_take_numpy_integers():
    for args in [(2, 7), (2, 11), (5, 499), (2, 15)]:
        assert pair_family_check(*map(np.int64, args)) == pair_family_check(*args)
    for args in [(2, 3, 5), (3, 17, 19), (2, 7, 3), (2, 9, 5)]:
        assert triple_family_check(*map(np.int64, args)) == triple_family_check(*args)
    check = triple_family_check(np.int64(2), np.int32(3), np.uint16(5))
    assert check.ok and all(type(n) is int for n in (check.p, check.p1, check.p2))
    with pytest.raises(TypeError):
        pair_family_check(2.0, 7)


def test_pair_family_rejections():
    assert REASON_NOT_INDEX2 in pair_family_check(2, 11).reasons
    assert REASON_DIOPHANTINE_FAIL in pair_family_check(3, 7).reasons
    assert REASON_MOD4_PATTERN in pair_family_check(2, 13).reasons
    assert REASON_NOT_PRIME in pair_family_check(2, 15).reasons
    assert not pair_family_check(2, 23).ok  # 24 = 4*6 is not a power of 2


def test_pair_family_witness_values():
    check = pair_family_check(2, 7)
    assert (check.h, check.b, check.f1) == (1, -1, 3)
    assert (check.r1, check.s1) == (1, -1)
    assert (check.r2, check.s2) == (585, -439)
    assert check.r_formula == "(4*2^h0-1)/7"


def test_triple_family_known_hits():
    for p, p1, p2 in [(2, 3, 5), (2, 5, 3), (3, 5, 7), (3, 7, 5), (3, 17, 19), (3, 19, 17)]:
        check = triple_family_check(p, p1, p2)
        assert check.ok, (p, p1, p2, check.reasons)
        assert check.h % 2 == 0
        assert 1 + p1 * p2 == 4 * p**check.h


def test_triple_family_rejections():
    assert REASON_DIOPHANTINE_FAIL in triple_family_check(2, 7, 3).reasons
    assert REASON_MOD4_PATTERN in triple_family_check(2, 7, 3).reasons
    assert REASON_NOT_PRIME in triple_family_check(2, 9, 5).reasons
    assert not triple_family_check(2, 3, 7).ok
    assert not triple_family_check(5, 3, 5).ok  # p divides p2


def test_triple_family_witness_values():
    check = triple_family_check(2, 3, 5)
    assert (check.h, check.b, check.f1) == (2, 1, 4)
    assert (check.r1, check.s1) == (1, -1)
    assert (check.r2, check.s2) == (17, -15)
    check = triple_family_check(3, 5, 7)
    assert (check.r1, check.s1) == (118, -125)


def test_triple_family_refuses_odd_class_number(monkeypatch):
    # genus theory makes h(Q(sqrt(-p1 p2))) even; a class number that says otherwise is an internal fault
    monkeypatch.setattr(family_search, "class_number", lambda d: 3)
    with pytest.raises(AssertionError, match="is odd, against genus theory"):
        triple_family_check(2, 3, 5)


def test_triple_scan_refuses_odd_class_number(monkeypatch):
    # the scan reads h off the form counts; an odd count there is the same internal fault
    monkeypatch.setattr(family_search, "reduced_form_counts", lambda n_max: np.full(n_max + 1, 3))
    with pytest.raises(AssertionError, match="is odd, against genus theory"):
        scan_triples(5, 400)


def test_triple_family_cross_checks_gauss_sign(monkeypatch):
    # a Gauss sum whose b disagrees with b = e (p1 - R) is an internal fault
    two_primes = family_search.predicted_spectrum_two_primes

    def flipped_b(p, p1, p2, m):
        sp = two_primes(p, p1, p2, m)
        return dataclasses.replace(sp, gauss=dataclasses.replace(sp.gauss, b=-sp.gauss.b))

    monkeypatch.setattr(family_search, "predicted_spectrum_two_primes", flipped_b)
    with pytest.raises(AssertionError, match="b = 1"):
        triple_family_check(2, 3, 5)


def test_family_index2_reason_matches_mult_order():
    # the orders from p1 - 1 and p2 - 1 against mult_order of p1, p1^2, p2 and p1 p2
    primes = [q for q in range(2, 60) if is_prime(q)]
    for p in primes[:10]:
        for p1 in primes:
            if p1 == p:
                continue
            half = p1 % 2 == 1 and mult_order(p, p1) == (p1 - 1) // 2 and mult_order(p, p1**2) == p1 * (p1 - 1) // 2
            assert (REASON_NOT_INDEX2 in pair_family_check(p, p1).reasons) == (not half), (p, p1)
            for p2 in primes:
                if p2 in (p, p1):
                    continue
                full = mult_order(p, p1) == p1 - 1 and mult_order(p, p1**2) == p1 * (p1 - 1) and mult_order(p, p2) == p2 - 1
                index2 = full and 2 * mult_order(p, p1 * p2) == (p1 - 1) * (p2 - 1)
                assert (REASON_NOT_INDEX2 in triple_family_check(p, p1, p2).reasons) == (not index2), (p, p1, p2)


@pytest.mark.parametrize(
    "check, args, d",
    [
        (pair_family_check, (2, 100000007), 100000007),
        # 2 is a primitive root modulo 100000259, so every order test would run
        (triple_family_check, (2, 100000259, 5), 500001295),
    ],
)
def test_family_checks_refuse_large_d_before_orders(check, args, d):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^d = {d} exceeds the cap 1000000$"):
        check(*args)
    assert time.perf_counter() - start < 0.5
