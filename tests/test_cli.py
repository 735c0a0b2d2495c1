"""In-process tests of the command line front end."""

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclosrg.cli import main
from cyclosrg.family_search import _check_scan_bounds
from cyclosrg.gauss_theory import (
    INDEX2_EXPONENT_CAP,
    class_number,
    index2_gauss_prime_power,
    semiprimitive_gauss,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_number_pretty_and_json(capsys):
    code, out, err = run(capsys, "class-number", "--d", "7")
    assert code == 0 and out == "1\n" and err == ""
    code, out, _ = run(capsys, "class-number", "--d", "107", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"d": 107, "h": 3}


def test_verify_example_json_certificate(capsys):
    code, out, _ = run(capsys, "verify-example", "--name", "delange", "--format", "json")
    assert code == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert (cert["v"], cert["k"], cert["lambda"], cert["mu"]) == (4096, 273, 20, 18)
    assert (cert["r"], cert["s"]) == (17, -15)
    assert (cert["mult_r"], cert["mult_s"]) == (1911, 2184)
    assert cert["degenerate_flag"] is False
    assert cert["inputs"] == {"D": [0, 5, 10], "N": 45, "m": 2, "p": 2, "p1": 3, "p2": 5}
    assert data["ok"] and data["oracle_ran"] and data["oracle_agrees"]


def test_verify_srg_robustness_single_class(capsys):
    # one quintic class over F_16; must decide cleanly either way
    code, out, _ = run(
        capsys, "verify-srg", "--p", "2", "--f", "4", "--n", "5", "--classes", "0"
    )
    assert code in (0, 1)
    assert "connection sums" in out


def test_verify_srg_positive_with_oracle(capsys):
    code, out, _ = run(
        capsys,
        "verify-srg",
        "--p", "2", "--f", "12", "--n", "45",
        "--classes", "0,5,10",
        "--oracle",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["spectrum"] == [17, -15]
    assert data["oracle_ran"] and data["oracle_agrees"]
    assert data["certificate"]["source"] == "SPECTRUM"
    assert data["certificate"]["inputs"]["p1"] is None


def test_verify_srg_checked_false(capsys):
    code, out, _ = run(
        capsys,
        "verify-srg",
        "--p", "2", "--f", "4", "--n", "15",
        "--classes", "0,1",
        "--format", "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["certificate"] is None


def test_verify_srg_directed_is_domain_error(capsys):
    code, out, err = run(
        capsys, "verify-srg", "--p", "7", "--f", "1", "--n", "6", "--classes", "0"
    )
    assert code == 2 and out == ""
    assert "symmetric" in err


def test_duplicate_classes_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify-srg", "--p", "2", "--f", "4", "--n", "15", "--classes", "0,0"])
    assert info.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    capsys.readouterr()


def test_domain_error_exits_2(capsys):
    # 2 is a primitive root modulo 11, so there is no index-2 case
    code, out, err = run(capsys, "gauss-index2", "--p", "2", "--p1", "11", "--m", "1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_gauss_index2_two_primes_json(capsys):
    code, out, _ = run(
        capsys,
        "gauss-index2",
        "--p", "2", "--p1", "3", "--p2", "5", "--m", "2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "p": 2, "p1": 3, "p2": 5, "m": 2, "n": 45,
        "delta": 15, "f": 12, "h": 2, "h0": 5,
        "b": 1, "c_abs": 1, "resolved": True,
    }


def test_gauss_semiprimitive_value(capsys):
    code, out, _ = run(
        capsys, "gauss-semiprimitive", "--p", "2", "--n", "5", "--f", "8",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == -16 and data["sign"] == -1


def test_periods_json(capsys):
    code, out, _ = run(
        capsys, "periods", "--p", "2", "--f", "2", "--n", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert [row["integer"] for row in data["periods"]] == [1, -1, -1]
    assert data["class_size"] == 1


def test_build_field_formats(capsys):
    code, out, _ = run(capsys, "build-field", "--p", "2", "--f", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 8 and data["modulus"] == [1, 0, 1, 1]
    code, out, _ = run(
        capsys, "build-field", "--p", "2", "--f", "3", "--dump-tables", "--format", "tsv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert "i\telement\ttrace" in lines
    assert len(lines) == 6 + 1 + 7  # summary rows, table header, 7 table rows


def test_explicit_modulus_accepted(capsys):
    code, out, _ = run(
        capsys,
        "build-field", "--p", "2", "--f", "2", "--modulus", "1,1,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["modulus"] == [1, 1, 1]


def test_scan_pairs_tsv_and_determinism(capsys):
    code, out1, _ = run(
        capsys, "scan-pairs", "--p-max", "10", "--p1-max", "110", "--format", "json"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "scan-pairs", "--p-max", "10", "--p1-max", "110", "--format", "json"
    )
    assert out1 == out2
    hits = json.loads(out1)["hits"]
    assert [(h["p"], h["p1"]) for h in hits] == [(2, 7), (3, 107), (5, 19)]
    code, out, _ = run(
        capsys, "scan-pairs", "--p-max", "10", "--p1-max", "110", "--format", "tsv"
    )
    assert out.split("\n")[0] == "p\tp1\tp2\th\tb\tf\tk\tr\ts"


def test_scan_triples_pretty(capsys):
    code, out, _ = run(capsys, "scan-triples", "--p-max", "3", "--n-max", "40")
    assert code == 0
    assert "hits" in out.split("\n")[0]


def test_scan_pairs_json_prints_long_witnesses(capsys):
    # the README bound reaches (5, 499), whose r_m2 has 43423 digits, beyond
    # Python's default int -> str limit of 4300 digits
    code, out, err = run(capsys, "scan-pairs", "--p-max", "50", "--p1-max", "500", "--format", "json")
    assert code == 0 and err == ""
    hits = json.loads(out)["hits"]
    assert [(h["p"], h["p1"]) for h in hits] == [(2, 7), (3, 107), (5, 19), (5, 499), (17, 67), (41, 163)]
    (big,) = [h for h in hits if (h["p"], h["p1"]) == (5, 499)]
    assert len(str(big["r_m2"]).lstrip("-")) == 43423


def test_internal_errors_exit_3(capsys, monkeypatch):
    import cyclosrg.gauss_theory
    import cyclosrg.srg_engine

    # a broken difference count trips the oracle's guard (AssertionError)
    monkeypatch.setattr(cyclosrg.srg_engine, "_difference_counts", lambda field, elems: np.zeros(field.q, dtype=np.int64))
    code, out, err = run(capsys, "verify-srg", "--p", "2", "--f", "4", "--n", "5", "--classes", "0", "--oracle")
    assert code == 3 and out == "" and err.startswith("internal error: difference counts")
    assert err.count("\n") == 1
    # no solution of the quadratic form leaves the Gauss sign unresolved (ArithmeticError)
    monkeypatch.setattr(cyclosrg.gauss_theory, "_solve_quadratic_form", lambda p, delta, h: [])
    code, out, err = run(capsys, "gauss-index2", "--p", "2", "--p1", "7", "--m", "1")
    assert code == 3 and out == "" and err.startswith("internal error: sign resolution")


@pytest.mark.parametrize(
    "argv",
    [
        ("scan-pairs", "--p-max", str(10**15), "--p1-max", "500"),
        ("scan-pairs", "--p-max", "50", "--p1-max", str(10**15)),
        ("scan-triples", "--p-max", "5", "--n-max", str(10**15)),
        ("scan-triples", "--p-max", "10000", "--n-max", "10000"),
        ("class-number", "--d", str(10**15 + 37)),
        ("gauss-index2", "--p", "2", "--p1", "7", "--m", "8000"),
        ("gauss-index2", "--p", "2", "--p1", "3", "--p2", "5", "--m", "4000"),
        ("gauss-index2", "--p", "2", "--p1", "1000003", "--m", "1"),
        # index 2 holds, h(-18119) = 205, and p^h has 16605 bits (81 per p)
        ("gauss-index2", "--p", "1208925819614629174706261", "--p1", "18119", "--m", "1"),
        ("gauss-semiprimitive", "--p", "3", "--n", "4", "--f", "800000"),
        ("gauss-semiprimitive", "--p", "2", "--n", "3", "--f", str(10**15)),
    ],
)
def test_oversized_inputs_rejected_before_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "p, message",
    [
        # 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
        ("318665857834031151167461", "must be prime"),
        ("3317044064679887385961981", "only decided below"),
    ],
)
def test_primality_bound_exits_2(capsys, p, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "gauss-index2", "--p", p, "--p1", "19", "--m", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_caps_admit_readme_and_benchmark_bounds():
    for p_max, other_max in [(50, 500), (60, 600), (5, 400), (20, 2000)]:
        _check_scan_bounds(p_max, other_max)
    assert class_number(186011) == 148
    # the benchmark's index-2 pools use m <= 2 and c_max <= 5e5; its largest
    # semi-primitive value is 19^88
    assert INDEX2_EXPONENT_CAP >= 2
    assert index2_gauss_prime_power(73, 223, 2).c_abs is not None
    assert abs(semiprimitive_gauss(19, 89, 176).value()) == 19**88


def test_gauss_index2_large_class_number_is_quick(capsys):
    # the brute-force solver scanned 1.9e7 values of c here (h = 10)
    start = time.perf_counter()
    code, out, _ = run(capsys, "gauss-index2", "--p", "41", "--p1", "13", "--p2", "11", "--m", "1", "--format", "json")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    data = json.loads(out)
    assert (data["h"], data["h0"], data["b"], data["c_abs"]) == (10, 25, 231619298, 549240)


_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 43, 47, 59, 67, 107])
# well-formed values per option: small, so that admitted inputs stay quick
_GOOD = {
    "--p": _PRIMES | st.integers(-2, 12),
    "--p1": _PRIMES,
    "--p2": _PRIMES,
    "--m": st.integers(-1, 4),
    "--n": st.integers(0, 60),
    "--f": st.integers(0, 48),
    "--d": st.integers(-2, 500),
    "--p-max": st.integers(0, 12),
    "--p1-max": st.integers(0, 120),
    "--n-max": st.integers(0, 60),
}
_OVERSIZED = st.sampled_from(
    [
        INDEX2_EXPONENT_CAP + 1,
        10**5 + 3,
        10**15 + 37,
        2**64 + 13,
        318665857834031151167461,
        3317044064679887385961981,
        10**30,
    ]
)
_MALFORMED = st.sampled_from(["", "x", "1.5", "0x10", "1e3", "--", "7,7"])
_COMMANDS = {
    "gauss-index2": ("--p", "--p1", "--p2", "--m"),
    "gauss-semiprimitive": ("--p", "--n", "--f"),
    "class-number": ("--d",),
    "scan-pairs": ("--p-max", "--p1-max"),
    "scan-triples": ("--p-max", "--n-max"),
}


# valid argv from the README, the tests and the benchmark pools
_VALID = [
    ("gauss-index2", "--p", 2, "--p1", 7, "--m", 2),
    ("gauss-index2", "--p", 3, "--p1", 107, "--m", 1),
    ("gauss-index2", "--p", 5, "--p1", 19, "--m", 2),
    ("gauss-index2", "--p", 2, "--p1", 3, "--p2", 5, "--m", 2),
    ("gauss-index2", "--p", 3, "--p1", 17, "--p2", 19, "--m", 1),
    ("gauss-index2", "--p", 41, "--p1", 13, "--p2", 11, "--m", 1),
    ("gauss-semiprimitive", "--p", 2, "--n", 5, "--f", 8),
    ("gauss-semiprimitive", "--p", 19, "--n", 89, "--f", 176),
    ("class-number", "--d", 107),
    ("scan-pairs", "--p-max", 10, "--p1-max", 110),
    ("scan-triples", "--p-max", 3, "--n-max", 40),
]


@st.composite
def _random_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag in _COMMANDS[command]:
        kind = draw(st.integers(0, 19))
        if kind == 0 or (flag == "--p2" and kind < 10):
            continue  # a missing option, required or not
        if kind == 1:
            value = draw(_MALFORMED)
        elif kind in (2, 3):
            value = str(draw(_OVERSIZED))
        else:
            value = str(draw(_GOOD[flag]))
        argv += [flag, value]
    return argv


@st.composite
def _mutated_argv(draw):
    """A valid argv with at most one value replaced."""
    argv = [str(x) for x in draw(st.sampled_from(_VALID))]
    i = 2 + 2 * draw(st.integers(0, len(argv) // 2 - 1))
    new = draw(st.one_of(st.none(), _GOOD[argv[i - 1]].map(str), _OVERSIZED.map(str), _MALFORMED))
    if new is not None:
        argv[i] = new
    return argv


@st.composite
def _argvs(draw):
    argv = draw(st.one_of(_random_argv(), _mutated_argv()))
    return argv + ["--format", draw(st.sampled_from(["json", "tsv", "pretty"] * 6 + ["xml"]))]


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argvs())
def test_main_fuzz_exits_cleanly(capsys, argv):
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects malformed argv with exit 2
        code = exc.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert elapsed < 2.0, argv
