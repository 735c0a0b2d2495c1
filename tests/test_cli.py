"""In-process tests of the command line front end."""

import dataclasses
import hashlib
import json
import random
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclosrg import family_search, finite_field, gauss_theory, srg_engine
from cyclosrg.cli import _HALVING_BITS, _digits, main
from cyclosrg.family_search import NamedExample, _check_scan_bounds
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


def test_verify_example_with_an_irrational_spectrum(capsys, monkeypatch):
    # C_0 of order 4 over F_25 is not strongly regular: its four connection sums are
    # irrational, so they print as reprs, and no certificate matches (5, 19)'s prediction
    probe = NamedExample("irrational_probe", 5, 19, None, 1, 2, 4, (0,))
    monkeypatch.setitem(family_search.NAMED_EXAMPLES, probe.name, probe)
    code, out, err = run(capsys, "verify-example", "--name", probe.name, "--format", "json")
    data = json.loads(out)
    assert code == 1 and err == ""
    assert len(data["spectrum"]) == 4
    assert all(s.startswith("CyclotomicInteger(p=5, coeffs=") for s in data["spectrum"])
    assert data["certificate"] is None and data["oracle_agrees"] is True
    assert (data["q"], data["k"], data["ok"], data["predicted_matches"]) == (25, 6, False, False)
    code, out, _ = run(capsys, "verify-example", "--name", probe.name)
    assert code == 1
    assert "no certificate: spectrum is not two-valued" in out.splitlines()


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


def test_verify_srg_oracle_counts_one_element_per_class(capsys):
    # k = 21845: k^2 is above the 2^26 pair budget, k |D| is not
    code, out, _ = run(capsys, "verify-srg", "--p", "2", "--f", "16", "--n", "3", "--classes", "0", "--oracle", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["oracle_ran"] and data["oracle_agrees"] is True


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
    assert err == "error: connection set is not symmetric (-D != D); the Cayley graph would be directed\n"


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


@pytest.mark.parametrize(
    "argv, err",
    [
        ("gauss-semiprimitive --p 2 --n 2 --f 2", "error: N must be at least 3, got 2\n"),
        # the degree refusals name the CLI's --f
        ("gauss-semiprimitive --p 2 --n 3 --f 0", "error: f must be >= 1, got 0\n"),
        ("gauss-semiprimitive --p 2 --n 3 --f 200000", "error: p^(f/2) = 2^100000 exceeds the cap of 65536 bits\n"),
        ("gauss-semiprimitive --p 2 --n 5 --f 6", "error: f = 6 is not a multiple of the order of 2 modulo 5\n"),
        ("gauss-index2 --p 4 --p1 7 --m 1", "error: p and p1 must be prime\n"),
        ("gauss-index2 --p 2 --p1 9 --m 1", "error: p and p1 must be prime\n"),
        ("gauss-index2 --p 2 --p1 3 --p2 9 --m 1", "error: p, p1, p2 must all be prime\n"),
        ("gauss-index2 --p 2 --p1 3 --m 1", "error: p1 must exceed 3, got 3\n"),
        ("gauss-index2 --p 2 --p1 5 --m 1", "error: p1 must be 3 mod 4, got 5\n"),
        ("gauss-index2 --p 2 --p1 3 --p2 3 --m 1", "error: p1 and p2 must be distinct\n"),
        ("gauss-index2 --p 2 --p1 3 --p2 7 --m 1", "error: need one prime 1 mod 4 and one 3 mod 4, got 3, 7\n"),
        ("gauss-index2 --p 2 --p1 7 --m 0", "error: m must be >= 1, got 0\n"),
        ("gauss-index2 --p 2 --p1 7 --m 65", "error: m = 65 exceeds the cap 64\n"),
        ("gauss-index2 --p 2 --p1 3 --p2 5 --m 0", "error: m must be >= 1, got 0\n"),
        ("gauss-index2 --p 2 --p1 3 --p2 5 --m 65", "error: m = 65 exceeds the cap 64\n"),
        ("gauss-index2 --p 7 --p1 7 --m 1", "error: p = 7 and N = 7 are not coprime\n"),
        ("gauss-index2 --p 5 --p1 3 --p2 5 --m 1", "error: p = 5 and N = 15 are not coprime\n"),
        (
            "gauss-index2 --p 2 --p1 11 --m 1",
            "error: <2> does not have index 2 without -1 modulo 11**1 (got NOT_INDEX2)\n",
        ),
        (
            "gauss-index2 --p 2 --p1 3 --p2 17 --m 1",
            "error: <2> modulo 51 is not the two-prime index-2 case (got NOT_INDEX2)\n",
        ),
        (
            "gauss-index2 --p 2 --p1 5 --p2 7 --m 1",
            "error: <2> modulo 35 is not the two-prime index-2 case (got TWO_PRIMES_HALF_ORDER)\n",
        ),
        # the exponent cap is checked before the class-number cap
        ("gauss-index2 --p 2 --p1 1000003 --m 65", "error: m = 65 exceeds the cap 64\n"),
        ("gauss-index2 --p 2 --p1 1000003 --m 1", "error: d = 1000003 exceeds the cap 1000000\n"),
        ("gauss-index2 --p 2 --p1 1000003 --p2 5 --m 1", "error: d = 5000015 exceeds the cap 1000000\n"),
        (
            "verify-srg --p 4194301 --f 1 --n 10 --classes 0,5",
            "error: period tally table would need 41943010 cells, cap is 33554432\n",
        ),
    ],
)
def test_domain_refusals_pinned(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", err)


def test_verify_srg_refuses_past_the_connection_cell_cap(capsys):
    classes = ",".join(map(str, range(20000)))
    argv = ["verify-srg", "--p", "2", "--f", "16", "--n", "65535", "--classes", classes, "--format", "json"]
    assert run(capsys, *argv) == (2, "", "error: connection sums would add 2621400000 cells, cap is 1073741824\n")


def test_build_field_refuses_a_non_integer_modulus(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build-field", "--p", "2", "--f", "3", "--modulus", "1,x"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --modulus: expected comma separated integers, got '1,x'\n")


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


@pytest.fixture
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_digits_at_the_halving_thresholds(no_digit_limit):
    # one call, so the powers of 2 are shared across every bit length
    widths = [0, 1, 2, 63, 64, 65] + [j * _HALVING_BITS + d for j in (1, 2, 4) for d in (-1, 0, 1)]
    ns = [n for w in widths for n in (2**w, 2**w - 1, 10 ** (w * 3 // 10))]
    ns += [-n for n in ns]
    assert _digits(ns) == [str(n) for n in ns]


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draws=st.lists(st.tuples(st.integers(0, 300_000), st.booleans(), st.integers(0, 2**32)), min_size=1, max_size=3))
def test_digits_match_str(no_digit_limit, draws):
    ns = [(-1) ** negative * random.Random(seed).getrandbits(bits) for bits, negative, seed in draws]
    assert _digits(ns) == [str(n) for n in ns]


# (argv, exit code, sha256 of stdout) for every subcommand in every format.
# Periods with irrational values are left out: their re/im floats come from
# a numpy dot product whose last bits may vary between BLAS builds.
_GOLDEN = [
    ("build-field --p 2 --f 3 --format json", 0, "9ee0e4d9ad83b5f1f871566efb13cf90a772ffc8daaa1434da8852f3cae02f74"),
    ("build-field --p 2 --f 3 --format tsv", 0, "e6fc9d31bf51ad34cd8e36161ef6080d3d655e4aa05f3af0f3a688f0229757b9"),
    ("build-field --p 2 --f 3 --format pretty", 0, "90d918b071511e097deb7c7e8f7342265d598cfd6bc98dbb5f1c6c251d0301c0"),
    ("build-field --p 3 --f 2 --dump-tables --format json", 0, "72c6cb59a73b4ac1e8f034eef61dc43283f65b560d94b71f9017686b43ab3411"),
    ("build-field --p 3 --f 2 --dump-tables --format tsv", 0, "d7cf3aea15e63e706494c1d7b067834a60e133a1afb84e288f6974dba89b7329"),
    ("build-field --p 3 --f 2 --dump-tables --format pretty", 0, "9abbddb7adc6a52e4b56dfc7a20143aab2af6c086309bfb43728892004aaf9df"),
    ("build-field --p 2 --f 2 --modulus 1,1,1 --format json", 0, "fa8e0ceb3a9ee09c1111dabb31b352b521cf7400a160f0cc815784d0297fb03d"),
    ("build-field --p 2 --f 2 --modulus 1,1,1 --format tsv", 0, "8a27a1f1c503671ade64792c03d1712c1f6df05b7087df5b900f71bf77b7fb73"),
    ("build-field --p 2 --f 2 --modulus 1,1,1 --format pretty", 0, "02d7ececfc133f75204019ecb76c722bbece7ed7c73390137ce4fed4df6d9c7a"),
    ("build-field --p 4 --f 2 --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("build-field --p 4 --f 2 --format tsv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("build-field --p 4 --f 2 --format pretty", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("periods --p 2 --f 4 --n 5 --format json", 0, "4805decbdd44ccb56c36ad30b5b08ae3b8636326847a437e7378d1121ec4a0fa"),
    ("periods --p 2 --f 4 --n 5 --format tsv", 0, "b6dc28a3dd4465a4cd0e92e447de636412e6ec837ed0abee2d2d0a4979cd6c97"),
    ("periods --p 2 --f 4 --n 5 --format pretty", 0, "c9ba03f220e0b78f8f899615c63cfd106dd4a9c797c4df52a9144bc8889c8d15"),
    ("periods --p 2 --f 4 --n 5 --tally --format json", 0, "4f79d8baf6526fee5b5dcde34285b0e7024d327424de50ef7210b655fbf4b6fb"),
    ("periods --p 2 --f 4 --n 5 --tally --format tsv", 0, "a01e30730e6d8e9a8a2c3677b67f623afddf31bd92d79dc2f9bdde32727d8b63"),
    ("periods --p 2 --f 4 --n 5 --tally --format pretty", 0, "a5b5437163ab69cb51c0327f53d9a23aae2de7dd694e42ae7bedbe9277fcbf57"),
    ("periods --p 3 --f 2 --n 4 --tally --format json", 0, "3bda631183d02b7fd2dada0e9dd076da12681fc63a99be5f24a5dc490cf2d12a"),
    ("periods --p 3 --f 2 --n 4 --tally --format tsv", 0, "e3f223de4b75e6244a84626e9b9ded2f80e7155b481cc1831f8e2d9334582e9e"),
    ("periods --p 3 --f 2 --n 4 --tally --format pretty", 0, "b3709defed0664d5f0360cb5369a1947251cc082a27624479bb9fa274cb0703e"),
    # irrational periods: the pretty line that prints the numeric value
    ("periods --p 7 --f 1 --n 3 --format pretty", 0, "04af999645eb6b9a9a6fd93041e0da2e6b3fe096921c03c347fa0e5a84f128b2"),
    ("verify-srg --p 2 --f 4 --n 3 --classes 0 --format json", 0, "60a1eee6b0ef9499a25e2d3a530783483fcf98f261e6f4c46a85ca8c1f16175d"),
    ("verify-srg --p 2 --f 4 --n 3 --classes 0 --format tsv", 0, "1e047ae045d1139e5f41336b5733c65774db9400bc3c7a1ceee169925ee5f9b6"),
    ("verify-srg --p 2 --f 4 --n 3 --classes 0 --format pretty", 0, "db26c477ca5966ac91d801574b120cfd1accba843caa01faa977d9c0393ef966"),
    ("verify-srg --p 2 --f 4 --n 3 --classes 0 --oracle --format json", 0, "083f2b227198e8122c3e419d10b6f1380a8e9bcedfc61fda21b4e0de734ab6ee"),
    ("verify-srg --p 2 --f 4 --n 3 --classes 0 --oracle --format tsv", 0, "2c7a956257db049ff57cf01e4ac16b34119d02a5b562abe6d145af305c068265"),
    ("verify-srg --p 2 --f 4 --n 3 --classes 0 --oracle --format pretty", 0, "fc654faf8069b6a0203ef3822e0dadc81f30a9a81eda102948d80ab4863c369c"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0,1 --format json", 1, "3e9cf995d5645e27dfe2a871395e22c8d3a52e3f94772f5db992919f18f5ebb2"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0,1 --format tsv", 1, "81cefafded2f3ff4b7be2855f6cabf5d411a96d92ad5a5511ac30960c8e2b227"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0,1 --format pretty", 1, "66cd163ce127d6d70358acbd1c61d47de5439c97b6028b4b01a5a83f22b69d1a"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0,1 --oracle --format json", 1, "c33d16fbd1fb0eb28ddb0ad5690337f58998b47ee572a8827bfebce24966680b"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0,1 --oracle --format tsv", 1, "6f97a9b8e536a7c353fb88c6309c51539f54bae981006f3aabde4cd9a2d1f2d0"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0,1 --oracle --format pretty", 1, "f3605289f16b8cb2e1d505310bce71fca5571d1ff32d6afce27f5c77b9ad2d7d"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0 --format json", 0, "f49d1d1abc96dafda93df0078f38cd40be8f6ffae63ba1e6abb2ae3ea45e7c5b"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0 --format tsv", 0, "2835a576e9c1b8ffedaab2d0dc3cabd974360b082bb1f0de29ba36b04da48023"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0 --format pretty", 0, "2545a2f03eb218a9287e484fa7b02a4ca2a84ec2acf82c3ead7f40a6ceaf1072"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0 --oracle --format json", 0, "188e10d8be9b1a32868e8a66c4dc6730bfbf593fa373f6b211c9f0c1b190d2c3"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0 --oracle --format tsv", 0, "2519ffa881ba84e7f4a792ecbf6f461d1a99b2d0ef732bf9a261148cd00f664f"),
    ("verify-srg --p 2 --f 4 --n 15 --classes 0 --oracle --format pretty", 0, "60dc2a33faef36a8f3fc449615c4c49bb5625ce5a63b9c78f383738eb21940c6"),
    ("verify-srg --p 13 --f 1 --n 2 --classes 0 --format json", 0, "6e2339398fb1b520eab244120162af5f6652c557a277be5e080855c25c8c7ec9"),
    ("verify-srg --p 13 --f 1 --n 2 --classes 0 --format tsv", 0, "141d4034a9baa987a304e6dc6bcc3f17f5796e33d41684eb65b426f57d217bb4"),
    ("verify-srg --p 13 --f 1 --n 2 --classes 0 --format pretty", 0, "98fd26c379213b5d8d542422edf53c4cd9e47c834af35595a12169d62c1cddde"),
    ("verify-srg --p 13 --f 1 --n 2 --classes 0 --oracle --format json", 0, "ab9d1099f06b1f5bf805a71d2f90f3c3b6fbfeaa2c91fe2f30f432ebc73fcc87"),
    ("verify-srg --p 13 --f 1 --n 2 --classes 0 --oracle --format tsv", 0, "8f0057b49142cbfed93351b5080cecafc230166b154da6acdf8ea26179472965"),
    ("verify-srg --p 13 --f 1 --n 2 --classes 0 --oracle --format pretty", 0, "2280bae268a33845c8023a0ceec62ecf02c761e0dd4fa741fb257788ccf6992f"),
    ("verify-srg --p 7 --f 1 --n 3 --classes 0 --format json", 1, "e7d18722ec4969fb79937e2facf0d615f46e572ea7ba162c03285242652aac29"),
    ("verify-srg --p 7 --f 1 --n 3 --classes 0 --format tsv", 1, "4472247d9d474315ba37d78dd0bf1085c8a75a863e014d672be571334700d534"),
    ("verify-srg --p 7 --f 1 --n 3 --classes 0 --format pretty", 1, "1c5cf916dd80ae270229816233fd6cd412dab5086e2ce8f17e67189795e01cf1"),
    ("verify-srg --p 7 --f 1 --n 3 --classes 0 --oracle --format json", 1, "e660719c782a62fe28f061998d5431281e9667a6099162c6a77d9820e011ca91"),
    ("verify-srg --p 7 --f 1 --n 3 --classes 0 --oracle --format tsv", 1, "b208ade34d9dd2a83a9cc346b098175d94a12e721486fd3339d50476a5e00763"),
    ("verify-srg --p 7 --f 1 --n 3 --classes 0 --oracle --format pretty", 1, "5a3f0b2eadbd36560ebf573637df2da1b206e9a4bbb1434bcc40f63d8c245c33"),
    # wide coefficient rows: two 65520-coefficient spectrum values (about 426 KB), and four
    # 4092-coefficient periods; the periods' re/im floats come from numpy's dot, so a new
    # BLAS build may need that digest re-taken
    ("verify-srg --p 65521 --f 1 --n 4 --classes 0,2 --format json", 0, "fd4eca93aaff68e2b0d48c9f5e0b40a64675efbbe8b34853bcc13a6b7a39a40e"),
    ("periods --p 4093 --f 1 --n 4 --format json", 0, "f8e8cc9043a392721683ab5bf43668a003d28fde0198beb971ff53effdbc0599"),
    ("verify-example --name delange --format json", 0, "aefdafc57db2c6216d45981f9085f0a0d5c3887ab3d220d228509a90e4c819ab"),
    ("verify-example --name delange --format tsv", 0, "cbb13831b266cff027ee5336d09ede9b6dd1178d00de01e20afe63509207817f"),
    ("verify-example --name delange --format pretty", 0, "b4a7abdd76cdab90762dbc44659478371c8dbc0599bbc9291d7739929a1b5d83"),
    ("verify-example --name ex51_m1 --format json", 0, "46ac22ad1eb6a89c9e56b6476cfef42f14ac09e083ae1472034272030e9c11d4"),
    ("verify-example --name ex51_m1 --format tsv", 0, "6cdbcfdbded6461cb2d670971cdc74dd5fde7e1538b700639e998a5dcef4df04"),
    ("verify-example --name ex51_m1 --format pretty", 0, "17be1d3f51ecb7d3ec1864f18b7e1abe698ec9068e2b76ed1fcebbe7a23160fa"),
    ("verify-example --name ex53_m1 --format json", 0, "5d4d0d6c51da2f2e3c33b565a3512c1ef63b3ce32897ba6dbc471e99c2d26374"),
    ("verify-example --name ex53_m1 --format tsv", 0, "03cdce32ce33fac3261ec762fcdc650bb0fb61fc5be5f1d2b7ed9016c2f59a54"),
    ("verify-example --name ex53_m1 --format pretty", 0, "8260f59c33ca5b4a88c6fda54e23e51661de5efad4f9b423e291ff1b9da76ab8"),
    ("verify-example --name nosuch --format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify-example --name nosuch --format tsv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify-example --name nosuch --format pretty", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gauss-semiprimitive --p 2 --n 5 --f 8 --format json", 0, "234fc3a5034f41f68ea6ba82f9064771e7e29f8e911bb7717a131f35ee2b0783"),
    ("gauss-semiprimitive --p 2 --n 5 --f 8 --format tsv", 0, "ce61d36f9812aa9d6630b0a074934cf103038a766a7f26f9e2e79c05b27f7e63"),
    ("gauss-semiprimitive --p 2 --n 5 --f 8 --format pretty", 0, "032cbe188ab412adf3c76f2960557ce30b283caea4cbb1e7813b9f06fe1698a3"),
    ("gauss-index2 --p 2 --p1 7 --m 2 --format json", 0, "0d90b0d5eccf38f09938c93fdacbf07be228e9d33e45fb90ef827803f61a07ea"),
    ("gauss-index2 --p 2 --p1 7 --m 2 --format tsv", 0, "fc4feca37cc3a9f760202e6079370e92deb0fcd5f733c3780e2068cdeb57dd68"),
    ("gauss-index2 --p 2 --p1 7 --m 2 --format pretty", 0, "e857651a06f6cab66a6f37758956af8200194c420fda3efd3b976945d477fc1a"),
    ("gauss-index2 --p 2 --p1 3 --p2 5 --m 2 --format json", 0, "62c43143e4e865511f76fc566507fdde65657d760961b2a82026f0483b29871a"),
    ("gauss-index2 --p 2 --p1 3 --p2 5 --m 2 --format tsv", 0, "738e7c22cb0041a64870846e7a62c0fe990a4dd3389e704e5413f18bd1d994ad"),
    ("gauss-index2 --p 2 --p1 3 --p2 5 --m 2 --format pretty", 0, "0f91246b68221cd0fdd60770665fd5c2e798d97aa35ef716a56530ee37263805"),
    ("class-number --d 107 --format json", 0, "cb3b30f0120fbc8783f279f4d110697c892a865e4f61893ec91392214414e4b7"),
    ("class-number --d 107 --format tsv", 0, "0646028233d6271addb660de01d556af02e80965f9b6850a723a255db47433d7"),
    ("class-number --d 107 --format pretty", 0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    ("scan-pairs --p-max 10 --p1-max 110 --format json", 0, "274caab04beef0e2258be536b1a7c92cf26daf9e28e460aa047fbfebd6ebf678"),
    ("scan-pairs --p-max 10 --p1-max 110 --format tsv", 0, "40bfb6c65657d2419a95867b599fcea74d91fd20cad0744a59f1357d3b1b7b51"),
    ("scan-pairs --p-max 10 --p1-max 110 --format pretty", 0, "8fff42893280a8548b5183b490a8f923989f8bed7d8260cb79e86a5eaf1e45b0"),
    # pins the bytes of the 43423-digit witnesses of (5, 499)
    ("scan-pairs --p-max 50 --p1-max 500 --format json", 0, "f0972464592250b148b3aecfa74ade14fcba447c6ee1c1d0e4b66dbddd4bd107"),
    # the other scan boxes of the closed-forms benchmark, in every format
    ("scan-pairs --p-max 50 --p1-max 500 --format tsv", 0, "0a3bb5f612631d973cb05d73b54d65281b939eeedd72efaa8bc914a78d2c2f34"),
    ("scan-pairs --p-max 50 --p1-max 500 --format pretty", 0, "afc732da252ce03673141be6c076995b012c733e9858afa9d002daae0b05fcb0"),
    ("scan-pairs --p-max 60 --p1-max 600 --format json", 0, "6b7baab601d013c3046dbb0ae1f41c9a303b5a97641d68810a7b2444411deb66"),
    ("scan-pairs --p-max 60 --p1-max 600 --format tsv", 0, "0a3bb5f612631d973cb05d73b54d65281b939eeedd72efaa8bc914a78d2c2f34"),
    ("scan-pairs --p-max 60 --p1-max 600 --format pretty", 0, "9f13700239687fbe6f26fa4cb7745fd41221470f9c1aa196a8c3fac23825d98f"),
    ("scan-triples --p-max 5 --n-max 400 --format json", 0, "4d21a83896559bc7c6c2239652af708c44da9f17d2803b46e1aece56caf58e13"),
    ("scan-triples --p-max 5 --n-max 400 --format tsv", 0, "30f803dbb6ca568caaf571481904caa23ee931feb33e70ff683f7193f5508a0d"),
    ("scan-triples --p-max 5 --n-max 400 --format pretty", 0, "6b901a2f23ff3e832560b85c22eb920f394c7ac7c2d4c456bcd2df2f813b8700"),
    ("scan-triples --p-max 20 --n-max 2000 --format json", 0, "fbcebccaa752643a1d0829f64792f06497a29c16216f90e0fd20b0b81848019c"),
    ("scan-triples --p-max 20 --n-max 2000 --format tsv", 0, "30f803dbb6ca568caaf571481904caa23ee931feb33e70ff683f7193f5508a0d"),
    ("scan-triples --p-max 20 --n-max 2000 --format pretty", 0, "53db410b1882aa0e68869b17e2611e3bcfc9e4fae3e974ca1de90782e140c7f6"),
    ("scan-triples --p-max 3 --n-max 40 --format json", 0, "c4233540bda900b97b1d3c65d643ab656af56960f84cf9d71e16c053327f9f0b"),
    ("scan-triples --p-max 3 --n-max 40 --format tsv", 0, "964b57103013bf1556f9e5ce7b5d392b46b2cbfce648f10d0136bbf5db8e1b34"),
    ("scan-triples --p-max 3 --n-max 40 --format pretty", 0, "8860328db95183091a53df3b11a7edbfb717de368d7dcc670a274cbb6a6ef728"),
    # the corners of the scan caps, where p or the partner primes reach 10^4
    ("scan-pairs --p-max 100 --p1-max 10000 --format json", 0, "c5579fcdcfded688cfee80a05ebe2d19598f5036f8cd9d348c94c290e6f8f0a2"),
    ("scan-pairs --p-max 100 --p1-max 10000 --format tsv", 0, "0a3bb5f612631d973cb05d73b54d65281b939eeedd72efaa8bc914a78d2c2f34"),
    ("scan-pairs --p-max 10000 --p1-max 100 --format json", 0, "0fd4affc45b33d74a9178438afac7dc0093179b5ce0dc155b613a97feb255d0d"),
    ("scan-pairs --p-max 10000 --p1-max 100 --format tsv", 0, "d81a8666ccc5e4c7a204b0e1418de85378858fd1aada1677e4bf61e3e9a1c61d"),
    ("scan-triples --p-max 100 --n-max 10000 --format json", 0, "1c6b8fadbcc9e8c493b1ef2c80d43ea473656c816f3fad849a99d5fda6eb120a"),
    ("scan-triples --p-max 100 --n-max 10000 --format tsv", 0, "30f803dbb6ca568caaf571481904caa23ee931feb33e70ff683f7193f5508a0d"),
    ("scan-triples --p-max 10000 --n-max 100 --format json", 0, "000f5d9c960e1fa5321061d88c629d3a9516a92fd8fb0340f24b0d1a12d54967"),
    ("scan-triples --p-max 10000 --n-max 100 --format tsv", 0, "964b57103013bf1556f9e5ce7b5d392b46b2cbfce648f10d0136bbf5db8e1b34"),
]


@pytest.mark.parametrize("argv, code, digest", _GOLDEN, ids=[argv for argv, _, _ in _GOLDEN])
def test_golden_stdout(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_golden_stdout_in_one_process_both_ways(capsys):
    # one parser serves every call: no option or default of one argv may reach the next
    for argv, code, digest in [*_GOLDEN, *reversed(_GOLDEN)]:
        got, out, _ = run(capsys, *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv


# sha256 of the --help stdout at 80 columns (argparse of CPython 3.11)
_HELP = [
    ("--help", "aae0a6dd1e881fa6b1e8f891b76eb108c31b200d493b6675c59402968db1a4b7"),
    ("build-field --help", "74eaffd4866fb5251ab67436512a7c1c4acd60d9148b4656728a95666a143a23"),
    ("periods --help", "b653dc9e43b7e44b6875ed2e3e6c0d6d99aff9dbe8c44d031b096516ae989e56"),
    ("verify-srg --help", "c84155906e77f48a60f591de65ec229482f0554d74e9ec66d460558ce807e017"),
    ("verify-example --help", "3dd5d32d20541046de7b98ebf060e3d777447fe81d497461b722e46a000c9beb"),
    ("gauss-semiprimitive --help", "aec584df4da8e9ce17c707cc38b921c2fd5fb6720f51599fb71f538a6466ebb2"),
    ("gauss-index2 --help", "ae242e7f863864a978b0daecc796eb6cf348cd9a8fa032e0d1db14416c64569c"),
    ("class-number --help", "e50049a871fadcd7acc784579ebca6e3792b1478facbe154c2de0ed2fad00477"),
    ("scan-pairs --help", "e33621ef1be83f23279d1507189505e260c3b8f6ed1ac948ad5d4e8d01a3c3a2"),
    ("scan-triples --help", "8965baf87aa5cef6ec73ce8a1c4fad302b01840f38c9aaa69f4e0d6c52285c71"),
]


@pytest.mark.parametrize("argv, digest", _HELP, ids=[argv for argv, _ in _HELP])
def test_help_stdout(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    out = capsys.readouterr().out
    assert (info.value.code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_internal_errors_exit_3(capsys, monkeypatch):
    import cyclosrg.family_search
    import cyclosrg.gauss_theory
    import cyclosrg.srg_engine

    # a broken difference count trips the oracle's guard (AssertionError)
    monkeypatch.setattr(cyclosrg.srg_engine, "_difference_counts", lambda field, N, D: (np.zeros(N, dtype=np.int64), 0))
    code, out, err = run(capsys, "verify-srg", "--p", "2", "--f", "4", "--n", "5", "--classes", "0", "--oracle")
    assert code == 3 and out == "" and err.startswith("internal error: difference counts")
    assert err.count("\n") == 1
    # no solution of the quadratic form leaves the Gauss sign unresolved (ArithmeticError)
    monkeypatch.setattr(cyclosrg.gauss_theory, "_solve_quadratic_form", lambda p, delta, h: [])
    code, out, err = run(capsys, "gauss-index2", "--p", "2", "--p1", "7", "--m", "1")
    assert code == 3 and out == "" and err.startswith("internal error: sign resolution")
    # a Gauss sum whose b disagrees with the pair family's sign trips the hit builder's cross-check
    prime_power = cyclosrg.family_search.predicted_spectrum_prime_power

    def flipped_b(p, p1, m):
        sp = prime_power(p, p1, m)
        return dataclasses.replace(sp, gauss=dataclasses.replace(sp.gauss, b=-sp.gauss.b))

    monkeypatch.setattr(cyclosrg.family_search, "predicted_spectrum_prime_power", flipped_b)
    code, out, err = run(capsys, "scan-pairs", "--p-max", "3", "--p1-max", "8")
    assert code == 3 and out == "" and err.startswith("internal error:") and err.count("\n") == 1
    # an off-by-one p^h0 leaves a remainder in a closed form's exact quotient (ArithmeticError)
    capped = cyclosrg.srg_engine._capped_terms
    monkeypatch.setattr(cyclosrg.srg_engine, "_capped_terms", lambda gauss: (*capped(gauss)[:2], capped(gauss)[2] + 1))
    code, out, err = run(capsys, "verify-example", "--name", "ex51_m1")
    assert code == 3 and out == "" and err.startswith("internal error:") and err.count("\n") == 1


# guards that no input reaches: (module, name, stand-in, library call, argv, message)
_UNREACHED_GUARDS = {
    "irreducible": (
        finite_field, "_is_irreducible", lambda mod_low, p: False,
        lambda: finite_field.build_field(2, 3), "build-field --p 2 --f 3", "no irreducible polynomial found",
    ),
    "generator": (
        finite_field, "_power_of", lambda rows, e, p: (1,),
        lambda: finite_field.build_field(5, 1), "build-field --p 5 --f 1", "no generator found",
    ),
    "index2_components": (
        gauss_theory, "reduce_order", lambda a, n, phi, factors: 4,
        lambda: gauss_theory.classify_index2(2, 15), "gauss-index2 --p 2 --p1 3 --p2 5 --m 1",
        "index 2 component orders do not fit any known case",
    ),
    "genus_parity": (
        gauss_theory, "class_number", lambda d: 2,
        lambda: gauss_theory.index2_gauss_prime_power(2, 7, 1), "gauss-index2 --p 2 --p1 7 --m 1",
        "f - h = 3 - 2 is odd, against genus theory",
    ),
    "oracle_certificate": (
        srg_engine, "_certificate", lambda v, k, e1, e2, source: None,
        lambda: family_search.verify_named_example("ex51_m1"), "verify-example --name ex51_m1",
        "constant counts lambda = 0, mu = 0 fit no strongly regular spectrum",
    ),
}


@pytest.mark.parametrize("guard", sorted(_UNREACHED_GUARDS))
def test_unreached_guards_raise_and_exit_3(capsys, monkeypatch, guard):
    # each guard, tripped by a broken helper, raises AssertionError, which the CLI reports as an internal error
    module, name, stand_in, call, argv, message = _UNREACHED_GUARDS[guard]
    monkeypatch.setattr(module, name, stand_in)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        call()
    assert run(capsys, *argv.split()) == (3, "", f"internal error: {message}\n")


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
        # the field size cap is checked on f before p^f is formed
        ("build-field", "--p", "3", "--f", "10000000"),
        ("build-field", "--p", "2", "--f", str(10**30)),
        ("periods", "--p", "3", "--f", str(10**30), "--n", "2"),
        ("verify-srg", "--p", "2", "--f", str(10**30), "--n", "3", "--classes", "0", "--oracle"),
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
    "--modulus": st.lists(st.integers(-1, 4), min_size=1, max_size=6).map(lambda cs: ",".join(map(str, cs))),
    "--classes": st.lists(st.integers(-2, 70), min_size=1, max_size=4).map(lambda cs: ",".join(map(str, cs))),
    "--name": st.sampled_from(["delange", "ex51_m1", "ikuta", "DELANGE", ""]),
}
# the field commands draw --p and --f together, so that admitted fields keep q <= 2^16
_FIELD_COMMANDS = ("build-field", "periods", "verify-srg")
_FIELDS = st.sampled_from(
    [(p, f) for p in (2, 3, 5, 7, 13, 31, 257, 4093, 4, 1, 0, -2) for f in range(17) if abs(p) ** f <= 1 << 16]
)
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
    "build-field": ("--p", "--f", "--modulus"),
    "periods": ("--p", "--f", "--n"),
    "verify-srg": ("--p", "--f", "--n", "--classes"),
    "verify-example": ("--name",),
    "gauss-index2": ("--p", "--p1", "--p2", "--m"),
    "gauss-semiprimitive": ("--p", "--n", "--f"),
    "class-number": ("--d",),
    "scan-pairs": ("--p-max", "--p1-max"),
    "scan-triples": ("--p-max", "--n-max"),
}
_SWITCHES = {"build-field": "--dump-tables", "periods": "--tally", "verify-srg": "--oracle"}


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
    ("verify-example", "--name", "delange"),
    ("build-field", "--p", 2, "--f", 4, "--modulus", "1,1,0,0,1"),
    ("periods", "--p", 3, "--f", 2, "--n", 4),
    ("verify-srg", "--p", 2, "--f", 4, "--n", 3, "--classes", 0),
    ("verify-srg", "--p", 13, "--f", 1, "--n", 2, "--classes", 0),
    ("verify-srg", "--p", 2, "--f", 12, "--n", 45, "--classes", "0,5,10"),
]


@st.composite
def _random_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    good = _GOOD
    if command in _FIELD_COMMANDS:
        p, f = draw(_FIELDS)
        good = {**_GOOD, "--p": st.just(p), "--f": st.just(f)}
    argv = [command]
    for flag in _COMMANDS[command]:
        kind = draw(st.integers(0, 19))
        if kind == 0 or (flag in ("--p2", "--modulus") and kind < 10):
            continue  # a missing option, required or not
        if kind == 1:
            value = draw(_MALFORMED)
        elif kind in (2, 3):
            value = str(draw(_OVERSIZED))
        else:
            value = str(draw(good[flag]))
        argv += [flag, value]
    return argv


@st.composite
def _mutated_argv(draw):
    """A valid argv with at most one value replaced."""
    argv = [str(x) for x in draw(st.sampled_from(_VALID))]
    i = 2 + 2 * draw(st.integers(0, len(argv) // 2 - 1))
    good = _GOOD[argv[i - 1]]
    if argv[0] in _FIELD_COMMANDS and argv[i - 1] in ("--p", "--f"):
        good = st.nothing()  # a new p or f alone could admit a field above q = 2^16
    new = draw(st.one_of(st.none(), good.map(str), _OVERSIZED.map(str), _MALFORMED))
    if new is not None:
        argv[i] = new
    return argv


@st.composite
def _argvs(draw):
    argv = draw(st.one_of(_random_argv(), _mutated_argv()))
    if argv[0] in _SWITCHES and draw(st.booleans()):
        argv.append(_SWITCHES[argv[0]])
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
