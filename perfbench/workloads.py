"""Seeded workloads of the cyclosrg benchmark.

Three closed-loop, single-threaded workloads.  Each one turns the seed into a
fixed op list; a pass runs that list once, and an op starts when the previous
one has returned.

* named-examples: ``cli.main(["verify-example", ...])`` for every named
  example.  Each op builds its own field, as a real invocation does, so
  ``finite_field`` carries most of the time.
* random-unions: library calls on seeded symmetric class unions over fields
  built during set-up.  ``cyclotomy`` and ``srg_engine`` carry the time and
  no field is built in the timed part.
* closed-forms: ``cli.main`` on the Gauss-sum, class-number and scan commands.
  No field is built; ``gauss_theory``, ``ntheory``, the family checks and the
  CLI renderer carry the time.

Op lists are plain data ("specs"), made without importing the program, so
their determinism can be tested on its own.  ``setup`` turns specs into ops
that call an imported ``cyclosrg``.  The program is looked up through its
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("named-examples", "random-unions", "closed-forms")
# Workloads whose times are scaled to the reference host speed (speed.py).
# named-examples spends most of its time filling numpy tables of up to 2M
# entries, whose speed follows speed.py's interpreter loop only in part: over
# ten 30 s runs its wall pass time moved by about 0.3-0.5 of the loop's
# change, so scaling added the loop's swings (spread 0.11-0.17 scaled against
# 0.06-0.09 wall).  Its times stay wall-clock.
SPEED_SCALED = ("random-unions", "closed-forms")
FORMATS = ("json", "tsv", "pretty")

# Fields built during set-up of random-unions: every characteristic shape with
# q in [4, 2^16], up to the prime fields where p, and so the length of a
# Z[xi_p] vector, reaches 65521.
FIELD_POOL = (
    tuple((2, f) for f in range(2, 17))
    + tuple((3, f) for f in range(2, 11))
    + tuple((5, f) for f in range(2, 7))
    + tuple((7, f) for f in range(2, 6))
    + ((11, 2), (11, 3), (11, 4), (13, 2), (13, 3), (13, 4))
    + ((17, 2), (17, 3), (31, 2), (31, 3), (251, 2))
    + ((13, 1), (251, 1), (1021, 1), (4091, 1), (4093, 1))
    + ((8191, 1), (32749, 1), (40961, 1), (65519, 1), (65521, 1))
)
# N is capped as in the randomized period check of tests/test_acceptance.py:
# N <= 512 and N * p <= 2^18.
UNION_N_MAX = 512
UNION_CELL_CAP = 1 << 18
# Divisor strata per field; each contributes its middle N.  The seed draws
# the union D, so the verdicts vary with the seed while the cost of a pass,
# which follows from q, N and |D|, does not.
UNION_STRATA = 2
# The oracle runs where verify_named_example runs it.
ORACLE_Q_CAP = 4096
# Over a prime field beyond the oracle cap, the union of the even (or odd)
# classes is a Paley graph, whose two irrational eigenvalues cost one
# product of length-p vectors: about 1 s at p = 32749, 2.5 s at 65521.
# Seeded draws skip those unions there, so a seed cannot add seconds to a
# pass, and every pass certifies this one fixed Paley graph instead.
PALEY = ("union", 32749, 1, 2, (0,))

# The README's scan bounds and one larger box each, in all three formats.
# The three larger triple scans (about 0.25 s each) are the slowest ops of
# closed-forms and their cost does not depend on the seed; with three of them
# per pass the tail percentile falls near the middle of their samples, which
# keeps op_tail_ms steady.
SCANS = (
    ("scan-pairs", "--p-max", "50", "--p1-max", "500"),
    ("scan-pairs", "--p-max", "60", "--p1-max", "600"),
    ("scan-triples", "--p-max", "5", "--n-max", "400"),
    ("scan-triples", "--p-max", "20", "--n-max", "2000"),
)
INDEX2_PER_BUCKET = 2
SEMIPRIMITIVE_PER_PASS = 12

DIGEST_HEX = 16

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path, or fail if it is absent.

    The benchmark measures the program in its own checkout, never an
    installed copy from elsewhere.
    """
    if not (SRC / "cyclosrg" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cyclosrg source under {SRC}")
    sys.path.insert(0, str(SRC))


def git_commit() -> str | None:
    """HEAD of the checkout when the checkout is itself a git repository, else None."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        top, commit = proc.stdout.split()
        return commit if proc.returncode == 0 and os.path.samefile(top, ROOT) else None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def error_signature(exc: BaseException) -> str:
    """The exception's class and the fixed head of its message, up to any ':' or ';'.

    A known failure is matched on this, so another error of the same class
    does not pass for it.
    """
    head = re.split(r"[:;]", str(exc), maxsplit=1)[0].strip()
    return f"{type(exc).__name__}: {head}"[:200]


def src_digest() -> str:
    """sha256 over the program's source files, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# op lists as data


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def negation_orbits(p: int, q: int, N: int) -> list[tuple[int, ...]]:
    """Classes grouped into orbits of C_a -> -C_a; unions of orbits are symmetric."""
    shift = 0 if p == 2 else ((q - 1) // 2) % N
    return sorted({tuple(sorted({i, (i + shift) % N})) for i in range(N)})


def _quadratic(p: int, f: int, N: int, D) -> bool:
    """D is all even or all odd classes of a large prime field: a Paley graph."""
    return f == 1 and p > ORACLE_Q_CAP and N % 2 == 0 and len(D) == N // 2 and len({i % 2 for i in D}) == 1


def union_candidates(p: int, f: int) -> list[int]:
    """N with at least one symmetric, proper, non-Paley union of classes."""
    q = p**f
    out = []
    for N in divisors(q - 1):
        if not (2 <= N <= UNION_N_MAX and N * p <= UNION_CELL_CAP):
            continue
        orbits = negation_orbits(p, q, N)
        if len(orbits) == 2 and _quadratic(p, f, N, orbits[0]):
            continue
        if len(orbits) >= 2:
            out.append(N)
    return out


def _strata(values: list, k: int) -> list[list]:
    k = min(k, len(values))
    return [values[i * len(values) // k : (i + 1) * len(values) // k] for i in range(k)]


def _union_specs(rng: random.Random) -> list[tuple]:
    specs = []
    for p, f in FIELD_POOL:
        q = p**f
        for stratum in _strata(union_candidates(p, f), UNION_STRATA):
            N = stratum[len(stratum) // 2]
            orbits = negation_orbits(p, q, N)
            D = None
            while D is None or _quadratic(p, f, N, D):
                chosen = rng.sample(orbits, len(orbits) // 2)
                D = tuple(sorted(i for orbit in chosen for i in orbit))
            specs.append(("union", p, f, N, D))
    specs.append(PALEY)
    rng.shuffle(specs)
    return specs


def _closed_form_specs(rng: random.Random, pools: dict) -> list[tuple]:
    argvs = [scan + ("--format", fmt) for scan in SCANS for fmt in FORMATS]
    rotating = []
    for bucket in pools["index2_prime_power"]:
        for p, p1, m, _ in rng.sample(bucket, min(INDEX2_PER_BUCKET, len(bucket))):
            rotating.append(("gauss-index2", "--p", str(p), "--p1", str(p1), "--m", str(m)))
    for bucket in pools["index2_two_primes"]:
        for p, p1, p2, m, _ in rng.sample(bucket, min(INDEX2_PER_BUCKET, len(bucket))):
            rotating.append(
                ("gauss-index2", "--p", str(p), "--p1", str(p1), "--p2", str(p2), "--m", str(m))
            )
    for bucket in pools["class_number"]:
        rotating.append(("class-number", "--d", str(rng.choice(bucket))))
    for p, n, f in rng.sample(pools["semiprimitive"], SEMIPRIMITIVE_PER_PASS):
        rotating.append(("gauss-semiprimitive", "--p", str(p), "--n", str(n), "--f", str(f)))
    offset = rng.randrange(len(FORMATS))
    for i, argv in enumerate(rotating):
        argvs.append(argv + ("--format", FORMATS[(offset + i) % len(FORMATS)]))
    rng.shuffle(argvs)
    return [("cli",) + argv for argv in argvs]


def op_specs(workload: str, seed: int, reference: dict) -> list[tuple]:
    """The fixed op list of one run: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "named-examples":
        names = list(reference["named_examples"]["names"])
        rng.shuffle(names)
        return [("cli", "verify-example", "--name", name, "--format", "json") for name in names]
    if workload == "random-unions":
        return _union_specs(rng)
    if workload == "closed-forms":
        return _closed_form_specs(rng, reference["closed_forms"]["pools"])
    raise ValueError(f"unknown workload {workload!r}")


def spec_key(spec: tuple) -> str:
    return " ".join(str(part) for part in spec[1:])


# ---------------------------------------------------------------------------
# caches: every op of a CLI workload starts cold


class Caches:
    """Every functools cache in the program, found by walking module attributes.

    Walking the modules, rather than naming the caches, also finds a cache
    that a later change adds.  Hits and misses are harvested before each
    clear, so hit ratios cover the caches' whole use.
    """

    def __init__(self, modules):
        self.found: dict[str, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                owners = [(name, obj)]
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    owners += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
                for label, fn in owners:
                    fn = getattr(fn, "__func__", fn)
                    if callable(getattr(fn, "cache_clear", None)) and getattr(fn, "__module__", None) == mod.__name__:
                        self.found.setdefault(f"{short}.{label}", fn)
        self.hits = dict.fromkeys(self.found, 0)
        self.misses = dict.fromkeys(self.found, 0)
        self._seen = {name: (0, 0) for name in self.found}

    def harvest(self) -> None:
        for name, fn in self.found.items():
            info = getattr(fn, "cache_info", None)
            if info is None:
                continue
            info = info()
            seen_hits, seen_misses = self._seen[name]
            self.hits[name] += info.hits - seen_hits
            self.misses[name] += info.misses - seen_misses
            self._seen[name] = (info.hits, info.misses)

    def clear(self) -> None:
        self.harvest()
        for name, fn in self.found.items():
            fn.cache_clear()
            self._seen[name] = (0, 0)

    def take_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per cache since the last take."""
        self.harvest()
        out = {name: (self.hits[name], self.misses[name]) for name in self.found}
        self.hits = dict.fromkeys(self.found, 0)
        self.misses = dict.fromkeys(self.found, 0)
        return out


# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    """One timed call.  ``check`` judges the output outside the timed part.

    check returns (output digest, None) when the output is right, and
    (digest, reason) when it is wrong.  expected_error is the error signature
    (class and message head) that the reference records for this op: the op
    still counts as failed, but its failure is the known one, not a new wrong
    answer.  observe adds what the output shows (stdout bytes, oracle
    agreement) to the pass's per-layer counts.
    """

    kind: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]
    prepare: Callable[[], None] | None = None
    expected_error: str | None = None
    observe: Callable[[object, Counter], None] | None = None


class Program:
    """The imported cyclosrg modules, looked up at call time."""

    def __init__(self):
        import cyclosrg
        import cyclosrg.cli

        if Path(cyclosrg.__file__).resolve().parent != (SRC / "cyclosrg").resolve():
            raise ImportError(f"cyclosrg was imported from {cyclosrg.__file__}, not from {SRC}")
        self.lib = cyclosrg
        self.cli = cyclosrg.cli
        # the package itself too: its re-exports are names other code calls
        self.modules = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "cyclosrg" and m]
        self.caches = Caches(self.modules)

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()


def _cli_op(program: Program, spec: tuple, reference: dict) -> Op:
    argv = list(spec[1:])
    key = spec_key(spec)
    ref = reference.get(key)

    def check(result) -> tuple[str, str | None]:
        code, text = result
        got = digest(text)
        if ref is None:
            return got, "no reference output recorded"
        if "sha256" in ref:
            if (code, got) != (ref["code"], ref["sha256"]):
                return got, f"exit {code} digest {got}, reference exit {ref['code']} digest {ref['sha256']}"
            return got, None
        # an op that raised at the reference commit: judge it by its hits
        try:
            hits = [[h["p"], h["p1"]] + ([h["p2"]] if "p2" in h else []) for h in json.loads(text)["hits"]]
        except (ValueError, KeyError, TypeError) as exc:
            return got, f"unreadable scan output: {exc}"
        if code != 0 or hits != ref["hit_keys"]:
            return got, f"exit {code} hits {hits}, reference hits {ref['hit_keys']}"
        return got, None

    def observe(result, counts: Counter) -> None:
        code, text = result
        counts["cli.stdout_bytes"] += len(text.encode())
        if argv[0] == "verify-example":
            report = json.loads(text)
            if report["oracle_ran"]:
                counts["oracle.ops"] += 1
                counts["oracle.agree"] += bool(report["oracle_agrees"])

    return Op(
        kind=argv[0],
        key=key,
        run=lambda: program.run_cli(argv),
        check=check,
        prepare=program.caches.clear,
        expected_error=None if ref is None else ref.get("raises"),
        observe=observe,
    )


class UnionInstance:
    """One seeded (q, N, D): a spectrum op, an oracle op when q is small, a periods op."""

    def __init__(self, program: Program, field, N: int, D: tuple[int, ...], tracer=None):
        self.program = program
        self.field = field
        self.N = N
        self.D = D
        self.k = len(D) * (field.q - 1) // N
        self.tracer = tracer
        self.cm = None
        self.cert = None

    def ops(self) -> list[Op]:
        key = f"{self.field.p}^{self.field.f} N={self.N} D={','.join(map(str, self.D))}"
        out = [Op("spectrum", key, self.spectrum, self.check_spectrum)]
        if self.field.q <= ORACLE_Q_CAP:
            out.append(Op("oracle", key, self.oracle, self.check_oracle, observe=self.observe_oracle))
        out.append(Op("periods", key, self.periods, self.check_periods))
        return out

    def spectrum(self):
        lib = self.program.lib
        self.cm = lib.classify(self.field, self.N)
        sums = self.cm.connection_sums(self.D)
        self.cert = lib.srg_from_spectrum(self.field.q, self.k, sums)
        return sums, self.cert

    def check_spectrum(self, result) -> tuple[str, str | None]:
        sums, cert = result
        got = digest(repr(cert) + "|" + "|".join(repr(s.coeffs) for s in sorted(set(sums), key=lambda s: s.coeffs)))
        # sum over a of psi(gamma^a D) is |D| times the sum of all periods, -1
        total = [sum(col) for col in zip(*(s.coeffs for s in sums))]
        if total != [-len(self.D)] + [0] * (len(total) - 1):
            return got, f"connection sums add up to {total[:3]}..., not -|D| = {-len(self.D)}"
        if cert is not None and (cert.v, cert.k) != (self.field.q, self.k):
            return got, f"certificate has v, k = {cert.v}, {cert.k}"
        return got, None

    def oracle(self):
        return self.program.lib.difference_count_oracle(self.cm, self.D)

    def _agrees(self, oracle_cert) -> bool:
        if oracle_cert is None or self.cert is None:
            return oracle_cert is None and self.cert is None
        return oracle_cert.same_graph_data(self.cert)

    def check_oracle(self, oracle_cert) -> tuple[str, str | None]:
        got = digest(repr(oracle_cert))
        if not self._agrees(oracle_cert):
            return got, f"oracle {oracle_cert} disagrees with spectrum {self.cert}"
        return got, None

    def observe_oracle(self, oracle_cert, counts: Counter) -> None:
        counts["oracle.ops"] += 1
        counts["oracle.agree"] += self._agrees(oracle_cert)

    def periods(self):
        lib = self.program.lib
        etas = lib.classify(self.field, self.N).periods()
        zero = lib.CyclotomicInteger.from_int(self.field.p, 0)
        with self.tracer.span("cyclotomy.sum_periods") if self.tracer else contextlib.nullcontext():
            return sum(etas, zero)

    def check_periods(self, total) -> tuple[str, str | None]:
        got = digest(repr(total))
        if not (total.is_rational_integer and total.to_int() == -1):
            return got, f"periods add up to {total!r}, not -1"
        return got, None


def setup(workload: str, seed: int, reference: dict, program: Program, tracer=None) -> list[Op]:
    """Set-up work of one run: field builds for random-unions, then the bound op list."""
    specs = op_specs(workload, seed, reference)
    if workload != "random-unions":
        refs = reference["named_examples" if workload == "named-examples" else "closed_forms"]["outputs"]
        return [_cli_op(program, spec, refs) for spec in specs]
    fields = {pf: program.lib.build_field(*pf) for pf in FIELD_POOL}
    ops = []
    for _, p, f, N, D in specs:
        ops.extend(UnionInstance(program, fields[(p, f)], N, D, tracer).ops())
    return ops
