"""Record the benchmark's reference outputs and closed-form input pools.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes perfbench/reference.json: the exit code and stdout digest of every
CLI op any seed can draw, each recorded cold, and the bucketed input pools
that closed-forms draws from.  An op that raised is recorded with its error
signature (the exception's class and message head) and, for a scan, the hit
keys that a fixed version must print.
"""

from __future__ import annotations

import json
import math
import random
import sys

import workloads as wl

# gauss-index2 instances are bucketed by c_max = sqrt(4 p^h / delta), the
# loop bound of the quadratic-form solver, in steps of 10^(1/4) up to C_MAX.
# Solving costs about 0.3 us per unit of c_max, so the largest take 0.15 s,
# less than the fixed-cost scans that set op_tail_ms.
C_MAX = 500_000
C_BUCKETS_PER_DECADE = 4
INDEX2_POOL_PER_BUCKET = 6
# class-number inputs: squarefree d up to D_MAX, buckets of half a decade
D_MAX = 200_000
CLASS_NUMBER_PER_BUCKET = 8
SEMIPRIMITIVE_POOL = 60
SEMIPRIMITIVE_MAX_DIGITS = 1000


def _spread(items: list, k: int) -> list:
    """k items evenly spaced through the list, or all of them."""
    if len(items) <= k:
        return list(items)
    return [items[i * (len(items) - 1) // (k - 1)] for i in range(k)]


def _bucketed(rows: list, key, per_bucket: int) -> list[list]:
    buckets: dict[int, list] = {}
    for row in rows:
        buckets.setdefault(key(row), []).append(row)
    return [_spread(buckets[b], per_bucket) for b in sorted(buckets)]


def _c_bucket(row) -> int:
    return int(C_BUCKETS_PER_DECADE * math.log10(max(row[-1], 1)))


def index2_candidates(lib) -> tuple[list, list]:
    gt, nt = lib.gauss_theory, lib.ntheory
    prime_power, two_primes = [], []
    for p in nt.primes_upto(120):
        for p1 in nt.primes_upto(400):
            if p1 <= 3 or p1 % 4 != 3 or p1 == p:
                continue
            h = gt.class_number(p1)
            for m in (1, 2):
                if gt.classify_index2(p, p1**m).tag is not gt.Index2Kind.PRIME_POWER:
                    continue
                if (nt.euler_phi(p1**m) // 2 - h) % 2:
                    continue
                c_max = math.isqrt(4 * p**h // p1)
                if c_max <= C_MAX:
                    prime_power.append([p, p1, m, c_max])
        for p1 in nt.primes_upto(200):
            for p2 in nt.primes_upto(200):
                if len({p, p1, p2}) < 3 or {p1 % 4, p2 % 4} != {1, 3}:
                    continue
                h = gt.class_number(p1 * p2)
                for m in (1, 2):
                    N = p1**m * p2
                    if N > 20_000:
                        continue
                    if gt.classify_index2(p, N).tag is not gt.Index2Kind.TWO_PRIMES_SEMIPRIMITIVE_MIX:
                        continue
                    if gt.mult_order(p, p1**m) != nt.euler_phi(p1**m) or gt.mult_order(p, p2) != p2 - 1:
                        continue
                    if (nt.euler_phi(N) // 2 - h) % 2:
                        continue
                    # odd h leaves the sign unresolved and skips the solver
                    c_max = 0 if h % 2 else math.isqrt(4 * p**h // (p1 * p2))
                    if c_max <= C_MAX:
                        two_primes.append([p, p1, p2, m, c_max])
    return prime_power, two_primes


def class_number_pool(lib) -> list[list[int]]:
    rng = random.Random(0)
    buckets = []
    for b in range(int(2 * math.log10(D_MAX)) + 1):
        lo, hi = int(10 ** (b / 2)), min(int(10 ** ((b + 1) / 2)), D_MAX + 1)
        values = [d for d in range(lo, hi) if lib.ntheory.is_squarefree(d)]
        buckets.append(sorted(rng.sample(values, min(CLASS_NUMBER_PER_BUCKET, len(values)))))
    return buckets


def semiprimitive_pool(lib) -> list[list[int]]:
    rows = []
    for p in lib.ntheory.primes_upto(50):
        for n in range(3, 101):
            if math.gcd(p, n) != 1:
                continue
            order = lib.gauss_theory.mult_order(p, n)
            if order % 2 or pow(p, order // 2, n) != n - 1:
                continue
            for s in (1, 2, 3):
                r = order * s
                if r // 2 * math.log10(p) < SEMIPRIMITIVE_MAX_DIGITS:
                    rows.append([p, n, r])
    return _spread(rows, SEMIPRIMITIVE_POOL)


def record_cli(program: wl.Program, argv: tuple) -> dict:
    program.caches.clear()
    try:
        code, text = program.run_cli(list(argv))
    except Exception as exc:
        return {"raises": wl.error_signature(exc)}
    return {"code": code, "sha256": wl.digest(text)}


def main() -> int:
    wl.use_checkout_source()
    program = wl.Program()
    lib = program.lib

    names = list(lib.NAMED_EXAMPLES)
    named = {}
    for name in names:
        argv = ("verify-example", "--name", name, "--format", "json")
        named[" ".join(argv)] = record_cli(program, argv)

    prime_power, two_primes = index2_candidates(lib)
    pools = {
        "index2_prime_power": _bucketed(prime_power, _c_bucket, INDEX2_POOL_PER_BUCKET),
        "index2_two_primes": _bucketed(two_primes, _c_bucket, INDEX2_POOL_PER_BUCKET),
        "class_number": class_number_pool(lib),
        "semiprimitive": semiprimitive_pool(lib),
    }
    argvs = [scan + ("--format", fmt) for scan in wl.SCANS for fmt in wl.FORMATS]
    for bucket in pools["index2_prime_power"]:
        argvs += [("gauss-index2", "--p", str(p), "--p1", str(p1), "--m", str(m)) for p, p1, m, _ in bucket]
    for bucket in pools["index2_two_primes"]:
        argvs += [
            ("gauss-index2", "--p", str(p), "--p1", str(p1), "--p2", str(p2), "--m", str(m))
            for p, p1, p2, m, _ in bucket
        ]
    for bucket in pools["class_number"]:
        argvs += [("class-number", "--d", str(d)) for d in bucket]
    argvs += [("gauss-semiprimitive", "--p", str(p), "--n", str(n), "--f", str(f)) for p, n, f in pools["semiprimitive"]]
    outputs = {}
    for argv in argvs:
        for full in [argv] if argv[-2] == "--format" else [argv + ("--format", fmt) for fmt in wl.FORMATS]:
            ref = record_cli(program, full)
            if "raises" in ref:
                if full[0] not in ("scan-pairs", "scan-triples"):
                    raise RuntimeError(f"pool op {' '.join(full)} raised {ref['raises']}")
                scan = lib.scan_pairs if full[0] == "scan-pairs" else lib.scan_triples
                ref["hit_keys"] = [list(k) for k in scan(int(full[2]), int(full[4])).hit_keys()]
            elif ref["code"] != 0:
                raise RuntimeError(f"pool op {' '.join(full)} exited {ref['code']}")
            outputs[" ".join(full)] = ref
            print(" ".join(full), ref, file=sys.stderr)

    reference = {
        "recorded_at": {"git_commit": wl.git_commit(), "src_sha256": wl.src_digest()},
        "named_examples": {"names": names, "outputs": named},
        "closed_forms": {"pools": pools, "outputs": outputs},
    }
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
