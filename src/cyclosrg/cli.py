"""Command line front end for the library.

Every subcommand maps to one library operation and supports three output
formats: json (stable key order, byte-identical for identical argv), tsv,
and pretty.  Exit codes: 0 for success or a verified-true answer, 1 for a
checked-false answer (for example a union that is not strongly regular),
2 for usage or domain errors, 3 for an internal error: a failed consistency
check (AssertionError), or a failed sign resolution or closed form that is
not an integer (ArithmeticError), reported as one ``internal error:`` line
on stderr.

Each handler returns (payload, tsv renderer, pretty renderer, exit code).
The renderers take no argument and return the output lines; ``main`` calls
only the one of the format it prints, and json calls neither.  They close
over the payload and a few numbers, not over a field, a class map or a scan
report, so those are freed before the output is encoded.  The tsv of a
record is one ``key<TAB>value`` line per top-level payload field, the
certificate left to json; the tsv of a table is a header line and one line
per row.  Pretty output is prose written per command.  The scan handlers
build their payload, one entry per rejected candidate, only for json and
return None in its place otherwise.  The parser is built once, at import.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys

import numpy as np

from .cyclotomy import classify
from .family_search import NAMED_EXAMPLES, scan_pairs, scan_triples, verify_named_example
from .finite_field import build_field
from .gauss_theory import (
    class_number,
    index2_gauss_prime_power,
    index2_gauss_two_primes,
    semiprimitive_gauss,
)
from .srg_engine import verify_union


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_cell(v) for v in value)
    return str(value)


def _records(payload: dict) -> list[str]:
    return [f"{key}\t{_cell(value)}" for key, value in payload.items() if key != "certificate"]


def _table(header, rows) -> list[str]:
    return ["\t".join(map(_cell, row)) for row in [header, *rows]]


def _srg_line(cert, eigenvalues: str) -> str:
    return (
        f"srg({cert.v}, {cert.k}, {cert.lam}, {cert.mu}), {eigenvalues}, "
        f"multiplicities ({cert.mult_r}, {cert.mult_s})"
    )


class _BigInt:
    """An int that json.dumps hands to _json's default hook, for _digits to spell."""

    def __init__(self, n: int):
        self.n = n


_HALVING_BITS = 2048  # below this many bits a half is made by Decimal(n) directly


def _spell(n: int, bits: int, two) -> decimal.Decimal:
    """n as a Decimal, for 0 <= n < 2^bits: n = hi 2^w + lo, with 2^w read from two(w)."""
    if bits <= _HALVING_BITS:
        return decimal.Decimal(n)
    w = bits // 2
    hi = n >> w
    return _spell(hi, bits - w, two) * two(w) + _spell(n - (hi << w), w, two)


def _digits(ns: list[int]) -> list[str]:
    """[str(n) for n in ns] without CPython 3.11's quadratic int -> str: n splits by bits into
    halves, joined in exact decimal arithmetic; each 2^w is made once for all ns."""
    two = functools.cache(lambda w: decimal.Decimal(2) ** w)
    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)):
        return [("-" if n < 0 else "") + str(_spell(abs(n), abs(n).bit_length(), two)) for n in ns]


def _json(data) -> str:
    """json.dumps(data, sort_keys=True), each _BigInt spelled by _digits: the C encoder prints every
    int, even a subclass, by int.__repr__, so a _BigInt passes through the default hook as a
    placeholder string, and the placeholders are filled in encoding order."""
    big: list[int] = []
    text = json.dumps(data, sort_keys=True, default=lambda obj: big.append(obj.n) or "\0")
    for digits in _digits(big) if big else ():  # most payloads hold no _BigInt
        text = text.replace('"\\u0000"', digits, 1)
    return text


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}")


def _classes_arg(text: str) -> tuple[int, ...]:
    values = _ints_arg(text)
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("duplicate class indices")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_build_field(args):
    fld = build_field(args.p, args.f, modulus=args.modulus)
    summary = {"p": fld.p, "f": fld.f, "q": fld.q, "modulus": list(fld.modulus), "gamma": fld.gamma,
               "gamma_trace": int(fld.trace[fld.gamma])}
    data = dict(summary)
    if args.dump_tables:
        rows = np.column_stack((np.arange(fld.q - 1), fld.antilog, fld.trace[fld.antilog]))
        data["table"] = rows.tolist()

    def table():
        return _table(("i", "element", "trace"), data["table"]) if args.dump_tables else []

    def pretty():
        return [
            f"field with q = {summary['p']}^{summary['f']} = {summary['q']}",
            f"modulus coefficients (low to high): {_cell(summary['modulus'])}",
            f"generator gamma = {summary['gamma']}, trace(gamma) = {summary['gamma_trace']}",
            *(line.replace("\t", " ") for line in table()),
        ]

    return data, lambda: _records(summary) + table(), pretty, 0


def _cmd_periods(args):
    fld = build_field(args.p, args.f)
    cm = classify(fld, args.n)
    rows = []
    for a, eta in enumerate(cm.periods()):
        z = eta.complex_embedding()
        integer = eta.to_int() if eta.is_rational_integer else None
        rows.append({"a": a, "integer": integer, "coeffs": eta.row.tolist(), "re": z.real, "im": z.imag})
    data = {"p": fld.p, "f": fld.f, "n": cm.N, "class_size": cm.class_size, "periods": rows}
    if args.tally:
        data["tally"] = cm.tally.tolist()
    q = fld.q

    def tsv():
        lines = _table(rows[0], (r.values() for r in rows))
        if args.tally:
            header = ["class", *(f"trace_{t}" for t in range(data["p"]))]
            lines += _table(header, ([a, *row] for a, row in enumerate(data["tally"])))
        return lines

    def pretty():
        lines = [f"q = {q}, N = {data['n']}, class size {data['class_size']}"]
        for r in rows:
            if r["integer"] is not None:
                lines.append(f"eta_{r['a']} = {r['integer']}")
            else:
                lines.append(f"eta_{r['a']} = coeffs {r['coeffs']} ~ {r['re']:+.6f}{r['im']:+.6f}i")
        if args.tally:
            lines.append("tally rows (class x trace value):")
            lines += [f"  {a}: {row}" for a, row in enumerate(data["tally"])]
        return lines

    return data, tsv, pretty, 0


def _cmd_verify_srg(args):
    fld = build_field(args.p, args.f)
    cm = classify(fld, args.n)
    D = tuple(sorted(args.classes))
    distinct, cert, oracle_agrees = verify_union(cm, D, "SPECTRUM", args.oracle)
    N = cm.N
    k = len(D) * (fld.q - 1) // N
    inputs = {"p": fld.p, "p1": None, "p2": None, "m": None, "N": N, "D": list(D)}
    data = {
        "ok": cert is not None,
        "v": fld.q,
        "k": k,
        # distinct connection sums, as ints when rational else coefficient lists
        "spectrum": [s.to_int() if s.is_rational_integer else s.row.tolist() for s in distinct],
        "certificate": None if cert is None else cert.to_json_dict(inputs=inputs),
        "oracle_ran": args.oracle,
        "oracle_agrees": oracle_agrees,
    }

    def pretty():
        lines = [
            f"Cay(F_{data['v']}, union of classes {_cell(D)} of {N})",
            f"distinct connection sums: {data['spectrum']}",
        ]
        if cert is None:
            lines.append("not strongly regular")
        else:
            lines.append(_srg_line(cert, f"eigenvalues r = {cert.r}, s = {cert.s}"))
            if cert.degenerate:
                lines.append("degenerate: mu = 0 (disjoint cliques)")
        if args.oracle:
            lines.append(f"difference-count oracle agrees: {data['oracle_agrees']}")
        return lines

    ok = data["ok"] and data["oracle_agrees"] is not False
    return data, lambda: _records(data), pretty, 0 if ok else 1


def _cmd_verify_example(args):
    rep = verify_named_example(args.name)
    ex, cert = rep.example, rep.certificate
    pretty = [f"{ex.name}: q = {ex.p}^{ex.f}, N = {ex.n}, D = classes {_cell(ex.classes)}"]
    if cert is None:
        pretty.append("no certificate: spectrum is not two-valued")
    else:
        pretty.append(_srg_line(cert, f"spectrum {{{cert.r}, {cert.s}}}"))
    pretty.append(f"closed-form prediction matches: {rep.predicted_matches}")
    if rep.oracle_ran:
        pretty.append(f"difference-count oracle agrees: {rep.oracle_agrees}")
    else:
        pretty.append("difference-count oracle skipped (field above the size policy)")
    data = rep.to_json_dict()
    return data, lambda: _records(data), lambda: pretty, 0 if rep.ok else 1


def _cmd_gauss_semiprimitive(args):
    g = semiprimitive_gauss(args.p, args.n, args.f)
    data = {"p": g.p, "n": g.N, "f": g.r, "t": g.t, "s": g.s, "sign": g.sign, "value": g.value()}
    pretty = [
        f"semi-primitive Gauss sum over F_{args.p}^{args.f} at character order {args.n}",
        f"g = {g.sign:+d} * {g.p}^{g.r // 2} = {g.value()}  (t = {g.t}, s = {g.s})",
    ]
    return data, lambda: _records(data), lambda: pretty, 0


def _cmd_gauss_index2(args):
    if args.p2 is None:
        g = index2_gauss_prime_power(args.p, args.p1, args.m)
        n = args.p1**args.m
    else:
        g = index2_gauss_two_primes(args.p, args.p1, args.p2, args.m)
        n = args.p1**args.m * args.p2
    # b is always pinned; "resolved" stays, always true, since golden outputs pin its bytes
    data = {"p": args.p, "p1": args.p1, "p2": args.p2, "m": args.m, "n": n, "delta": g.delta, "f": g.f,
            "h": g.h, "h0": g.h0, "b": g.b, "c_abs": g.c_abs, "resolved": True}
    pretty = [
        f"index-2 Gauss sum at character order {n} over F_{args.p}^{g.f}",
        f"g = (({g.b:+d} + c*sqrt(-{g.delta}))/2) * {args.p}^{g.h0}"
        f" with |c| = {g.c_abs}, class number h = {g.h}",
    ]
    return data, lambda: _records(data), lambda: pretty, 0


def _cmd_class_number(args):
    data = {"d": args.d, "h": class_number(args.d)}
    return data, lambda: _table(data, [data.values()]), lambda: [str(data["h"])], 0


def _cmd_scan(args):
    if args.command == "scan-pairs":
        report = scan_pairs(args.p_max, args.p1_max)
        title = f"pair scan p <= {args.p_max}, p1 <= {args.p1_max}"
    else:
        report = scan_triples(args.p_max, args.n_max)
        title = f"triple scan p <= {args.p_max}, p1*p2 <= {args.n_max}"

    rows = [
        (c.p, c.p1, c.p2, c.h, c.b, c.f1, f"({c.p}^f-1)/{c.p1 * (c.p2 or 1)}", c.r_formula, c.s_formula)
        for c in report.hits
    ]
    title += f": {len(report.hits)} hits, {len(report.rejections)} rejections"

    def tsv():
        return _table(("p", "p1", "p2", "h", "b", "f", "k", "r", "s"), rows)

    def pretty():
        return [title, *(line.replace("\t", "  ") for line in tsv())]

    if args.format != "json":
        return None, tsv, pretty, 0
    data = report.to_json_dict()
    for hit in data["hits"]:  # a witness can reach tens of thousands of digits
        for key in ("r_m1", "s_m1", "r_m2", "s_m2"):
            if abs(hit[key]).bit_length() > _HALVING_BITS:
                hit[key] = _BigInt(hit[key])
    return data, tsv, pretty, 0


# ---------------------------------------------------------------------------
# parser: name -> (handler, help, flags), each flag added after --format


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}

_COMMANDS = {
    "build-field": (_cmd_build_field, "build one field table", {
        "--p": dict(_INT, help="characteristic (prime)"),
        "--f": dict(_INT, help="extension degree"),
        "--modulus": {
            "type": _ints_arg,
            "help": "optional modulus coefficients, low to high, comma separated",
        },
        "--dump-tables": dict(_FLAG, help="print the full tables"),
    }),
    "periods": (_cmd_periods, "exact Gauss periods", {
        "--p": _INT, "--f": _INT,
        "--n": dict(_INT, help="number of classes, N | q-1"),
        "--tally": dict(_FLAG, help="include the trace tally"),
    }),
    "verify-srg": (_cmd_verify_srg, "decide strong regularity of a class union", {
        "--p": _INT, "--f": _INT, "--n": _INT,
        "--classes": {
            "type": _classes_arg,
            "required": True,
            "help": "comma separated class indices, e.g. 0,5,10",
        },
        "--oracle": dict(_FLAG, help="also run the brute-force difference count check"),
    }),
    "verify-example": (_cmd_verify_example, "run one named end-to-end example", {
        "--name": {
            "required": True,
            "metavar": "NAME",
            "help": "one of: " + ", ".join(sorted(NAMED_EXAMPLES)),
        },
    }),
    "gauss-semiprimitive": (_cmd_gauss_semiprimitive, "semi-primitive Gauss sum value", {
        "--p": _INT,
        "--n": dict(_INT, help="character order"),
        "--f": dict(_INT, help="field degree over the prime"),
    }),
    "gauss-index2": (_cmd_gauss_index2, "index-2 Gauss sum certificate", {
        "--p": _INT, "--p1": _INT,
        "--p2": {"type": int, "help": "second odd prime, if any"},
        "--m": dict(_INT, help="exponent of p1 in the order"),
    }),
    "class-number": (_cmd_class_number, "class number of Q(sqrt(-d))", {
        "--d": dict(_INT, help="positive squarefree d"),
    }),
    "scan-pairs": (_cmd_scan, "bounded pair search", {"--p-max": _INT, "--p1-max": _INT}),
    "scan-triples": (_cmd_scan, "bounded triple search", {
        "--p-max": _INT,
        "--n-max": dict(_INT, help="bound on p1*p2"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosrg",
        description="strongly regular Cayley graphs from cyclotomic classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty",
                        help="output format (default pretty)")
        for flag, options in flags.items():
            sp.add_argument(flag, **options)
        sp.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    # lift Python's int <-> str digit limit (3.11+) before argv is parsed, so
    # that a huge numeric argument meets the caps' own messages.  The lift
    # outlives the call: perfbench reads the 43423-digit scan witnesses back
    # with json.loads in its own process and needs it (ROADMAP item 7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _PARSER.parse_args(argv)
    try:
        data, tsv, pretty, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(_json(data))
    else:
        print("\n".join((tsv if args.format == "tsv" else pretty)()))
    return code


if __name__ == "__main__":
    sys.exit(main())
