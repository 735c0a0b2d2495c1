"""Command line front end for the library.

Every subcommand maps to one library operation and supports three output
formats: json (stable key order, byte-identical for identical argv), tsv,
and pretty.  Exit codes: 0 for success or a verified-true answer, 1 for a
checked-false answer (for example a union that is not strongly regular),
2 for usage or domain errors, 3 for an internal error: a failed consistency
check (AssertionError) or sign resolution (ArithmeticError), reported as one
``internal error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field

from .cyclotomy import classify
from .family_search import (
    NAMED_EXAMPLES,
    scan_pairs,
    scan_triples,
    verify_named_example,
)
from .finite_field import build_field
from .gauss_theory import (
    class_number,
    index2_gauss_prime_power,
    index2_gauss_two_primes,
    semiprimitive_gauss,
)
from .srg_engine import difference_count_oracle, srg_from_spectrum


@dataclass
class _Output:
    """One subcommand result: json payload, tsv lines, pretty lines, code."""

    data: dict
    tsv: list[str] = dc_field(default_factory=list)
    pretty: list[str] = dc_field(default_factory=list)
    code: int = 0


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_cell(v) for v in value)
    return str(value)


def _record_lines(data: dict, keys: list[str]) -> list[str]:
    return [f"{key}\t{_cell(data[key])}" for key in keys]


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}"
        )


def _classes_arg(text: str) -> tuple[int, ...]:
    values = _ints_arg(text)
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("duplicate class indices")
    return values


def _spectrum_payload(distinct) -> list:
    """Distinct connection sums, as ints when rational else coefficient lists."""
    out = []
    for val in distinct:
        if val.is_rational_integer:
            out.append(val.to_int())
        else:
            out.append(list(val.coeffs))
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_build_field(args) -> _Output:
    fld = build_field(args.p, args.f, modulus=args.modulus)
    data = {
        "p": fld.p,
        "f": fld.f,
        "q": fld.q,
        "modulus": list(fld.modulus),
        "gamma": fld.gamma,
        "gamma_trace": fld.trace_of(fld.gamma),
    }
    keys = ["p", "f", "q", "modulus", "gamma", "gamma_trace"]
    tsv = _record_lines(data, keys)
    pretty = [
        f"field with q = {fld.p}^{fld.f} = {fld.q}",
        "modulus coefficients (low to high): " + ",".join(str(c) for c in fld.modulus),
        f"generator gamma = {fld.gamma}, trace(gamma) = {data['gamma_trace']}",
    ]
    if args.dump_tables:
        rows = []
        for i in range(fld.q - 1):
            enc = int(fld.antilog[i])
            rows.append((i, enc, int(fld.trace[enc])))
        data["table"] = [list(row) for row in rows]
        tsv.append("i\telement\ttrace")
        tsv.extend(f"{i}\t{enc}\t{tr}" for i, enc, tr in rows)
        pretty.append("i element trace")
        pretty.extend(f"{i} {enc} {tr}" for i, enc, tr in rows)
    return _Output(data, tsv, pretty)


def _cmd_periods(args) -> _Output:
    fld = build_field(args.p, args.f)
    cm = classify(fld, args.n)
    rows = []
    for a, eta in enumerate(cm.periods()):
        z = eta.complex_embedding()
        rows.append(
            {
                "a": a,
                "coeffs": list(eta.coeffs),
                "integer": eta.to_int() if eta.is_rational_integer else None,
                "re": z.real,
                "im": z.imag,
            }
        )
    data = {
        "p": fld.p,
        "f": fld.f,
        "n": cm.N,
        "class_size": cm.class_size,
        "periods": rows,
    }
    tsv = ["a\tinteger\tcoeffs\tre\tim"]
    tsv.extend(
        "\t".join(
            (
                str(r["a"]),
                _cell(r["integer"]),
                _cell(r["coeffs"]),
                repr(r["re"]),
                repr(r["im"]),
            )
        )
        for r in rows
    )
    pretty = [f"q = {fld.q}, N = {cm.N}, class size {cm.class_size}"]
    for r in rows:
        if r["integer"] is not None:
            pretty.append(f"eta_{r['a']} = {r['integer']}")
        else:
            pretty.append(f"eta_{r['a']} = coeffs {r['coeffs']} ~ {r['re']:+.6f}{r['im']:+.6f}i")
    if args.tally:
        tally = [[int(x) for x in row] for row in cm.tally]
        data["tally"] = tally
        tsv.append("class\t" + "\t".join(f"trace_{t}" for t in range(fld.p)))
        tsv.extend(f"{a}\t" + "\t".join(str(x) for x in row) for a, row in enumerate(tally))
        pretty.append("tally rows (class x trace value):")
        pretty.extend(f"  {a}: {row}" for a, row in enumerate(tally))
    return _Output(data, tsv, pretty)


def _cmd_verify_srg(args) -> _Output:
    fld = build_field(args.p, args.f)
    cm = classify(fld, args.n)
    D = tuple(sorted(args.classes))
    if not cm.is_symmetric(D):
        raise ValueError(
            "connection set is not symmetric (-D != D); the Cayley graph would be directed"
        )
    sums = cm.connection_sums(D)
    distinct = list(dict.fromkeys(sums))
    k = len(D) * (fld.q - 1) // cm.N
    cert = srg_from_spectrum(fld.q, k, sums, source="SPECTRUM")
    inputs = {"p": fld.p, "p1": None, "p2": None, "m": None, "N": cm.N, "D": list(D)}
    data = {
        "ok": cert is not None,
        "v": fld.q,
        "k": k,
        "spectrum": _spectrum_payload(distinct),
        "certificate": None if cert is None else cert.to_json_dict(inputs=inputs),
        "oracle_ran": False,
        "oracle_agrees": None,
    }
    if args.oracle:
        oracle_cert = difference_count_oracle(cm, D)
        agree = (cert is None) == (oracle_cert is None)
        if cert is not None and oracle_cert is not None:
            agree = oracle_cert.same_graph_data(cert)
        data["oracle_ran"] = True
        data["oracle_agrees"] = agree
    keys = ["ok", "v", "k", "spectrum", "oracle_ran", "oracle_agrees"]
    tsv = _record_lines(data, keys)
    pretty = [
        f"Cay(F_{fld.q}, union of classes {','.join(str(i) for i in D)} of {cm.N})",
        f"distinct connection sums: {data['spectrum']}",
    ]
    if cert is None:
        pretty.append("not strongly regular")
    else:
        pretty.append(
            f"srg({cert.v}, {cert.k}, {cert.lam}, {cert.mu}), "
            f"eigenvalues r = {cert.r}, s = {cert.s}, "
            f"multiplicities ({cert.mult_r}, {cert.mult_s})"
        )
        if cert.degenerate:
            pretty.append("degenerate: mu = 0 (disjoint cliques)")
    if data["oracle_ran"]:
        pretty.append(f"difference-count oracle agrees: {data['oracle_agrees']}")
    ok = data["ok"] and data["oracle_agrees"] is not False
    return _Output(data, tsv, pretty, code=0 if ok else 1)


def _cmd_verify_example(args) -> _Output:
    rep = verify_named_example(args.name)
    data = rep.to_json_dict()
    keys = [
        "name",
        "ok",
        "q",
        "k",
        "spectrum",
        "predicted_spectrum",
        "predicted_matches",
        "oracle_ran",
        "oracle_agrees",
    ]
    tsv = _record_lines(data, keys)
    ex = rep.example
    pretty = [
        f"{ex.name}: q = {ex.p}^{ex.f}, N = {ex.n}, "
        f"D = classes {','.join(str(i) for i in ex.classes)}"
    ]
    cert = rep.certificate
    if cert is None:
        pretty.append("no certificate: spectrum is not two-valued")
    else:
        pretty.append(
            f"srg({cert.v}, {cert.k}, {cert.lam}, {cert.mu}), "
            f"spectrum {{{cert.r}, {cert.s}}}, "
            f"multiplicities ({cert.mult_r}, {cert.mult_s})"
        )
    pretty.append(f"closed-form prediction matches: {rep.predicted_matches}")
    if rep.oracle_ran:
        pretty.append(f"difference-count oracle agrees: {rep.oracle_agrees}")
    else:
        pretty.append("difference-count oracle skipped (field above the size policy)")
    return _Output(data, tsv, pretty, code=0 if rep.ok else 1)


def _cmd_gauss_semiprimitive(args) -> _Output:
    g = semiprimitive_gauss(args.p, args.n, args.f)
    data = {
        "p": g.p,
        "n": g.N,
        "f": g.r,
        "t": g.t,
        "s": g.s,
        "sign": g.sign,
        "value": g.value(),
    }
    tsv = _record_lines(data, ["p", "n", "f", "t", "s", "sign", "value"])
    pretty = [
        f"semi-primitive Gauss sum over F_{args.p}^{args.f} at character order {args.n}",
        f"g = {g.sign:+d} * {g.p}^{g.r // 2} = {g.value()}  (t = {g.t}, s = {g.s})",
    ]
    return _Output(data, tsv, pretty)


def _cmd_gauss_index2(args) -> _Output:
    if args.p2 is None:
        g = index2_gauss_prime_power(args.p, args.p1, args.m)
        n = args.p1**args.m
    else:
        g = index2_gauss_two_primes(args.p, args.p1, args.p2, args.m)
        n = args.p1**args.m * args.p2
    data = {
        "p": args.p,
        "p1": args.p1,
        "p2": args.p2,
        "m": args.m,
        "n": n,
        "delta": g.delta,
        "f": g.f,
        "h": g.h,
        "h0": g.h0,
        "b": g.b,
        "c_abs": g.c_abs,
        "resolved": g.resolved,
    }
    keys = ["p", "p1", "p2", "m", "n", "delta", "f", "h", "h0", "b", "c_abs", "resolved"]
    tsv = _record_lines(data, keys)
    pretty = [f"index-2 Gauss sum at character order {n} over F_{args.p}^{g.f}"]
    if g.resolved:
        pretty.append(
            f"g = (({g.b:+d} + c*sqrt(-{g.delta}))/2) * {args.p}^{g.h0}"
            f" with |c| = {g.c_abs}, class number h = {g.h}"
        )
    else:
        pretty.append(
            f"sign unresolved (class number h = {g.h} is odd); "
            f"b^2 + {g.delta} c^2 = 4*{args.p}^{g.h} has no pinned root"
        )
    return _Output(data, tsv, pretty)


def _cmd_class_number(args) -> _Output:
    h = class_number(args.d)
    data = {"d": args.d, "h": h}
    return _Output(data, tsv=["d\th", f"{args.d}\t{h}"], pretty=[str(h)])


def _cmd_scan_pairs(args) -> _Output:
    report = scan_pairs(args.p_max, args.p1_max)
    return _scan_output(report, f"pair scan p <= {args.p_max}, p1 <= {args.p1_max}")


def _cmd_scan_triples(args) -> _Output:
    report = scan_triples(args.p_max, args.n_max)
    return _scan_output(report, f"triple scan p <= {args.p_max}, p1*p2 <= {args.n_max}")


def _scan_output(report, title: str) -> _Output:
    data = report.to_json_dict()
    tsv = report.tsv_lines()
    pretty = [f"{title}: {len(report.hits)} hits, {len(report.rejections)} rejections"]
    pretty.extend(line.replace("\t", "  ") for line in tsv)
    return _Output(data, tsv, pretty)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "tsv", "pretty"),
        default="pretty",
        help="output format (default pretty)",
    )
    parser = argparse.ArgumentParser(
        prog="cyclosrg",
        description="strongly regular Cayley graphs from cyclotomic classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-field", parents=[common], help="build one field table")
    sp.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sp.add_argument("--f", type=int, required=True, help="extension degree")
    sp.add_argument(
        "--modulus",
        type=_ints_arg,
        default=None,
        help="optional modulus coefficients, low to high, comma separated",
    )
    sp.add_argument("--dump-tables", action="store_true", help="print the full tables")
    sp.set_defaults(handler=_cmd_build_field)

    sp = sub.add_parser("periods", parents=[common], help="exact Gauss periods")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="number of classes, N | q-1")
    sp.add_argument("--tally", action="store_true", help="include the trace tally")
    sp.set_defaults(handler=_cmd_periods)

    sp = sub.add_parser(
        "verify-srg", parents=[common], help="decide strong regularity of a class union"
    )
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--classes",
        type=_classes_arg,
        required=True,
        help="comma separated class indices, e.g. 0,5,10",
    )
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force difference count check",
    )
    sp.set_defaults(handler=_cmd_verify_srg)

    sp = sub.add_parser(
        "verify-example", parents=[common], help="run one named end-to-end example"
    )
    sp.add_argument(
        "--name",
        required=True,
        metavar="NAME",
        help="one of: " + ", ".join(sorted(NAMED_EXAMPLES)),
    )
    sp.set_defaults(handler=_cmd_verify_example)

    sp = sub.add_parser(
        "gauss-semiprimitive", parents=[common], help="semi-primitive Gauss sum value"
    )
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="character order")
    sp.add_argument("--f", type=int, required=True, help="field degree over the prime")
    sp.set_defaults(handler=_cmd_gauss_semiprimitive)

    sp = sub.add_parser(
        "gauss-index2", parents=[common], help="index-2 Gauss sum certificate"
    )
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--p1", type=int, required=True)
    sp.add_argument("--p2", type=int, default=None, help="second odd prime, if any")
    sp.add_argument("--m", type=int, required=True, help="exponent of p1 in the order")
    sp.set_defaults(handler=_cmd_gauss_index2)

    sp = sub.add_parser(
        "class-number", parents=[common], help="class number of Q(sqrt(-d))"
    )
    sp.add_argument("--d", type=int, required=True, help="positive squarefree d")
    sp.set_defaults(handler=_cmd_class_number)

    sp = sub.add_parser("scan-pairs", parents=[common], help="bounded pair search")
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--p1-max", type=int, required=True)
    sp.set_defaults(handler=_cmd_scan_pairs)

    sp = sub.add_parser("scan-triples", parents=[common], help="bounded triple search")
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True, help="bound on p1*p2")
    sp.set_defaults(handler=_cmd_scan_triples)

    return parser


def main(argv: list[str] | None = None) -> int:
    # witnesses such as r_m2 of scan-pairs reach tens of thousands of digits;
    # lift Python's int -> str digit limit (3.11+) so that they print in full
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(out.data, sort_keys=True))
    elif args.format == "tsv":
        print("\n".join(out.tsv))
    else:
        print("\n".join(out.pretty))
    return out.code


if __name__ == "__main__":
    sys.exit(main())
