"""Command-line entry point.

Exit codes: 0 success, 1 negative verdict (failed --expect-maximum or
cross-check), 2 refused input: "usage" (ParameterError: a bad option, or a
parameter out of range, such as k outside 1..n or p outside [0, 1]),
"parse" (GraphFormatError, DimensionMismatchError) or "input"
(DisconnectedGraphError), 3 budget refusal, 4 "internal": any other
exception, a fault of the program rather than of the input, such as a
TableConsistencyError (connectivity is checked first, so a bad count table
means a wrong polynomial).  A reader that closes stdout early ends the run
with exit 0 and no message.  All rationals cross the interface as "a/b"
strings; errors go to stderr as one JSON line {"error": kind, "message": text}.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

# reliability_via_tutte is unused here but stays importable from this module
# because perfbench/tracer.py wraps it here
from .counts import (  # noqa: F401
    lambda_k,
    mu_vector,
    ntable_from_whitney,
    rel_eval,
    reliability,
    reliability_from_tutte,
    reliability_via_tutte,
    require_k,
    require_probability,
    require_tutte_probability,
    t_k,
)
from .errors import (
    BudgetError,
    DimensionMismatchError,
    DisconnectedGraphError,
    GraphFormatError,
    ParameterError,
)
from .graphs import (
    SimpleGraph,
    fixture,
    parse_edge_list,
    parse_graph6,
    require_connected,
    to_graph6,
)
from .mc import cross_check, estimate
from .order import TUTTE, WHITNEY, certify_maximum, tutte_compare, whitney_compare
from .scan import ClassReport, ClassSpec, enumerate_class, scan
from .tutte import tutte_dc, tutte_expansion, whitney, whitney_expansion

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through the JSON path
        raise ParameterError(message)


def load_graph(src: str) -> SimpleGraph:
    """Graph sources: fixture:NAME[:params], g6:STRING, file:PATH, or a path."""
    if src.startswith("fixture:"):
        parts = src.split(":")[1:]
        if not parts:
            raise GraphFormatError("empty fixture name")
        name, raw_params = parts[0], parts[1:]
        try:
            params = tuple(int(p) for p in raw_params)
        except ValueError:
            raise GraphFormatError(f"non-integer fixture parameter in {src!r}") from None
        return fixture(name, *params)
    if src.startswith("g6:"):
        return parse_graph6(src[3:])
    path = Path(src[5:] if src.startswith("file:") else src)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise GraphFormatError(f"graph file {path} is not UTF-8 text") from None
    return parse_edge_list(text)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"bad rational {text!r}; expected 'a/b'") from None


def _dump(obj) -> None:
    """Write obj to stdout as one line of compact, key-sorted JSON.  A scan
    report is written one member at a time, never as one dict tree."""
    if isinstance(obj, ClassReport):
        sys.stdout.writelines(obj.json_chunks())
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="relpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="Tutte or Whitney polynomial as JSON triples")
    p_poly.add_argument("--graph", required=True)
    kind = p_poly.add_mutually_exclusive_group()
    kind.add_argument("--tutte", action="store_true")
    kind.add_argument("--whitney", action="store_true")
    p_poly.add_argument("--method", choices=["dc", "expansion"], default="dc")

    p_counts = sub.add_parser("counts", help="N table, mu vector, t_k and lambda^(k) lists")
    p_counts.add_argument("--graph", required=True)

    p_rel = sub.add_parser("rel", help="exact k-reliability at a rational p")
    p_rel.add_argument("--graph", required=True)
    p_rel.add_argument("--k", type=int, required=True)
    p_rel.add_argument("--p", required=True)
    p_rel.add_argument("--via-tutte", action="store_true", dest="via_tutte")

    p_cmp = sub.add_parser("compare", help="order certificate between two graphs")
    p_cmp.add_argument("--g", required=True)
    p_cmp.add_argument("--h", required=True)
    p_cmp.add_argument("--order", choices=[WHITNEY, TUTTE], default=WHITNEY)

    p_scan = sub.add_parser("scan", help="classify a full class C(n, m)")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--m", type=int, required=True)
    # every scan certifies every member: --full does nothing and stays hidden,
    # accepted for existing invocations (perfbench's scan-c8-18-full workload)
    p_scan.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    p_scan.add_argument("--csv", default=None, help="also write the CSV digest here")

    p_cert = sub.add_parser("certify", help="check one graph against a whole class")
    p_cert.add_argument("--graph", required=True)
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--m", type=int, required=True)
    p_cert.add_argument("--order", choices=[WHITNEY, TUTTE], default=WHITNEY)
    p_cert.add_argument("--full", action="store_true", help="collect all counterexamples")
    p_cert.add_argument("--expect-maximum", action="store_true", dest="expect_maximum",
                        help="exit 1 when a counterexample is found")

    p_mc = sub.add_parser("mc", help="Monte Carlo percolation estimate")
    p_mc.add_argument("--graph", required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--p", required=True)
    p_mc.add_argument("--trials", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--cross-check", action="store_true", dest="do_cross_check")
    return parser


def _cmd_poly(args) -> int:
    g = load_graph(args.graph)
    want_whitney = args.whitney
    if args.method == "dc":
        poly = whitney(g) if want_whitney else tutte_dc(g)
    else:
        poly = whitney_expansion(g) if want_whitney else tutte_expansion(g)
    _dump(
        {
            "kind": "whitney" if want_whitney else "tutte",
            "method": args.method,
            "n": g.n,
            "m": g.m,
            "terms": poly.to_triples(),
        }
    )
    return EXIT_OK


def _cmd_counts(args) -> int:
    g = load_graph(args.graph)
    require_connected(g)
    table = ntable_from_whitney(whitney(g), g.n, g.m)
    _dump(
        {
            "table": table.to_json_dict(),
            "mu": [str(v) for v in mu_vector(table)],
            "t": [str(t_k(table, k)) for k in range(1, g.n + 1)],
            "lambda": [lambda_k(table, k) for k in range(1, g.n + 1)],
        }
    )
    return EXIT_OK


def _cmd_rel(args) -> int:
    g = load_graph(args.graph)
    require_connected(g)
    p = _parse_rational(args.p)
    # refuse k and p before the deletion-contraction, not after it
    require_k(args.k, g.n)
    require_probability(p)
    if args.via_tutte:
        require_tutte_probability(p)
    # one deletion-contraction serves both routes: W(x, y) = T(x + 1, y + 1)
    tutte = tutte_dc(g)
    table = ntable_from_whitney(tutte.shift_vars(1, 1), g.n, g.m)
    value = rel_eval(reliability(table, args.k), p)
    out = {"k": args.k, "p": str(p), "value": str(value)}
    if args.via_tutte:
        out["via_tutte"] = str(reliability_from_tutte(tutte, g.n, g.m, p))
    _dump(out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    g = load_graph(args.g)
    h = load_graph(args.h)
    compare = whitney_compare if args.order == WHITNEY else tutte_compare
    result = compare(g, h)
    _dump({"order": args.order, **result.to_json_dict()})
    return EXIT_OK


def _cmd_scan(args) -> int:
    csv = Path(args.csv) if args.csv else None
    # refuse an unwritable CSV path before the scan, not after it
    if csv is not None and not os.access(csv.parent, os.W_OK):
        raise ParameterError(f"cannot write {csv}: {csv.parent} is missing or not writable")
    spec = ClassSpec(args.n, args.m)
    report = scan(spec)
    if csv is not None:
        try:
            with csv.open("w") as out:
                out.writelines(row + "\n" for row in report.to_csv_rows())
        except OSError as exc:
            raise ParameterError(f"cannot write {csv}: {exc.strerror}") from None
    _dump(report)
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = load_graph(args.graph)
    spec = ClassSpec(args.n, args.m)
    # refuse a graph outside C(n, m) before paying for the enumeration
    if (g.n, g.m) != (spec.n, spec.m):
        raise DimensionMismatchError(
            f"graph has (n, m) = ({g.n}, {g.m}); the class is C({spec.n}, {spec.m})"
        )
    require_connected(g)
    members = map(parse_graph6, enumerate_class(spec))
    outcome = certify_maximum(g, members, order=args.order, collect_all=args.full)
    payload = {
        "order": args.order,
        "verdict": "Maximum" if outcome.is_maximum else "Counterexample",
        "checked": outcome.checked,
        "counterexamples": [
            {"graph6": to_graph6(h), "result": res.to_json_dict()}
            for h, res in outcome.counterexamples
        ],
    }
    _dump(payload)
    if args.expect_maximum and not outcome.is_maximum:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_mc(args) -> int:
    g = load_graph(args.graph)
    p = _parse_rational(args.p)
    if args.do_cross_check:
        require_connected(g)  # the exact side needs a count table
        report = cross_check(g, args.k, p, args.trials, args.seed)
        est = report.estimate
        _dump(
            {
                "mean": est.mean,
                "stderr": est.stderr,
                "trials": est.trials,
                "seed": est.seed,
                "exact": str(report.exact),
                "diff": report.diff,
                "verdict": "pass" if report.passed else "fail",
            }
        )
        return EXIT_OK if report.passed else EXIT_NEGATIVE
    est = estimate(g, args.k, p, args.trials, args.seed)
    _dump({"mean": est.mean, "stderr": est.stderr, "trials": est.trials, "seed": est.seed})
    return EXIT_OK


_COMMANDS = {
    "poly": _cmd_poly,
    "counts": _cmd_counts,
    "rel": _cmd_rel,
    "compare": _cmd_compare,
    "scan": _cmd_scan,
    "certify": _cmd_certify,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout stopped early, which is not an error: point
        # stdout at devnull so that the interpreter's last flush has nowhere
        # to fail, as the Python docs advise for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParameterError as exc:  # EmptyClassError included
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except BudgetError as exc:
        _emit_error("budget", str(exc))
        return EXIT_BUDGET
    except DisconnectedGraphError as exc:
        _emit_error("input", str(exc))
        return EXIT_USAGE
    except (GraphFormatError, DimensionMismatchError) as exc:
        _emit_error("parse", str(exc))
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
