"""Command line front end.

Three subcommands: ``analyze`` classifies one semigroup, ``examples``
replays the built-in reference table and complains about any drift,
``batch`` streams JSON-line reports for a file of inputs.

Exit codes: 0 computed (any verdict), 1 reference-table mismatch,
2 bad input, 3 internal cross-check failure.
"""

import argparse
import functools
import json
import sys
import time

from .classify import teter_check
from .errors import CrossCheckError, TeterError
from .fiber import check_primes, verify_approximation
from .modp import DEFAULT_PRIME, SECOND_PRIME
from .report import build_report_document, render_text
from .semigroup import NumericalSemigroup


def _parse_generators(tokens):
    out = []
    for tok in tokens:
        for piece in tok.replace(",", " ").split():
            out.append(int(piece))
    if not out:
        raise ValueError("no generators given")
    return out


def _parse_primes(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _analyze_one(gens, args):
    timings = {}
    start = time.perf_counter()
    H = NumericalSemigroup(gens)
    report = teter_check(H)
    timings["analysis"] = int(1000 * (time.perf_counter() - start))
    certificate = None
    if args.approximate:
        if report.witness is None:
            print(
                "note: no witness ideal for %r, approximation skipped" % (gens,),
                file=sys.stderr,
            )
        else:
            start = time.perf_counter()
            certificate = verify_approximation(
                H,
                report.witness.shift,
                precision=args.precision,
                primes=args.primes,
            )
            timings["approximation"] = int(1000 * (time.perf_counter() - start))
    return build_report_document(
        report, certificate, None if args.no_timings else timings
    )


def _cmd_analyze(args):
    doc = _analyze_one(_parse_generators(args.generators), args)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc))
    return 0


def _cmd_batch(args):
    with open(args.file) as handle:
        raw_lines = handle.read().splitlines()
    bad = 0
    for lineno, raw in enumerate(raw_lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            doc = _analyze_one(_parse_generators([text]), args)
        except CrossCheckError:
            raise
        except (TeterError, ValueError) as exc:
            bad += 1
            record = {"error": str(exc), "line": lineno, "input": text}
            print(json.dumps(record, separators=(",", ":")))
            continue
        print(json.dumps(doc, separators=(",", ":")))
    if bad and not args.lenient:
        return 2
    return 0


# reference rows: facts that must reproduce on every run
_EXPECTED = [
    (
        [3, 4, 5],
        {
            "verdict": "Teter",
            "shift": 6,
            "cyclic_generator": 3,
            "cyclic_length": 3,
            "strongly": "Yes",
            "e_b": 4,
            "b_gorenstein": True,
        },
    ),
    (
        [4, 5, 11],
        {
            "verdict": "Teter",
            "shift": 11,
            "cyclic_generator": 11,
            "cyclic_length": 2,
            "tangent_cone_cm": False,
            "strongly": "No",
            "strongly_reason": "TangentConeNotCM",
            "e_b": 5,
            "b_gorenstein": True,
        },
    ),
    (
        [5, 6, 7, 9],
        {
            "verdict": "NotTeter",
            "reason": "TypeBound",
            "embedding_dimension": 4,
            "type": 2,
        },
    ),
    ([3, 4], {"verdict": "Gorenstein"}),
]


def _computed_facts(gens):
    H = NumericalSemigroup(gens)
    report = teter_check(H)
    facts = {
        "verdict": report.verdict,
        "reason": report.not_teter_reason,
        "embedding_dimension": H.embedding_dimension,
        "type": H.cm_type,
        "tangent_cone_cm": report.tangent_cone_cm,
        "strongly": report.strongly.status,
        "strongly_reason": report.strongly.reason,
    }
    if report.witness is not None:
        facts["shift"] = report.witness.shift
        facts["cyclic_generator"] = report.witness.cyclic_generator
        facts["cyclic_length"] = report.witness.cyclic_length
        cert = verify_approximation(H, report.witness.shift)
        facts["e_b"] = cert.multiplicity
        facts["b_gorenstein"] = cert.gorenstein
    return facts


def _facts_line(keys, facts):
    return " ".join("%s=%s" % (k, facts.get(k)) for k in keys)


def _cmd_examples(args):
    rows = []
    for gens, expected in _EXPECTED:
        facts = _computed_facts(gens)
        computed = {k: facts.get(k) for k in expected}
        rows.append((gens, expected, computed, expected == computed))
    if args.json:
        table = [
            {
                "generators": gens,
                "expected": expected,
                "computed": computed,
                "match": match,
            }
            for gens, expected, computed, match in rows
        ]
        print(json.dumps(table, indent=2))
    else:
        for gens, expected, computed, match in rows:
            name = "<%s>" % ",".join(str(g) for g in gens)
            status = "MATCH" if match else "MISMATCH"
            keys = list(expected)
            print("%-12s %-8s  expected  %s" % (name, status, _facts_line(keys, expected)))
            print("%-12s %-8s  computed  %s" % ("", "", _facts_line(keys, computed)))
    return 0 if all(match for *_, match in rows) else 1


@functools.lru_cache(maxsize=1)
def _build_parser():
    # built once per process, with the subcommand handlers bound then: a
    # batch pass is one main() call, and each parse_args returns a fresh
    # namespace, so no state passes between calls
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit JSON")

    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument(
        "--approximate",
        action="store_true",
        help="build and cross-verify the pullback ring at the witness shift",
    )
    analysis.add_argument(
        "--precision", type=int, default=None, help="series exponent cutoff"
    )
    analysis.add_argument(
        "--primes",
        type=_parse_primes,
        default=(DEFAULT_PRIME, SECOND_PRIME),
        metavar="P1,P2",
        help="moduli for the verification sweep",
    )
    analysis.add_argument(
        "--no-timings",
        action="store_true",
        help="omit timings for byte-stable output",
    )

    parser = argparse.ArgumentParser(
        prog="teter",
        description="Teter-property certification for numerical semigroup rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[shared, analysis], help="classify one semigroup"
    )
    p_analyze.add_argument(
        "generators", nargs="+", help="generators, e.g. '3,4,5' or '3 4 5'"
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_examples = sub.add_parser(
        "examples", parents=[shared], help="replay the reference table"
    )
    p_examples.set_defaults(func=_cmd_examples)

    p_batch = sub.add_parser(
        "batch", parents=[shared, analysis], help="stream reports for a file"
    )
    p_batch.add_argument("file", help="one generator list per line, # comments")
    p_batch.add_argument(
        "--lenient", action="store_true", help="exit 0 even when lines fail"
    )
    p_batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # the moduli are refused up front, not once per input
        if getattr(args, "approximate", False):
            check_primes(args.primes)
        return args.func(args)
    except CrossCheckError as exc:
        print("internal cross-check failure: %s" % exc, file=sys.stderr)
        return 3
    except (TeterError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())
