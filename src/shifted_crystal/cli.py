"""Command line interface.

Tableau files hold two lines: a shape ("5,3,1/" or "6,4,2/3,1") and a
filling with rows separated by "/" and primes as trailing apostrophes
("1 1 1 1 3' / 2 2 3' / 3").  Commands that output tableaux print the same
two-line format, so outputs feed back in as inputs.  Exit codes: 0 success,
1 a verification suite found violations, 2 usage errors, 3 an internal
error (an InvariantError: a fact the theory guarantees failed to hold).
"""

import argparse
import contextlib
import json
import sys

from .core import InvariantError, ShiftedTableau, SkewShape, StrictPartition, enumerate_tableaux
from .graph import build_graph, export_dot, export_json, lrs_count
from .involutions import eta, eta_interval, evacuate, reversal
from .jdt import rectify
from .operators import apply_program
from .verify import SUITES


def _read_tableau(path: str) -> ShiftedTableau:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise ValueError("tableau input needs a shape line and a filling line")
    return ShiftedTableau.parse(lines[0], lines[1])


def _print_tableau(T: ShiftedTableau):
    print(T.shape)
    print(T)


def _alphabet(args, T: ShiftedTableau) -> int:
    return args.n if args.n is not None else max(T.max_value(), 1)


def _cmd_enumerate(args):
    shape = SkewShape.parse(args.shape)
    for T in enumerate_tableaux(shape, args.n):
        print(T)
    return 0


def _cmd_apply(args):
    T = _read_tableau(args.tableau)
    out = apply_program(T, args.ops, _alphabet(args, T))
    if out is None:
        print("none")
    else:
        _print_tableau(out)
    return 0


def _cmd_rectify(args):
    T = _read_tableau(args.tableau)
    _print_tableau(rectify(T)[0])
    return 0


def _cmd_evacuate(args):
    T = _read_tableau(args.tableau)
    _print_tableau(evacuate(T, _alphabet(args, T)))
    return 0


def _cmd_reversal(args):
    T = _read_tableau(args.tableau)
    _print_tableau(reversal(T, _alphabet(args, T)))
    return 0


def _cmd_eta(args):
    T = _read_tableau(args.tableau)
    n = _alphabet(args, T)
    if args.interval is not None:
        try:
            p, q = map(int, args.interval.split(","))
        except ValueError:
            raise ValueError(
                f"--interval must be two integers p,q, got {args.interval!r}") from None
        _print_tableau(eta_interval(T, p, q, n))
    else:
        _print_tableau(eta(T, n))
    return 0


def _cmd_graph(args):
    shape = SkewShape.parse(args.shape)
    # the output opens before the build, so a bad path fails at once; as with
    # a shell redirection, a refused build leaves the file empty
    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        g = build_graph(shape, args.n)
        fh.write(export_dot(g) if args.format == "dot" else export_json(g))
    return 0


# Per suite: which command line flags it takes, and under which keyword.
_VERIFY_FLAGS = {
    "cactus": {"shape": "shape", "n": "n", "max_size": "max_vertices"},
    "braid": {"shape": "shape", "n": "n", "max_size": "max_vertices"},
    "knuth": {"max_size": "max_len", "shape": "bound", "n": "n_max", "seed": "seed"},
    "symmetry": {"shape": "bound"},
    "structure": {"shape": "bound", "n": "n"},
    "all": {"seed": "seed"},
}


def _cmd_verify(args):
    taken = _VERIFY_FLAGS[args.suite]
    given = [flag for flag in ("shape", "n", "max_size", "seed")
             if getattr(args, flag) is not None]
    for flag in given:
        if flag not in taken:
            raise ValueError(f"verify {args.suite} does not take --{flag.replace('_', '-')}")
    if args.max_size is not None and args.max_size < 0:
        raise ValueError(f"--max-size must be a non-negative integer, got {args.max_size}")
    if args.max_report is not None:
        if args.max_report < 0:
            raise ValueError(f"--max-report must be a non-negative integer, got {args.max_report}")
        if args.json:
            raise ValueError("--max-report limits the text output; --json prints every violation")
        if args.suite == "all":
            raise ValueError("verify all prints no violations list, so it takes no --max-report")
    report = SUITES[args.suite](**{taken[flag]: getattr(args, flag) for flag in given})
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(report["summary"])
        # the "all" report carries its violations in its sub-reports only
        violations = report.get("violations", [])
        if violations:
            limit = 10 if args.max_report is None else args.max_report
            print(json.dumps(violations[:limit], indent=1))
    return 0 if report["ok"] else 1


def _cmd_lrs_count(args):
    print(lrs_count(
        StrictPartition.parse(args.lam),
        StrictPartition.parse(args.mu),
        StrictPartition.parse(args.nu),
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shifted-crystal",
        description="Shifted tableau crystals: enumeration, operators, "
                    "involutions, graphs, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all tableaux of a shape")
    p.add_argument("--shape", required=True, help='skew shape, e.g. "3,1/1"')
    p.add_argument("--n", type=int, required=True, help="alphabet bound")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("apply", help="apply an operator program to a tableau")
    p.add_argument("--tableau", required=True, help="tableau file or - for stdin")
    p.add_argument("--ops", required=True,
                   help='comma separated program, e.g. "F1,E2\',S1"')
    p.add_argument("--n", type=int, help="alphabet bound (default: max value)")
    p.set_defaults(fn=_cmd_apply)

    for name, fn in (("rectify", _cmd_rectify), ("evacuate", _cmd_evacuate),
                     ("reversal", _cmd_reversal)):
        p = sub.add_parser(name, help=f"{name} a tableau")
        p.add_argument("--tableau", required=True)
        if name != "rectify":  # rectification takes no alphabet bound
            p.add_argument("--n", type=int)
        p.set_defaults(fn=fn)

    p = sub.add_parser("eta", help="crystal involution, optionally on an interval")
    p.add_argument("--tableau", required=True)
    p.add_argument("--interval", help='letter interval "p,q"')
    p.add_argument("--n", type=int)
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("graph", help="build and export a crystal graph")
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--shape", help="graph shape or partition bound")
    p.add_argument("--n", type=int)
    p.add_argument("--max-size", type=int, dest="max_size",
                   help="size cap: word length for knuth, vertex cap for graphs")
    p.add_argument("--seed", type=int, help="corner-order seed (default 0)")
    p.add_argument("--max-report", type=int, dest="max_report",
                   help="maximum violations to print (text output; default 10)")
    p.add_argument("--json", action="store_true",
                   help="print the whole report, sub-reports included, as JSON")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("lrs-count", help="shifted Littlewood-Richardson coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", required=True)
    p.set_defaults(fn=_cmd_lrs_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
