"""Command-line front end.

Subcommands: invert, hat, unhat, check, beatty, construct-phi, simulate,
classify.  Inputs are files ("-" for stdin) in the text or JSON forms from
`formats`; all numbers are exact literals, never decimal floats.  Exit
codes: 0 success, 1 a requested verification failed, 2 unparsable or
invalid input, 3 a request outside an exactness horizon, 4 a meeting at
the origin voided the simulation's recorded sets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import IO, Any, Callable, Iterator, Optional

from . import continuous, formats, runner, sequences
from .errors import CollisionPresent, EmptyWindow, HorizonExceeded, LamoError, ParseError
from .exact import ExactNumber, literals
from .formats import integer
from .sequences import INF, IntSet, NumberSequence

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_HORIZON = 3
EXIT_COLLISION = 4

# Library errors that are not bad input; every other LamoError exits EXIT_PARSE.
_ERROR_EXITS = {
    HorizonExceeded: EXIT_HORIZON,
    EmptyWindow: EXIT_HORIZON,
    CollisionPresent: EXIT_COLLISION,
}

# What a subcommand reports: its JSON form (an object, or for `simulate` the
# finished JSON text) and its text form, each a zero-argument callable, so
# that only the form asked for is built.  CSV is a view of the JSON form.
Report = tuple[Callable[[], Any], Callable[[], str]]


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _cells(value: Any) -> list[Any]:
    """A JSON value as CSV cells: a string as it is, any other scalar as JSON
    spells it (`true`, `null`), and a flat array or object one item a cell."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        value = [value]
    return [v if isinstance(v, str) else json.dumps(v) for v in value]


def _csv_rows(value: Any, path: str = "") -> Iterator[list[Any]]:
    """The CSV rows of a JSON value: `path,value` for each scalar, at its
    dotted path, `path,item` for each array item, and a bare `path` for an
    empty array."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _csv_rows(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        if not value:
            yield [path]
        for item in value:
            yield [path, *_cells(item)]
    else:
        yield [path, *_cells(value)]


def _render(report: Report, fmt: str, out: IO[str]) -> None:
    """Write the one form of the report that `fmt` names into `out`."""
    as_json, as_text = report
    if fmt == "text":
        out.write(as_text())
        return
    obj = as_json()
    if fmt == "json":
        out.write(obj if isinstance(obj, str) else json.dumps(obj) + "\n")
        return
    import csv  # only this format uses it, so other invocations start without it
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["key", "value"])
    w.writerows(_csv_rows(json.loads(obj) if isinstance(obj, str) else obj))


def _sequence_report(s: NumberSequence, horizon: Any, note_horizon: bool) -> Report:
    """The window s of a sequence whose own horizon is `horizon`."""
    exact_through = "unbounded" if horizon is INF else horizon
    note = f"# exact through: {exact_through}\n" if note_horizon else ""
    return (
        lambda: {**formats.sequence_to_json(s), "exact_through": exact_through},
        lambda: note + formats.render_sequence_text(s),
    )


# -- subcommands ----------------------------------------------------------


def _cmd_invert(args: argparse.Namespace) -> tuple[int, Report]:
    f = formats.parse_sequence(_read_input(args.input))
    g = sequences.invert(f, args.limit)
    return EXIT_OK, _sequence_report(g, sequences.inverse_horizon(f), note_horizon=True)


def _cmd_hat(args: argparse.Namespace) -> tuple[int, Report]:
    f = formats.parse_sequence(_read_input(args.input))
    s = sequences.hat(f, args.K)
    return EXIT_OK, (lambda: formats.intset_to_json(s), lambda: formats.render_intset_text(s))


def _cmd_unhat(args: argparse.Namespace) -> tuple[int, Report]:
    s = formats.parse_intset(_read_input(args.input))
    f = sequences.from_set(s, complete=args.complete)
    window = f.window(args.limit)
    return EXIT_OK, _sequence_report(window, f.determined_horizon(), note_horizon=False)


def _cmd_check(args: argparse.Namespace) -> tuple[int, Report]:
    if args.f == args.g == "-":
        raise ParseError("stdin ('-') can be read once, but f and g both name it")
    f = formats.parse_sequence(_read_input(args.f))
    g = formats.parse_sequence(_read_input(args.g))
    witness = sequences.grid_witness(f, g, args.M, args.N)
    verdict = sequences.check_complementary(
        sequences.hat(f, args.K), sequences.hat(g, args.K), args.K
    )
    ok = witness is None and verdict.ok
    grid = "pass" if witness is None else "fail at m={} n={} ({})".format(*witness)
    return EXIT_OK if ok else EXIT_VERDICT, (
        lambda: {"grid": {"window": [args.M, args.N], "ok": witness is None,
                          "witness": witness and dict(zip(("m", "n", "kind"), witness))},
                 "complementary": {"window": args.K, "verdict": verdict.kind,
                                   "witness": verdict.witness},
                 "ok": ok},
        lambda: f"mutual-inverse {args.M}x{args.N}: {grid}\n"
        f"complementary [1,{args.K}]: {verdict}\n",
    )


def _cmd_beatty(args: argparse.Namespace) -> tuple[int, Report]:
    lam = ExactNumber.parse(args.lam)
    a, b = continuous.beatty_pair(lam, args.K)
    verdict = sequences.check_complementary(a, b, args.K)
    avoid = continuous.lattice_avoidance(continuous.LinearMap(lam), args.K)
    return EXIT_OK, (
        lambda: {"A": formats.intset_to_json(a), "B": formats.intset_to_json(b),
                 "verdict": verdict.kind, "witness": verdict.witness,
                 "avoidance": {"holds": avoid.holds, "violation": avoid.violation,
                               "checked_through": avoid.checked_through}},
        lambda: f"A: {a}\nB: {b}\ncomplementary [1,{args.K}]: {verdict}\n"
        f"lattice avoidance n<={args.K}: {avoid}\n",
    )


def _cmd_construct_phi(args: argparse.Namespace) -> tuple[int, Report]:
    f = formats.parse_sequence(_read_input(args.input))
    obj = formats.map_to_json(continuous.construct_phi(f))
    return EXIT_OK, (lambda: obj, lambda: json.dumps(obj, indent=2) + "\n")


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, Report]:
    text = args.map if args.map.lstrip().startswith("{") else _read_input(args.map)
    phi = formats.parse_map(text)
    log = runner.event_columns(phi, ExactNumber.parse(args.T), literals)
    try:
        s_x, s_y = runner.recorded_sets(log)
    except CollisionPresent:
        t = log.times[log.kinds.index(runner.COLLISION)]
        code = EXIT_COLLISION
        summary = lambda: {"collision_at": t}
        note = lambda: f"collision at t={t}\n"
    else:
        h = s_x.horizon
        alg_y, alg_x = continuous.corollary_sets(phi, h) if h >= 1 else (IntSet((), 0),) * 2
        agree = s_x == alg_x and s_y == alg_y
        code = EXIT_OK if agree else EXIT_VERDICT
        summary = lambda: {
            "recorded": {"S_X": formats.intset_to_json(s_x), "S_Y": formats.intset_to_json(s_y)},
            "algebraic": {"S_X": formats.intset_to_json(alg_x), "S_Y": formats.intset_to_json(alg_y)},
            "agree": agree,
        }
        note = lambda: (
            f"recorded S_X: {s_x}\nrecorded S_Y: {s_y}\n"
            f"algebraic S_X: {alg_x}\nalgebraic S_Y: {alg_y}\n"
            f"agree: {'yes' if agree else 'NO'}\n"
        )
    return code, (
        lambda: formats.events_to_json(log, summary()) + "\n",
        lambda: formats.events_to_jsonl(log) + note(),
    )


def _cmd_classify(args: argparse.Namespace) -> tuple[int, Report]:
    cls = sequences.classify(formats.parse_sequence(_read_input(args.input)))
    return EXIT_OK, (lambda: {"class": cls}, lambda: cls + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamo",
        description="Inverse sequence pairs, the integer sets they induce, and the"
        " two-runner event simulation that cross-checks them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default=None,
                        help="output format (default: $LAMO_FORMAT or text)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", parents=[common],
                       help="counting inverse g(n) = |{m : f(m) < n}|")
    p.add_argument("input", help="sequence file, '-' for stdin")
    p.add_argument("--limit", type=integer, metavar="N", help="cap on printed sequence terms")

    p = sub.add_parser("hat", parents=[common],
                       help="the set {n + f(n)} on [1, K]")
    p.add_argument("input", help="sequence file")
    p.add_argument("K", type=integer, help="window bound")

    p = sub.add_parser("unhat", parents=[common],
                       help="the sequence s_n - n of a set")
    p.add_argument("input", help="set file")
    p.add_argument("--limit", type=integer, metavar="N", help="cap on printed sequence terms")
    p.add_argument("--complete", action="store_true",
                   help="the set lists every element, not just a window")

    p = sub.add_parser("check", parents=[common],
                       help="mutual-inverse grid and hat-set complementarity")
    p.add_argument("f", help="sequence file")
    p.add_argument("g", help="sequence file")
    p.add_argument("M", type=integer, help="grid rows (indices of f)")
    p.add_argument("N", type=integer, help="grid columns (indices of g)")
    p.add_argument("K", type=integer, help="complementarity window bound")

    p = sub.add_parser("beatty", parents=[common],
                       help="floor((1+lambda)n) and floor((1+1/lambda)n) on [1, K]")
    p.add_argument("lam", metavar="lambda", help="exact slope literal, e.g. '(-1+1*sqrt(5))/2'")
    p.add_argument("K", type=integer, help="window bound")

    p = sub.add_parser("construct-phi", parents=[common],
                       help="a strictly increasing map with floor(phi(n)) = f(n)")
    p.add_argument("input", help="sequence file")

    p = sub.add_parser("simulate", parents=[common],
                       help="exact two-runner event log, cross-checked against the set formulas")
    p.add_argument("map", help="map JSON (file path or inline object)")
    p.add_argument("T", help="time horizon, an exact literal such as '50' or '101/2'")

    p = sub.add_parser("classify", parents=[common],
                       help="bounded / eventually_infinite / window report")
    p.add_argument("input", help="sequence file")

    return parser


# Parsing leaves the parser unchanged, so one serves every call in a process.
_parser = functools.cache(_build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    fmt = args.format or os.environ.get("LAMO_FORMAT") or "text"
    # Looked up per call, so that the subcommand is whatever `_cmd_<name>` is now.
    cmd = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        if fmt not in ("text", "json", "csv"):
            raise ParseError(f"unknown output format {fmt!r}")
        if getattr(args, "limit", None) is not None:
            sequences.require_bound(args.limit, "--limit", least=0)
        code, report = cmd(args)
        if args.output:
            try:
                with open(args.output, "w") as out:
                    _render(report, fmt, out)
            except OSError as e:
                print(f"lamo: cannot write {args.output}: {e}", file=sys.stderr)
                return EXIT_PARSE
        else:
            _render(report, fmt, sys.stdout)
    except (LamoError, OverflowError) as e:
        print(f"lamo: {e.__class__.__name__}: {e}", file=sys.stderr)
        return next((c for cls, c in _ERROR_EXITS.items() if isinstance(e, cls)), EXIT_PARSE)
    except MemoryError:  # building or writing the report
        print("lamo: MemoryError: the answer does not fit in memory", file=sys.stderr)
        return EXIT_PARSE
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
