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
import io
import json
import os
import sys
from typing import Any, Iterable, Optional, Union

from . import continuous, formats, runner, sequences
from .errors import CollisionPresent, EmptyWindow, HorizonExceeded, LamoError, ParseError
from .exact import ExactNumber
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

# What a subcommand reports, in the one format asked for: a JSON object, a
# CSV (header, rows) pair, or the finished text.
Report = Union[dict[str, Any], tuple[list[str], Iterable[list[Any]]], str]


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _render(report: Report) -> str:
    if isinstance(report, str):
        return report
    if isinstance(report, dict):
        return json.dumps(report) + "\n"
    import csv  # only this format uses it, so other invocations start without it
    header, rows = report
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _sequence_report(s: NumberSequence, fmt: str, horizon: Any, note_horizon: bool) -> Report:
    """The window s of a sequence whose own horizon is `horizon`."""
    exact_through = "unbounded" if horizon is INF else horizon
    if fmt == "json":
        return {**formats.sequence_to_json(s), "exact_through": exact_through}
    if fmt == "csv":
        rows = ([n, "inf" if v is INF else v] for n, v in enumerate(s.prefix, start=1))
        return ["n", "value"], rows
    text = formats.render_sequence_text(s)
    return f"# exact through: {exact_through}\n{text}" if note_horizon else text


# -- subcommands ----------------------------------------------------------


def _cmd_invert(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    f = formats.parse_sequence(_read_input(args.input))
    g = sequences.invert(f, args.limit)
    return _sequence_report(g, fmt, sequences.inverse_horizon(f), note_horizon=True), EXIT_OK


def _cmd_hat(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    f = formats.parse_sequence(_read_input(args.input))
    s = sequences.hat(f, args.K)
    if fmt == "json":
        return formats.intset_to_json(s), EXIT_OK
    if fmt == "csv":
        return (["element"], ([e] for e in s.elements)), EXIT_OK
    return formats.render_intset_text(s), EXIT_OK


def _cmd_unhat(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    s = formats.parse_intset(_read_input(args.input))
    f = sequences.from_set(s, complete=args.complete)
    window = f.window(args.limit)
    return _sequence_report(window, fmt, f.determined_horizon(), note_horizon=False), EXIT_OK


def _cmd_check(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    f = formats.parse_sequence(_read_input(args.f))
    g = formats.parse_sequence(_read_input(args.g))
    witness = sequences.grid_witness(f, g, args.M, args.N)
    verdict = sequences.check_complementary(
        sequences.hat(f, args.K), sequences.hat(g, args.K), args.K
    )
    ok = witness is None and verdict.ok
    code = EXIT_OK if ok else EXIT_VERDICT
    if fmt == "json":
        return {
            "grid": {
                "window": [args.M, args.N],
                "ok": witness is None,
                "witness": None
                if witness is None
                else {"m": witness[0], "n": witness[1], "kind": witness[2]},
            },
            "complementary": {
                "window": args.K,
                "verdict": verdict.kind,
                "witness": verdict.witness,
            },
            "ok": ok,
        }, code
    if fmt == "csv":
        rows = [
            ["grid", "pass" if witness is None else "fail",
             "" if witness is None else "m={} n={} {}".format(*witness)],
            ["complementary", verdict.kind,
             "" if verdict.witness is None else str(verdict.witness)],
        ]
        return (["check", "result", "witness"], rows), code
    grid = "pass" if witness is None else "fail at m={} n={} ({})".format(*witness)
    return (
        f"mutual-inverse {args.M}x{args.N}: {grid}\n"
        f"complementary [1,{args.K}]: {verdict}\n"
    ), code


def _cmd_beatty(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    lam = ExactNumber.parse(args.lam)
    a, b = continuous.beatty_pair(lam, args.K)
    verdict = sequences.check_complementary(a, b, args.K)
    avoid = continuous.lattice_avoidance(continuous.LinearMap(lam), args.K)
    if fmt == "json":
        return {
            "A": formats.intset_to_json(a),
            "B": formats.intset_to_json(b),
            "verdict": verdict.kind,
            "witness": verdict.witness,
            "avoidance": {
                "holds": avoid.holds,
                "violation": avoid.violation,
                "checked_through": avoid.checked_through,
            },
        }, EXIT_OK
    if fmt == "csv":
        rows = [["A", e] for e in a.elements] + [["B", e] for e in b.elements]
        return (["set", "element"], rows), EXIT_OK
    return (
        f"A: {a}\nB: {b}\n"
        f"complementary [1,{args.K}]: {verdict}\n"
        f"lattice avoidance n<={args.K}: {avoid}\n"
    ), EXIT_OK


def _cmd_construct_phi(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    f = formats.parse_sequence(_read_input(args.input))
    obj = formats.map_to_json(continuous.construct_phi(f))
    if fmt == "json":
        return obj, EXIT_OK
    if fmt == "csv":
        rows = [[t, v] for t, v in obj["anchors"]]
        rows.append(["tail", obj["tail"]["kind"]])
        if "limit" in obj["tail"]:
            rows.append(["limit", obj["tail"]["limit"]])
        return (["t", "value"], rows), EXIT_OK
    return json.dumps(obj, indent=2) + "\n", EXIT_OK


def _cmd_simulate(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    text = args.map if args.map.lstrip().startswith("{") else _read_input(args.map)
    phi = formats.parse_map(text)
    log = runner.simulate(phi, ExactNumber.parse(args.T))
    if collisions := log.collisions():
        code = EXIT_COLLISION
    else:
        s_x, s_y = runner.recorded_sets(log)
        h = s_x.horizon
        alg_y, alg_x = continuous.corollary_sets(phi, h) if h >= 1 else (IntSet((), 0),) * 2
        agree = s_x == alg_x and s_y == alg_y
        code = EXIT_OK if agree else EXIT_VERDICT
    if fmt == "csv":
        rows = ([e.time.literal(), e.kind, e.count] for e in log.events)
        return (["t", "kind", "count"], rows), code
    if collisions:
        t = collisions[0].time
        summary = {"collision_at": t.literal()} if fmt == "json" else f"collision at t={t}\n"
    elif fmt == "json":
        summary = {
            "recorded": {"S_X": formats.intset_to_json(s_x), "S_Y": formats.intset_to_json(s_y)},
            "algebraic": {"S_X": formats.intset_to_json(alg_x), "S_Y": formats.intset_to_json(alg_y)},
            "agree": agree,
        }
    else:
        summary = (
            f"recorded S_X: {s_x}\nrecorded S_Y: {s_y}\n"
            f"algebraic S_X: {alg_x}\nalgebraic S_Y: {alg_y}\n"
            f"agree: {'yes' if agree else 'NO'}\n"
        )
    if fmt == "json":
        return formats.events_to_json(log, summary) + "\n", code
    return formats.events_to_jsonl(log) + summary, code


def _cmd_classify(args: argparse.Namespace, fmt: str) -> tuple[Report, int]:
    cls = sequences.classify(formats.parse_sequence(_read_input(args.input)))
    if fmt == "json":
        return {"class": cls}, EXIT_OK
    if fmt == "csv":
        return (["class"], [[cls]]), EXIT_OK
    return cls + "\n", EXIT_OK


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
        report, code = cmd(args, fmt)
    except LamoError as e:
        print(f"lamo: {e.__class__.__name__}: {e}", file=sys.stderr)
        return next((c for cls, c in _ERROR_EXITS.items() if isinstance(e, cls)), EXIT_PARSE)
    payload = _render(report)
    if args.output:
        try:
            with open(args.output, "w") as out:
                out.write(payload)
        except OSError as e:
            print(f"lamo: cannot write {args.output}: {e}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(payload)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
