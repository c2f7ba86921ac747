"""Differential corpus for the `lamo` command line.

A seeded generator of command lines over every subcommand, output format
and input tail, malformed inputs among them, with `--limit`, `--output`,
stdin (`-`) and `$LAMO_FORMAT`.  `compare` runs one corpus against two
source trees, each in a subprocess of its own that calls `lamo.cli.main`
once per case, and lists every case whose exit code, stdout, stderr or
`--output` file differs between them:

    python tests/corpus.py compare OLD NEW [--seed 1] [--cases 3000] [--skip-format csv]

OLD and NEW are source trees: a checkout (its `src/` is used) or a
directory that holds the `lamo` package.  `--skip-format` leaves out the
cases of a format whose output is meant to differ; `--cases` counts the
cases kept.  It exits 0 when no case differs and 1 otherwise.

    python tests/corpus.py show [--seed 1] [--cases 20]

prints the cases instead.  Every input is a few dozen terms at most, so a
corpus of 3 000 cases runs in seconds.  pytest does not collect this file:
its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from typing import Any, Iterator, NamedTuple, Optional

FORMATS = ("text", "json", "csv")
COMMANDS = ("invert", "hat", "unhat", "check", "beatty", "construct-phi", "simulate", "classify")
TAILS = ("constant", "infinite", "unknown", None)  # None: no #tail line
SLOPES = ("1/3", "2/3", "1", "3/2", "2", "1/1001", "sqrt(2)", "sqrt(3)/2", "(1+sqrt(5))/2",
          "(-1+1*sqrt(5))/2", "sqrt(99999999999999999999)/10000000000", "( -1 + sqrt(5) ) / 2")
BAD_SLOPES = ("0", "-1", "1 2", "0.75", "sqrt(-2)", "5/0", "x", "", "1e3", "sqrt(2", "1_0")
TIMES = ("1", "2", "3", "7/2", "sqrt(30)", "10", "(1+sqrt(5))/2", "20")
BAD_TIMES = ("0", "-1", "abc", "1/0", "2.5")
BAD_SIZES = ("-1", "1_0", "+2", "２", "x", "1.0")
# Past the index range: exit 2 for these subcommands, but `beatty` and `check`
# try to build a window that large (see ROADMAP), so they never get it.
HUGE = "99999999999999999999"
MEMORY_CAP = 2**30  # bytes of address space a worker may take


class Case(NamedTuple):
    argv: list[str]
    fmt: str  # the format in effect, or the bad one asked for
    files: dict[str, str]  # written into the working directory; "\udcff" writes byte 0xff
    stdin: Optional[str]
    env_format: Optional[str]


# -- inputs ---------------------------------------------------------------


def _sequence_terms(rng: random.Random, tail: Optional[str]) -> tuple[list[Any], Optional[int]]:
    n = rng.randint(1 if tail in ("unknown", None) else 0, 9)
    terms: list[Any] = sorted(rng.randint(0, 14) for _ in range(n))
    if tail == "infinite" and rng.random() < 0.4:
        terms += ["inf"] * rng.randint(1, 2)
    const = rng.randint(terms[-1] if terms else 0, 16) if tail == "constant" else None
    return terms, const


def _sequence_text(rng: random.Random, terms: list[Any], tail: Optional[str], const) -> str:
    lines = [str(t) for t in terms]
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "", "  ", "#", "#tails"]))
    if tail is not None:
        lines.append(f"#tail {tail}" + (f" {const}" if tail == "constant" else ""))
        if rng.random() < 0.1:
            lines.append("# after")
    end = rng.choice(["\n", "\n", "\n", "\r\n"])
    text = end.join(lines) + (end if rng.random() < 0.9 else "")
    if rng.random() < 0.1:
        text = text.replace("\n", " \t\n", 1)
    return text


def _sequence_json(terms: list[Any], tail: Optional[str], const) -> str:
    obj: dict[str, Any] = {"terms": terms}
    if tail is not None:
        obj["tail"] = {"kind": tail, **({"value": const} if tail == "constant" else {})}
    return json.dumps(obj)


BAD_SEQUENCES = (
    "2\n1\n#tail unknown\n", "1\nx1\n", "1\n1.5\n", "1_0\n", "+2\n", "-1\n2\n", "1\n#tail constant\n",
    "1\n#tail weird\n", "1\n#tail unknown\n#tail unknown\n", "1\n#tail unknown\n2\n",
    "1\n5\n#tail constant 3\n", "1\ninf\n2\n", "", "\n\n", "1e3\n", "１\n",
    "1\n" + "9" * 30 + "\n", "1\n2\n#tail constant x\n", "1\n#tail constant 2 3\n",
    "\udcff\n", "0\n0\n#tail unknown\n", "0\n#tail constant 0\n", "inf\n", "1\n2\n3\n" * 2,
    '{"terms": [1, 3, 2], "tail": {"kind": "unknown"}}', '{"terms": "1"}', "[1, 2]",
    '{"terms": [1, "x"]}', '{"terms": [1, 2.5]}', '{"terms": [1], "tail": 3}',
    '{"terms": [1], "tail": {"kind": "constant"}}', '{"terms": [1, 2]', '{"terms": [true]}',
    '{"terms": [1, "inf", 2]}', '{"terms": [-1]}', '{"terms": [1, 3], "tail": {"kind": "constant", "value": 2}}',
    '{"terms": [' + "[" * 3000 + "]" * 3000 + "]}", '{"terms": [1' + "0" * 5000 + "]}",
)


def _sequence(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(BAD_SEQUENCES)
    tail = rng.choice(TAILS)
    terms, const = _sequence_terms(rng, tail)
    if rng.random() < 0.3:
        return _sequence_json(terms, tail, const)
    return _sequence_text(rng, terms, tail, const)


BAD_SETS = (
    "1\n5\n3\n#horizon 9\n", "0\n1\n", "1\n1\n", "1\n2\n#horizon 9\n5\n", "1\n9\n#horizon 4\n",
    "1\n#horizon\n", "1\n#horizon x\n", "1\n#horizon 3 4\n", "x\n", "-2\n", "\udcff",
    '{"elements": [1, 3], "horizon": 2}', '{"elements": [2, 1], "horizon": 5}',
    '{"elements": [1], "horizon": "5"}', '{"elements": ["1"], "horizon": 5}', "{}",
    '{"elements": [0], "horizon": 5}', '{"elements": [1, 2], "horizon": 5',
)


def _intset(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(BAD_SETS)
    elements = sorted(rng.sample(range(1, 25), rng.randint(0, 10)))
    horizon = rng.randint(elements[-1] if elements else 0, 30)
    if rng.random() < 0.3:
        return json.dumps({"elements": elements, "horizon": horizon})
    lines = [str(e) for e in elements]
    if rng.random() < 0.8:
        lines.append(f"#horizon {horizon}")
    if rng.random() < 0.15:
        lines.insert(0, "# set")
    return "\n".join(lines) + "\n"


BAD_MAPS = (
    '{"kind":"linear"}', '{"kind":"linear","lambda":1.5}', '{"kind":"linear","lambda":"0"}',
    '{"kind":"linear","lambda":"-2"}', '{"kind":"cubic"}', "[1]", '{"kind":"linear","lambda":"x"}',
    '{"kind":"piecewise","anchors":[]}', '{"kind":"piecewise","anchors":[[2,"1"]]}',
    '{"kind":"piecewise","anchors":[[1,"2"],[2,"1"]]}', '{"kind":"piecewise","anchors":[[1,"sqrt(2)"]]}',
    '{"kind":"piecewise","anchors":[[true,"1/3"]],"tail":{"kind":"saturate","limit":"1"}}',
    '{"kind":"piecewise","anchors":[[1,"1/2"],[2,"3/2"]],"tail":{"kind":"saturate","limit":"1"}}',
    '{"kind":"piecewise","anchors":[[1,"1/2"]],"tail":{"kind":"bounce"}}', '{"kind":"linear",',
)


def _map(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.12:
        return rng.choice(BAD_MAPS)
    if r < 0.5:
        return json.dumps({"kind": "linear", "lambda": rng.choice(SLOPES)})
    values, v = [], Fraction(0)
    for _ in range(rng.randint(1, 5)):
        v += Fraction(rng.randint(1, 6), rng.randint(1, 4))
        values.append(v)
    obj: dict[str, Any] = {"kind": "piecewise",
                           "anchors": [[i, str(v)] for i, v in enumerate(values, start=1)]}
    if rng.random() < 0.5:
        limit = values[-1] + Fraction(rng.randint(1, 6), rng.randint(1, 3))
        obj["tail"] = {"kind": "saturate", "limit": str(limit)}
    elif rng.random() < 0.5:
        obj["tail"] = {"kind": "extend"}
    return json.dumps(obj)


def _size(rng: random.Random, top: int, huge: bool = False) -> str:
    if rng.random() < 0.06:
        return rng.choice(BAD_SIZES + (HUGE,) * huge)
    return str(rng.randint(0, top))


# -- cases ----------------------------------------------------------------


def _case(rng: random.Random) -> Case:
    command = rng.choice(COMMANDS)
    files: dict[str, str] = {}
    stdin: Optional[str] = None

    def source(text: str) -> str:
        nonlocal stdin
        if stdin is None and rng.random() < 0.15:
            stdin = text
            return "-"
        if rng.random() < 0.02:
            return "missing.txt"
        name = f"in{len(files)}.{'json' if text.lstrip().startswith('{') else 'txt'}"
        files[name] = text
        return name

    if command in ("invert", "unhat"):
        argv = [command, source(_sequence(rng) if command == "invert" else _intset(rng))]
        if command == "unhat" and rng.random() < 0.5:
            argv.append("--complete")
        if rng.random() < 0.7:
            argv += ["--limit", _size(rng, 40, huge=True)]
    elif command == "hat":
        argv = [command, source(_sequence(rng)), _size(rng, 60, huge=True)]
    elif command == "check":
        f, g = _sequence(rng), _sequence(rng)
        argv = [command, source(f), source(g), _size(rng, 10), _size(rng, 10), _size(rng, 30)]
    elif command == "beatty":
        lam = rng.choice(BAD_SLOPES) if rng.random() < 0.12 else rng.choice(SLOPES)
        argv = [command, lam, _size(rng, 300)]
    elif command == "simulate":
        phi = _map(rng)
        t = rng.choice(BAD_TIMES) if rng.random() < 0.08 else rng.choice(TIMES)
        argv = [command, phi if rng.random() < 0.5 else source(phi), t]
    else:
        argv = [command, source(_sequence(rng))]

    r = rng.random()
    if r < 0.02:
        argv.append(rng.choice(["--bogus", "--format=yaml", "--limit"]))
    elif r < 0.03:
        argv = argv[:-1]
    fmt = rng.choice(FORMATS)
    env_format = None
    r = rng.random()
    if r < 0.1:
        env_format = fmt
    elif r < 0.13:
        env_format = rng.choice(["xml", "TEXT", ""])
        fmt = env_format or "text"
    else:
        argv += ["--format", fmt]
    r = rng.random()
    if r < 0.1:
        argv += ["--output", "out.txt"]
    elif r < 0.12:
        argv += ["--output", rng.choice([".", "nodir/out.txt"])]
    return Case(argv, fmt, files, stdin, env_format)


def cases(seed: int, n: int, skip: tuple[str, ...] = ()) -> Iterator[Case]:
    """The first n cases of the seeded stream whose format is not in `skip`."""
    rng = random.Random(seed)
    while n:
        case = _case(rng)
        if case.fmt not in skip:
            n -= 1
            yield case


# -- running --------------------------------------------------------------


def _run_case(main: Any, case: Case) -> list[Any]:
    """(exit code, stdout, stderr, the --output file or None) of one case, run
    in the current working directory."""
    for name, text in case.files.items():
        with open(name, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogateescape"))
    if case.env_format is None:
        os.environ.pop("LAMO_FORMAT", None)
    else:
        os.environ["LAMO_FORMAT"] = case.env_format
    raw = (case.stdin or "").encode("utf-8", "surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: Any = main(case.argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is a result to compare, too
                code = f"raised {type(e).__name__}: {e}"
    finally:
        sys.stdin = saved
    written = None
    if os.path.isfile("out.txt"):
        with open("out.txt", encoding="utf-8", errors="surrogateescape") as fh:
            written = fh.read()
        os.remove("out.txt")
    for name in case.files:
        os.remove(name)
    return [code, out.getvalue(), err.getvalue(), written]


def _worker(seed: int, n: int, skip: tuple[str, ...]) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    import lamo
    from lamo.cli import main

    results = [_run_case(main, case) for case in cases(seed, n, skip)]
    json.dump({"lamo": lamo.__file__, "results": results}, sys.stdout)


def _source_dir(tree: str) -> str:
    src = os.path.join(tree, "src")
    return os.path.abspath(src if os.path.isdir(os.path.join(src, "lamo")) else tree)


def _results(tree: str, seed: int, n: int, skip: tuple[str, ...]) -> list[Any]:
    src = _source_dir(tree)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("LAMO_FORMAT", None)
    argv = [sys.executable, os.path.abspath(__file__), "_worker", "--seed", str(seed),
            "--cases", str(n), *(f"--skip-format={f}" for f in skip)]
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    if not report["lamo"].startswith(src + os.sep):
        raise SystemExit(f"{tree}: imported lamo from {report['lamo']}, not from {src}")
    return report["results"]


def compare(old: str, new: str, seed: int, n: int, skip: tuple[str, ...]) -> int:
    differ = 0
    new_results = _results(new, seed, n, skip)
    pairs = zip(cases(seed, n, skip), _results(old, seed, n, skip), new_results)
    for i, (case, a, b) in enumerate(pairs):
        if a == b:
            continue
        differ += 1
        print(f"case {i}: {case.argv!r} format={case.fmt} stdin={case.stdin!r} files={case.files!r}")
        for what, x, y in zip(("exit code", "stdout", "stderr", "--output file"), a, b):
            if x != y:
                print(f"  {what}:\n    old {x!r}\n    new {y!r}")
    codes = Counter(str(r[0]) for r in new_results)
    print(f"exit codes of NEW: {dict(sorted(codes.items()))}")
    print(f"{n} cases (seed {seed}, skipping formats {list(skip)}): {differ} differ")
    return 1 if differ else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("compare", "show", "_worker"))
    parser.add_argument("trees", nargs="*", metavar="TREE")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=3000)
    parser.add_argument("--skip-format", action="append", default=[], choices=FORMATS)
    args = parser.parse_args(argv)
    skip = tuple(args.skip_format)
    if args.mode == "_worker":
        _worker(args.seed, args.cases, skip)
        return 0
    if args.mode == "show":
        for i, case in enumerate(cases(args.seed, args.cases, skip)):
            print(i, json.dumps(case._asdict()))
        return 0
    if len(args.trees) != 2:
        parser.error("compare takes two source trees, OLD and NEW")
    return compare(*args.trees, args.seed, args.cases, skip)


if __name__ == "__main__":
    sys.exit(main())
