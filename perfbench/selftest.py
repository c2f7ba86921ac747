"""Self-test of the output checkers: a corrupted output must count as failed.

    python3 perfbench/selftest.py

Runs one pass of every workload, built from seed 1, twice through the
benchmark's own runner: once as is, where every operation must pass, and
once with one element of
each operation's output altered before the check (the middle integer of the
report, or a character of it when it has no digits), where every operation
must be counted as failed.  Exits 1 if either does not hold.
"""

from __future__ import annotations

import re
import shutil
import sys

import run
import workloads

SEED = 1


def corrupt(text: str) -> str:
    """The report with its middle integer incremented, or one character changed."""
    numbers = list(re.finditer(r"\d+", text))
    if numbers:
        m = numbers[len(numbers) // 2]
        return text[:m.start()] + str(int(m[0]) + 1) + text[m.end():]
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from lamo import cli

    ok = True
    for name in sorted(workloads.WORKLOADS):
        work = run.OUT / f"selftest-{name}"
        ops = workloads.build(name, SEED, work)
        clean, dirty = run.Runner(cli, work / "report.out"), run.Runner(cli, work / "report.out")
        for op in ops:
            clean.execute(op)
            dirty.execute(op, corrupt=corrupt)
        shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(ops)} ops; clean outputs failed {clean.failed}, "
              f"corrupted outputs counted failed {dirty.failed}")
        for failure in clean.failures:
            print(f"  unexpected failure: {failure}")
        ok = ok and clean.failed == 0 and dirty.failed == len(ops)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
