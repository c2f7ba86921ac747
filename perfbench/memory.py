"""Peak resident memory of `lamo` alone, over one pass of a workload.

    PYTHONPATH=src python3 perfbench/memory.py < argv-lists.json

Reads a JSON list of argument lists from standard input, calls
`lamo.cli.main` on each in turn in this fresh process, and prints the
process's peak resident set size in MB as its last line.  The process holds
none of the benchmark's inputs or oracles, so the figure is the interpreter,
the package and the largest operation.  A failing operation is skipped here;
the benchmark's own runner counts it.
"""

from __future__ import annotations

import json
import resource
import sys


def main() -> int:
    from lamo import cli

    for argv in json.load(sys.stdin):
        try:
            cli.main(argv)
        except (Exception, SystemExit):
            pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
