"""Benchmark of the `lamo` command, end to end and layer by layer.

    python3 perfbench/run.py --workload beatty --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client calls `lamo.cli.main([...])` in this process, one
operation after another (a closed loop, no threads), each writing its
report to a scratch file with `--output`.  Every output is checked by the
workload's own integer-only oracle, outside the timed region.  Whole passes
of the workload's operation list run until `--seconds` would be exceeded.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, with its
times scaled by a reference job timed beside them (see REFERENCE_JOB); peak
memory comes from one more, untimed pass in a fresh process (`memory.py`).
`--trace 1` rotates an untraced pass and one pass in each mode of
`tracer.py` over the same operations and reports the per-layer metrics,
with each mode's overhead.  The last line of
standard output is the result object; the line before it is a record of
the machine, the code and the inputs, which is also written, with the
spans of a traced run, under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-up spawns, each paired with a reference spawn: a fixed number per run, a
# third before the loop, one after each of the next SETUP_SPAWNS // 3 passes,
# and the rest after the loop, so that they sample the same stretch of time as
# the operations.
SETUP_SPAWNS = 24
# The reference: a fixed job that runs no lamo code, timed in a fresh
# interpreter beside every set-up spawn.  It starts Python, then parses and
# renders integers, as the operations do.  Every reported time is scaled by
# REFERENCE_S over the run's reference time, so that a stretch in which the
# shared machine runs slow does not read as a slow program.
REFERENCE_JOB = ("s = chr(10).join(map(str, range(0, 150_000, 3)))\n"
                 "xs = [int(t) for t in s.split()]\n"
                 "t = chr(10).join(map(str, sorted(xs, reverse=True)))\n")
REFERENCE_S = 0.06
IMPORT_SPAWNS = 5
# Each operation is represented by these quantiles of its repeats in the run,
# spread evenly over their fastest sixth (see `measure`).
LEVELS = tuple((2 * i + 1) / 72 for i in range(6))
MIDDLE_LEVEL = 1 / 12  # the median of the fastest sixth


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "platform": platform.platform()}


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran just then.

    Recorded at the start and end of every run, so a reader can tell a slow
    stretch of a shared machine from a slow change; no metric is scaled by it.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def code_record() -> dict:
    """The git commit when the checkout has one, and a digest of the sources either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lamo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(count: int, spawns: dict[str, list[float]]) -> None:
    """Appends the wall seconds of `count` pairs of fresh interpreters: one runs
    `python -m lamo.cli --help`, the other REFERENCE_JOB."""
    env = spawn_env()
    for _ in range(count):
        for key, argv in (("setup", ["-m", "lamo.cli", "--help"]),
                          ("reference", ["-I", "-c", REFERENCE_JOB])):
            t0 = perf_counter()
            subprocess.run([sys.executable] + argv, env=env, cwd=ROOT,
                           stdout=subprocess.DEVNULL, check=True)
            spawns[key].append(perf_counter() - t0)


def import_times() -> dict[str, float]:
    """Median self import time per lamo module, and the whole import, in ms."""
    env, runs = spawn_env(), []
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lamo.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        row = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].split(".")[0] == "lamo":
                row[parts[2]] = (int(parts[0].split()[-1]), int(parts[1]))
        runs.append(row)
    out = {}
    for mod in ("errors", "exact", "sequences", "continuous", "runner", "formats", "cli"):
        out[f"import.{mod}_ms"] = statistics.median(r[f"lamo.{mod}"][0] for r in runs) / 1e3
    out["import.package_ms"] = statistics.median(r["lamo"][0] for r in runs) / 1e3
    out["import.total_ms"] = statistics.median(r["lamo"][1] + r["lamo.cli"][1]
                                               for r in runs) / 1e3
    return out


class Runner:
    """Runs operations through `lamo.cli.main` and checks what they wrote.

    `main` is looked up on the module at every call, so a traced pass sees
    the wrapped function.
    """

    def __init__(self, cli, out_path: Path) -> None:
        self.cli, self.out_path = cli, out_path
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.exit_codes: dict[str, Counter] = defaultdict(Counter)  # class -> exit code -> count

    def execute(self, op, corrupt=None) -> tuple[float, int, int]:
        """(seconds, elements verified, bytes written); a failure verifies none."""
        self.out_path.unlink(missing_ok=True)
        argv = op.args + ["--output", str(self.out_path)]
        error = None
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as e:  # argparse rejected the arguments
            code = e.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code, error = None, traceback.format_exc(limit=2)
        seconds = perf_counter() - t0
        self.attempted += 1
        self.exit_codes[op.cls][str(code)] += 1
        size = 0
        if error is None:
            try:
                text = self.out_path.read_text()
                size = len(text.encode())
                if corrupt:
                    text = corrupt(text)
                return seconds, op.check(text, code), size
            except Exception as e:  # any error while reading or checking fails the op
                error = f"{type(e).__name__}: {e}"
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{' '.join(op.args)}: exit {code}: {error}")
        return seconds, 0, size

    def run_pass(self, ops, tracer=None) -> tuple[list[float], int, int]:
        """Per-operation seconds, elements and bytes of one pass over `ops`."""
        seconds, elems, size = [], 0, 0
        for op in ops:
            if tracer:
                tracer.op += 1
            t, n, b = self.execute(op)
            seconds.append(t)
            elems, size = elems + n, size + b
        return seconds, elems, size


def quantile(values: list[float], level: float) -> float:
    """The `level` quantile of `values`, interpolated between order statistics."""
    ordered = sorted(values)
    pos = level * (len(ordered) - 1)
    i = int(pos)
    above = ordered[min(i + 1, len(ordered) - 1)]
    return ordered[i] + (above - ordered[i]) * (pos - i)


def measure(runner: Runner, ops, seconds: float, spawns: dict[str, list[float]]) -> dict:
    """Whole passes until `seconds` would be exceeded, with set-up spawns between them.

    Interference from other work on a shared machine only ever adds time, so,
    as `timeit` advises, each operation is represented by its fast repeats:
    the quantiles LEVELS of its repeats in the run, spread over their fastest
    sixth.  They are the same share of the repeats however many passes the
    run made, so a fast or slow run keeps as many of its slow repeats as any
    other.  The percentiles are taken over these samples, len(LEVELS) per
    operation; throughput divides a pass's verified elements by the sum of
    the operations' MIDDLE_LEVEL quantiles.
    """
    per_op: list[list[float]] = [[] for _ in ops]
    elems, start = 0, perf_counter()
    while True:
        times, n, _ = runner.run_pass(ops)
        for repeats, t in zip(per_op, times):
            repeats.append(t)
        elems += n
        passes = len(per_op[0])
        if len(spawns["setup"]) < 2 * SETUP_SPAWNS // 3:
            spawn(1, spawns)
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    samples = [quantile(repeats, level) for repeats in per_op for level in LEVELS]
    cuts = statistics.quantiles(samples, n=10)
    return {"passes": passes, "samples": len(samples),
            "p50": statistics.median(samples), "p90": cuts[8],
            "beyond_p90": sum(t > cuts[8] for t in samples),
            "elems_per_s": elems / passes / sum(quantile(r, MIDDLE_LEVEL) for r in per_op)}


def traced_measure(runner: Runner, ops, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """Rounds of one untraced pass and one pass in each tracer mode, in rotating order.

    Each mode's figures, and its overhead (its mean pass time minus the
    untraced mean pass time), are per pass of that mode.
    """
    from tracer import MODES, Tracer

    tracer = Tracer()
    kinds = ("untraced",) + MODES
    total = dict.fromkeys(kinds, 0.0)
    elems = size = passes = 0
    start = perf_counter()
    while True:
        for i in range(len(kinds)):
            kind = kinds[(passes + i) % len(kinds)]
            if kind == "untraced":
                times, n, b = runner.run_pass(ops)
                elems, size = elems + n, size + b
            else:
                with tracer.installed(kind):
                    times = runner.run_pass(ops, tracer)[0]
            total[kind] += sum(times)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    tracer.write(trace_path)
    pass_ms = {kind: t * 1e3 / passes for kind, t in total.items()}
    metrics = tracer.layer_metrics(passes, elems / passes)
    metrics.update({
        "elems_out": elems / passes,
        "ops_per_pass": float(len(ops)),
        "formats.bytes_out": size / passes,
        "trace.untraced_ms": pass_ms["untraced"],
    })
    for mode in MODES:
        overhead_ms = pass_ms[mode] - pass_ms["untraced"]
        metrics[f"trace.{mode}_overhead_ms"] = overhead_ms
        metrics[f"trace.{mode}_overhead_frac"] = overhead_ms / pass_ms["untraced"]
    return metrics, {"passes": passes, "spans": len(tracer.spans),
                     "trace_file": str(trace_path.relative_to(ROOT))}


def memory_mb(ops, out_path: Path) -> float:
    """Peak RSS of a fresh process that runs one pass of `ops` and holds nothing else."""
    argv = [op.args + ["--output", str(out_path)] for op in ops]
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "memory.py")],
                          input=json.dumps(argv), env=spawn_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.splitlines()[-1])


def parse_args(argv=None) -> argparse.Namespace:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lamo" / "cli.py").is_file():
        print(f"perfbench: no lamo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from lamo import cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    calibration = [calibration_ms()]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        spawn(1, {"setup": [], "reference": []})  # only warms the .pyc cache
        spawns = {"setup": [], "reference": []}
        spawn(SETUP_SPAWNS // 3, spawns)
    ops = workloads.build(args.workload, args.seed, work)
    runner = Runner(cli, work / "report.out")
    warm, seen = Runner(cli, runner.out_path), set()
    for op in ops:  # each operation class once, untimed and uncounted
        if op.cls not in seen:
            seen.add(op.cls)
            warm.execute(op)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), **code_record(),
              "ops_per_pass": len(ops),
              "ops_by_class": {c: sum(op.cls == c for op in ops) for c in sorted(seen)}}
    if args.trace:
        metrics, extra = traced_measure(runner, ops, args.seconds, OUT / f"spans-{tag}.jsonl")
        metrics.update(import_times())
        built = []
        for _ in range(21):
            t0 = perf_counter()
            cli._build_parser()
            built.append(perf_counter() - t0)
        metrics["cli.build_parser_ms"] = statistics.median(built) * 1e3
        record.update(extra)
    else:
        m = measure(runner, ops, args.seconds, spawns)
        spawn(SETUP_SPAWNS - len(spawns["setup"]), spawns)
        reference = quantile(spawns["reference"], MIDDLE_LEVEL)
        unscaled = {
            "setup_s": quantile(spawns["setup"], MIDDLE_LEVEL),
            "op_p50_ms": m["p50"] * 1e3,
            "op_p90_ms": m["p90"] * 1e3,
            "elems_per_s": m["elems_per_s"],
        }
        scale = REFERENCE_S / reference
        metrics = {name: v / scale if name == "elems_per_s" else v * scale
                   for name, v in unscaled.items()}
        metrics["peak_rss_mb"] = memory_mb(ops, runner.out_path)
        metrics["ops_ok_frac"] = (runner.attempted - runner.failed) / runner.attempted
        record.update({k: m[k] for k in ("passes", "samples", "beyond_p90")})
        record.update({"spawn_pairs": len(spawns["setup"]), "reference_s": reference,
                       "unscaled": unscaled})
    calibration.append(calibration_ms())
    record["calibration_ms"] = {"start": calibration[0], "end": calibration[1]}
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record.update({"attempted": runner.attempted, "failed": runner.failed,
                   "failures": runner.failures, "exit_codes": runner.exit_codes,
                   "metrics": metrics})
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted}}
    shutil.rmtree(work, ignore_errors=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({"record": record, "result": result},
                                                       indent=1) + "\n")
    for failure in runner.failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
