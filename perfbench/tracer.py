"""Spans and counters around the layers of `lamo`, installed by patching.

`Tracer.installed(mode)` patches the package for as long as the `with` block
lasts, in one of three modes, each run on its own pass so that no figure pays
for the instrumentation of another:

- `spans`: every public module-level function of `sequences`, `continuous`,
  `runner`, `formats` and `cli` that runs a few times per operation (the
  cold set), in every `lamo` module that holds it by name (`runner` imports
  from `continuous`, the package re-exports most functions).  Each call is a
  span (operation id, span id, parent span id, name, start, end) kept in
  memory and written out by `write()`; its self time excludes the spans
  below it.  Per-element calls (the hot set, below) are left unwrapped, so
  their time counts in the span that called them.
- `kernel`: the methods of `ExactNumber` and the module-level functions of
  `exact`; only the outermost kernel call is timed, a nested one only
  checks a flag.
- `counts`: every function of the two other modes, and `eval` /
  `inverse_eval` of `LinearMap` and `PiecewiseMap`, only counted.  A hot
  call is keyed by the innermost cold call around it, which the cold
  wrappers keep in a variable.

Nothing under `src/` changes: the package is patched from outside and
restored on exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("exact", "sequences", "continuous", "runner", "formats", "cli")
MODES = ("spans", "kernel", "counts")

EXACT_GROUPS = {
    "__init__": "construct",
    **dict.fromkeys(("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "reciprocal", "__truediv__", "__rtruediv__", "__abs__"),
                    "arith"),
    **dict.fromkeys(("compare", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign"),
                    "compare"),
    "floor": "floor",
    **dict.fromkeys(("is_integer", "literal", "as_fraction"), "other"),
}
MAP_METHODS = ("eval", "inverse_eval")
MAPS = tuple(f"continuous.{c}.{a}" for c in ("LinearMap", "PiecewiseMap") for a in MAP_METHODS)
HOT_FUNCTIONS = {"continuous.meeting_count", "formats.render_fraction"}
# Per-element predicates left unwrapped: a wrapper would cost several times the call.
UNWRAPPED = {"sequences.is_extnat"}

# Output sizes read off return values: function -> (counter name, size of its result).
SIZES = {
    "runner.simulate": ("runner.events", lambda log: len(log.events)),
    "sequences.invert": ("sequences.terms_out", lambda s: len(s.prefix)),
    "sequences.from_set": ("sequences.terms_out", lambda s: len(s.prefix)),
    "sequences.hat": ("sequences.terms_out", lambda s: len(s.elements)),
}


def _group(layer: str, fn_name: str) -> str:
    """Functions of `formats` are timed as parse or render; every other one by itself."""
    if layer != "formats":
        return f"{layer}.{fn_name}"
    if fn_name.startswith("parse") or fn_name.endswith("from_json"):
        return "formats.parse"
    return "formats.render"


class Tracer:
    """Collects spans, times and counts while installed; all figures are totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: Counter[str] = Counter()  # group -> self seconds
        self.outer_s: Counter[str] = Counter()  # group -> seconds in its outermost calls
        self.sizes: Counter[str] = Counter()
        self.kernel_s = [0.0]  # seconds in outermost kernel calls
        self.calls: Counter[str] = Counter()  # cold function -> calls
        self.under: Counter[tuple[str, str]] = Counter()  # (innermost cold call, hot name) -> calls
        self.op = 0
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._active: Counter[str] = Counter()  # group -> open spans
        self._next_id = 0
        self._in_kernel = [False]
        self._scope = [""]  # innermost cold call, in `counts` mode

    # --- wrappers, one kind per mode ---

    def _span(self, name: str, group: str, fn):
        stack, active, spans = self._stack, self._active, self.spans
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            active[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[group] -= 1
                dur = t1 - t0
                self.self_s[group] += dur - frame[0]
                if not active[group]:
                    self.outer_s[group] += dur
                if parent:
                    parent[0] += dur
                spans.append((self.op, frame[1], parent[1] if parent else 0, name, t0, t1))
            if size:
                self.sizes[size[0]] += size[1](result)
            return result

        return traced

    def _kernel(self, fn):
        in_kernel, total = self._in_kernel, self.kernel_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if in_kernel[0]:
                return fn(*args, **kwargs)
            in_kernel[0] = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += perf_counter() - t0
                in_kernel[0] = False

        return timed

    def _scoped(self, name: str, fn):
        scope, calls = self._scope, self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            outer, scope[0] = scope[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                scope[0] = outer

        return counted

    def _counted(self, name: str, fn):
        scope, under = self._scope, self.under

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            under[(scope[0], name)] += 1
            return fn(*args, **kwargs)

        return counted

    # --- patching ---

    def _targets(self, mode: str):
        """(owner, attribute, original, wrapped) for everything `mode` patches."""
        from lamo.continuous import LinearMap, PiecewiseMap
        from lamo.exact import ExactNumber

        if mode != "spans":
            for attr in EXACT_GROUPS:
                fn = ExactNumber.__dict__[attr]
                yield ExactNumber, attr, fn, (self._kernel(fn) if mode == "kernel"
                                              else self._counted(f"exact.{attr}", fn))
        if mode == "counts":
            for cls in (LinearMap, PiecewiseMap):
                for attr in MAP_METHODS:
                    fn = cls.__dict__[attr]
                    yield cls, attr, fn, self._counted(f"continuous.{cls.__name__}.{attr}", fn)
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"lamo.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and attr[0] != "_" and name not in UNWRAPPED):
                    continue
                hot = layer == "exact" or name in HOT_FUNCTIONS
                if mode == "spans" and not hot:
                    wrapped[id(fn)] = (fn, self._span(name, _group(layer, attr), fn))
                elif mode == "kernel" and layer == "exact":
                    wrapped[id(fn)] = (fn, self._kernel(fn))
                elif mode == "counts":
                    wrapped[id(fn)] = (fn, self._counted(name, fn) if hot
                                       else self._scoped(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "lamo" or modname.startswith("lamo."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped and wrapped[id(value)][0] is value:
                        yield mod, attr, value, wrapped[id(value)][1]

    @contextmanager
    def installed(self, mode: str):
        patches = list(self._targets(mode))
        for owner, attr, _, traced in patches:
            setattr(owner, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    # --- results ---

    def hot_calls(self, *names: str) -> int:
        return sum(n for (_, name), n in self.under.items() if name in names)

    def write(self, path: Path) -> None:
        """All spans as JSON lines, then one line with the aggregate times and counts."""
        with path.open("w") as out:
            for op, sid, parent, name, t0, t1 in self.spans:
                out.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                      "start_s": t0, "dur_ms": (t1 - t0) * 1e3}) + "\n")
            out.write(json.dumps({
                "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "outermost_ms": {k: v * 1e3 for k, v in self.outer_s.items()},
                "kernel_ms": self.kernel_s[0] * 1e3, "cold_calls": self.calls,
                "hot_calls_under": {f"{a}>{b}": n for (a, b), n in self.under.items()},
                "sizes": self.sizes}) + "\n")

    def layer_metrics(self, passes: int, elems: float) -> dict[str, float]:
        """The per-layer figures, per pass of each mode; the ratios' bases are
        `elems`, the output elements of one pass, and the calls of meeting_time."""
        outer_ms = (lambda g: self.outer_s[g] * 1e3 / passes)

        def count(*names: str) -> float:
            return self.hot_calls(*names) / passes

        def in_group(kind: str) -> list[str]:
            return [f"exact.{a}" for a, k in EXACT_GROUPS.items() if k == kind]

        constructions = count("exact.__init__")
        meetings = self.calls["runner.meeting_time"] / passes
        evals_in_meetings = sum(self.under[("runner.meeting_time", m)] for m in MAPS) / passes
        return {
            "exact.constructions": constructions,
            "exact.arith_calls": count(*in_group("arith")),
            "exact.compare_calls": count(*in_group("compare")),
            "exact.floor_calls": count(*in_group("floor")),
            "exact.self_ms": self.kernel_s[0] * 1e3 / passes,
            "exact.constructions_per_elem": constructions / elems if elems else 0.0,
            "runner.meeting_time_ms": outer_ms("runner.meeting_time"),
            "runner.meeting_time_calls": meetings,
            "runner.evals_per_meeting": evals_in_meetings / meetings if meetings else 0.0,
            "runner.simulate_self_ms": self.self_s["runner.simulate"] * 1e3 / passes,
            "runner.recorded_sets_ms": outer_ms("runner.recorded_sets"),
            "runner.events": self.sizes["runner.events"] / passes,
            "continuous.meeting_count_calls": count("continuous.meeting_count"),
            "continuous.beatty_pair_ms": outer_ms("continuous.beatty_pair"),
            "continuous.lattice_avoidance_ms": outer_ms("continuous.lattice_avoidance"),
            "continuous.corollary_sets_ms": outer_ms("continuous.corollary_sets"),
            "continuous.construct_phi_ms": outer_ms("continuous.construct_phi"),
            "continuous.map_evals": count(*MAPS),
            "sequences.invert_ms": outer_ms("sequences.invert"),
            "sequences.hat_ms": outer_ms("sequences.hat"),
            "sequences.from_set_ms": outer_ms("sequences.from_set"),
            "sequences.terms_out": self.sizes["sequences.terms_out"] / passes,
            "sequences.grid_witness_ms": outer_ms("sequences.grid_witness"),
            "sequences.check_complementary_ms": outer_ms("sequences.check_complementary"),
            "formats.parse_ms": outer_ms("formats.parse"),
            "formats.render_ms": outer_ms("formats.render"),
            "cli.self_ms": self.self_s["cli.main"] * 1e3 / passes,
        }
