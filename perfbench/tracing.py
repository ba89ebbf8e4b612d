"""Span tracing of recdiv's layers, for the benchmark's traced runs.

Each hook wraps one layer function under the names its callers look up.
Most hooks rebind every reference to the function in every loaded recdiv
module and in the module-level dicts that act as registries (such as
sieve.TABLE_BUILDERS and verify.SUITES); a hook marked only_here rebinds
one module's name, so that callers of one function can be told apart
(core.proper_divisors against tree.proper_divisors).

A hook whose module, name or registry entry no longer exists is reported
as absent, and so is every metric that needs it: absent, not zero.

Spans (name, start, end, parent) are kept in memory and written out at the
end. A span's duration leaves out the pauses the worker spent in its
reference loop inside it. A span's self time is its duration minus that of
its direct children; a name's total time counts only spans with no ancestor
of the same name.
"""

from __future__ import annotations

import importlib
from bisect import bisect_left
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder plus counters observed at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self.factorized: set[int] = set()
        self.pauses: list[tuple[int, int]] = []  # (start_ns, end_ns), ascending
        self._open: list[int] = []

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        names, starts, ends, parents, open_spans = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self._open,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("%s\t%d\t%d\t%d\n" % row)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def durations(tracer: Tracer) -> list[int]:
    """Span durations in ns, less the pauses that began inside each span."""
    pause_starts = [start for start, _ in tracer.pauses]
    paused = [0]
    for start, end in tracer.pauses:
        paused.append(paused[-1] + end - start)
    out = []
    for start, end in zip(tracer.starts, tracer.ends):
        inside = paused[bisect_left(pause_starts, end)] - paused[bisect_left(pause_starts, start)]
        out.append(end - start - inside)
    return out


def _outermost(tracer: Tracer, index: int, matches: Callable[[str], bool]) -> bool:
    parent = tracer.parents[index]
    while parent >= 0:
        if matches(tracer.names[parent]):
            return False
        parent = tracer.parents[parent]
    return True


def span_stats(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, total time (outermost spans of each name) and self time per span name."""
    spans_ns = durations(tracer)
    child_ns = [0] * len(spans_ns)
    for parent, duration in zip(tracer.parents, spans_ns):
        if parent >= 0:
            child_ns[parent] += duration
    stats: dict[str, SpanStats] = {}
    for index, name in enumerate(tracer.names):
        entry = stats.setdefault(name, SpanStats())
        entry.calls += 1
        entry.self_ns += spans_ns[index] - child_ns[index]
        if _outermost(tracer, index, name.__eq__):
            entry.total_ns += spans_ns[index]
    return stats


def group_stats(tracer: Tracer, prefix: str) -> SpanStats:
    """Calls and total time of all spans whose name starts with prefix, nesting counted once."""
    spans_ns = durations(tracer)
    group = SpanStats()
    for index, name in enumerate(tracer.names):
        if name.startswith(prefix):
            group.calls += 1
            if _outermost(tracer, index, lambda other: other.startswith(prefix)):
                group.total_ns += spans_ns[index]
    return group


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _counting(counter: str, measure: Callable) -> Callable:
    """Observer that adds measure(result) to a counter."""

    def observe(tracer: Tracer, args: tuple, result) -> None:
        tracer.add(counter, measure(result))

    return observe


def _checked(report) -> int:
    return sum(result.checked for result in report.results)


def _factorized(tracer: Tracer, args: tuple, result) -> None:
    tracer.factorized.add(args[0])


@dataclass(frozen=True)
class Hook:
    name: str  # span name, "<module>.<function>"
    module: str
    attr: str
    key: str | None = None  # entry of the module-level dict named attr
    only_here: bool = False  # rebind the name in `module` alone
    observe: Callable | None = None


CLOSEDFORMS = (
    "a_distinct_primes",
    "a_recursion",
    "a_closed",
    "b_recursion",
    "B_closed",
    "B_from_A",
)
VERIFY_SUITES = ("tables", "lemmas", "closedforms", "trees")

_sieve_bytes = _counting("sieve.bytes", lambda array: array.nbytes)
_formatted_bytes = _counting("formats.bytes_out", _text_bytes)

HOOKS = (
    *(
        Hook(f"sieve.{fn}_array", "recdiv.sieve", "TABLE_BUILDERS", key=fn, observe=_sieve_bytes)
        for fn in ("a", "b", "d", "sigma")
    ),
    Hook(
        "records.sieve_records",
        "recdiv.records",
        "sieve_records",
        observe=_counting("records.entries", lambda table: len(table.entries)),
    ),
    Hook("formats.format_table", "recdiv.formats", "format_table", observe=_formatted_bytes),
    Hook("formats.format_records", "recdiv.formats", "format_records", observe=_formatted_bytes),
    Hook("arith.factorize", "recdiv.arith", "factorize", observe=_factorized),
    Hook("arith.divisors", "recdiv.arith", "divisors"),
    *(
        Hook(f"core.{fn}", "recdiv.core", fn)
        for fn in ("profile", "a", "b", "g", "a_sized", "g_enumerated")
    ),
    Hook("core.proper_divisors", "recdiv.core", "proper_divisors", only_here=True),
    Hook("tree.proper_divisors", "recdiv.tree", "proper_divisors", only_here=True),
    Hook(
        "tree.layout",
        "recdiv.tree",
        "layout",
        observe=_counting("tree.squares", lambda tree: tree.square_count),
    ),
    Hook("tree.to_svg", "recdiv.tree", "to_svg", observe=_counting("tree.svg_bytes", _text_bytes)),
    Hook(
        "tree.self_overlap",
        "recdiv.tree",
        "self_overlap",
        observe=_counting("tree.overlap_pairs", len),
    ),
    *(Hook(f"closedforms.{fn}", "recdiv.closedforms", fn) for fn in CLOSEDFORMS),
    *(
        Hook(
            f"verify.{suite}",
            "recdiv.verify",
            f"verify_{suite}",
            observe=_counting("verify.checks", _checked),
        )
        for suite in VERIFY_SUITES
    ),
)

# Pseudo-hook reported absent when recdiv.core has no functools caches left.
CORE_CACHES = "core.caches"

_MISSING = object()


def _resolve(hook: Hook):
    try:
        module = importlib.import_module(hook.module)
    except ImportError:
        return None, _MISSING
    target = getattr(module, hook.attr, _MISSING)
    if hook.key is not None:
        target = target.get(hook.key, _MISSING) if isinstance(target, dict) else _MISSING
    return module, target if callable(target) else _MISSING


def _rebind_everywhere(original, replacement) -> None:
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "recdiv"]
    for module in modules:
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if value is original:
                setattr(module, name, replacement)
            elif type(value) is dict:
                for key, entry in value.items():
                    if entry is original:
                        value[key] = replacement


def install(tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS) -> list[str]:
    """Wrap every hook that resolves; return the names of those that do not."""
    resolved = [(hook, *_resolve(hook)) for hook in hooks]
    absent = [hook.name for hook, _, target in resolved if target is _MISSING]
    for hook, module, target in resolved:
        if target is _MISSING:
            continue
        wrapper = tracer.wrap(hook.name, target, hook.observe)
        if hook.only_here:
            setattr(module, hook.attr, wrapper)
        else:
            _rebind_everywhere(target, wrapper)
    return absent


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...] = ()  # hooks whose absence makes the metric absent


def _timed(span: str, stat: str = "s") -> Metric:
    return Metric(f"{span}.{stat}", "s", "lower", (span,))


SIEVE_HOOKS = tuple(f"sieve.{fn}_array" for fn in ("a", "b", "d", "sigma"))
CLOSEDFORM_HOOKS = tuple(f"closedforms.{fn}" for fn in CLOSEDFORMS)
VERIFY_HOOKS = tuple(f"verify.{suite}" for suite in VERIFY_SUITES)
FORMAT_HOOKS = ("formats.format_table", "formats.format_records")

# Overhead of tracing, filled in by the runner from paired passes.
OVERHEAD = Metric("trace.overhead_s", "s", "lower")

PER_LAYER = (
    *(_timed(hook) for hook in SIEVE_HOOKS),
    Metric("sieve.bytes", "bytes_computed", "lower", SIEVE_HOOKS),
    _timed("records.sieve_records"),
    Metric("records.self_s", "s", "lower", ("records.sieve_records",)),
    Metric("records.entries", "count", "lower", ("records.sieve_records",)),
    _timed("formats.format_table"),
    _timed("formats.format_records"),
    Metric("formats.bytes_out", "bytes", "lower", FORMAT_HOOKS),
    Metric("arith.factorize.calls", "count", "lower", ("arith.factorize",)),
    _timed("arith.factorize", "self_s"),
    Metric("arith.factorize.distinct_ratio", "ratio", "higher", ("arith.factorize",)),
    Metric("arith.divisors.calls", "count", "lower", ("arith.divisors",)),
    _timed("arith.divisors", "self_s"),
    *(_timed(f"core.{fn}") for fn in ("profile", "a", "b", "g", "a_sized", "g_enumerated")),
    Metric("core.proper_divisors.calls", "count", "lower", ("core.proper_divisors",)),
    Metric("core.cache_entries", "count", "lower", (CORE_CACHES,)),
    Metric("core.cache_hit_ratio", "ratio", "higher", (CORE_CACHES,)),
    Metric("tree.proper_divisors.calls", "count", "lower", ("tree.proper_divisors",)),
    *(_timed(f"tree.{fn}") for fn in ("layout", "to_svg", "self_overlap")),
    Metric("tree.squares", "count", "lower", ("tree.layout",)),
    Metric("tree.overlap_pairs", "count", "lower", ("tree.self_overlap",)),
    Metric("tree.svg_bytes", "bytes", "lower", ("tree.to_svg",)),
    Metric("closedforms.calls", "count", "lower", CLOSEDFORM_HOOKS),
    Metric("closedforms.s", "s", "lower", CLOSEDFORM_HOOKS),
    *(_timed(hook) for hook in VERIFY_HOOKS),
    Metric("verify.checks", "count", "lower", VERIFY_HOOKS),
    Metric("cli.self_s", "s", "lower"),
    OVERHEAD,
)


def _core_caches() -> list:
    core = sys.modules.get("recdiv.core")
    if core is None:
        return []
    return [value for value in vars(core).values() if callable(getattr(value, "cache_info", None))]


def layer_values(tracer: Tracer, absent: list[str]) -> dict[str, float | None]:
    """Every per-layer metric except the overhead; None marks an absent one."""
    stats = span_stats(tracer)
    values: dict[str, float] = dict(tracer.counters)
    for name, entry in stats.items():
        values[f"{name}.calls"] = entry.calls
        values[f"{name}.s"] = entry.total_ns / 1e9
        values[f"{name}.self_s"] = entry.self_ns / 1e9
    values["records.self_s"] = values.get("records.sieve_records.self_s", 0.0)
    values["cli.self_s"] = values.get(f"{CLI_SPAN}.self_s", 0.0)
    calls = values.get("arith.factorize.calls", 0)
    values["arith.factorize.distinct_ratio"] = len(tracer.factorized) / calls if calls else 0.0
    closed = group_stats(tracer, "closedforms.")
    values["closedforms.calls"] = closed.calls
    values["closedforms.s"] = closed.total_ns / 1e9

    absent = list(absent)
    caches = [fn.cache_info() for fn in _core_caches()]
    if caches:
        hits = sum(info.hits for info in caches)
        lookups = hits + sum(info.misses for info in caches)
        values["core.cache_entries"] = sum(info.currsize for info in caches)
        values["core.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    else:
        absent.append(CORE_CACHES)

    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        if metric is OVERHEAD:
            continue
        missing = any(hook in absent for hook in metric.needs)
        out[metric.name] = None if missing else values.get(metric.name, 0)
    return out
