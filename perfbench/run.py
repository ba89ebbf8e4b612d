"""Benchmark runner for recdiv's CLI: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,eval,trees,verify} --seed N \\
        --seconds S --trace {0,1}

A run is a sequence of passes. Each pass is a fresh worker process
(perfbench/worker.py) that imports recdiv from ./src and executes the
workload's generated argv lists through recdiv.cli.main, so no functools
cache survives from one pass into the next. Passes are started, one at a
time, while the next one is expected to fit in --seconds; pass k's inputs
come from (workload, seed, k). One unmeasured worker start compiles
bytecode first; before each pass, PROBES_PER_PASS workers measure set-up
alone, and setup_s is the median over every worker start of the run.

With --trace 0 the last line reports the end-to-end metrics, measured with
tracing off: setup_s, the median over worker starts of the time from process
start until `import recdiv` is done; wall_s, the median over passes of the
summed op times; op_p50_ms, the median over passes of the median op time;
op_tail_ms, the highest percentile with at least ten of one pass's ops above
it, taken over the ops of all passes (when a pass has fewer than 11 ops,
the median over passes of the slowest op); peak_rss_mb, the median over
passes of the worker's peak RSS. The error rate is printed, and the result
line carries it as failed/attempted.

With --trace 1 each pass runs twice with the same inputs, untraced then
traced; the last line reports the per-layer metrics of the traced passes
and the tracing overhead (traced minus untraced wall time). A layer that
the workload never calls reports 0; one whose hook is missing is absent.
Every op's output is checked after the passes; a rejected output, an
exception or a nonzero exit code counts as a failed op.

Times are scaled by the machine's momentary speed. On a shared virtual
machine the speed of plain Python code drifts by a third and more within
a minute, which no number of repeats inside a run averages away. Each
worker therefore times a fixed reference loop next to its ops (see
worker.py), and every time reported is seconds * REF_NOMINAL_S / (the
loop's time then): the time the work would take on a machine that runs
the loop in REF_NOMINAL_S. The unscaled times are printed alongside.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Working files go to
.perfbench_out/<workload>/ and are replaced by the next run of the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.tracing import OVERHEAD, PER_LAYER, Metric  # noqa: E402

SRC = ROOT / "src"
WORKER = ROOT / "perfbench" / "worker.py"
OUT_ROOT = ROOT / ".perfbench_out"

# Every reported time is scaled to a machine that runs the worker's reference
# loop in REF_NOMINAL_S: seconds * REF_NOMINAL_S / (loop time measured next to
# them). On a 2-vCPU x86-64 VM with Python 3.11 the loop takes 6.5 ms when no
# other load slows the machine, and up to about 10 ms when it does.
REF_NOMINAL_S = 0.0065

# Set-up-only worker starts before each pass; spread over the run, they see
# the same share of slow and fast periods of the machine as the passes do.
PROBES_PER_PASS = 2
# Passes stop starting after this many seconds and a worker is stopped at
# WORKER_DEADLINE_S, so that checking still ends well inside 180 s.
LAST_PASS_START_S = 110.0
WORKER_DEADLINE_S = 140.0

WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("op_p50_ms", "ms", "lower"),
    Metric("op_tail_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten of `count` samples above it.

    Uses the nearest-rank definition; None when there are fewer than 11
    samples, so that no percentile below the maximum qualifies.
    """
    if count < 11:
        return None
    return 100 * (count - 10) // count


def nearest_rank(values: list[float], percent: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


@dataclass
class Pass:
    index: int
    traced: bool
    ops: list
    out_dir: Path
    result: dict | None = None  # the worker's report; None if the worker failed
    rejected: list[str] = field(default_factory=list)


def git_commit(root: Path) -> str | None:
    """HEAD's commit from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def start_worker(job: dict, job_path: Path, timeout: float) -> dict | None:
    """Run one worker to completion; return its report, or None if it failed."""
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result_path"])
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **WORKER_ENV)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(job_path), repr(start)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:  # stop the worker on a timeout, an interrupt or SIGTERM
        proc.kill()
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"worker stopped after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited with {proc.returncode}: {err.strip()[-1000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.out = OUT_ROOT / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.began = time.monotonic()
        self.setups: list[tuple[float, float]] = []  # (set-up seconds, reference seconds)

    def worker(self, name: str, ops: list, traced: bool, out_dir: Path) -> dict | None:
        job = {
            "src": str(SRC),
            "root": str(ROOT),
            "ops": [[arg.replace(workloads.OUT, str(out_dir)) for arg in op.argv] for op in ops],
            "trace": traced,
            "result_path": str(self.out / f"{name}.result.json"),
            "spans_path": str(self.out / f"{name}.spans.tsv"),
        }
        remaining = WORKER_DEADLINE_S - (time.monotonic() - self.began)
        return start_worker(job, self.out / f"{name}.job.json", remaining)

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            result = self.worker("probe", [], False, self.out)
            if result is not None:
                self.setups.append((result["setup_s"], result["setup_ref_s"]))

    def run_pass(self, index: int, ops: list, traced: bool) -> Pass:
        name = f"pass{index}{'t' if traced else ''}"
        out_dir = self.out / name
        out_dir.mkdir()
        run = Pass(index, traced, ops, out_dir)
        run.result = self.worker(name, ops, traced, out_dir)
        if run.result is not None:
            self.setups.append((run.result["setup_s"], run.result["setup_ref_s"]))
        return run

    def run_passes(self) -> list[Pass]:
        self.worker("warmup", [], False, self.out)
        passes: list[Pass] = []
        began = time.monotonic()
        index = 0
        while True:
            ops = workloads.generate(self.workload, self.seed, index)
            if index == 0:
                print(f"inputs per pass: {json.dumps(workloads.class_counts(ops))}")
            self.probe_setup(PROBES_PER_PASS)
            passes.append(self.run_pass(index, ops, traced=False))
            if self.trace:
                passes.append(self.run_pass(index, ops, traced=True))
            index += 1
            elapsed = time.monotonic() - began
            if any(p.result is None for p in passes) or elapsed + elapsed / index > self.seconds:
                break
            if time.monotonic() - self.began > LAST_PASS_START_S:
                break
        return passes

    def check(self, passes: list[Pass]) -> None:
        from perfbench.checks import Checker

        max_n = max((op.n or 0) for run in passes for op in run.ops)
        checker = Checker(self.workload, self.seed, max_n)
        for run in passes:
            if run.result is None:
                run.rejected = [f"pass {run.index}: worker failed"] * len(run.ops)
            else:
                for op, record in zip(run.ops, run.result["ops"]):
                    reason = checker.check(op, run.out_dir, record)
                    if reason is not None:
                        run.rejected.append(reason)
            shutil.rmtree(run.out_dir, ignore_errors=True)


def scaled(seconds: float, ref_s: float) -> float:
    """Seconds at the reference speed, from seconds taken while the loop took ref_s."""
    return seconds * REF_NOMINAL_S / ref_s


def pass_wall(result: dict, scale: bool = True) -> float:
    ops = result["ops"]
    if scale:
        return sum(scaled(op["latency_s"], op["ref_s"]) for op in ops)
    return sum(op["latency_s"] for op in ops)


def latency_summary(passes: list[list[float]]) -> tuple[float, float, str, int]:
    """Median and tail latency of the ops of a run, given per pass.

    The median is the median over passes of each pass's median. The tail
    percentile follows from the number of ops in one pass, and is taken
    over the ops of all passes together. A pass too small for a percentile
    contributes its slowest op, and the tail is the median of those.
    """
    p50 = statistics.median(statistics.median(latencies) for latencies in passes)
    pooled = [latency for latencies in passes for latency in latencies]
    percent = tail_percentile(len(passes[0]))
    if percent is None:
        return p50, statistics.median(max(latencies) for latencies in passes), "max", 0
    tail = nearest_rank(pooled, percent)
    return p50, tail, f"p{percent}", sum(latency > tail for latency in pooled)


def end_to_end(runs: list[Pass], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Values and a description of each end-to-end metric from untraced passes."""
    results = [run.result for run in runs]
    per_pass = len(runs[0].ops)
    ops = [op for r in results for op in r["ops"]]
    p50, tail, label, beyond = latency_summary(
        [[scaled(op["latency_s"], op["ref_s"]) * 1e3 for op in r["ops"]] for r in results]
    )
    raw_p50, raw_tail, _, _ = latency_summary(
        [[op["latency_s"] * 1e3 for op in r["ops"]] for r in results]
    )
    if label == "max":
        tail_note = f"median over {len(results)} passes of the slowest of {per_pass} ops"
    else:
        tail_note = f"{label} of {len(ops)} ops ({per_pass} per pass), {beyond} beyond"
    values = {
        "setup_s": statistics.median(scaled(raw, ref) for raw, ref in setups),
        "wall_s": statistics.median(pass_wall(r) for r in results),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    raw_setup = statistics.median(raw for raw, _ in setups)
    raw_wall = statistics.median(pass_wall(r, scale=False) for r in results)
    notes = {
        "setup_s": f"median of {len(setups)} worker starts; unscaled {raw_setup:.4g} s",
        "wall_s": f"median of {len(results)} passes; unscaled {raw_wall:.4g} s",
        "op_p50_ms": f"median of {len(results)} pass medians of {per_pass} ops; "
        f"unscaled {raw_p50:.4g} ms",
        "op_tail_ms": f"{tail_note}; unscaled {raw_tail:.4g} ms",
        "peak_rss_mb": f"median of {len(results)} passes",
    }
    return values, notes


def per_layer(pairs: list[tuple[Pass, Pass]]) -> tuple[dict, dict]:
    """Medians of each per-layer metric over traced passes, plus the tracing overhead.

    A traced pass's times are scaled by the median reference time of its ops.
    """
    values: dict[str, float | None] = {}
    notes: dict[str, str] = {}
    for metric in PER_LAYER:
        if metric is OVERHEAD:
            samples = [pass_wall(t.result) - pass_wall(u.result) for u, t in pairs]
        else:
            samples = []
            for _, traced in pairs:
                value = traced.result["layers"][metric.name]
                if value is not None and metric.unit == "s":
                    ref_s = statistics.median(op["ref_s"] for op in traced.result["ops"])
                    value = scaled(value, ref_s)
                samples.append(value)
        if any(sample is None for sample in samples):
            values[metric.name] = None
            notes[metric.name] = "absent: its hook is missing"
        else:
            values[metric.name] = statistics.median(samples)
            notes[metric.name] = f"median of {len(samples)} traced passes"
    return values, notes


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "git": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "recdiv" / "__init__.py").is_file():
        print(f"error: no recdiv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = provenance(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"provenance: {json.dumps(prov)}")
    passes = runner.run_passes()
    runner.check(passes)

    attempted = sum(len(run.ops) for run in passes)
    failed = sum(len(run.rejected) for run in passes)
    for run in passes:
        for reason in run.rejected[:3]:
            print(f"rejected: {reason}", file=sys.stderr)
    untraced = [run for run in passes if not run.traced and run.result is not None]
    if not untraced or not runner.setups:
        print("error: no pass completed; nothing to report", file=sys.stderr)
        return 1
    for run in passes:
        if run.result is not None:
            print(
                f"pass {run.index}{' traced' if run.traced else ''}: "
                f"wall {pass_wall(run.result):.3f} s "
                f"(unscaled {pass_wall(run.result, scale=False):.3f} s), {len(run.ops)} ops, "
                f"{len(run.rejected)} rejected, "
                f"peak rss {run.result['peak_rss_mb']:.1f} MB"
            )

    values, notes = end_to_end(untraced, runner.setups)
    units = {m.name: m.unit for m in END_TO_END}
    reported = [m.name for m in END_TO_END]
    if args.trace:
        traced = {run.index: run for run in passes if run.traced and run.result is not None}
        pairs = [(run, traced[run.index]) for run in untraced if run.index in traced]
        if not pairs:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        layer_values, layer_notes = per_layer(pairs)
        values.update(layer_values)
        notes.update(layer_notes)
        units.update({m.name: m.unit for m in PER_LAYER})
        reported = [m.name for m in PER_LAYER]
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g} {units[name]}"
        print(f"metric {name} = {shown}  [{notes[name]}]")
    error_rate = failed / attempted
    print(f"metric error_rate = {error_rate:.6g}  [{failed} failed of {attempted} ops]")

    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in reported
        if values[name] is not None
    }
    record = {"provenance": prov, "error_rate": error_rate, "notes": notes, "metrics": metrics}
    (runner.out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
