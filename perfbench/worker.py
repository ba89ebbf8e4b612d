"""One benchmark pass in a fresh process: import recdiv, run CLI ops, report.

Usage: python3 worker.py JOB_JSON START_MONOTONIC

The runner reads START_MONOTONIC from time.monotonic() just before it starts
this process. CLOCK_MONOTONIC is system-wide, so setup_s spans process start,
interpreter start-up and `import recdiv`. Each op is one in-process call of
recdiv.cli.main(argv) with stdout and stderr captured in buffers. The job
names the checkout's src directory, which must be where recdiv is imported
from. With "trace" set, the layer hooks of perfbench.tracing are installed
after set-up and the spans are written to "spans_path".

The worker also times a fixed reference loop: once right after set-up,
once before the first op and once after the last, and every REF_EVERY_S
from a SIGALRM handler, in the middle of ops too. An op's latency excludes
the handler's time, and so does every span of a traced pass; the op's
reference time is the mean of the loops run during it and of the last one
before and the first one after it. The runner divides by it to take the
machine's momentary speed out of the op's time.

The result JSON goes to the job's "result_path", never to stdout.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

REF_ITERATIONS = 100_000
REF_EVERY_S = 0.2


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small-integer arithmetic."""
    began = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - began


class Reference:
    """Start and end times of every run of the reference loop."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []

    def sample(self, *signal_args) -> None:
        began = time.perf_counter()
        self.runs.append((began, began + reference_loop()))

    def around(self, t0: float, t1: float) -> tuple[float, float]:
        """Loop time inside [t0, t1], and the mean loop time of the runs around it."""
        inside = [(a, b) for a, b in self.runs if t0 <= a and b <= t1]
        before = [run for run in self.runs if run[1] <= t0][-1:]
        after = [run for run in self.runs if run[0] >= t1][:1]
        window = before + inside + after
        return sum(b - a for a, b in inside), sum(b - a for a, b in window) / len(window)


def run_ops(main, ops: list[list[str]]) -> tuple[list[dict], Reference]:
    """Call main(argv) for each op; return per-op records and the reference runs."""
    reference = Reference()
    reference.sample()
    results, spans = [], []
    previous = signal.signal(signal.SIGALRM, reference.sample)
    signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    try:
        for argv in ops:
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a failed op counts against error_rate; the pass goes on
                error = f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            results.append(
                {
                    "code": code,
                    "error": error,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue()[-2000:],
                }
            )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    reference.sample()
    for record, (t0, t1) in zip(results, spans):
        paused, ref_s = reference.around(t0, t1)
        record["latency_s"] = t1 - t0 - paused
        record["ref_s"] = ref_s
    return results, reference


def main() -> None:
    start = float(sys.argv[2])
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["src"])
    sys.path.insert(0, str(src))
    import recdiv.cli

    setup_s = time.monotonic() - start
    setup_ref_s = reference_loop()
    loaded_from = Path(recdiv.cli.__file__).resolve().parent
    if loaded_from != (src / "recdiv").resolve():
        raise SystemExit(f"imported recdiv from {loaded_from}, expected {src / 'recdiv'}")

    tracer, absent = None, []
    if job["trace"]:
        sys.path.insert(1, job["root"])
        from perfbench import tracing

        tracer = tracing.Tracer()
        absent = tracing.install(tracer)
        recdiv.cli.main = tracer.wrap(tracing.CLI_SPAN, recdiv.cli.main)
    ops, reference = run_ops(recdiv.cli.main, job["ops"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": peak_kib / 1024,
        "ops": ops,
    }
    if tracer is not None:
        tracer.pauses = [(round(a * 1e9), round(b * 1e9)) for a, b in reference.runs]
        result["layers"] = tracing.layer_values(tracer, absent)
        tracer.write_spans(Path(job["spans_path"]))
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
