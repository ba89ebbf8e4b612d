"""Tests of the benchmark itself: generator, checkers, tail rule, tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import recdiv
from recdiv import cli, formats, golden
from recdiv.records import ALL_KINDS, RecordEntry, RecordKind, RecordTable

from perfbench import checks, run, tracing, worker, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    for index in (0, 3):
        assert workloads.generate(workload, 7, index) == workloads.generate(workload, 7, index)


def test_generator_classes_and_seeds():
    eval_ops = workloads.generate("eval", 1, 0)
    assert workloads.class_counts(eval_ops) == {"uniform": 750, "smooth": 150, "semiprime": 100}
    assert eval_ops != workloads.generate("eval", 2, 0)
    assert eval_ops != workloads.generate("eval", 1, 1)
    for op in eval_ops:
        assert op.argv == ("eval", str(op.n))
        if op.kind == "semiprime":
            p = next(d for d in range(10**4, 10**5) if op.n % d == 0)
            assert workloads.is_prime(p) and workloads.is_prime(op.n // p)
    tree_ops = workloads.generate("trees", 1, 0)
    assert workloads.class_counts(tree_ops) == {"small": 150, "large": 3}
    for op in tree_ops:
        small = op.kind == "small"
        assert (recdiv.a(op.n) < 10**4) == small
        assert small or 10**4 <= recdiv.a(op.n) <= 5 * 10**4


def test_generator_number_theory_matches_recdiv():
    members = workloads.hardy_ramanujan(lambda n, _: n <= 10**4)
    for n, exps in members:
        assert workloads.square_count(exps) == recdiv.a(n)
        assert workloads.divisor_count(exps) == recdiv.d(n)
    assert workloads.square_counts_upto(300)[1:] == [recdiv.a(n) for n in range(1, 301)]


def test_tail_percentile_rule():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(153) == 93
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(10) is None
    samples = list(range(1, 1001))
    tail = run.nearest_rank(samples, run.tail_percentile(1000))
    assert tail == 990 and sum(s > tail for s in samples) == 10


def test_reference_pause_and_window():
    reference = worker.Reference()
    reference.runs = [(0.0, 0.01), (0.5, 0.52), (0.7, 0.71), (1.2, 1.21), (1.3, 1.31)]
    paused, ref_s = reference.around(0.4, 1.0)
    assert paused == pytest.approx(0.03)
    assert ref_s == pytest.approx((0.01 + 0.02 + 0.01 + 0.01) / 4)
    assert run.scaled(2.0, 2 * run.REF_NOMINAL_S) == pytest.approx(1.0)


def _cli_stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("n", [1, 96, 30030, 999983 * 1000003])
def test_eval_checker_accepts_real_output(n):
    assert checks.check_eval(n, _cli_stdout(["eval", str(n)])) is None


@pytest.mark.parametrize(
    "old, new",
    [("b=768", "b=769"), ("a=224", "a=226"), ("B=8", "B=9"), ("2^5 * 3", "2^4 * 3 * 2")],
)
def test_eval_checker_rejects_a_wrong_line(old, new):
    text = _cli_stdout(["eval", "96"])
    assert old in text
    assert checks.check_eval(96, text.replace(old, new)) is not None


def _golden_records_csv() -> str:
    kinds = {}
    for kind, ns in (
        (RecordKind.RHC, [n for n, _, _ in golden.RHC_RECORDS]),
        (RecordKind.RSA, golden.RSA_RECORDS),
        (RecordKind.HC, [n for n, _ in golden.HC_RECORDS]),
        (RecordKind.SA, golden.SA_RECORDS),
    ):
        for n in ns:
            kinds[n] = kinds.get(n, RecordKind(0)) | kind
    entries = []
    for n in sorted(kinds):
        fac = recdiv.factorize(n)
        tau = fac.max_exponent
        a, b = recdiv.a(n), recdiv.b(n)
        d, sigma = recdiv.d(n), recdiv.sigma(n)
        entries.append(RecordEntry(n, fac, kinds[n], a, b, d, sigma, tau, a >> tau))
    table = RecordTable(10**6, ALL_KINDS, tuple(entries))
    return formats.format_records(table, formats.ExportFormat.CSV)


def test_records_checker_rejects_corrupted_csv():
    text = _golden_records_csv()
    assert checks.check_records_csv(text) is None
    lines = text.splitlines(keepends=True)
    dropped = "".join(lines[:10] + lines[11:])
    assert checks.check_records_csv(dropped) is not None
    row = lines[20].split(",")
    row[3] = str(int(row[3]) + 2)
    assert checks.check_records_csv("".join(lines[:20] + [",".join(row)] + lines[21:])) is not None
    assert checks.check_records_csv(text.replace("RHC|RSA", "RSA", 1)) is not None


def test_tree_and_verify_checkers(tmp_path):
    svg = tmp_path / "t.svg"
    stdout = _cli_stdout(["tree", "96", "-o", str(svg), "--check-overlap"])
    reference = checks.TreeReference(100)
    assert reference.check(96, svg.read_text(), stdout) is None
    assert reference.check(90, svg.read_text(), stdout) is not None
    assert reference.check(96, svg.read_text(), stdout.replace("224", "225")) is not None
    report = _cli_stdout(["verify", "tables"])
    assert checks.check_verify("tables", report) is None
    assert checks.check_verify("tables", report.replace("PASS suite", "FAIL suite")) is not None


def test_missing_hook_is_absent_not_zero():
    tracer = tracing.Tracer()
    hooks = (
        tracing.Hook("sieve.a_array", "recdiv.sieve", "NO_SUCH_REGISTRY", key="a"),
        tracing.Hook("core.b", "recdiv.no_such_module", "b"),
        tracing.Hook("arith.divisors", "recdiv.arith", "no_such_function"),
    )
    absent = tracing.install(tracer, hooks)
    assert absent == ["sieve.a_array", "core.b", "arith.divisors"]
    values = tracing.layer_values(tracer, absent)
    assert values["sieve.a_array.s"] is None and values["sieve.bytes"] is None
    assert values["core.b.s"] is None and values["arith.divisors.calls"] is None
    assert values["sieve.b_array.s"] == 0 and values["core.a.s"] == 0


def test_span_stats_self_time_and_nesting():
    tracer = tracing.Tracer()
    for name, start, end, parent in (
        ("cli.main", 0, 100, -1),
        ("core.a", 10, 60, 0),
        ("arith.factorize", 20, 30, 1),
        ("core.a", 35, 45, 1),
        ("arith.factorize", 70, 80, 0),
    ):
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    stats = tracing.span_stats(tracer)
    assert (stats["cli.main"].self_ns, stats["cli.main"].total_ns) == (40, 100)
    assert (stats["core.a"].calls, stats["core.a"].total_ns, stats["core.a"].self_ns) == (2, 50, 40)
    assert (stats["arith.factorize"].calls, stats["arith.factorize"].total_ns) == (2, 20)
    tracer.pauses = [(22, 25), (46, 48), (85, 90)]
    stats = tracing.span_stats(tracer)
    assert (stats["cli.main"].self_ns, stats["cli.main"].total_ns) == (35, 90)
    assert (stats["core.a"].self_ns, stats["core.a"].total_ns) == (38, 45)
    assert stats["arith.factorize"].self_ns == 17


def test_traced_worker_reports_layers(tmp_path):
    job = {
        "src": str(ROOT / "src"),
        "root": str(ROOT),
        "ops": [
            ["eval", "96"],
            ["table", "b", "200", "--format", "json", "-o", str(tmp_path / "b.json")],
        ],
        "trace": True,
        "result_path": str(tmp_path / "result.json"),
        "spans_path": str(tmp_path / "spans.tsv"),
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(tmp_path / "job.json")]
    subprocess.run(worker + [repr(time.monotonic())], check=True, timeout=60)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [op["code"] for op in result["ops"]] == [0, 0]
    assert all(op["latency_s"] > 0 and op["ref_s"] > 0 for op in result["ops"])
    layers = result["layers"]
    assert set(layers) == {m.name for m in tracing.PER_LAYER} - {tracing.OVERHEAD.name}
    assert layers["core.profile.s"] > 0 and layers["sieve.b_array.s"] > 0
    assert layers["sieve.bytes"] == 8 * 201
    assert layers["formats.bytes_out"] == (tmp_path / "b.json").stat().st_size
    assert layers["core.proper_divisors.calls"] > 0 and layers["core.cache_entries"] > 0
    spans = (tmp_path / "spans.tsv").read_text().splitlines()
    assert spans[0] == "name\tstart_ns\tend_ns\tparent" and len(spans) > 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.PER_LAYER
    ]
