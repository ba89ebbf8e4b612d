#!/usr/bin/env python3
"""The process-level checks: guard exit codes, time bounds, memory limits and
the largest runs, one row per command.

Usage: python scripts/ci_checks.py

Tier-1 calls recdiv.cli.main in process; each row here runs one whole
process and checks its exit code, its stdout against a pattern (re.search),
its time under a coreutils `timeout N` prefix (exit 124 when it runs out)
and, where a row names one, its peak RSS. Nothing has to be installed: a
child runs `sys.executable -m recdiv`, or a script, with this checkout's
src on PYTHONPATH. The rows run in table order in one temporary directory,
which receives every file they write (perfbench/run.py also keeps its
working files in the git-ignored .perfbench_out/), and each row's stdout
and stderr go to <name>.out and <name>.err there, so a later `python -c`
row can check what an earlier one wrote. One line per row is printed, PASS
or FAIL with the row's name and what went wrong; the exit code is 1 if any
row failed.

Two constraints keep each memory reading that of its own child:
- The peak is read with os.wait4 on that child's pid, which also covers the
  process `timeout` waited for. In a long-lived runner RUSAGE_CHILDREN is
  the maximum over every earlier child: after `tree 70560` it reads 152 MB
  for each later check. communicate() would reap the child and lose its
  rusage, so its output goes to files and wait4 reaps it.
- The runner stays lean: it imports neither numpy nor recdiv and never
  loads an output file itself. A child's ru_maxrss starts from its
  parent's RSS high-water mark; `table sigma 10^7` read 307 MB under a
  runner that had parsed the 10^6-row JSON and 109 MB under a lean one.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import isqrt, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
ENV = dict(os.environ, PYTHONPATH=PYTHONPATH)


@dataclass(frozen=True)
class Check:
    """One command, its expected exit code, a pattern its stdout must contain,
    a time limit in seconds and an optional peak-RSS limit in MB."""

    name: str
    argv: tuple[str, ...]
    timeout: int
    code: int = 0
    stdout: str = ""
    rss_mb: int | None = None


def recdiv(*args: object) -> tuple[str, ...]:
    return (sys.executable, "-m", "recdiv", *map(str, args))


def python(*args: object) -> tuple[str, ...]:
    return (sys.executable, *map(str, args))


def last(text: str) -> str:
    """The last line of stdout is exactly text."""
    return rf"(?m)^{re.escape(text)}\n\Z"


def exactly(text: str) -> str:
    return rf"\A{re.escape(text)}\Z"


EMPTY = exactly("")


def odd_primes_to(limit: int) -> list[int]:
    """The odd primes up to limit, by trial division."""
    return [p for p in range(3, limit + 1, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def eval_power_of_two(c: int) -> str:
    """eval 2^c prints a = 2^c and, last, A = 1 and B = (c + 2)/2."""
    return rf"(?ms)^a={2**c} .*^A=1 B={(c + 2) // 2}\n\Z"


BOUNDED_CACHES = """
import sys
from recdiv import b
from recdiv.closedforms import PrimePowerShape, b_recursion
for k in range(1501):
    if b(2**k) != 2**k * (k + 2) // 2:
        sys.exit(f"b(2^{k}) is not 2^{k}·{k + 2}/2")
if b_recursion(PrimePowerShape.of((2, 4000))) != 2**3999 * 4002:
    sys.exit("b_recursion of 2^4000 is not 2^3999·4002")
"""

LATTICE_16_PRIMES = """
import sys
from fractions import Fraction
from math import prod
from recdiv import b
from recdiv.arith import is_prime
from recdiv.closedforms import B_from_A
n = prod(p for p in range(2, 54) if is_prime(p))
if B_from_A(n) != Fraction(b(n), n):
    sys.exit("B_from_A of the 16-prime primorial is not b(n)/n")
"""

RECORDS24_LINES = """
import sys
with open("records24.csv") as fh:
    rows = fh.read().splitlines()
if len(rows) != 941:
    sys.exit(f"records24.csv: expected a header and 940 entries, got {len(rows)} lines")
"""

TABLE_B_GOLDEN = """
import json
import sys
from recdiv import golden
from recdiv.sieve import table_array
values = table_array("b", 10**6)[1:].tolist()
if tuple(values[:96]) != golden.B_FIRST_96:
    sys.exit("sieve.table_array('b', 10**6) does not start with golden.B_FIRST_96")
rows = [{"n": n, "b": v} for n, v in enumerate(values, start=1)]
expected = (json.dumps(rows, separators=(",", ":")) + "\\n").encode("ascii")
with open("table_b.json", "rb") as fh:
    if fh.read() != expected:
        sys.exit("table_b.json differs from json.dumps over sieve.table_array('b', 10**6)")
"""

TABLE_B7_TAIL = """
import sys
from recdiv import b
tail = b'{"n":10000000,"b":%d}]\\n' % b(10**7)
with open("table_b7.json", "rb") as fh:
    fh.seek(-len(tail), 2)
    last = fh.read()
if last != tail:
    sys.exit(f"table_b7.json ends with {last!r}, expected {tail!r}")
"""

TABLE_SIGMA7_ENDS = """
import sys
from recdiv.arith import factorize, sigma_of
want = [b"n,sigma\\n"] + [b"%d,%d\\n" % (n, sigma_of(factorize(n))) for n in range(1, 97)]
tail = b"10000000,%d\\n" % sigma_of(factorize(10**7))
with open("table_sigma7.csv", "rb") as fh:
    head = [fh.readline() for _ in want]
    fh.seek(-len(tail), 2)
    last = fh.read()
if head != want:
    sys.exit("table_sigma7.csv: rows 1-96 are not sigma of 1..96")
if last != tail:
    sys.exit(f"table_sigma7.csv ends with {last!r}, expected {tail!r}")
"""

TRACED_RESULTS = """
import json
import sys
with open(sys.argv[1]) as fh:
    names = [metric["name"] for metric in json.load(fh)["per_layer"]]
for workload in ("sweep", "verify"):
    with open(f"traced-{workload}.out") as fh:
        lines = fh.read().splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.exit(f"traced {workload}: the last line is not JSON: {last[:200]!r}")
    if not isinstance(result, dict) or result.get("failed") != 0:
        sys.exit(f"traced {workload}: expected failed == 0, got {last[:200]!r}")
    missing = [name for name in names if name not in result.get("metrics", {})]
    if missing:
        sys.exit(f"traced {workload}: per-layer metrics missing from the result: {missing}")
"""


def traced(workload: str) -> tuple[str, ...]:
    run = ROOT / "perfbench" / "run.py"
    return python(run, "--workload", workload, "--seed", 1, "--seconds", 5, "--trace", 1)


CHECKS = (
    # The guards with no flags: verify lemmas and verify closedforms are
    # refused their 8e8-byte sieve before any other work (exit 4), and a
    # bound the sieve admits but their work budgets do not (exit 6); verify
    # records one past its reference data is a usage error (exit 2), and so
    # are a tree style SVG forbids, a sieve budget that admits no work and an
    # unknown record kind after `all`, each with nothing on stdout. argparse's
    # own exits, checked here at the process level: no command and eval with
    # no n exit 2 with nothing on stdout, and --help exits 0 with the usage on
    # stdout.
    Check("verify-lemmas-1e8", recdiv("verify", "lemmas", 10**8), 10, code=4),
    Check("verify-closedforms-1e8", recdiv("verify", "closedforms", 10**8), 10, code=4),
    Check("verify-lemmas-4e7", recdiv("verify", "lemmas", 4 * 10**7), 10, code=6),
    Check("verify-closedforms-4e7", recdiv("verify", "closedforms", 4 * 10**7), 10, code=6),
    Check("verify-records-1000001", recdiv("verify", "records", 10**6 + 1), 10, code=2),
    Check("tree-negative-margin", recdiv("tree", 12, "--margin", -1), 10, code=2, stdout=EMPTY),
    Check("tree-nan-stroke", recdiv("tree", 12, "--stroke-width", "nan"), 10, code=2, stdout=EMPTY),
    Check("table-zero-memory", recdiv("table", "a", 10, "--max-memory", 0), 10,
          code=2, stdout=EMPTY),
    Check("records-unknown-kind-after-all", recdiv("records", "all,foo", 10), 10,
          code=2, stdout=EMPTY),
    Check("no-command", recdiv(), 10, code=2, stdout=EMPTY),
    Check("eval-no-n", recdiv("eval"), 10, code=2, stdout=EMPTY),
    Check("help", recdiv("--help"), 10, stdout=r"\Ausage: recdiv "),
    # The first input each of three more guards refuses, named with its
    # setting: a table of one int64 array past sieve.DEFAULT_MAX_MEMORY
    # (exit 4), the first n whose divisor tree has more squares than the
    # default budget (1,245,184), and a semiprime of two 47-bit primes, past
    # arith.RHO_BUDGET (exit 6, 1.9 s on 2 CPUs).
    Check("table-b-past-memory", recdiv("table", "b", 40000004), 10, code=4, stdout=EMPTY),
    Check("tree-34560-budget", recdiv("tree", 34560, "-o", "tree34560.svg"), 10, code=6,
          stdout=EMPTY),
    Check("eval-rho-budget", recdiv("eval", 9903520314277060855937890627), 10, code=6,
          stdout=EMPTY),
    # The two suites that take a bound past their defaults, checked to the
    # end. On 2 CPUs, whole process: about 0.5 s and 1.0 s, with each
    # g-column's total checked once, where it is built; 0.6-0.8 s for lemmas
    # checking a size table's total for every n; 0.7 s and 1.6 s comparing
    # Fractions, and 1.2 s and 3.8 s with each lattice's g-column rebuilt
    # for every n.
    Check("verify-lemmas-20000", recdiv("verify", "lemmas", 20000), 30,
          stdout=last("PASS suite lemmas")),
    # A tenth of verify.LEMMAS_BUDGET: about 2-3 s at 35 MB, with each
    # g-column's total checked once, where it is built; 3.3 s checking a
    # size table's total for every n.  The whole budget takes about 25 s.
    Check("verify-lemmas-150000", recdiv("verify", "lemmas", 150000), 30,
          stdout=last("PASS suite lemmas")),
    Check("verify-closedforms-100000", recdiv("verify", "closedforms", 100000), 60,
          stdout=last("PASS suite closedforms")),
    # A tenth of verify.CLOSEDFORMS_BUDGET: about 2.3-3 s at 35 MB.  The
    # whole budget takes 23-26 s.
    Check("verify-closedforms-250000", recdiv("verify", "closedforms", 250000), 30,
          stdout=last("PASS suite closedforms")),
    # 103,680 divisors: milliseconds from per-prime sums, seconds for any
    # evaluator that walks the divisors or enumerates sub-signatures.
    Check("eval-smooth", recdiv("eval", 897612484786617600), 10),
    # 2^2000 and 2^4000: 603 and 1,205 digits, 2,000 and 4,000 prime factors.
    # About 0.3 s and 0.4 s whole process on 2 CPUs with each per-prime sum
    # stepped in m; 3.8 s and over 20 s stepping it in e, for every m.
    # a(2^c) = 2^c and B(2^c) = (c + 2)/2.
    Check("eval-2^2000", recdiv("eval", 2**2000), 10, stdout=eval_power_of_two(2000)),
    Check("eval-2^4000", recdiv("eval", 2**4000), 10, stdout=eval_power_of_two(4000)),
    # Both sides of the trial bound's square and a repeated prime past it.
    # 997·1009 and 1009^2 straddle 10^6, where the cofactor left by the
    # small-prime gcd stops being taken as prime and goes to rho; 999983·1000003
    # is a semiprime past it. On 2 CPUs, whole process: about 0.6 s each for
    # the first three, nearly all of it start-up, and 0.8 s for 1009^400
    # (1,202 digits) with each prime rho finds divided out of every pending
    # part; factorize alone took 27 s when rho split off one 1009 at a time.
    # The table pass over the primes in [1000, 2^17) takes composite parts
    # below 2^53: 31607·400009 (p·q as in the `eval` workload) and
    # 2^53 − 1 = 6361·69431·20394401 split with no rho step; 131101 is the
    # first prime past the table, so 131101·1000003 goes to rho; and
    # 131071·68720001071 = 9007199260377041 is above 2^53 and skips the pass.
    # 1009·131101·1000003 takes both: the pass finds 1009 and rho splits the
    # rest. About 0.3 s each, whole process, on 2 CPUs.
    *(
        Check(f"factorization-{pairs.replace(' * ', '*')}", recdiv("eval", n), 10,
              stdout=rf"(?m)^{re.escape(f'factorization={pairs}')}$")
        for n, pairs in (
            (1005973, "997 * 1009"),
            (1018081, "1009^2"),
            (999985999949, "999983 * 1000003"),
            (1009**400, "1009^400"),
            (12643084463, "31607 * 400009"),
            (9007199254740991, "6361 * 69431 * 20394401"),
            (131101393303, "131101 * 1000003"),
            (9007199260377041, "131071 * 68720001071"),
            (132281305842727, "1009 * 131101 * 1000003"),
        )
    ),
    # Primality above 3.317·10^24 is a base-2 round and a strong Lucas test
    # (Baillie-PSW). 3317044064679887385961981 is a strong pseudoprime to all
    # thirteen Miller-Rabin bases; the Lucas test rejects it and rho splits
    # it: 0.75 s and 31 MB whole process on 2 CPUs. The Mersenne prime
    # 2^11213 − 1 (3,376 digits) takes 4.7 s and 31 MB, against about 45 s
    # for thirteen Miller-Rabin rounds.
    Check("eval-pseudoprime-A014233", recdiv("eval", 3317044064679887385961981), 10,
          stdout=r"(?m)^factorization=1287836182261 \* 2575672364521\nd=4 .*\na=6 "),
    Check("eval-mersenne-11213", recdiv("eval", 2**11213 - 1), 20,
          stdout=r"(?m)^d=2 .*\na=2 "),
    # The int-to-str limit admits n of up to 4,300 digits. Of those,
    # 2^7039 times the odd primes to 5,101 has the largest Ω·k, which the
    # per-prime sums cost (see core), and 2^14284 the largest Ω. Each exits 3
    # with nothing on stdout because sigma(n) passes the limit, which eval
    # finds from the factorization before it evaluates a, b and g: about
    # 2.3 s and 0.2 s at 32 MB peak RSS, whole process on 2 CPUs. Evaluating
    # them first took about 7.5 s at 75 MB and 4 s at 90 MB.
    Check("eval-worst-omega-k", recdiv("eval", 2**7039 * prod(odd_primes_to(5101))), 30,
          code=3, stdout=EMPTY, rss_mb=60),
    Check("eval-2^14284", recdiv("eval", 2**14284), 20, code=3, stdout=EMPTY, rss_mb=60),
    # b(2^k) for every k <= 1,500 in one process, then b_recursion of 2^4000.
    # About 4 s on 2 CPUs. With a coefficient row cached for every Ω asked
    # for, the loop alone peaked at 176 MB RSS; with rows kept only for
    # Ω < 64 and the recursion filled as one table per call, about 30 MB.
    # B(2^k) = (k + 2)/2, so b(2^k) = 2^k·(k + 2)/2.
    Check("bounded-caches", python("-c", BOUNDED_CACHES), 30, rss_mb=80),
    # B_from_A of the product of the first 16 primes walks 65,536 divisors,
    # their g-column one kappa_table of 16 primes. About 0.4-0.5 s and 39 MB
    # whole process on 2 CPUs with the subset sum taken one prime at a time,
    # each differenced table kept as a window of one stride and the table
    # returned as the list it fills; 50 MB when it was rebuilt as a dict
    # keyed by 65,536 exponent tuples, 7.3 s and 56 MB with one term per
    # subset of each divisor's primes, 87 MB with each differenced table
    # kept whole.
    Check("lattice-16-primes", python("-c", LATTICE_16_PRIMES), 4, rss_mb=45),
    # 219,136 squares and 5.3 M candidate pairs: about 0.4 s at 57 MB with
    # the layout and the overlap scan on numpy rows (60 MB keeping a block
    # per direction), about 2.5 s with one Python object per square, minutes
    # if the scan copies the rest of its order per square.
    Check("tree-11520-overlap", recdiv("tree", 11520, "--check-overlap", "-o", "tree.svg"), 20,
          stdout=exactly("squares=219136 sidesum=942336\noverlaps=13910\n")),
    # scripts/overlap_scan.py reads each layout's rows; nothing else runs it.
    # 57 of the first 2,000 trees overlap themselves and 1,943 do not.
    Check("overlap-scan-2000", python(ROOT / "scripts" / "overlap_scan.py", 1, 2000), 60,
          stdout=last("57 of 2000 trees overlap themselves in [1, 2000]")),
    # 936,704 squares, near the default square budget: about 1.0-1.3 s and
    # 144 MB peak RSS with each side's block built once and turned once on
    # numpy rows, 152 MB keeping a block per direction, 10 s and 216 MB with
    # one Python object per square.
    Check("tree-70560-overlap", recdiv("tree", 70560, "--check-overlap", "-o", "tree70560.svg"),
          60, stdout=exactly("squares=936704 sidesum=7170000\noverlaps=97428\n"), rss_mb=200),
    # 32,749 candidate integers: about 1.4 s whole process on 2 CPUs with
    # each candidate's per-prime products carried down the search, 7.6 s
    # with every per-prime sum rebuilt per candidate; a sieve over 1..10^18
    # could not run at all.
    Check("records-1e18", recdiv("records", "all", 10**18, "-o", "records.csv"), 120),
    # 172,513 candidate integers: about 6 s and 112 MB peak RSS on 2 CPUs.
    # Each candidate keeps only its four values. Keeping its two carried
    # vectors as well took 4 kB more per candidate at 10^18, so it would
    # need about 1 GB here.
    Check("records-1e24", recdiv("records", "all", 10**24, "-o", "records24.csv"), 120, rss_mb=300),
    Check("records-1e24-lines", python("-c", RECORDS24_LINES), 30),
    # records.SEARCH_LIMIT is the 300,001st candidate, so the bound just below
    # it lists 300,000, the most any admitted bound does: 8.1 s and 175 MB
    # peak RSS on 2 CPUs. The limit itself and 10^27 (362,249 candidates)
    # are refused by one comparison before any work.
    Check("records-below-search-limit",
          recdiv("records", "all", 165398522165420543999999999, "-o", "records-limit.csv"), 60,
          rss_mb=250),
    Check("records-search-limit", recdiv("records", "all", 165398522165420544000000000), 10,
          code=6),
    Check("records-1e27-budget", recdiv("records", "all", 10**27), 10, code=6),
    # The sieve memory guard's worst admitted input: 40000003 is the last n
    # whose int64 table fits sieve.DEFAULT_MAX_MEMORY. About 7-8 s and
    # 339 MB peak RSS on 2 CPUs, with 706 MB of CSV written to /dev/null.
    Check("table-b-below-memory", recdiv("table", "b", 40000003, "-o", "/dev/null"), 60,
          rss_mb=400),
    # 10^6 JSON rows: about 0.35 s whole process on 2 CPUs, 65 ms of it
    # formatting with the digit kernel (0.2 s with one %-format per chunk).
    Check("table-b-1e6-json",
          recdiv("table", "b", 10**6, "--format", "json", "-o", "table_b.json"), 30),
    # The whole file against json.dumps, a serializer that shares no code
    # with formats: about 1.4 s on 2 CPUs.
    Check("table-b-1e6-golden", python("-c", TABLE_B_GOLDEN), 30),
    # 10^7 JSON rows, 262 MB of text, written one chunk at a time: about
    # 1.8 s and 111 MB peak RSS on 2 CPUs, 80 MB of it the sieve; 4.4 s with
    # one %-format per chunk. Building the whole text before writing it
    # peaked at 610 MB.
    Check("table-b-1e7-json",
          recdiv("table", "b", 10**7, "--format", "json", "-o", "table_b7.json"), 60, rss_mb=250),
    Check("table-b-1e7-tail", python("-c", TABLE_B7_TAIL), 30),
    # 10^7 CSV rows of sigma, the plain sieve mode (d, sigma) at process
    # level: about 2.5-3.2 s and 109 MB peak RSS on 2 CPUs, 80 MB of it the
    # sieve. Plain mode runs n downwards and reads each block's terms from
    # the table itself; holding one block's arange of terms as well peaked
    # at 120 MB. The limit catches a second table-sized array, not one
    # block, which tier-1 bounds under tracemalloc.
    Check("table-sigma-1e7", recdiv("table", "sigma", 10**7, "-o", "table_sigma7.csv"), 60,
          rss_mb=150),
    Check("table-sigma-1e7-ends", python("-c", TABLE_SIGMA7_ENDS), 30),
    # A traced benchmark run has to end in its result line: a run can exit 0
    # and still print no result. The line must parse as JSON, count no failed
    # op and carry every per-layer metric that BENCHMARK.json names. verify
    # runs the functools caches in recdiv.core that the tracer counts.
    Check("traced-sweep", traced("sweep"), 120),
    Check("traced-verify", traced("verify"), 120),
    Check("traced-results", python("-c", TRACED_RESULTS, ROOT / "BENCHMARK.json"), 30),
)


def run(check: Check, directory: str) -> str | None:
    """Run one row in directory: None if it passed, else what went wrong."""
    path = os.path.join(directory, check.name)
    with open(f"{path}.out", "wb") as out, open(f"{path}.err", "wb") as err:
        argv = ("timeout", str(check.timeout), *check.argv)
        child = subprocess.Popen(argv, cwd=directory, env=ENV, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
    # wait4 reaped the child, so Popen must not wait for it again.
    child.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = Path(f"{path}.out").read_text("utf-8", "replace")
    stderr = Path(f"{path}.err").read_text("utf-8", "replace").strip().splitlines()
    peak_mb = usage.ru_maxrss / 1024  # kB on Linux
    if code == 124 and check.code != 124:
        return f"ran past its {check.timeout} s limit"
    if code != check.code:
        return f"exit {code}, expected {check.code}: {stderr[-1] if stderr else 'no stderr'}"
    if not re.search(check.stdout, stdout):
        return f"stdout {stdout[-200:]!r} does not match {check.stdout[:200]!r}"
    if check.rss_mb is not None and peak_mb > check.rss_mb:
        return f"peaked at {peak_mb:.0f} MB RSS; the limit is {check.rss_mb} MB"
    return None


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        for check in CHECKS:
            start = time.monotonic()
            complaint = run(check, directory)
            verdict = f"{check.name} ({time.monotonic() - start:.1f} s)"
            print(f"FAIL {verdict}: {complaint}" if complaint else f"PASS {verdict}", flush=True)
            failed += complaint is not None
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
