"""Output checkers, run after the timed region of a run.

Each checker takes one op and what it produced and returns None when the
output is right, or a one-line reason when it is not. Reference values come
from routes other than the one the op exercised where recdiv has them:
golden.py's frozen lists, the closed forms, B from the counts over the
divisors, and the batch sieves for tree sizes.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

from recdiv import arith, closedforms, core, golden, sieve

from perfbench.workloads import OUT, Op

TABLE_SAMPLE = 32


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    if text == "1":
        return ()
    pairs = []
    for factor in text.split(" * "):
        p, _, e = factor.partition("^")
        pairs.append((int(p), int(e) if e else 1))
    return tuple(pairs)


def _fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        if line.startswith("factorization="):
            fields["factorization"] = line.partition("=")[2]
            continue
        for token in line.split():
            key, _, value = token.partition("=")
            fields[key] = value
    return fields


def check_eval(n: int, stdout: str) -> str | None:
    """One `eval n`: factorization, d and sigma, and a, b, g, A, B against other routes."""
    try:
        f = _fields(stdout)
        pairs = _pairs(f["factorization"])
        got = {k: int(f[k]) for k in ("n", "d", "sigma", "a", "b", "g")}
        ratio_a, ratio_b = Fraction(f["A"]), Fraction(f["B"])
    except (KeyError, ValueError) as exc:
        return f"eval {n}: unreadable output ({exc!r})"
    product = 1
    for p, e in pairs:
        product *= p**e
    if got["n"] != n or product != n or not all(arith.is_prime(p) for p, _ in pairs):
        return f"eval {n}: factorization {f['factorization']} is wrong"
    d = sigma = 1
    for p, e in pairs:
        d *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    if (got["d"], got["sigma"]) != (d, sigma):
        return f"eval {n}: d, sigma = {got['d']}, {got['sigma']}; want {d}, {sigma}"
    if len(pairs) <= 3:
        shape = closedforms.PrimePowerShape(pairs)
        want = (closedforms.a_closed(shape), closedforms.b_recursion(shape))
        if (got["a"], got["b"]) != want:
            return f"eval {n}: a, b = {got['a']}, {got['b']}; closed forms give {want}"
    if got["a"] != (1 if n == 1 else 2 * got["g"]):
        return f"eval {n}: a = {got['a']} is not 2 g = {2 * got['g']}"
    if ratio_a != Fraction(got["a"], n) or ratio_b != Fraction(got["b"], n):
        return f"eval {n}: A, B = {ratio_a}, {ratio_b} do not match a/n, b/n"
    want_b = closedforms.B_from_A(n)
    if ratio_b != want_b:
        return f"eval {n}: B = {ratio_b}; B_from_A gives {want_b}"
    return None


_RECT = re.compile(r'<rect x="-?\d+" y="-?\d+" width="(\d+)" height="\d+" fill="(#[0-9a-f]{6})"')
# Default shading: depth 0 is white, depth 1 one step darker.
_MAIN_ARM_FILLS = ("#ffffff", "#efefef")


class TreeReference:
    """a(n) and b(n) from the batch sieves, d(n) and sigma(n) from the factorization."""

    def __init__(self, limit: int) -> None:
        self.a = sieve.a_array(limit)
        self.b = sieve.b_array(limit)

    def check(self, n: int, svg: str, stdout: str) -> str | None:
        rects = _RECT.findall(svg)
        sides = [int(width) for width, _ in rects]
        arm = [int(width) for width, fill in rects if fill in _MAIN_ARM_FILLS]
        want = (int(self.a[n]), int(self.b[n]), arith.d(n), arith.sigma(n))
        got = (len(sides), sum(sides), len(arm), sum(arm))
        if got != want:
            return f"tree {n}: squares, side sum, arm length, arm sum = {got}; want {want}"
        if not re.fullmatch(rf"squares={want[0]} sidesum={want[1]}\noverlaps=\d+\n", stdout):
            return f"tree {n}: summary {stdout!r} is wrong"
        return None


def check_records_csv(text: str) -> str | None:
    """`records all` to 10^6 against golden.py's four lists, row by row."""
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or rows[0][0] != "n":
        return "records: missing header"
    chains: dict[str, list] = {"RHC": [], "RSA": [], "HC": [], "SA": []}
    try:
        for row in rows[1:]:
            n, fac, kinds = int(row[0]), row[1], row[2].split("|")
            a, b, d, sigma, tau, cofactor = map(int, row[3:9])
            if Fraction(row[9]) != Fraction(b, n) or Fraction(row[10]) != Fraction(sigma, n):
                return f"records: ratios of {n} are wrong"
            if a != cofactor << tau or str(arith.factorize(n)) != fac:
                return f"records: row {n} is inconsistent"
            entry = {"RHC": (n, cofactor, tau), "HC": (n, d)}
            for kind in kinds:
                chains[kind].append(entry.get(kind, n))
    except (IndexError, KeyError, ValueError) as exc:
        return f"records: unreadable row ({exc!r})"
    want = {
        "RHC": list(golden.RHC_RECORDS),
        "RSA": list(golden.RSA_RECORDS),
        "HC": list(golden.HC_RECORDS),
        "SA": list(golden.SA_RECORDS),
    }
    for kind, chain in chains.items():
        if chain != want[kind]:
            return f"records: {kind} list differs from golden.py ({len(chain)} entries)"
    return None


def check_b_table_json(text: str, bound: int, rng: random.Random) -> str | None:
    """`table b --format json`: shape, the first 96 values, and a seeded sample against per-n b."""
    try:
        rows = json.loads(text)
        values = [row["b"] for row in rows]
        ns = [row["n"] for row in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return f"table: unreadable JSON ({exc!r})"
    if ns != list(range(1, bound + 1)):
        return f"table: rows are not n = 1..{bound}"
    if tuple(values[:96]) != golden.B_FIRST_96:
        return "table: first 96 values differ from golden.B_FIRST_96"
    for n in rng.sample(range(1, bound + 1), TABLE_SAMPLE):
        if values[n - 1] != core.b(n):
            return f"table: b({n}) = {values[n - 1]}, per-n b gives {core.b(n)}"
    return None


def check_verify(suite: str, stdout: str) -> str | None:
    lines = stdout.splitlines()
    passed = all(line.startswith("PASS ") for line in lines)
    if not lines or lines[-1] != f"PASS suite {suite}" or not passed:
        return f"verify {suite}: {lines[-1] if lines else 'no output'}"
    return None


class Checker:
    """Checks the ops of one workload run; the seed drives the table sample."""

    def __init__(self, workload: str, seed: int, max_n: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.trees = TreeReference(max_n) if workload == "trees" else None

    def check(self, op: Op, out_dir: Path, record: dict) -> str | None:
        argv = " ".join(op.argv)
        if record["error"] is not None:
            return f"{argv}: raised {record['error']}"
        if record["code"] != 0:
            return f"{argv}: exit code {record['code']}: {record['stderr'].strip()[-200:]}"
        stdout = record["stdout"]
        if self.workload == "eval":
            return check_eval(op.n, stdout)
        if self.workload == "verify":
            return check_verify(op.kind, stdout)
        path = Path(op.argv[op.argv.index("-o") + 1].replace(OUT, str(out_dir)))
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            return f"{argv}: output unreadable ({exc})"
        if op.kind == "records":
            return check_records_csv(text)
        if op.kind == "table":
            return check_b_table_json(text, op.n, self.rng)
        return self.trees.check(op.n, text, stdout)
