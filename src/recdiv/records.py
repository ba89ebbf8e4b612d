"""Sieve-driven search for record-setting integers.

Four kinds of records are tracked: counts of recursive divisors (RHC) and
their classical analogue d(n) (HC), plus the normalized sums b(n)/n (RSA)
and sigma(n)/n (SA).  A record is strict: ties never qualify.  Ratio kinds
are decided by exact cross-multiplied integer comparison; a conservative
float prescan only narrows the candidate set, never the decision.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Flag, auto
from fractions import Fraction

import numpy as np

from . import sieve
from .arith import Factorization
from .core import profile


class RecordKind(Flag):
    RHC = auto()  # record count of recursive divisors
    RSA = auto()  # record b(n)/n
    HC = auto()  # record divisor count
    SA = auto()  # record sigma(n)/n


ALL_KINDS = RecordKind.RHC | RecordKind.RSA | RecordKind.HC | RecordKind.SA
_KIND_ORDER = (RecordKind.RHC, RecordKind.RSA, RecordKind.HC, RecordKind.SA)


def kind_names(kinds: RecordKind) -> list[str]:
    return [k.name for k in _KIND_ORDER if k in kinds]


def parse_kinds(text: str) -> RecordKind:
    """Parse a comma-separated kind list such as 'RHC,RSA' (case-insensitive)."""
    kinds = RecordKind(0)
    for token in text.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if token == "ALL":
            return ALL_KINDS
        try:
            kinds |= RecordKind[token]
        except KeyError:
            raise ValueError(f"unknown record kind {token!r}; choose from RHC, RSA, HC, SA")
    if not kinds:
        raise ValueError("no record kinds given")
    return kinds


@dataclass(frozen=True)
class RecordEntry:
    """One record-setting integer with every tracked quantity attached."""

    n: int
    factorization: Factorization
    kinds: RecordKind
    a: int
    b: int
    d: int
    sigma: int
    tau: int
    tau_cofactor: int

    @property
    def b_ratio(self) -> Fraction:
        return Fraction(self.b, self.n)

    @property
    def sigma_ratio(self) -> Fraction:
        return Fraction(self.sigma, self.n)

    def record_value(self, kind: RecordKind) -> int | Fraction:
        """The quantity this kind sets records in."""
        if kind == RecordKind.RHC:
            return self.a
        if kind == RecordKind.HC:
            return self.d
        if kind == RecordKind.RSA:
            return self.b_ratio
        if kind == RecordKind.SA:
            return self.sigma_ratio
        raise ValueError(f"record_value needs a single kind, got {kind}")


@dataclass(frozen=True)
class RecordTable:
    """Record-setters up to a bound, ascending by n, flagged by kind."""

    bound: int
    kinds: RecordKind
    entries: tuple[RecordEntry, ...]
    _ns: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ns", tuple(e.n for e in self.entries))

    def numbers(self, kind: RecordKind) -> list[int]:
        return [e.n for e in self.entries if kind in e.kinds]

    def entry(self, n: int) -> RecordEntry | None:
        ns = self._ns
        i = bisect_left(ns, n)
        if i < len(ns) and ns[i] == n:
            return self.entries[i]
        return None

    def check(self) -> None:
        """Internal consistency: strict growth per kind, n=1 first, RHC shape."""
        for kind in _KIND_ORDER:
            if kind not in self.kinds:
                continue
            chain = [e for e in self.entries if kind in e.kinds]
            if not chain or chain[0].n != 1:
                raise AssertionError(f"{kind.name} records must start at n=1")
            values = [e.record_value(kind) for e in chain]
            if any(u >= v for u, v in zip(values, values[1:])):
                raise AssertionError(f"{kind.name} record values must strictly increase")
        if RecordKind.RHC in self.kinds:
            for e in self.entries:
                if RecordKind.RHC in e.kinds:
                    exps = [x for _, x in e.factorization.pairs]
                    if exps != sorted(exps, reverse=True):
                        raise AssertionError(
                            f"count record {e.n} has increasing exponents: {exps}"
                        )


# Record scans run over fixed blocks so their temporaries stay small beside
# the int64 tables that check_budget charges for.
_SCAN_BLOCK = 1 << 16


def _int_record_indices(arr: np.ndarray) -> list[int]:
    out: list[int] = []
    best = 0
    for start in range(1, len(arr), _SCAN_BLOCK):
        values = arr[start : start + _SCAN_BLOCK]
        running = np.maximum(np.maximum.accumulate(values), best)
        prev_max = np.concatenate(([best], running[:-1]))
        out.extend((np.nonzero(values > prev_max)[0] + start).tolist())
        best = int(running[-1])
    return out


def _ratio_record_indices(arr: np.ndarray) -> list[int]:
    # Conservative prescan: float error is ~1e-15 relative, so no true record
    # can fall below the shifted running max by a 1e-9 factor.  The running
    # max carries across blocks, so the candidates are those of one full scan.
    candidates: list[int] = []
    best_ratio = 0.0
    for start in range(1, len(arr), _SCAN_BLOCK):
        values = arr[start : start + _SCAN_BLOCK]
        ratios = values / np.arange(start, start + len(values), dtype=np.float64)
        running = np.maximum(np.maximum.accumulate(ratios), best_ratio)
        prev_max = np.concatenate(([best_ratio], running[:-1]))
        candidates.extend((np.nonzero(ratios >= prev_max * (1 - 1e-9))[0] + start).tolist())
        best_ratio = float(running[-1])
    out: list[int] = []
    best_num, best_den = 0, 1
    for n in candidates:
        value = int(arr[n])
        if value * best_den > best_num * n:
            out.append(n)
            best_num, best_den = value, n
    return out


def tau_decompose(n: int) -> tuple[int, int]:
    """Split a(n) as cofactor * 2**tau, tau being the largest exponent of n."""
    p = profile(n)  # checks that 2**tau divides a(n)
    tau = p.factorization.max_exponent
    return tau, p.a >> tau


def sieve_records(
    bound: int, kinds: RecordKind = ALL_KINDS, *, max_memory: int | None = None
) -> RecordTable:
    """Find every strict record-setter up to bound for the requested kinds."""
    if not kinds:
        raise ValueError("no record kinds requested")
    needed = {
        RecordKind.RHC: "a",
        RecordKind.RSA: "b",
        RecordKind.HC: "d",
        RecordKind.SA: "sigma",
    }
    wanted = [kind for kind in _KIND_ORDER if kind in kinds]
    sieve.check_budget(bound, len(wanted), max_memory)

    flags: dict[int, RecordKind] = {}
    arrays: dict[RecordKind, np.ndarray] = {}
    for kind in wanted:
        arr = sieve.TABLE_BUILDERS[needed[kind]](bound)
        arrays[kind] = arr
        record_ns = (
            _int_record_indices(arr)
            if kind in (RecordKind.RHC, RecordKind.HC)
            else _ratio_record_indices(arr)
        )
        for n in record_ns:
            flags[n] = flags.get(n, RecordKind(0)) | kind

    entries = []
    for n in sorted(flags):
        p = profile(n)
        # Each batch sieve is required to agree with its per-n route: the
        # core evaluators for a and b, the factorization formulas for d and sigma.
        per_n = {
            RecordKind.RHC: (p.a, "evaluator"),
            RecordKind.RSA: (p.b, "evaluator"),
            RecordKind.HC: (p.d, "factorization"),
            RecordKind.SA: (p.sigma, "factorization"),
        }
        for kind, arr in arrays.items():
            value, route = per_n[kind]
            if value != int(arr[n]):
                raise AssertionError(f"{needed[kind]}({n}): sieve and {route} disagree")
        tau = p.factorization.max_exponent
        entries.append(
            RecordEntry(
                n=n,
                factorization=p.factorization,
                kinds=flags[n],
                a=p.a,
                b=p.b,
                d=p.d,
                sigma=p.sigma,
                tau=tau,
                tau_cofactor=p.a >> tau,
            )
        )
    table = RecordTable(bound=bound, kinds=kinds, entries=tuple(entries))
    table.check()
    return table


def classify(n: int, table: RecordTable) -> RecordKind:
    """Record flags for n according to a finished table; empty flag if none."""
    if n < 1 or n > table.bound:
        raise ValueError(f"n = {n} is outside the table bound {table.bound}")
    entry = table.entry(n)
    return entry.kinds if entry is not None else RecordKind(0)
