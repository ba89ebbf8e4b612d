"""Recursive divisor function toolkit.

Exact evaluators for the recursive divisor function and its derived
quantities, O(N log N) divisor-sum sieves, record searches, closed forms,
and divisor-tree geometry with SVG rendering.
"""

from .arith import (
    Factorization,
    d,
    divisors,
    factorize,
    is_prime,
    proper_divisors,
    sigma,
)
from .closedforms import (
    B_closed,
    B_from_A,
    PrimePowerShape,
    a_closed,
    a_distinct_primes,
    a_recursion,
    b_recursion,
)
from .core import (
    DivisorProfile,
    SizedCountTable,
    a,
    a_sized,
    b,
    g,
    g_enumerated,
    kappa,
    profile,
)
from .errors import BudgetError, MemoryGuardError, RecdivError
from .records import (
    ALL_KINDS,
    RecordEntry,
    RecordKind,
    RecordTable,
    classify,
    search_records,
    sieve_records,
    tau_decompose,
)
from .tree import (
    DivisorTreeLayout,
    SvgStyle,
    layout,
    self_overlap,
    to_svg,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "B_closed",
    "B_from_A",
    "BudgetError",
    "DivisorProfile",
    "DivisorTreeLayout",
    "Factorization",
    "MemoryGuardError",
    "PrimePowerShape",
    "RecdivError",
    "RecordEntry",
    "RecordKind",
    "RecordTable",
    "SizedCountTable",
    "SvgStyle",
    "a",
    "a_closed",
    "a_distinct_primes",
    "a_recursion",
    "a_sized",
    "b",
    "b_recursion",
    "classify",
    "d",
    "divisors",
    "factorize",
    "g",
    "g_enumerated",
    "is_prime",
    "kappa",
    "layout",
    "profile",
    "proper_divisors",
    "search_records",
    "self_overlap",
    "sieve_records",
    "sigma",
    "tau_decompose",
    "to_svg",
]
