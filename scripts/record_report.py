#!/usr/bin/env python3
"""Print the record table for a bound, in the cofactor presentation.

Count records are shown as cofactor * 2^tau; ratio records are starred.
The classical divisor-count and divisor-sum records are listed alongside
for comparison.

Usage: python scripts/record_report.py [bound]
"""

import sys

from recdiv import RecordKind, search_records
from recdiv.formats import rational_str


def main() -> None:
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 10**6
    table = search_records(bound)
    print(f"records up to {bound}")
    print(f"{'n':>10}  {'factorization':<24} {'a(n)':<18} {'kinds'}")
    for e in table.entries:
        star = "*" if RecordKind.RSA in e.kinds else " "
        if RecordKind.RHC in e.kinds or RecordKind.RSA in e.kinds:
            decomposition = f"{e.tau_cofactor} * 2^{e.tau}"
            kinds = ",".join(k.name for k in RecordKind if k in e.kinds)
            print(f"{star}{e.n:>9}  {str(e.factorization):<24} {decomposition:<18} {kinds}")
    print()
    print("classical records (starred = ratio record):")
    for e in table.entries:
        if RecordKind.HC in e.kinds or RecordKind.SA in e.kinds:
            star = "*" if RecordKind.SA in e.kinds else " "
            print(
                f"{star}{e.n:>9}  {str(e.factorization):<24} d={e.d:<6} "
                f"sigma/n={rational_str(e.sigma_ratio)}"
            )


if __name__ == "__main__":
    main()
