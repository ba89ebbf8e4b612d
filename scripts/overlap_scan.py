#!/usr/bin/env python3
"""Scan divisor trees for self-overlap.

For which n do two squares of the tree share interior area?  This script
tabulates the overlapping n in a range together with the number of
offending pairs and the first pair's sides, under this package's layout
conventions (kitty-corner chaining, 90-degree counter-clockwise sub-arms).

Usage: python scripts/overlap_scan.py [start] [stop]
"""

import sys

from recdiv import layout, self_overlap


def main() -> None:
    start = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    stop = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
    hits = 0
    for n in range(start, stop + 1):
        tree = layout(n)
        pairs = self_overlap(tree)
        if pairs:
            hits += 1
            i, j = pairs[0]
            first = tuple(tree.rows[[i, j], 0].tolist())
            print(f"n={n}: {len(pairs)} overlapping pair(s); first sides {first}")
    print(f"{hits} of {stop - start + 1} trees overlap themselves in [{start}, {stop}]")


if __name__ == "__main__":
    main()
