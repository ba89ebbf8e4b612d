"""Divisor-tree geometry: square layouts, overlap detection, SVG output.

A tree for n starts with an n-sided square whose arm lists the proper
divisors in descending order, each square attached kitty-corner (corner to
corner) to its predecessor along the arm direction.  Every square seeds its
own arm for its proper divisors, rotated 90 degrees counter-clockwise from
the arm it sits on.  Sides and attachment points are integers, so all
geometry below is exact.

Attachment convention per direction: the new square's corner opposite to
the travel direction lands on the predecessor's corner pointing along it
(for NE travel, new SW corner on old NE corner, and so on rotated).

A layout is one ``rows`` array with one ``(side, x, y, depth)`` row per
square, in preorder: a square, then the subtree of each square on its arm,
largest first.  The root seeds NE and each level turns once
counter-clockwise, so a square's arm direction is
``(NE, NW, SW, SE)[depth % 4]`` and is not stored.  ``squares`` builds a
``PlacedSquare`` from a row only when it is read.

A block is the subtree of side m seeded in direction k, placed relative to
its own root.  Its rows depend only on (m, k), so ``layout`` builds each
block once: the root row, then the blocks of the arm's squares
concatenated, each shifted by its square's attachment point and one level
of depth.  A tree costs O(distinct (side, direction) pairs) numpy calls,
whatever its square count.

Rows are int64 when n * a(n) < 2**63, and otherwise an ``object`` array of
Python ints on the same code path.  The bound covers every value computed
here.  Each square's x-projection touches its predecessor's, so the
projections of a tree (or of a block) form one interval no longer than the
sum of its sides, b(n) <= n * a(n), and that interval holds the root's
[0, side].  So |x|, |x + side|, |y| and |y + side| are at most b(n), and so
is every block coordinate and offset summed while building, each being a
coordinate of some block.  The side column sums to b(n) itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

# proper_divisors stays importable for perfbench's tracer, which counts calls
# to recdiv.tree.proper_divisors; layout reads every arm from n's divisor list.
from .arith import divisors_of, factorize, proper_divisors  # noqa: F401
from .core import _kappa_of
from .errors import BudgetError
from .formats import CHUNK

DEFAULT_SQUARE_BUDGET = 1_000_000

# Candidate pairs self_overlap tests per numpy pass; larger passes raise peak memory.
PAIR_BLOCK = 1 << 15


class ArmDirection(Enum):
    NE = "NE"
    NW = "NW"
    SW = "SW"
    SE = "SE"

    def rotated_ccw(self) -> "ArmDirection":
        return _DIRECTIONS[(_DIRECTIONS.index(self) + 1) % 4]


# The arm direction seeded at depth d is _DIRECTIONS[d % 4].
_DIRECTIONS = tuple(ArmDirection)


@dataclass(frozen=True, slots=True)
class PlacedSquare:
    """A square in the y-up plane; (x, y) is its lower-left corner.

    arm_direction is the direction of the arm this square seeds, i.e. where
    its own proper-divisor squares extend; the root seeds the main arm NE.
    """

    side: int
    x: int
    y: int
    depth: int
    arm_direction: ArmDirection


def _square(row: list[int]) -> PlacedSquare:
    side, x, y, depth = row
    return PlacedSquare(side, x, y, depth, _DIRECTIONS[depth % 4])


class SquareView(Sequence):
    """The squares of a layout, each built from its row when read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        picked = self._rows[index]
        if picked.ndim == 1:
            return _square(picked.tolist())
        return tuple(map(_square, picked.tolist()))

    def __iter__(self) -> Iterator[PlacedSquare]:
        return map(_square, self._rows.tolist())


@dataclass(frozen=True, eq=False)
class DivisorTreeLayout:
    """A layout's rows, one (side, x, y, depth) per square in preorder.

    rows is read-only. Layouts compare by identity; compare their rows with
    numpy.array_equal.
    """

    n: int
    rows: np.ndarray
    bounding_box: tuple[int, int, int, int]  # (min_x, min_y, max_x, max_y)

    @property
    def squares(self) -> SquareView:
        return SquareView(self.rows)

    @property
    def square_count(self) -> int:
        return len(self.rows)

    @property
    def side_sum(self) -> int:
        return int(self.rows[:, 0].sum())

    def main_arm(self) -> list[PlacedSquare]:
        """Root plus its direct arm: the squares at depth <= 1."""
        return [_square(row) for row in self.rows[self.rows[:, 3] <= 1].tolist()]


def _attach(k: int, px: int, py: int, pside: int, side: int) -> tuple[int, int]:
    """Lower-left corner of a square of this side after (px, py, pside) on an arm in direction k."""
    if k == 0:  # NE
        return px + pside, py + pside
    if k == 1:  # NW
        return px - side, py + pside
    if k == 2:  # SW
        return px - side, py - side
    return px + pside, py - side  # SE


def _block(
    m: int,
    k: int,
    zero_row: np.ndarray,
    arms: dict[int, list[int]],
    blocks: dict[tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Rows of the subtree of side m seeded in direction k, relative to its root.

    zero_row fixes the dtype; arms maps each side to its arm, and blocks holds
    the blocks built so far in this layout.
    """
    rows = blocks.get((m, k))
    if rows is not None:
        return rows
    arm = arms[m]
    # The root row is the zero row shifted by (m, 0, 0, 0); each arm square's
    # block is shifted by (0, x, y, 1), its attachment point one level down.
    parts, lengths, offsets = [zero_row], [1], [m, 0, 0, 0]
    px, py, pside = 0, 0, m
    for side in arm:
        px, py = _attach(k, px, py, pside, side)
        pside = side
        part = _block(side, (k + 1) % 4, zero_row, arms, blocks)
        parts.append(part)
        lengths.append(len(part))
        offsets += (0, px, py, 1)
    rows = np.concatenate(parts)
    rows += np.array(offsets, zero_row.dtype).reshape(-1, 4).repeat(lengths, axis=0)
    blocks[m, k] = rows
    return rows


def layout(n: int, *, budget: int = DEFAULT_SQUARE_BUDGET) -> DivisorTreeLayout:
    """Deterministic divisor-tree layout for n, root at the origin.

    n is factored once.  Every side divides n, so the sides are n's d(n)
    divisors, and the arm of side m (its proper divisors, largest first) is
    the divisors of n below m that divide it.  Each (side, direction) block
    is built once.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    fac = factorize(n)
    count = _kappa_of(fac, 0)
    if count > budget:
        raise BudgetError(f"divisor tree for {n} needs {count} squares; budget is {budget}")
    dtype = np.int64 if n * count < 2**63 else object
    sides = divisors_of(fac)
    arms = {m: [d for d in sides[:i][::-1] if m % d == 0] for i, m in enumerate(sides)}
    rows = _block(n, 0, np.zeros((1, 4), dtype), arms, {})
    rows.flags.writeable = False
    x, y, side = rows[:, 1], rows[:, 2], rows[:, 0]
    box = (int(x.min()), int(y.min()), int((x + side).max()), int((y + side).max()))
    return DivisorTreeLayout(n, rows, box)


def self_overlap(tree: DivisorTreeLayout) -> list[tuple[int, int]]:
    """Index pairs (i < j) of squares whose open interiors intersect, sorted.

    Corner or edge contact does not count.  Squares are sorted by x; the
    candidates of each square are the later ones whose x starts before its
    own x-interval ends, found with one searchsorted.  Candidate pairs are
    numbered in sorted order, expanded PAIR_BLOCK at a time with np.repeat,
    and decided by exact comparison of their y-intervals.  The cost is
    O(N log N) for the sort plus O(1) numpy work per candidate pair: 5.3 M
    candidates for the 219,136 squares of n = 11520.
    """
    rows = tree.rows
    order = np.argsort(rows[:, 1], kind="stable")
    side, x, y = (rows[order, column] for column in range(3))
    y_end = y + side
    # Sorted position p has candidates p + 1 ... stop[p] - 1.  Its candidate
    # pairs are numbered begins[p] ... ends[p] - 1, and pair t's candidate is
    # t + shift[p].
    stop = np.searchsorted(x, x + side, side="left")
    counts = stop - np.arange(1, len(x) + 1)
    ends = np.cumsum(counts)
    begins, shift = ends - counts, stop - ends
    del side, x, stop, counts  # a near-budget tree holds 7.5 MB per column
    total = int(ends[-1])
    firsts, seconds = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for start in range(0, total, PAIR_BLOCK):
        end = min(start + PAIR_BLOCK, total)
        # The positions whose pairs meet [start, end), and how many each has there.
        p0 = int(np.searchsorted(ends, start, side="right"))
        p1 = int(np.searchsorted(ends, end - 1, side="right")) + 1
        taken = np.minimum(ends[p0:p1], end) - np.maximum(begins[p0:p1], start)
        p = np.repeat(np.arange(p0, p1), taken)
        q = np.arange(start, end) + shift[p]
        hit = (y[p] < y_end[q]) & (y[q] < y_end[p])
        i, j = order[p[hit]], order[q[hit]]
        firsts.append(np.minimum(i, j))
        seconds.append(np.maximum(i, j))
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    keep = np.lexsort((second, first))
    return list(zip(first[keep].tolist(), second[keep].tolist()))


@dataclass(frozen=True)
class SvgStyle:
    stroke_width: float = 1.0
    margin: int = 2
    shade_by_depth: bool = True
    stroke: str = "#222222"


_RECT = '  <rect x="%d" y="%d" width="%d" height="%d" %s\n'


def svg_chunks(tree: DivisorTreeLayout, style: SvgStyle | None = None) -> Iterator[str]:
    """Yield to_svg's document in order: the header, the rects CHUNK at a time, the end tag.

    Each chunk of rects is one %-format over values read from the rows with
    tolist().  The CLI writes these to its output handle one at a time, so
    the document is never held whole.
    """
    style = style or SvgStyle()
    min_x, min_y, max_x, max_y = tree.bounding_box
    m = style.margin
    width = (max_x - min_x) + 2 * m
    height = (max_y - min_y) + 2 * m
    view_box = f"{min_x - m} {-max_y - m} {width} {height}"
    # Shading darkens by 16 per depth down to depth 7, so eight tails cover every rect.
    levels = [255 - 16 * depth if style.shade_by_depth else 255 for depth in range(8)]
    tails = np.array(
        [
            f'fill="#{v:02x}{v:02x}{v:02x}" stroke="{style.stroke}" '
            f'stroke-width="{style.stroke_width}"/>'
            for v in levels
        ],
        dtype=object,
    )
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view_box}">\n'
    )
    rows = tree.rows
    for start in range(0, len(rows), CHUNK):
        chunk = rows[start : start + CHUNK]
        side, x, y, depth = chunk.T
        sides = side.tolist()
        flat = [None] * (5 * len(sides))
        flat[0::5] = x.tolist()
        flat[1::5] = (-(y + side)).tolist()
        flat[2::5] = flat[3::5] = sides
        flat[4::5] = tails[np.minimum(depth, 7).astype(np.intp)].tolist()
        yield (_RECT * len(sides)) % tuple(flat)
    yield "</svg>\n"


def to_svg(tree: DivisorTreeLayout, style: SvgStyle | None = None) -> str:
    """Render a layout as an SVG 1.1 document, one rect per square.

    The internal plane is y-up; SVG is y-down, so y coordinates are negated
    around each square's top edge.
    """
    return "".join(svg_chunks(tree, style))
