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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .arith import proper_divisors
from .core import a
from .errors import BudgetError
from .formats import CHUNK

DEFAULT_SQUARE_BUDGET = 1_000_000


class ArmDirection(Enum):
    NE = "NE"
    NW = "NW"
    SW = "SW"
    SE = "SE"

    def rotated_ccw(self) -> "ArmDirection":
        return _CCW[self]


_CCW = {
    ArmDirection.NE: ArmDirection.NW,
    ArmDirection.NW: ArmDirection.SW,
    ArmDirection.SW: ArmDirection.SE,
    ArmDirection.SE: ArmDirection.NE,
}


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


@dataclass(frozen=True)
class DivisorTreeLayout:
    n: int
    squares: tuple[PlacedSquare, ...]
    bounding_box: tuple[int, int, int, int]  # (min_x, min_y, max_x, max_y)

    @property
    def square_count(self) -> int:
        return len(self.squares)

    @property
    def side_sum(self) -> int:
        return sum(s.side for s in self.squares)

    def main_arm(self) -> list[PlacedSquare]:
        """Root plus its direct arm: the squares at depth <= 1."""
        return [s for s in self.squares if s.depth <= 1]


def _attach(direction: ArmDirection, px: int, py: int, pside: int, side: int) -> tuple[int, int]:
    if direction is ArmDirection.NE:
        return px + pside, py + pside
    if direction is ArmDirection.NW:
        return px - side, py + pside
    if direction is ArmDirection.SW:
        return px - side, py - side
    return px + pside, py - side


def _place(
    side_len: int,
    x: int,
    y: int,
    depth: int,
    direction: ArmDirection,
    out: list[PlacedSquare],
    arms: dict[int, list[int]],
) -> None:
    out.append(PlacedSquare(side_len, x, y, depth, direction))
    arm = arms.get(side_len)
    if arm is None:
        arm = arms[side_len] = proper_divisors(side_len)[::-1]
    child_direction = direction.rotated_ccw()
    px, py, pside = x, y, side_len
    for m in arm:
        cx, cy = _attach(direction, px, py, pside, m)
        _place(m, cx, cy, depth + 1, child_direction, out, arms)
        px, py, pside = cx, cy, m


def layout(n: int, *, budget: int = DEFAULT_SQUARE_BUDGET) -> DivisorTreeLayout:
    """Deterministic divisor-tree layout for n, root at the origin.

    Every side divides n, so the tree has at most d(n) distinct sides; each
    side's arm (its proper divisors, largest first) is computed once per call.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    count = a(n)
    if count > budget:
        raise BudgetError(f"divisor tree for {n} needs {count} squares; budget is {budget}")
    squares: list[PlacedSquare] = []
    _place(n, 0, 0, 0, ArmDirection.NE, squares, {})
    min_x = min(s.x for s in squares)
    min_y = min(s.y for s in squares)
    max_x = max(s.x + s.side for s in squares)
    max_y = max(s.y + s.side for s in squares)
    return DivisorTreeLayout(n, tuple(squares), (min_x, min_y, max_x, max_y))


def self_overlap(tree: DivisorTreeLayout) -> list[tuple[int, int]]:
    """Index pairs (i < j) of squares whose open interiors intersect.

    Corner or edge contact does not count.  A sort-by-x sweep narrows the
    pair scan; each surviving pair is decided by exact integer comparison.
    The cost is O(N log N) for the sort plus one step per candidate pair,
    i.e. per pair whose x-intervals overlap: 5.3 M candidates for the
    219,136 squares of n = 11520.
    """
    squares = tree.squares
    order = sorted(range(len(squares)), key=lambda i: squares[i].x)
    pairs: list[tuple[int, int]] = []
    for pos, i in enumerate(order):
        si = squares[i]
        x_limit = si.x + si.side
        for q in range(pos + 1, len(order)):
            j = order[q]
            sj = squares[j]
            if sj.x >= x_limit:
                break
            if si.y < sj.y + sj.side and sj.y < si.y + si.side:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class SvgStyle:
    stroke_width: float = 1.0
    margin: int = 2
    shade_by_depth: bool = True
    stroke: str = "#222222"


def svg_chunks(tree: DivisorTreeLayout, style: SvgStyle | None = None) -> Iterator[str]:
    """Yield to_svg's document in order: the header, the rects CHUNK at a time, the end tag.

    The CLI writes these to its output handle one at a time, so the document
    is never held whole.
    """
    style = style or SvgStyle()
    min_x, min_y, max_x, max_y = tree.bounding_box
    m = style.margin
    width = (max_x - min_x) + 2 * m
    height = (max_y - min_y) + 2 * m
    view_box = f"{min_x - m} {-max_y - m} {width} {height}"
    # Shading darkens by 16 per depth down to depth 7, so eight tails cover every rect.
    levels = [255 - 16 * depth if style.shade_by_depth else 255 for depth in range(8)]
    tails = [
        f'fill="#{v:02x}{v:02x}{v:02x}" stroke="{style.stroke}" '
        f'stroke-width="{style.stroke_width}"/>'
        for v in levels
    ]
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view_box}">\n'
    )
    squares = tree.squares
    for start in range(0, len(squares), CHUNK):
        yield "".join(
            f'  <rect x="{s.x}" y="{-(s.y + s.side)}" width="{s.side}" height="{s.side}" '
            f"{tails[min(s.depth, 7)]}\n"
            for s in squares[start : start + CHUNK]
        )
    yield "</svg>\n"


def to_svg(tree: DivisorTreeLayout, style: SvgStyle | None = None) -> str:
    """Render a layout as an SVG 1.1 document, one rect per square.

    The internal plane is y-up; SVG is y-down, so y coordinates are negated
    around each square's top edge.
    """
    return "".join(svg_chunks(tree, style))
