"""Divisor-tree geometry: square layouts, overlap detection, SVG output.

A tree for n starts with an n-sided square whose arm lists the proper
divisors in descending order, each square attached kitty-corner (corner to
corner) to its predecessor along the arm direction.  Every square seeds its
own arm for its proper divisors, rotated 90 degrees counter-clockwise from
the arm it sits on.  Sides and attachment points are integers, so all
geometry below is exact.

A layout is one ``rows`` array with one ``(side, x, y, depth)`` row per
square, in preorder: a square, then the subtree of each square on its arm,
largest first.  The root seeds NE and each level turns once
counter-clockwise, so the arm a square seeds points
``("NE", "NW", "SW", "SE")[depth % 4]``; no direction is stored.

A block is the subtree of side m placed relative to its own root square
[0, m] x [0, m].  One attachment rule is spelled out, for an arm pointing
NE: each square's lower-left corner lands on its predecessor's upper-right,
so arm square i has its lower-left corner at (c, c), c being m plus the
sides before it.  The block seeded one direction further round is the same
block turned a quarter counter-clockwise about its root square's centre,
which takes (x, y) to (m - y, x) and so a row (side, x, y, depth) to
(side, m - y - side, x, depth), in the same order.  Every square on an NE
arm seeds NW, so an NE block hangs only turned blocks, and the tree is the
NE block of n.  ``layout`` builds each side's NE block once, as one
concatenation of the root row and its arm's turned blocks, each shifted by
its square's corner and one level of depth.  It turns each one below n
once, into a column-wise copy, and keeps only those.  A tree costs d(n)
concatenations and O(d(n)) numpy calls in all, whatever its square count.

Rows are int64 when n * a(n) < 2**63, and otherwise an ``object`` array of
Python ints on the same code path.  The bound covers every value computed
here.  Each square's x-projection touches its predecessor's, so the
projections of a tree (or of a block) form one interval no longer than the
sum of its sides, b(n) <= n * a(n), and that interval holds the root's
[0, side].  So |x|, |x + side|, |y| and |y + side| are at most b(n), and so
is every block coordinate and offset summed while building, each being a
coordinate of some block.  A turned x, m - y - side, and the intermediate
m - y, its x + side, are coordinates of the NW-seeded block of side m.  The
side column sums to b(n) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterator

import numpy as np

# proper_divisors stays importable for perfbench's tracer, which counts calls
# to recdiv.tree.proper_divisors; layout reads every arm from n's divisor list.
from .arith import divisors_of, factorize, proper_divisors  # noqa: F401
from .core import _kappa_of
from .errors import bound_text, budget_error
from .formats import CHUNK

DEFAULT_SQUARE_BUDGET = 1_000_000

# Candidate pairs self_overlap tests per numpy pass; larger passes raise peak memory.
PAIR_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class DivisorTreeLayout:
    """A layout's rows, one (side, x, y, depth) per square in preorder.

    (x, y) is a square's lower-left corner in the y-up plane.  rows is the
    only view of the squares: the main arm is ``rows[rows[:, 3] <= 1]``, and
    ``rows.tolist()`` gives plain lists.  rows is read-only.  Layouts compare
    by identity; compare their rows with numpy.array_equal.
    """

    n: int
    rows: np.ndarray
    bounding_box: tuple[int, int, int, int]  # (min_x, min_y, max_x, max_y)

    @property
    def square_count(self) -> int:
        return len(self.rows)

    @property
    def side_sum(self) -> int:
        return int(self.rows[:, 0].sum())


def _block(
    m: int,
    turned: bool,
    zero_row: np.ndarray,
    arms: dict[int, list[int]],
    blocks: dict[int, np.ndarray],
) -> np.ndarray:
    """Rows of the subtree of side m relative to its root, seeded NE, or NW if turned.

    zero_row fixes the dtype and arms maps each side to its arm.  blocks holds
    the turned blocks built so far in this layout; an NE block is only read
    to turn it, or as the tree itself, so none is kept.
    """
    if turned:
        rows = blocks.get(m)
        if rows is None:
            # The quarter turn (side, x, y, depth) -> (side, m - y - side, x, depth).
            ne = _block(m, False, zero_row, arms, blocks)
            rows = blocks[m] = ne[:, [0, 2, 1, 3]]
            rows[:, 1] = m - ne[:, 2] - ne[:, 0]
        return rows
    # The root row is the zero row shifted by (m, 0, 0, 0); each arm square's
    # turned block is shifted by (0, c, c, 1), its corner one level down.
    parts, lengths, offsets = [zero_row], [1], [m, 0, 0, 0]
    corner = m
    for side in arms[m]:
        part = _block(side, True, zero_row, arms, blocks)
        parts.append(part)
        lengths.append(len(part))
        offsets += (0, corner, corner, 1)
        corner += side
    rows = np.concatenate(parts)
    rows += np.array(offsets, zero_row.dtype).reshape(-1, 4).repeat(lengths, axis=0)
    return rows


def layout(n: int, *, budget: int = DEFAULT_SQUARE_BUDGET) -> DivisorTreeLayout:
    """Deterministic divisor-tree layout for n, root at the origin.

    n is factored once.  Every side divides n, so the sides are n's d(n)
    divisors, and the arm of side m (its proper divisors, largest first) is
    the divisors of n below m that divide it.  Each side's NE block, and its
    quarter turn below n, is built once.
    """
    fac = factorize(n)
    count = _kappa_of(fac, 0)
    if count > budget:
        raise budget_error(
            f"divisor tree of {bound_text(count)} squares for", n, budget,
            "layout's budget (tree --budget)", " squares",
        )
    dtype = np.int64 if n * count < 2**63 else object
    sides = divisors_of(fac)
    arms = {m: [d for d in sides[:i][::-1] if m % d == 0] for i, m in enumerate(sides)}
    rows = _block(n, False, np.zeros((1, 4), dtype), arms, {})
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
    side, x = rows[order, 0], rows[order, 1]
    # Sorted position p has candidates p + 1 ... stop[p] - 1.  Its candidate
    # pairs are numbered begins[p] ... ends[p] - 1, and pair t's candidate is
    # t + shift[p].
    stop = np.searchsorted(x, x + side, side="left")
    counts = stop - np.arange(1, len(x) + 1)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        return []
    y = rows[order, 2]
    y_end = y + side
    begins, shift = ends - counts, stop - ends
    del side, x, stop, counts  # a near-budget tree holds 7.5 MB per column
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

    def __post_init__(self) -> None:
        # SVG forbids a negative stroke width and a negative viewBox size; any
        # negative margin crops the drawing, and a large one makes that size negative.
        if not 0 <= self.stroke_width < inf:
            raise ValueError(f"stroke_width must be finite and >= 0, got {self.stroke_width}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")


_STROKE = "#222222"
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
            f'fill="#{v:02x}{v:02x}{v:02x}" stroke="{_STROKE}" '
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
