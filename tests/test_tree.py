import time
from collections import Counter, namedtuple
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv import (
    BudgetError,
    SvgStyle,
    a,
    b,
    d,
    divisors,
    layout,
    self_overlap,
    sigma,
    to_svg,
)
from recdiv import arith, core
from recdiv import tree as tree_module
from recdiv.arith import is_prime, proper_divisors
from recdiv.cli import main
from recdiv.formats import CHUNK
from recdiv.tree import DivisorTreeLayout

M89 = 2**89 - 1  # a Mersenne prime: trees of its multiples have coordinates past 2**63


def rect_count(svg_text: str) -> int:
    doc = ElementTree.fromstring(svg_text)
    return sum(1 for el in doc.iter() if el.tag.endswith("rect"))


ReferenceLayout = namedtuple("ReferenceLayout", "squares bounding_box")


def as_reference(tree):
    """A layout as the oracles' form: one (side, x, y, depth) tuple per square."""
    return ReferenceLayout([tuple(row) for row in tree.rows.tolist()], tree.bounding_box)


def brute_force_overlaps(reference):
    """Independent oracle: test every pair of open squares directly."""
    squares = reference.squares
    pairs = []
    for i, (si, xi, yi, _) in enumerate(squares):
        for j in range(i + 1, len(squares)):
            sj, xj, yj, _ = squares[j]
            if xi < xj + sj and xj < xi + si and yi < yj + sj and yj < yi + si:
                pairs.append((i, j))
    return pairs


def sweep_overlaps(reference):
    """Oracle: the x-sorted sweep over square tuples that self_overlap vectorises."""
    squares = reference.squares
    order = sorted(range(len(squares)), key=lambda i: squares[i][1])
    pairs = []
    for pos, i in enumerate(order):
        si, xi, yi, _ = squares[i]
        for q in range(pos + 1, len(order)):
            j = order[q]
            sj, xj, yj, _ = squares[j]
            if xj >= xi + si:
                break
            if yi < yj + sj and yj < yi + si:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def per_square_layout(n):
    """Reference layout: one recursive call and one proper_divisors call per square.

    The arm direction k counts quarter turns from NE (0 NE, 1 NW, 2 SW, 3 SE);
    each square seeds its arm one turn on from the arm it sits on.
    """

    def attach(k, px, py, pside, side):
        if k == 0:
            return px + pside, py + pside
        if k == 1:
            return px - side, py + pside
        if k == 2:
            return px - side, py - side
        return px + pside, py - side

    def place(side_len, x, y, depth, k, out):
        out.append((side_len, x, y, depth))
        px, py, pside = x, y, side_len
        for m in reversed(proper_divisors(side_len)):
            cx, cy = attach(k, px, py, pside, m)
            place(m, cx, cy, depth + 1, (k + 1) % 4, out)
            px, py, pside = cx, cy, m

    squares = []
    place(n, 0, 0, 0, 0, squares)
    box = (
        min(x for _, x, _, _ in squares),
        min(y for _, _, y, _ in squares),
        max(x + side for side, x, _, _ in squares),
        max(y + side for side, _, y, _ in squares),
    )
    return ReferenceLayout(squares, box)


def per_rect_svg(reference, style):
    """Reference rendering: format each rect's fill and style in full."""
    min_x, min_y, max_x, max_y = reference.bounding_box
    m = style.margin
    view_box = f"{min_x - m} {-max_y - m} {(max_x - min_x) + 2 * m} {(max_y - min_y) + 2 * m}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view_box}">',
    ]
    for side, x, y, depth in reference.squares:
        level = 255 - 16 * min(depth, 7) if style.shade_by_depth else 255
        lines.append(
            f'  <rect x="{x}" y="{-(y + side)}" width="{side}" height="{side}" '
            f'fill="#{level:02x}{level:02x}{level:02x}" stroke="#222222" '
            f'stroke-width="{style.stroke_width}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def test_unit_layout():
    tree = layout(1)
    assert tree.square_count == 1
    assert as_reference(tree) == ([(1, 0, 0, 0)], (0, 0, 1, 1))


def test_layout_of_six():
    tree = layout(6)
    assert tree.square_count == 6
    assert Counter(tree.rows[:, 0].tolist()) == {6: 1, 3: 1, 2: 1, 1: 3}
    assert tree.side_sum == 14


def test_layout_of_ninety_six():
    tree = layout(96)
    assert tree.square_count == 224
    assert tree.side_sum == 768


def test_main_arm_counts_plain_divisors():
    tree = layout(10)
    arm = tree.rows[tree.rows[:, 3] <= 1, 0].tolist()
    assert sorted(arm) == [1, 2, 5, 10]
    assert len(arm) == d(10)
    assert sum(arm) == sigma(10)


def test_root_seeds_northeast_and_children_rotate():
    tree = layout(10)
    root, child, grandchild = tree.rows[:3].tolist()
    assert root == [10, 0, 0, 0]
    # Kitty-corner NE: the child's lower-left corner on the root's upper-right.
    assert child == [5, 10, 10, 1]
    # One turn on, NW: the grandchild's lower-right corner on the child's upper-left.
    assert grandchild == [1, 9, 15, 2]


def test_layout_deterministic():
    first, second = layout(36), layout(36)
    assert np.array_equal(first.rows, second.rows)
    assert first.bounding_box == second.bounding_box


def test_budget_reports_square_count():
    refusal = (
        r"^divisor tree of 224 squares for 96 exceeds the work budget of 10 squares; "
        r"layout's budget \(tree --budget\) sets it$"
    )
    with pytest.raises(BudgetError, match=refusal):
        layout(96, budget=10)


def test_all_coordinates_are_integers():
    for row in layout(60).rows.tolist():
        assert all(isinstance(value, int) for value in row)


@given(st.integers(1, 400))
@settings(max_examples=120, deadline=None)
def test_counting_identities(n):
    tree = layout(n)
    assert tree.square_count == a(n)
    assert tree.side_sum == b(n)
    arm = tree.rows[tree.rows[:, 3] <= 1, 0]
    assert len(arm) == d(n)
    assert int(arm.sum()) == sigma(n)


def test_overlap_trivial_cases():
    assert self_overlap(layout(1)) == []
    for p in (2, 3, 7, 13):
        assert self_overlap(layout(p)) == []  # two corner-touching squares


def test_overlap_matches_brute_force_on_24():
    tree = layout(24)
    assert self_overlap(tree) == brute_force_overlaps(as_reference(tree))


@given(st.integers(1, 300))
@settings(max_examples=80, deadline=None)
def test_overlap_sweep_matches_brute_force(n):
    tree = layout(n)
    assert self_overlap(tree) == brute_force_overlaps(as_reference(tree))


@pytest.mark.parametrize("n", [1, 12, 4608, 6 * M89])
def test_layout_factors_n_once(monkeypatch, n):
    # Every arm is read from n's one divisor list: no side is factored again.
    seen = []
    real = arith.factorize

    def counting(m, *args):
        seen.append(m)
        return real(m, *args)

    for module in (arith, core, tree_module):
        monkeypatch.setattr(module, "factorize", counting)
    tree = layout(n)
    assert seen == [n]
    monkeypatch.undo()
    assert as_reference(tree) == per_square_layout(n)


@pytest.mark.parametrize("ns", [range(1, 1001), [1536], [4608]], ids=["1-1000", "1536", "4608"])
def test_layout_matches_per_square_oracle(ns):
    # 1536 and 4608 reach depths past 7, so every seeding direction recurs;
    # 4608 spans three SVG chunks.
    for n in ns:
        assert as_reference(layout(n)) == per_square_layout(n), n


@pytest.mark.parametrize("n", [12, 720, 11520, 27720])
def test_layout_concatenates_once_per_side(monkeypatch, n):
    # Each side's NE block is one concatenation; its quarter turn is a copy.
    calls = []
    real = np.concatenate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counting)
    layout(n)
    assert len(calls) == d(n)


def test_overlap_scan_is_linear_in_disjoint_squares():
    # A scan that copied the rest of its x-sorted order for every square
    # would move about 1.25e9 list entries here.
    count = 50_000
    rows = np.zeros((count, 4), np.int64)
    rows[:, 0] = rows[:, 3] = 1  # unit squares at depth 1
    rows[:, 1] = np.arange(count)
    row = DivisorTreeLayout(0, rows, (0, 0, count, 1))
    start = time.perf_counter()
    assert self_overlap(row) == []
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "other, pairs",
    [
        ((2, 1, 1, 1), [(0, 1)]),  # the one candidate pair overlaps
        ((2, 1, 2, 1), []),  # the one candidate pair only shares an edge in y
        ((2, 2, 1, 1), []),  # edge contact in x: no candidate pair at all
    ],
)
def test_overlap_of_two_squares(other, pairs):
    square = (2, 0, 0, 0)  # (side, x, y, depth)
    for rows in ([square, other], [other, square]):
        tree = DivisorTreeLayout(0, np.array(rows, np.int64), (0, 0, 4, 4))
        assert self_overlap(tree) == pairs


@pytest.mark.parametrize("n, pairs", [(1920, 312), (3600, 798), (4608, 209), (11520, 13910)])
def test_overlap_pair_counts_of_large_trees(n, pairs):
    tree = layout(n)
    found = self_overlap(tree)
    assert len(found) == pairs
    # 11520 has 5.3 M candidate pairs: many blocks of the vectorised scan.
    assert found == sweep_overlaps(as_reference(tree))


@pytest.mark.parametrize(
    "style",
    [SvgStyle(), SvgStyle(shade_by_depth=False), SvgStyle(stroke_width=2.5, margin=0)],
    ids=["shaded", "plain", "wide-stroke"],
)
def test_svg_matches_per_rect_rendering(style, assert_same_text):
    tree = layout(1536)  # 2^9 * 3: depths up to 10, past the darkest shade at 7
    assert tree.rows[:, 3].max() > 7
    assert_same_text(to_svg(tree, style), per_rect_svg(as_reference(tree), style))


def test_svg_matches_per_rect_rendering_across_chunks(assert_same_text):
    tree = layout(4608)  # 38,912 rects: three chunks of svg_chunks
    assert tree.square_count > 2 * CHUNK
    assert_same_text(to_svg(tree), per_rect_svg(as_reference(tree), SvgStyle()))


@pytest.mark.parametrize("n", [M89, 6 * M89, 12 * M89], ids=["p", "6p", "12p"])
def test_layout_past_int64_matches_per_square_oracles(n, assert_same_text):
    tree = layout(n)
    reference = per_square_layout(n)
    assert tree.rows.dtype == object  # n * a(n) >= 2**63
    assert as_reference(tree) == reference
    for style in (SvgStyle(), SvgStyle(shade_by_depth=False, stroke_width=0.5, margin=0)):
        assert_same_text(to_svg(tree, style), per_rect_svg(reference, style))
    assert self_overlap(tree) == brute_force_overlaps(reference)


def test_rows_are_int64_exactly_below_the_bound():
    below = next(p for p in range(2**62 - 1, 0, -2) if is_prime(p))
    above = next(p for p in range(2**62 + 1, 2**63, 2) if is_prime(p))
    # A prime's tree is two squares, so n * a(n) = 2n: just under and just over 2**63.
    for n, dtype in ((below, np.int64), (above, object)):
        tree = layout(n)
        assert tree.rows.dtype == dtype
        assert as_reference(tree) == per_square_layout(n)
        assert tree.bounding_box == (0, 0, n + 1, n + 1)
    assert layout(11520).rows.dtype == np.int64


def test_tree_cli_bytes_past_int64(tmp_path, capsys, assert_same_text):
    n = 6 * M89  # x and y reach 2**92
    reference = per_square_layout(n)
    summary = (
        f"squares={a(n)} sidesum={b(n)}\n"
        f"overlaps={len(brute_force_overlaps(reference))}\n"
    )
    assert main(["tree", str(n), "--check-overlap"]) == 0
    out, err = capsys.readouterr()
    assert_same_text(out, per_rect_svg(reference, SvgStyle()))
    assert err == summary
    path = tmp_path / "tree.svg"
    style_flags = ["--no-shading", "--stroke-width", "0.5", "--margin", "0"]
    assert main(["tree", str(n), "-o", str(path), *style_flags]) == 0
    assert capsys.readouterr() == (summary.splitlines(keepends=True)[0], "")
    style = SvgStyle(shade_by_depth=False, stroke_width=0.5, margin=0)
    assert_same_text(path.read_bytes().decode(), per_rect_svg(reference, style))


def test_svg_rect_counts():
    assert rect_count(to_svg(layout(1))) == 1
    assert rect_count(to_svg(layout(10))) == 6
    assert rect_count(to_svg(layout(24))) == 40


def test_svg_y_axis_is_flipped():
    tree = layout(10)
    assert tree.bounding_box == (0, 0, 18, 18)  # sub-arm squares extend past the main arm
    svg = to_svg(tree, SvgStyle(margin=0))
    assert '<rect x="0" y="-10" width="10" height="10"' in svg
    assert 'viewBox="0 -18 18 18"' in svg


def test_svg_style_options():
    plain = to_svg(layout(12), SvgStyle(shade_by_depth=False, stroke_width=0.5))
    assert 'stroke-width="0.5"' in plain
    fills = {line.split('fill="')[1].split('"')[0] for line in plain.splitlines() if "rect" in line}
    assert fills == {"#ffffff"}
    shaded = to_svg(layout(12), SvgStyle(shade_by_depth=True))
    shaded_fills = {
        line.split('fill="')[1].split('"')[0] for line in shaded.splitlines() if "rect" in line
    }
    assert len(shaded_fills) > 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("margin", -1),
        ("stroke_width", -1.0),
        ("stroke_width", float("inf")),
        ("stroke_width", float("nan")),
    ],
)
def test_svg_style_refuses_values_svg_forbids(field, value):
    # A negative margin makes the viewBox size negative; SVG forbids that and
    # a negative stroke width, and neither inf nor nan is a length.
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
        SvgStyle(**{field: value})


def test_svg_style_admits_zero():
    svg = to_svg(layout(10), SvgStyle(stroke_width=0, margin=0))
    assert 'viewBox="0 -18 18 18"' in svg and 'stroke-width="0"/>' in svg
