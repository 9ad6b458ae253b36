"""Geometry tests: constructions, areas, clipping IoU and pair geometry."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import obsg
from obsg import (
    CategoryRegistry,
    DataError,
    Dataset,
    ObjectInstance,
    OrientedBox,
    SceneAnnotation,
    convert_to_hbb,
    intersection_area,
    rotated_iou,
    shoelace_area,
)
from obsg.datamodel import NO_RELATIONS
from obsg.geometry import DEGENERATE_EPS, RECTANGLE_TOL, TWO_PI
from obsg.scorer import _box_table, _pair_geometry

from oracles import (
    mc_intersection_area,
    mc_iou,
    random_box,
    reference_from_vertices,
    reference_intersection_area,
    reference_rotated_iou,
    reference_shoelace,
)

# Octagon fixture: concentric congruent unit squares at 0 and 45 degrees.
# The overlap is a regular octagon of area 2*(sqrt(2)-1); the value below
# was computed by an independent vertex construction before the clipping
# code existed and is frozen here.
OCTAGON_AREA = 2.0 * (math.sqrt(2.0) - 1.0)
OCTAGON_IOU = OCTAGON_AREA / (2.0 - OCTAGON_AREA)  # = sqrt(2)/2


def octagon_vertices():
    """Corners of the 0/45 degree unit-square overlap, built from scratch."""
    t = math.sqrt(2.0) / 2.0 - 0.5
    return [
        (0.5, t), (t, 0.5), (-t, 0.5), (-0.5, t),
        (-0.5, -t), (-t, -0.5), (t, -0.5), (0.5, -t),
    ]


def test_octagon_area_construction_matches_closed_form():
    area = abs(reference_shoelace(octagon_vertices()))
    assert abs(area - OCTAGON_AREA) < 1e-12


def test_octagon_intersection_fixture():
    a = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, 0.0)
    b = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, math.pi / 4.0)
    expected = abs(reference_shoelace(octagon_vertices()))
    assert abs(intersection_area(a, b) - expected) < 1e-12
    assert abs(rotated_iou(a, b) - OCTAGON_IOU) < 1e-12


def test_octagon_against_monte_carlo():
    """Overlap area of the 0/45 fixture vs a 1e6-point estimate within 3 sigma."""
    a = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, 0.0)
    b = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, math.pi / 4.0)
    rng = np.random.default_rng(20240811)
    estimate, sigma = mc_intersection_area(a, b, 1_000_000, rng)
    assert abs(intersection_area(a, b) - estimate) <= 3.0 * sigma


def test_area_unit_square():
    box = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, 0.0)
    assert box.area == 1.0


def test_area_rotation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        box = OrientedBox.from_params(5.0, 7.0, 3.0, 2.0, theta)
        assert abs(box.area - 6.0) < 1e-9


def test_area_matches_shoelace():
    rng = np.random.default_rng(4)
    for _ in range(200):
        box = random_box(rng)
        assert abs(box.area - abs(reference_shoelace(box.vertices))) < 1e-9


def test_from_params_round_trip():
    """vertices -> params -> vertices stays within 1e-6 px."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        box = random_box(rng)
        rebuilt = OrientedBox.from_params(*box.params)
        for (x1, y1), (x2, y2) in zip(box.vertices, rebuilt.vertices):
            assert abs(x1 - x2) < 1e-6
            assert abs(y1 - y2) < 1e-6


def test_from_vertices_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(300):
        box = random_box(rng)
        again = OrientedBox.from_vertices(box.vertices)
        assert again.vertices == box.vertices


def test_theta_zero_corner_order():
    box = OrientedBox.from_params(10.0, 20.0, 4.0, 2.0, 0.0)
    expected = ((8.0, 19.0), (12.0, 19.0), (12.0, 21.0), (8.0, 21.0))
    for (x, y), (ex, ey) in zip(box.vertices, expected):
        assert abs(x - ex) < 1e-12
        assert abs(y - ey) < 1e-12
    assert shoelace_area(box.vertices) > 0


def test_theta_normalized_to_period():
    a = OrientedBox.from_params(0.0, 0.0, 2.0, 1.0, 0.3)
    b = OrientedBox.from_params(0.0, 0.0, 2.0, 1.0, 0.3 + 2.0 * math.pi)
    for (x1, y1), (x2, y2) in zip(a.vertices, b.vertices):
        assert abs(x1 - x2) < 1e-9
        assert abs(y1 - y2) < 1e-9
    assert 0.0 <= a.params[4] < 2.0 * math.pi


def test_degenerate_sides_rejected():
    with pytest.raises(ValueError):
        OrientedBox.from_params(0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        OrientedBox.from_params(0.0, 0.0, 1.0, 1e-10, 0.0)
    with pytest.raises(ValueError):
        OrientedBox.from_params(0.0, 0.0, math.nan, 1.0, 0.0)
    with pytest.raises(ValueError):
        OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, math.inf)


def test_from_vertices_rejects_non_rectangles():
    with pytest.raises(ValueError):
        OrientedBox.from_vertices([(0, 0), (1, 0), (1, 1)])
    with pytest.raises(ValueError):
        OrientedBox.from_vertices([(0, 0), (1, 0), (1.3, 1.1), (0, 1)])
    with pytest.raises(ValueError):
        OrientedBox.from_vertices([(0, 0), (0, 0), (1, 1), (0, 1)])


def test_from_vertices_rejects_overflow():
    # Overflowing differences make NaN, which must fail the tolerance tests.
    with pytest.raises(ValueError, match="non-finite side"):
        OrientedBox.from_vertices([(-1e308, 0), (1e308, 0), (1e308, 10), (-1e308, 10)])
    # A parallelogram whose corner dot product is inf - inf.
    with pytest.raises(ValueError, match="not perpendicular"):
        OrientedBox.from_vertices([(0, 0), (1e200, 1e200), (1.5e200, 0), (5e199, -1e200)])


def test_from_vertices_rejects_overflowing_area():
    # Finite sides of 1e200 px: the area w * h is inf, and the IoU of the
    # box with itself would be inf - inf.
    square = [(-5e199, -5e199), (5e199, -5e199), (5e199, 5e199), (-5e199, 5e199)]
    with pytest.raises(ValueError, match="box area overflows"):
        OrientedBox.from_vertices(square)
    box = OrientedBox.from_vertices([(x / 1e50, y / 1e50) for x, y in square])
    assert math.isfinite(box.area) and rotated_iou(box, box) == 1.0


def test_from_params_rejects_overflowing_area():
    with pytest.raises(ValueError, match="box area overflows"):
        OrientedBox.from_params(0.0, 0.0, 1e200, 1e200, 0.0)
    box = OrientedBox.from_params(0.0, 0.0, 1e150, 1e150, 0.0)
    assert math.isfinite(box.area) and rotated_iou(box, box) == 1.0


def test_from_params_rejects_a_short_side_lost_to_cancellation():
    # The sizes pass the degenerate-size test, but at 1e200 px the 1e-8 px
    # side vanishes from the rotated vertices.
    with pytest.raises(ValueError, match="degenerate side"):
        OrientedBox.from_params(0.0, 0.0, 1e200, 1e-8, math.pi / 4)


def test_axis_aligned_applies_the_vertex_checks():
    # A valid rotated square whose axis-aligned hull has twice its area,
    # beyond float range.
    box = OrientedBox.from_params(0.0, 0.0, 1e154, 1e154, math.pi / 4)
    assert math.isfinite(box.area)
    with pytest.raises(ValueError, match="box area overflows"):
        OrientedBox.axis_aligned(*box.extent)
    with pytest.raises(ValueError, match="degenerate side"):
        OrientedBox.axis_aligned(0.0, 0.0, 1e-12, 1.0)


def test_from_params_rejects_non_finite_vertex():
    with pytest.raises(ValueError, match="non-finite vertex"):
        OrientedBox.from_params(1.7e308, 0.0, 1e308, 1.0, 0.0)


@pytest.mark.parametrize(
    "points, message",
    [
        ([(0, 0, 99), (10, 0, "x"), (10, 10), (0, 10)], r"\(x, y\) point, got \(0, 0, 99\)"),
        ([("0", "0"), ("10", "0"), ("10", "10"), ("0", "10")], r"point \('0', '0'\)"),
        ([(0, 0), (10, True), (10, 10), (0, 10)], r"point \(10, True\)"),
        ([(0, 0), (10, 0), (10, 10), 7], r"\(x, y\) point, got 7"),
    ],
    ids=["three-coordinates", "strings", "bool", "not-a-point"],
)
def test_from_vertices_rejects_malformed_points(points, message):
    with pytest.raises(ValueError, match=message):
        OrientedBox.from_vertices(points)


def test_from_vertices_accepts_numpy_points():
    square = OrientedBox.axis_aligned(0.0, 0.0, 10.0, 10.0)
    for dtype in (np.int64, np.float32, np.float64):
        points = np.array(square.vertices, dtype=dtype)
        assert OrientedBox.from_vertices(points) == square


def test_from_vertices_accepts_both_windings():
    cw = OrientedBox.axis_aligned(0.0, 0.0, 2.0, 1.0)
    ccw = OrientedBox.from_vertices(tuple(reversed(cw.vertices)))
    assert shoelace_area(cw.vertices) > 0
    assert shoelace_area(ccw.vertices) < 0
    assert abs(ccw.area - cw.area) < 1e-12


# A box keeps its attribute values in an array sized by the names its class
# has stored so far, so once any box has cached ``params`` and ``extent``
# every new box takes 16 B more: the budget is measured in a fresh interpreter.
BOX_BYTES = """
import tracemalloc
from obsg import OrientedBox
points = [((float(k), 0.0), (k + 10.0, 0.0), (k + 10.0, 5.0), (float(k), 5.0))
          for k in range(10_000)]
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
boxes = [OrientedBox(p) for p in points]
print((tracemalloc.get_traced_memory()[0] - start) / len(boxes))
"""


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budget is measured on CPython 3.11, the CI version",
)
def test_a_box_holds_its_vertices_in_at_most_400_bytes():
    # 384.7 B a box; 448.7 B when each box built an instance dict.
    src = str(Path(obsg.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", BOX_BYTES], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True,
    )
    assert float(proc.stdout) <= 400


def _corners(cx, cy, w, h, theta):
    """The four corners ``from_params`` computes, unchecked."""
    ux, uy = math.cos(theta), math.sin(theta)
    hw, hh = w / 2.0, h / 2.0
    return [
        (cx + dx * ux - dy * uy, cy + dx * uy + dy * ux)
        for dx, dy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
    ]


def _outcome(build, quad):
    """``build(quad)``'s vertices as text (their exact bits), or its error."""
    try:
        return repr(build(quad))
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


# A float coordinate as each type a caller may pass; values a type cannot
# hold stay floats.
_COORDINATE_TYPES = {
    "float": lambda v: v,
    "int": lambda v: int(v) if math.isfinite(v) else v,
    "int64": lambda v: np.int64(v) if abs(v) < 2.0**62 else v,
    "float32": lambda v: v if abs(v) > 3e38 else np.float32(v),
    "float64": np.float64,
    "bool": lambda v: v > 0,
    "str": str,
    "huge int": lambda v: 10**400,
}


@st.composite
def quads(draw):
    """Quads on both sides of every clause of the rectangle rule, with
    coordinates of every type and points of every shape a caller may pass."""
    shape = draw(st.sampled_from(["rectangle", "tolerance", "collinear", "overflow"]))
    if shape == "rectangle":
        scale = 10.0 ** draw(st.floats(-6, 8))
        quad = _corners(
            draw(st.floats(-1e5, 1e5)), draw(st.floats(-1e5, 1e5)),
            scale * draw(st.floats(0.1, 10)), scale * draw(st.floats(0.1, 10)),
            draw(st.floats(0, TWO_PI)),
        )
    elif shape == "tolerance":
        # A rectangle with one side, or one coordinate's offset, near a bound.
        x, y = draw(st.sampled_from([0.0]) | st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))
        factor = draw(st.sampled_from([1.0]) | st.floats(0.5, 2.0))
        w = draw(st.sampled_from([DEGENERATE_EPS * factor, 1.0, 100.0]))
        h = draw(st.sampled_from([DEGENERATE_EPS * factor, 3.0, 1000.0]))
        quad = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
        k, axis = draw(st.integers(0, 3)), draw(st.integers(0, 1))
        point = list(quad[k])
        point[axis] += RECTANGLE_TOL * factor * draw(st.sampled_from([0.0, 1.0, -1.0]))
        quad[k] = tuple(point)
    elif shape == "collinear":
        a = 10.0 ** draw(st.floats(-10, 3))
        x = draw(st.floats(-1e5, 1e5))
        quad = [(x, 0.0), (x + a, 0.0), (x + 2 * a, 0.0), (x + a, 0.0)]
    elif draw(st.booleans()):
        big = draw(st.sampled_from([1e154, 1e155, 1e200, 1e308]))
        quad = _corners(0.0, 0.0, big, big * draw(st.floats(0.5, 2)), draw(st.floats(0, 1)))
    else:  # sides beyond float range
        x = draw(st.sampled_from([1e307, 9e307, 1.7e308]))
        quad = [(-x, 0.0), (x, 0.0), (x, 10.0), (-x, 10.0)]
    if draw(st.integers(0, 4)) == 0:
        k, axis = draw(st.integers(0, 3)), draw(st.integers(0, 1))
        point = list(quad[k])
        point[axis] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        quad[k] = tuple(point)
    kind = draw(st.sampled_from(["float"] * 4 + sorted(_COORDINATE_TYPES)))
    mixed = draw(st.booleans())
    points = []
    for point in quad:
        cast = [
            _COORDINATE_TYPES[draw(st.sampled_from(["float", kind])) if mixed else kind](v)
            for v in point
        ]
        points.append(draw(st.sampled_from([tuple, list]))(cast))
    defect = draw(st.sampled_from([None] * 4 + ["three", "count", "not-a-point"]))
    k = draw(st.integers(0, 3))
    if defect == "three":
        points[k] = (*points[k], 0.0)
    elif defect == "count":
        points = points[:3] if draw(st.booleans()) else [*points, points[0]]
    elif defect == "not-a-point":
        points[k] = draw(st.sampled_from([7, None, "ab"]))
    return draw(st.sampled_from([tuple, list]))(points)


@settings(max_examples=1500, deadline=None)
@given(quads())
@example([(0, 0), (10, 0), (10, 10), (0, 10)])
@example(((1.0, 1.0),) * 4)
@example([(0.0, 0.0), (1e-8, 0.0), (2e-8, 0.0), (1e-8, 0.0)])
@example([(0.0, 0.0), (1e-9, 0.0), (1e-9, 1.0), (0.0, 1.0)])
@example([(0.0, 0.0), (1.0, 0.0), (1.0 + 1.5e-6, 1000.0), (0.0, 1000.0)])
@example([(0.0, 0.0), (1.0, 0.0), (1.0 + 0.5e-6, 1000.0), (0.0, 1000.0)])
@example([(0.0, 0.0), (1000.0, 0.0), (1000.0 + 1.5e-6, 1.0), (1.5e-6, 1.0)])
@example([(0.0, 0.0), (1000.0, 0.0), (1000.0 + 0.5e-6, 1.0), (0.5e-6, 1.0)])
def test_every_constructor_applies_the_reference_rule(quad):
    expected = _outcome(reference_from_vertices, quad)
    assert _outcome(lambda q: OrientedBox.from_vertices(q).vertices, quad) == expected
    assert _outcome(lambda q: OrientedBox(q).vertices, quad) == expected
    if isinstance(expected, str):
        box = OrientedBox(quad)
        assert all(type(c) is float for point in box.vertices for c in point)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(-1e8, 1e8),
    st.floats(-1e8, 1e8),
    st.floats(-6, 8).map(lambda e: 10.0**e),
    st.floats(0.1, 10),
    st.floats(0, TWO_PI),
    st.floats() | st.integers(-(10**6), 10**6) | st.sampled_from([1.7e308, -1.7e308]),
    st.floats() | st.integers(-(10**6), 10**6),
)
@example(5.0, 5.0, 10.0, 1.0, 0.0, 1.7e308, 0.0)
def test_translate_applies_the_reference_rule(cx, cy, scale, aspect, theta, dx, dy):
    box = OrientedBox.from_params(cx, cy, scale, scale * aspect, theta)
    shifted = [(x + dx, y + dy) for x, y in box.vertices]
    expected = _outcome(reference_from_vertices, shifted)
    assert _outcome(lambda _: box.translate(dx, dy).vertices, None) == expected


def test_shoelace_sign_convention():
    # Clockwise on screen (y down) means positive shoelace sum.
    cw = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    assert shoelace_area(cw) == 2.0
    assert shoelace_area(list(reversed(cw))) == -2.0


def hbb_boxes(boxes: list[OrientedBox]) -> list[OrientedBox]:
    """The boxes ``convert_to_hbb`` gives for ``boxes``, in order."""
    registry = CategoryRegistry(("a",), ("r",))
    objects = tuple(ObjectInstance(i, 0, box) for i, box in enumerate(boxes))
    scene = SceneAnnotation("s", 100, 100, objects, NO_RELATIONS)
    converted = convert_to_hbb(Dataset(registry, "train", (scene,)))
    return [obj.box for obj in converted.scenes[0].objects]


def test_to_hbb_axis_aligned_identity():
    box = OrientedBox.axis_aligned(1.0, 2.0, 5.0, 4.0)
    [hbb] = hbb_boxes([box])
    assert hbb.vertices == box.vertices
    assert hbb.extent == (1.0, 2.0, 5.0, 4.0)


def test_to_hbb_rotated_square():
    box = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, math.pi / 4.0)
    [hbb] = hbb_boxes([box])
    root2 = math.sqrt(2.0)
    assert abs(hbb.params[2] - root2) < 1e-12
    assert abs(hbb.params[3] - root2) < 1e-12


def test_to_hbb_tight_on_random_boxes():
    """The cover's vertices are the four corners of the box's extent exactly,
    clockwise from the top left, so every side touches a vertex."""
    rng = np.random.default_rng(7)
    boxes = [random_box(rng) for _ in range(1000)]
    for box, hbb in zip(boxes, hbb_boxes(boxes)):
        xs = [p[0] for p in box.vertices]
        ys = [p[1] for p in box.vertices]
        xmin, ymin, xmax, ymax = min(xs), min(ys), max(xs), max(ys)
        assert box.extent == (xmin, ymin, xmax, ymax)
        assert hbb.vertices == ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax))


def test_intersection_identical_boxes():
    rng = np.random.default_rng(8)
    for _ in range(100):
        box = random_box(rng)
        assert abs(intersection_area(box, box) - box.area) < 1e-9 * box.area
        # Equal vertex loops, in one object or two, are an IoU of exactly 1.
        assert rotated_iou(box, box) == 1.0
        assert rotated_iou(box, OrientedBox(box.vertices)) == 1.0
    # A loop with no area is not a box.
    with pytest.raises(ValueError, match="degenerate side"):
        OrientedBox(((1.0, 1.0),) * 4)


def test_intersection_disjoint_boxes():
    a = OrientedBox.from_params(0.0, 0.0, 2.0, 2.0, 0.3)
    b = OrientedBox.from_params(100.0, 100.0, 2.0, 2.0, 1.1)
    assert intersection_area(a, b) == 0.0
    assert rotated_iou(a, b) == 0.0


def extents_strictly_disjoint(a, b):
    axmin, aymin, axmax, aymax = a.extent
    bxmin, bymin, bxmax, bymax = b.extent
    return axmax < bxmin or bxmax < axmin or aymax < bymin or bymax < aymin


def test_intersection_early_out_agrees_with_plain_clipper():
    """Disjoint, edge-touching and corner-touching boxes give what a clipper
    without the bounding-box reject gives; strictly disjoint extents give
    exactly 0.0."""
    diamond = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, math.pi / 4.0)
    reach = diamond.extent[2]
    pairs = [
        # shared edge, shared corner, and a gap of one ulp-scale step
        (OrientedBox.axis_aligned(0, 0, 10, 10), OrientedBox.axis_aligned(10, 0, 20, 10)),
        (OrientedBox.axis_aligned(0, 0, 10, 10), OrientedBox.axis_aligned(10, 10, 20, 20)),
        (OrientedBox.axis_aligned(0, 0, 10, 10), OrientedBox.axis_aligned(10 + 1e-9, 0, 20, 10)),
        (OrientedBox.axis_aligned(0, 0, 10, 10), OrientedBox.axis_aligned(0, -7, 10, -1e-12)),
        # rotated boxes meeting vertex to vertex, and just apart
        (diamond, diamond.translate(2 * reach, 0.0)),
        (diamond, diamond.translate(2 * reach + 1e-9, 0.0)),
        # extents overlap although the diamonds do not
        (diamond, diamond.translate(reach * 1.5, reach * 1.5)),
        (OrientedBox.from_params(1e6, 1e6, 4.0, 1.0, 0.3),
         OrientedBox.from_params(1e6 + 50.0, 1e6, 4.0, 1.0, 1.3)),
    ]
    rng = np.random.default_rng(12)
    for _ in range(300):
        pairs.append((random_box(rng, center_hi=60.0), random_box(rng, center_hi=60.0)))
    disjoint = 0
    for a, b in pairs:
        for first, second in ((a, b), (b, a)):
            fast = intersection_area(first, second)
            plain = reference_intersection_area(first, second)
            assert abs(fast - plain) <= 1e-9 * max(first.area, second.area)
            if extents_strictly_disjoint(first, second):
                disjoint += 1
                assert fast == 0.0
                assert plain <= 1e-9 * max(first.area, second.area)
    assert disjoint > 100


def test_touching_boxes_overlap_in_exactly_zero_area():
    """A box moved across one of its edges, and slid along it, shares that
    edge in part, in full or only at a vertex.  Rounding leaves a sliver of
    points along the edge, which the clipper collapses to exactly 0.0 (some
    of these pairs reach the loop-closing step of ``_dedupe_loop``)."""
    for theta in (0.0, 0.3, math.pi / 4, 1.2, 2.5, 4.0):
        a = OrientedBox.from_params(20.0, -7.0, 12.0, 5.0, theta)
        v = a.vertices
        across = (v[0][0] - v[3][0], v[0][1] - v[3][1])
        along = (v[1][0] - v[0][0], v[1][1] - v[0][1])
        for t in (-1.0, -0.4, 0.0, 0.25, 1.0):
            b = a.translate(across[0] + t * along[0], across[1] + t * along[1])
            for first, second in ((a, b), (b, a)):
                assert intersection_area(first, second) == 0.0, (theta, t)
                assert reference_intersection_area(first, second) <= 1e-9 * a.area
                assert rotated_iou(first, second) == 0.0


def test_iou_ignores_the_winding_of_either_box():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a = random_box(rng, center_hi=40.0)
        b = random_box(rng, center_hi=40.0)
        ra = OrientedBox(tuple(reversed(a.vertices)))
        rb = OrientedBox(tuple(reversed(b.vertices)))
        assert shoelace_area(ra.vertices) < 0.0 < shoelace_area(a.vertices)
        iou = rotated_iou(a, b)
        for first, second in ((ra, b), (a, rb), (ra, rb)):
            # The clipper sees the same loops; only the areas may round apart.
            assert intersection_area(first, second) == intersection_area(a, b)
            assert abs(rotated_iou(first, second) - iou) <= 1e-12
        assert abs(rotated_iou(a, ra) - 1.0) <= 1e-12


def test_iou_is_bitwise_the_iou_that_divides_a_zero_intersection():
    """Returning a zero intersection at once gives the bits, sign of zero
    included, of dividing it by the union, which is positive."""
    rng = np.random.default_rng(15)
    square = OrientedBox.axis_aligned(0, 0, 10, 10)
    pairs = [
        (square, square),
        (square, OrientedBox(tuple(reversed(square.vertices)))),
        (square, OrientedBox.axis_aligned(10, 0, 20, 10)),
        (square, OrientedBox.axis_aligned(10, 10, 20, 20)),
        (square, OrientedBox.axis_aligned(30, 0, 40, 10)),
        (square, OrientedBox.axis_aligned(5, 5, 15, 15)),
    ]
    for _ in range(300):
        a = random_box(rng, center_hi=60.0)
        b = random_box(rng, center_hi=60.0)
        v = a.vertices
        touching = a.translate(v[0][0] - v[3][0], v[0][1] - v[3][1])
        pairs += [(a, b), (a, a), (a, touching), (a, a.translate(200.0, 0.0))]
        pairs.append((a, OrientedBox(tuple(reversed(b.vertices)))))
    zeros = 0
    for a, b in pairs:
        for first, second in ((a, b), (b, a)):
            got, want = rotated_iou(first, second), reference_rotated_iou(first, second)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
            zeros += got == 0.0
    assert zeros > 600


def test_extent_is_the_vertex_bounding_box():
    rng = np.random.default_rng(13)
    for _ in range(100):
        box = random_box(rng)
        xs = [p[0] for p in box.vertices]
        ys = [p[1] for p in box.vertices]
        assert box.extent == (min(xs), min(ys), max(xs), max(ys))


def test_intersection_contained_box():
    outer = OrientedBox.from_params(0.0, 0.0, 10.0, 10.0, 0.2)
    inner = OrientedBox.from_params(0.0, 0.0, 2.0, 3.0, 1.0)
    assert abs(intersection_area(outer, inner) - inner.area) < 1e-9
    assert abs(intersection_area(inner, outer) - inner.area) < 1e-9


def test_intersection_symmetry_and_bound():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = random_box(rng, center_hi=40.0)
        b = random_box(rng, center_hi=40.0)
        ab = intersection_area(a, b)
        ba = intersection_area(b, a)
        assert abs(ab - ba) <= 1e-9
        assert ab <= min(a.area, b.area) + 1e-9
        assert ab >= 0.0


def test_half_overlap_unit_squares():
    a = OrientedBox.axis_aligned(0.0, 0.0, 1.0, 1.0)
    b = OrientedBox.axis_aligned(0.5, 0.0, 1.5, 1.0)
    assert abs(intersection_area(a, b) - 0.5) < 1e-12
    assert abs(rotated_iou(a, b) - 1.0 / 3.0) < 1e-12


def test_iou_translation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = random_box(rng, center_hi=30.0)
        b = random_box(rng, center_hi=30.0)
        dx, dy = float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500))
        before = rotated_iou(a, b)
        after = rotated_iou(a.translate(dx, dy), b.translate(dx, dy))
        assert abs(before - after) < 1e-9


def test_iou_against_monte_carlo_sample():
    """Smaller sibling of the acceptance sweep: 100 pairs at 2e4 samples."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_box(rng, center_hi=60.0)
        b = random_box(rng, center_hi=60.0)
        estimate, sigma, k_union = mc_iou(a, b, 20_000, rng)
        if k_union == 0:
            continue
        allowance = 4.0 * sigma + 5.0 / k_union
        assert abs(rotated_iou(a, b) - estimate) <= allowance


def pair_block(a, b, width=100, height=100):
    """Geometry rows of the pairs (a, b) and (b, a) of a two-box scene."""
    objects = (ObjectInstance(0, 0, a), ObjectInstance(1, 0, b))
    scene = SceneAnnotation("s", width, height, objects, NO_RELATIONS)
    return _pair_geometry(_box_table((scene,)), np.array([0, 1]), np.array([1, 0]))


def test_pair_geometry_identity_case():
    box = OrientedBox.from_params(50.0, 50.0, 10.0, 4.0, 0.6)
    row = pair_block(box, box)[0]
    assert row[0] == 0.0  # center distance
    assert abs(row[1]) < 1e-12  # log area ratio
    assert abs(row[4] - 1.0) < 1e-9  # IoU


def test_pair_geometry_three_four_five():
    a = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, 0.0)
    b = OrientedBox.from_params(3.0, 4.0, 1.0, 1.0, 0.0)
    assert abs(pair_block(a, b)[0, 0] - 0.05) < 1e-12  # 5 px in a 100 px image


def test_pair_geometry_swap_law():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_box(rng)
        b = random_box(rng)
        sab, sba = pair_block(a, b, 200, 150)
        assert abs(sab[1] + sba[1]) < 1e-9
        assert abs(sab[0] - sba[0]) < 1e-12
        assert abs(sab[4] - sba[4]) < 1e-9
        assert sab[2] == sba[3]
        assert sab[3] == sba[2]
        assert np.array_equal(sab[5:10], sba[10:15])


def test_pair_geometry_fields_recomputed_from_vertices():
    rng = np.random.default_rng(15)
    width, height = 320, 240
    for _ in range(100):
        a = random_box(rng)
        b = random_box(rng)
        row = pair_block(a, b, width, height)[0]
        acx = sum(p[0] for p in a.vertices) / 4.0
        acy = sum(p[1] for p in a.vertices) / 4.0
        bcx = sum(p[0] for p in b.vertices) / 4.0
        bcy = sum(p[1] for p in b.vertices) / 4.0
        distance = math.hypot((acx - bcx) / width, (acy - bcy) / height)
        assert abs(row[0] - distance) < 1e-9
        area_a = abs(reference_shoelace(a.vertices))
        area_b = abs(reference_shoelace(b.vertices))
        assert abs(row[1] - math.log(area_a / area_b)) < 1e-9
        assert row[4] == rotated_iou(a, b)
        assert abs(row[5] - acx / width) < 1e-9
        assert abs(row[6] - acy / height) < 1e-9
        assert abs(row[10] - bcx / width) < 1e-9
        assert abs(row[11] - bcy / height) < 1e-9
        for value in row[7:10]:
            assert value > 0.0


def test_pair_geometry_rejects_bad_extent():
    # The geometry never sees a bad extent: its scene cannot be built.
    box = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DataError, match=r"^image 's': extent 0x100 outside"):
        pair_block(box, box, 0, 100)
    with pytest.raises(DataError, match=r"^image 's': extent 100x-5 outside"):
        pair_block(box, box, 100, -5)
