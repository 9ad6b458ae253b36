"""Geometry tests: constructions, areas, clipping IoU and pair geometry."""

import math

import numpy as np
import pytest

from obsg import (
    AxisBox,
    ObjectInstance,
    OrientedBox,
    SceneAnnotation,
    intersection_area,
    rotated_iou,
    shoelace_area,
)
from obsg.scorer import _SceneArrays

from oracles import (
    mc_intersection_area,
    mc_iou,
    random_box,
    reference_intersection_area,
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
    assert box.is_clockwise


def test_theta_normalized_to_period():
    a = OrientedBox.from_params(0.0, 0.0, 2.0, 1.0, 0.3)
    b = OrientedBox.from_params(0.0, 0.0, 2.0, 1.0, 0.3 + 2.0 * math.pi)
    for (x1, y1), (x2, y2) in zip(a.vertices, b.vertices):
        assert abs(x1 - x2) < 1e-9
        assert abs(y1 - y2) < 1e-9
    assert 0.0 <= a.theta < 2.0 * math.pi


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


def test_from_vertices_accepts_both_windings():
    cw = OrientedBox.axis_aligned(0.0, 0.0, 2.0, 1.0)
    ccw = OrientedBox.from_vertices(tuple(reversed(cw.vertices)))
    assert cw.is_clockwise
    assert not ccw.is_clockwise
    assert abs(ccw.area - cw.area) < 1e-12


def test_shoelace_sign_convention():
    # Clockwise on screen (y down) means positive shoelace sum.
    cw = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    assert shoelace_area(cw) == 2.0
    assert shoelace_area(list(reversed(cw))) == -2.0


def test_axis_box_properties():
    box = AxisBox(1.0, 2.0, 5.0, 4.0)
    assert box.width == 4.0
    assert box.height == 2.0
    assert box.area == 8.0
    oriented = box.to_oriented()
    assert oriented.vertices == ((1.0, 2.0), (5.0, 2.0), (5.0, 4.0), (1.0, 4.0))
    with pytest.raises(ValueError):
        AxisBox(3.0, 0.0, 1.0, 1.0)


def test_to_hbb_axis_aligned_identity():
    box = OrientedBox.axis_aligned(1.0, 2.0, 5.0, 4.0)
    hbb = box.to_hbb()
    assert (hbb.xmin, hbb.ymin, hbb.xmax, hbb.ymax) == (1.0, 2.0, 5.0, 4.0)


def test_to_hbb_rotated_square():
    box = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, math.pi / 4.0)
    hbb = box.to_hbb()
    root2 = math.sqrt(2.0)
    assert abs(hbb.width - root2) < 1e-12
    assert abs(hbb.height - root2) < 1e-12


def test_to_hbb_tight_on_random_boxes():
    """Extents equal the vertex min/max exactly, so every side touches a vertex."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        box = random_box(rng)
        hbb = box.to_hbb()
        xs = [p[0] for p in box.vertices]
        ys = [p[1] for p in box.vertices]
        assert hbb.xmin == min(xs) and hbb.xmax == max(xs)
        assert hbb.ymin == min(ys) and hbb.ymax == max(ys)


def test_intersection_identical_boxes():
    rng = np.random.default_rng(8)
    for _ in range(100):
        box = random_box(rng)
        assert abs(intersection_area(box, box) - box.area) < 1e-9 * box.area
        assert abs(rotated_iou(box, box) - 1.0) < 1e-9


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


def pair_block(a, b, width=100.0, height=100.0):
    """Geometry rows of the pairs (a, b) and (b, a) of a two-box scene."""
    objects = (ObjectInstance(0, 0, a), ObjectInstance(1, 0, b))
    scene = SceneAnnotation("s", width, height, objects, ())
    return _SceneArrays.of(scene).geometry(np.array([0, 1]), np.array([1, 0]))


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
        sab, sba = pair_block(a, b, 200.0, 150.0)
        assert abs(sab[1] + sba[1]) < 1e-9
        assert abs(sab[0] - sba[0]) < 1e-12
        assert abs(sab[4] - sba[4]) < 1e-9
        assert sab[2] == sba[3]
        assert sab[3] == sba[2]
        assert np.array_equal(sab[5:10], sba[10:15])


def test_pair_geometry_fields_recomputed_from_vertices():
    rng = np.random.default_rng(15)
    width, height = 320.0, 240.0
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
    box = OrientedBox.from_params(0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        pair_block(box, box, 0.0, 100.0)
    with pytest.raises(ValueError):
        pair_block(box, box, 100.0, -5.0)
