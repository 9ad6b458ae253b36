"""Oriented box geometry in pixel coordinates.

Coordinates follow the image convention: x grows right, y grows down, so a
vertex loop that appears clockwise on screen has a positive shoelace cross
sum in raw coordinates.  Every box is a rectangle stored redundantly as four
vertices and as center/size/angle parameters; the two forms round-trip.

Angle convention: ``theta`` is the direction of the edge from vertex 1 to
vertex 2, measured in radians from the +x axis and normalized to
``[0, 2*pi)``.  At ``theta == 0`` the vertex order is top-left, top-right,
bottom-right, bottom-left.  Which real-world corner vertex 1 denotes
(front-left for heading-bearing categories, top-left otherwise) is an
annotation contract; the type only preserves the order it was given.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi

# Side lengths at or below this are treated as degenerate.
DEGENERATE_EPS = 1e-9

# Collinear/duplicate vertices produced by clipping are snapped at this scale.
SNAP_EPS = 1e-9

# A box's four points form a rectangle within this many pixels.
RECTANGLE_TOL = 1e-6


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Cross product of (a - o) x (b - o)."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def shoelace_area(vertices: Sequence[Point]) -> float:
    """Signed shoelace area of a polygon.

    Positive for a loop that appears clockwise on screen (y down); the
    magnitude is the enclosed area.
    """
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def _winding(vertices: Sequence[Point]) -> float:
    """Twice the signed area of a four-vertex loop, positive for a loop that
    appears clockwise on screen, as a fan of cross products from its first
    vertex.

    Taken relative to that vertex, its sign does not depend on where the
    loop sits: :func:`shoelace_area` in absolute coordinates loses a
    sub-pixel box far from the origin to cancellation.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = vertices
    return _cross(x0, y0, x1, y1, x2, y2) + _cross(x0, y0, x2, y2, x3, y3)


def _point(p: Sequence[float]) -> Point:
    """``p`` as an ``(x, y)`` pair of floats; any other shape or a
    coordinate that is not a real number is a ``ValueError``."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise ValueError(f"expected an (x, y) point, got {p!r}") from None
    # Exact floats and ints, such as JSON numbers, skip the numbers.Real test.
    if not (type(x) in (float, int) and type(y) in (float, int)):
        for v in (x, y):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"non-numeric coordinate in point {p!r}")
    return (float(x), float(y))


class _cached:
    """A per-instance cache in the manner of ``functools.cached_property``,
    without the lock Python 3.11 takes on every first access.

    The first access stores the value in the instance ``__dict__``, where it
    shadows this descriptor; two threads racing on a first access compute
    the same value.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle with arbitrary planar rotation.

    ``vertices`` keeps the corner order exactly as constructed, as four
    ``(float, float)`` tuples.  Derived center/size/angle parameters assume
    the clockwise-on-screen order that :meth:`from_params` produces;
    dataset validation checks whether the stored order satisfies that (a
    positive :func:`_winding`) rather than rejecting it here.

    Every way of building a box, ``dataclasses.replace`` included, checks
    that the points form a rectangle: opposite edges equal within
    ``RECTANGLE_TOL`` pixels and adjacent edges perpendicular within the
    same scale.  Both windings are accepted.

    Raises:
        ValueError: wrong point count, a point that is not exactly
            ``(x, y)``, a coordinate that is a ``bool`` or not a real
            number (such as a ``str``), non-finite values, sides or area,
            degenerate sides, or a quad that is not a rectangle within
            ``RECTANGLE_TOL``.
    """

    vertices: tuple[Point, Point, Point, Point]

    def __post_init__(self) -> None:
        try:
            (x0, y0), (x1, y1), (x2, y2), (x3, y3) = self.vertices
            # Eight exact floats, as the methods below and JSON floats give, skip _point.
            exact = (float is type(x0) is type(y0) is type(x1) is type(y1) is type(x2)
                     is type(y2) is type(x3) is type(y3))
        except (TypeError, ValueError):
            exact = False
        if not exact:
            pts = [_point(p) for p in self.vertices]
            if len(pts) != 4:
                raise ValueError(f"expected 4 points, got {pts!r}")
            (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
        # Frozen.  object.__setattr__ builds no instance dict, as reading self.__dict__ would.
        vertices = ((x0, y0), (x1, y1), (x2, y2), (x3, y3))
        object.__setattr__(self, "vertices", vertices)
        isfinite, hypot = math.isfinite, math.hypot
        if not (
            isfinite(x0) and isfinite(y0) and isfinite(x1) and isfinite(y1)
            and isfinite(x2) and isfinite(y2) and isfinite(x3) and isfinite(y3)
        ):
            raise ValueError(f"non-finite vertex in {list(vertices)!r}")
        e1x, e1y = x1 - x0, y1 - y0
        e2x, e2y = x2 - x1, y2 - y1
        e3x, e3y = x3 - x2, y3 - y2
        e4x, e4y = x0 - x3, y0 - y3
        side1, side2 = hypot(e1x, e1y), hypot(e2x, e2y)
        # Overflow makes NaN, which passes a `>` test; the corner test uses `<=`.
        if not (isfinite(side1) and isfinite(side2)):
            raise ValueError(f"non-finite side in {list(vertices)!r}")
        if side1 <= DEGENERATE_EPS or side2 <= DEGENERATE_EPS:
            raise ValueError(f"degenerate side in {list(vertices)!r}")
        tol = RECTANGLE_TOL
        if hypot(e1x + e3x, e1y + e3y) > tol or hypot(e2x + e4x, e2y + e4y) > tol:
            raise ValueError(f"opposite sides differ beyond tol={tol}: {list(vertices)!r}")
        if not abs(e1x * e2x + e1y * e2y) <= tol * max(side1, side2):
            raise ValueError(f"corners not perpendicular within tol={tol}: {list(vertices)!r}")
        # An infinite area makes the IoU of the box with itself inf - inf.
        if not isfinite(side1 * side2):
            raise ValueError(f"box area overflows in {list(vertices)!r}")

    @classmethod
    def from_params(
        cls, cx: float, cy: float, w: float, h: float, theta: float
    ) -> "OrientedBox":
        """Build from center, side lengths and rotation angle.

        Args:
            cx, cy: center in pixels.
            w: length of the vertex-1 to vertex-2 edge.
            h: length of the vertex-2 to vertex-3 edge.
            theta: edge direction in radians from the +x axis; any finite
                value is accepted and normalized to [0, 2*pi).

        Raises:
            ValueError: if a size is not above 1e-9 (NaN included), or the
                vertices fail the class's rectangle check.
        """
        if not (w > DEGENERATE_EPS and h > DEGENERATE_EPS):
            raise ValueError(f"degenerate box size: w={w!r} h={h!r}")
        theta = theta % TWO_PI
        ux, uy = math.cos(theta), math.sin(theta)
        # Perpendicular pointing from edge 1-2 toward edge 3-4 (down at theta=0).
        nx, ny = -uy, ux
        hw, hh = w / 2.0, h / 2.0
        corners = ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
        return cls(tuple(
            (cx + dx * ux + dy * nx, cy + dx * uy + dy * ny) for dx, dy in corners
        ))  # type: ignore[arg-type]

    @classmethod
    def from_vertices(cls, vertices: Iterable[Sequence[float]]) -> "OrientedBox":
        """Build from four corner points, preserving their order; the class
        docstring has the rule they must meet."""
        return cls(tuple(vertices))  # type: ignore[arg-type]

    @classmethod
    def axis_aligned(
        cls, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> "OrientedBox":
        """Axis-aligned rectangle in canonical clockwise order."""
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"inverted or empty extent: {(xmin, ymin, xmax, ymax)}")
        x0, y0, x1, y1 = float(xmin), float(ymin), float(xmax), float(ymax)
        return cls(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))

    @_cached
    def params(self) -> tuple[float, float, float, float, float]:
        """(cx, cy, w, h, theta) equivalent of the stored vertices."""
        v = self.vertices
        cx = sum(p[0] for p in v) / 4.0
        cy = sum(p[1] for p in v) / 4.0
        w = math.hypot(v[1][0] - v[0][0], v[1][1] - v[0][1])
        h = math.hypot(v[2][0] - v[1][0], v[2][1] - v[1][1])
        theta = math.atan2(v[1][1] - v[0][1], v[1][0] - v[0][0]) % TWO_PI
        return (cx, cy, w, h, theta)

    @_cached
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the stored vertices."""
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = self.vertices
        return (
            min(x0, x1, x2, x3),
            min(y0, y1, y2, y3),
            max(x0, x1, x2, x3),
            max(y0, y1, y2, y3),
        )

    @property
    def area(self) -> float:
        """Rectangle area, always positive."""
        p = self.params
        return p[2] * p[3]

    def translate(self, dx: float, dy: float) -> "OrientedBox":
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = self.vertices
        return OrientedBox(
            ((x0 + dx, y0 + dy), (x1 + dx, y1 + dy), (x2 + dx, y2 + dy), (x3 + dx, y3 + dy))
        )


def _positive_loop(vertices: Sequence[Point]) -> list[Point]:
    """Vertex loop with positive winding (clockwise on screen)."""
    pts = list(vertices)
    if _winding(pts) < 0.0:
        pts.reverse()
    return pts


def _clip_half_plane(poly: list[Point], a: Point, b: Point) -> list[Point]:
    """Keep the part of ``poly`` on the inner side of directed line a->b.

    For a positive-loop clip polygon the interior satisfies
    cross(b - a, p - a) >= 0; boundary points are kept.
    """
    out: list[Point] = []
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        dp = _cross(a[0], a[1], b[0], b[1], p[0], p[1])
        dq = _cross(a[0], a[1], b[0], b[1], q[0], q[1])
        if dp >= 0.0:
            out.append(p)
        if (dp > 0.0 and dq < 0.0) or (dp < 0.0 and dq > 0.0):
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _dedupe_loop(poly: list[Point]) -> list[Point]:
    """Drop consecutive points closer than ``SNAP_EPS`` (loop-closing pair too)."""
    out: list[Point] = [poly[0]]
    for p in poly[1:]:
        if math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > SNAP_EPS:
            out.append(p)
    while len(out) > 1 and math.hypot(
        out[0][0] - out[-1][0], out[0][1] - out[-1][1]
    ) <= SNAP_EPS:
        out.pop()
    return out


def intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Exact overlap area of two oriented boxes.

    Clips ``a`` against the four half-planes of ``b`` and measures the
    remaining convex polygon with the shoelace formula.  Boxes whose axis
    extents are strictly disjoint cannot overlap and return 0.0 without
    clipping, the same reject detectron2's ``pairwise_iou_rotated`` makes;
    extents that touch still go through the clipper.
    """
    axmin, aymin, axmax, aymax = a.extent
    bxmin, bymin, bxmax, bymax = b.extent
    if axmax < bxmin or bxmax < axmin or aymax < bymin or bymax < aymin:
        return 0.0
    poly = _positive_loop(a.vertices)
    clip = _positive_loop(b.vertices)
    for i in range(4):
        poly = _clip_half_plane(poly, clip[i], clip[(i + 1) % 4])
        if len(poly) < 3:
            return 0.0
    # Two or fewer points left: the shoelace terms cancel to exactly 0.0.
    return abs(shoelace_area(_dedupe_loop(poly)))


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented boxes, clamped to [0, 1].

    Two boxes with equal vertex loops overlap in exactly their area, so
    their IoU is 1.0; the clipped area can miss it in the last bit.  A zero
    intersection costs no area read or division (the union is positive).
    """
    inter = a.area if a.vertices == b.vertices else intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1]: {iou_threshold}")
