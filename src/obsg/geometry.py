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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi

# Side lengths at or below this are treated as degenerate.
DEGENERATE_EPS = 1e-9

# Collinear/duplicate vertices produced by clipping are snapped at this scale.
SNAP_EPS = 1e-9


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


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned rectangle given by its extreme coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin <= self.xmax and self.ymin <= self.ymax):
            raise ValueError(f"inverted axis box: {self}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_oriented(self) -> "OrientedBox":
        """Equivalent OrientedBox with theta == 0."""
        return OrientedBox.axis_aligned(self.xmin, self.ymin, self.xmax, self.ymax)


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle with arbitrary planar rotation.

    ``vertices`` keeps the corner order exactly as constructed.  Derived
    center/size/angle parameters assume the clockwise-on-screen order that
    :meth:`from_params` produces; :meth:`is_clockwise` reports whether the
    stored order actually satisfies that, which dataset validation checks
    separately rather than rejecting here.
    """

    vertices: tuple[Point, Point, Point, Point]

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
            ValueError: if a side is degenerate (<= 1e-9) or a value is
                not finite.
        """
        for name, value in (("cx", cx), ("cy", cy), ("theta", theta)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite {name}: {value!r}")
        if not (math.isfinite(w) and math.isfinite(h)):
            raise ValueError(f"non-finite box size: w={w!r} h={h!r}")
        if w <= DEGENERATE_EPS or h <= DEGENERATE_EPS:
            raise ValueError(f"degenerate box size: w={w!r} h={h!r}")
        theta = theta % TWO_PI
        ux, uy = math.cos(theta), math.sin(theta)
        # Perpendicular pointing from edge 1-2 toward edge 3-4 (down at theta=0).
        nx, ny = -uy, ux
        hw, hh = w / 2.0, h / 2.0
        corners = ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
        vertices = tuple(
            (cx + dx * ux + dy * nx, cy + dx * uy + dy * ny) for dx, dy in corners
        )
        return cls(vertices)  # type: ignore[arg-type]

    @classmethod
    def from_vertices(
        cls, vertices: Iterable[Sequence[float]], tol: float = 1e-6
    ) -> "OrientedBox":
        """Build from four corner points, preserving their order.

        The points must form a rectangle: opposite edges equal within
        ``tol`` pixels and adjacent edges perpendicular within the same
        scale.  Both windings are accepted; orientation is a dataset
        validation concern, not a construction error.

        Raises:
            ValueError: wrong point count, non-finite values, degenerate
                sides, or a quad that is not a rectangle within ``tol``.
        """
        pts = [(float(p[0]), float(p[1])) for p in vertices]
        if len(pts) != 4 or any(len(p) != 2 for p in pts):
            raise ValueError(f"expected 4 points, got {pts!r}")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
            raise ValueError(f"non-finite vertex in {pts!r}")
        e1 = (pts[1][0] - pts[0][0], pts[1][1] - pts[0][1])
        e2 = (pts[2][0] - pts[1][0], pts[2][1] - pts[1][1])
        e3 = (pts[3][0] - pts[2][0], pts[3][1] - pts[2][1])
        e4 = (pts[0][0] - pts[3][0], pts[0][1] - pts[3][1])
        if math.hypot(*e1) <= DEGENERATE_EPS or math.hypot(*e2) <= DEGENERATE_EPS:
            raise ValueError(f"degenerate side in {pts!r}")
        if (
            math.hypot(e1[0] + e3[0], e1[1] + e3[1]) > tol
            or math.hypot(e2[0] + e4[0], e2[1] + e4[1]) > tol
        ):
            raise ValueError(f"opposite sides differ beyond tol={tol}: {pts!r}")
        scale = max(math.hypot(*e1), math.hypot(*e2))
        if abs(e1[0] * e2[0] + e1[1] * e2[1]) > tol * scale:
            raise ValueError(f"corners not perpendicular within tol={tol}: {pts!r}")
        return cls(tuple(pts))  # type: ignore[arg-type]

    @classmethod
    def axis_aligned(
        cls, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> "OrientedBox":
        """Axis-aligned rectangle in canonical clockwise order."""
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"inverted or empty extent: {(xmin, ymin, xmax, ymax)}")
        x0, y0, x1, y1 = float(xmin), float(ymin), float(xmax), float(ymax)
        return cls(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))

    @cached_property
    def params(self) -> tuple[float, float, float, float, float]:
        """(cx, cy, w, h, theta) equivalent of the stored vertices."""
        v = self.vertices
        cx = sum(p[0] for p in v) / 4.0
        cy = sum(p[1] for p in v) / 4.0
        w = math.hypot(v[1][0] - v[0][0], v[1][1] - v[0][1])
        h = math.hypot(v[2][0] - v[1][0], v[2][1] - v[1][1])
        theta = math.atan2(v[1][1] - v[0][1], v[1][0] - v[0][0]) % TWO_PI
        return (cx, cy, w, h, theta)

    @cached_property
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
    def center(self) -> Point:
        p = self.params
        return (p[0], p[1])

    @property
    def width(self) -> float:
        return self.params[2]

    @property
    def height(self) -> float:
        return self.params[3]

    @property
    def theta(self) -> float:
        return self.params[4]

    @property
    def area(self) -> float:
        """Rectangle area, always positive."""
        p = self.params
        return p[2] * p[3]

    @property
    def is_clockwise(self) -> bool:
        """True when the stored loop appears clockwise on screen."""
        return shoelace_area(self.vertices) > 0.0

    def to_hbb(self) -> AxisBox:
        """Smallest axis-aligned box covering every vertex."""
        return AxisBox(*self.extent)

    def translate(self, dx: float, dy: float) -> "OrientedBox":
        return OrientedBox(tuple((x + dx, y + dy) for x, y in self.vertices))  # type: ignore[arg-type]


def _positive_loop(vertices: Sequence[Point]) -> list[Point]:
    """Vertex loop with positive shoelace sum (clockwise on screen)."""
    pts = list(vertices)
    if shoelace_area(pts) < 0.0:
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


def _dedupe_loop(poly: list[Point], eps: float = SNAP_EPS) -> list[Point]:
    """Drop consecutive points closer than ``eps`` (loop-closing pair too)."""
    if not poly:
        return poly
    out: list[Point] = [poly[0]]
    for p in poly[1:]:
        if math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > eps:
            out.append(p)
    while len(out) > 1 and math.hypot(
        out[0][0] - out[-1][0], out[0][1] - out[-1][1]
    ) <= eps:
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
    poly = _dedupe_loop(poly)
    if len(poly) < 3:
        return 0.0
    return abs(shoelace_area(poly))


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented boxes, clamped to [0, 1]."""
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)
