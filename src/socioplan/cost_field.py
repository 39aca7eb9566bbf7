"""Planar cost synthesis: per-object contributions with distance falloff,
pointwise-maximum combination, optional activity corridors, and
rasterization into a costmap.

The field value at a point is max over contributions of
``1 + (cost - 1) * max(0, 1 - d / clearance)`` where ``d`` is the planar
distance to the contribution's footprint (0 on the object): the contribution
equals ``cost`` on the footprint and decays linearly to 1 at the clearance
distance; ``clearance = 0`` means the object only affects points on its own
footprint. Every field value is therefore >= 1.

A contribution is exactly 1, and cannot raise the maximum, wherever
``d >= clearance`` (``d > 0`` when ``clearance`` is 0) and everywhere when its
cost is 1; so ``field_spec_from_assessment`` leaves out cost-1 entries,
``rasterize`` evaluates each one only inside its window, and every cell
keeps the value a full-grid evaluation of all entries and zones gives it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cost_assessment import out_of_range
from .scene_graph import ObjectNode, RelationKind, SceneGraph, float_tuple, gap_distances

Vec2 = tuple[float, float]

# Largest grid rasterize builds; A* keeps three lists of about this many cells.
MAX_GRID_CELLS = 1_000_000
_EDGE_SLACK = 1e-9  # cells of a side that grid_shape rounds away and cell_at still takes


def planar_points(points: Iterable[Iterable[float]], nonempty: bool = False) -> np.ndarray:
    """``points`` as a float array of rows of at least (x, y), one or more if ``nonempty``;
    ValueError naming its shape otherwise."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2 or (nonempty and not len(pts)):
        rows = "one or more rows" if nonempty else "rows"
        raise ValueError(f"points must be {rows} of at least two numbers, not an array of shape {pts.shape}")
    return pts


class _PlanarDistance:
    def distance(self, points: Iterable[Iterable[float]]) -> np.ndarray:
        """(N,) ``axes_distance`` of the x and y columns of ``planar_points(points)``; (0,) for zero rows."""
        pts = planar_points(points)
        return self.axes_distance(pts[:, 0], pts[:, 1])


@dataclass(frozen=True, init=False)
class RectFootprint(_PlanarDistance):
    """Axis-aligned ground-plane rectangle. ``field_spec_from_assessment``
    builds one per assessed object above cost 1, for every condition of a
    plan and of a report read, so it stores its fields as
    ``scene_graph.ObjectNode`` does."""

    min_xy: Vec2
    max_xy: Vec2

    def __init__(self, min_xy: Iterable[float], max_xy: Iterable[float]) -> None:
        lo = float_tuple(min_xy, "RectFootprint.min_xy")
        hi = float_tuple(max_xy, "RectFootprint.max_xy")
        if lo[0] > hi[0] or lo[1] > hi[1]:
            raise ValueError("footprint min corner must not exceed max corner")
        fields = self.__dict__
        fields["min_xy"] = lo
        fields["max_xy"] = hi

    @property
    def center(self) -> Vec2:
        return (
            (self.min_xy[0] + self.max_xy[0]) / 2.0,
            (self.min_xy[1] + self.max_xy[1]) / 2.0,
        )

    @property
    def sides(self) -> Vec2:
        return (self.max_xy[0] - self.min_xy[0], self.max_xy[1] - self.min_xy[1])

    @property
    def box(self) -> tuple[Vec2, Vec2]:
        """Axis-aligned (min, max) corners."""
        return (self.min_xy, self.max_xy)

    def axes_distance(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Planar distance (``gap_distances``) of the points ``(xs, ys)``, broadcast together; 0 inside."""
        return gap_distances((xs, ys), self.min_xy, self.max_xy)


@dataclass(frozen=True)
class OrientedRectFootprint(_PlanarDistance):
    """Rectangle with an arbitrary in-plane orientation (used for corridors)."""

    center: Vec2
    axis: Vec2  # unit vector along the long side
    half_length: float
    half_width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        ax, ay = (float(c) for c in self.axis)
        norm = math.hypot(ax, ay)
        if norm == 0.0:
            raise ValueError("axis must be a non-zero vector")
        object.__setattr__(self, "axis", (ax / norm, ay / norm))
        if self.half_length < 0 or self.half_width < 0:
            raise ValueError("half sizes must be >= 0")

    @property
    def box(self) -> tuple[Vec2, Vec2]:
        """Axis-aligned (min, max) corners of the rotated rectangle."""
        ux, uy = self.axis
        ex = abs(ux) * self.half_length + abs(uy) * self.half_width
        ey = abs(uy) * self.half_length + abs(ux) * self.half_width
        cx, cy = self.center
        return ((cx - ex, cy - ey), (cx + ex, cy + ey))

    def axes_distance(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Planar distance (``gap_distances``) from the points ``(xs, ys)``, broadcast
        together, to the rectangle, on their signed (along, across) axis coordinates; 0 inside."""
        ux, uy = self.axis
        rx = xs - self.center[0]
        ry = ys - self.center[1]
        hl, hw = self.half_length, self.half_width
        return gap_distances((rx * ux + ry * uy, -rx * uy + ry * ux), (-hl, -hw), (hl, hw))


Footprint = RectFootprint | OrientedRectFootprint


def footprint_of(node: ObjectNode) -> RectFootprint:
    """Ground-plane projection of a node's bounding box."""
    lo, hi = node.bbox_min, node.bbox_max
    return RectFootprint((lo[0], lo[1]), (hi[0], hi[1]))


# --- falloff law --------------------------------------------------------------


def linear_falloff(distance: np.ndarray, cost: float, clearance: float) -> np.ndarray:
    """1 + (cost-1) * max(0, 1 - d/clearance); a point mass when clearance is 0."""
    d = np.asarray(distance, dtype=float)
    if clearance > 0.0:
        with np.errstate(over="ignore"):  # d/clearance may overflow for subnormal clearances
            return 1.0 + (cost - 1.0) * np.maximum(0.0, 1.0 - d / clearance)
    return np.where(d <= 0.0, cost, 1.0)


@dataclass(frozen=True)
class Contribution:
    footprint: Footprint
    cost: float
    clearance: float

    def __post_init__(self) -> None:
        bad = out_of_range(self.cost, self.clearance)
        if bad:
            field_name, value, floor = bad
            raise ValueError(f"{field_name} {value!r} must be >= {floor:g}")


@dataclass(frozen=True)
class FieldSpec:
    """All contributions of a scene; combined by pointwise maximum."""

    contributions: tuple[Contribution, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "contributions", tuple(self.contributions))


@dataclass(frozen=True)
class ActivityZone(Contribution):
    """The corridor of the activity relation (human, verb, target) as a
    contribution: its footprint joins the two footprint centers."""

    human: str
    verb: str
    target: str


def activity_zone(
    graph: SceneGraph, human: str, verb: str, target: str, cost: float, clearance: float
) -> ActivityZone | None:
    """The zone of the relation (human, verb, target) of ``graph``. Its
    corridor runs between the two footprint centers and is as wide as the
    larger planar side of the wider endpoint. None for coincident centers."""
    head, tail = footprint_of(graph.node(human)), footprint_of(graph.node(target))
    hx, hy = head.center
    tx, ty = tail.center
    length = math.hypot(tx - hx, ty - hy)
    if length == 0.0:
        return None
    corridor = OrientedRectFootprint(
        center=((hx + tx) / 2.0, (hy + ty) / 2.0),
        axis=(tx - hx, ty - hy),
        half_length=length / 2.0,
        half_width=max(max(head.sides), max(tail.sides)) / 2.0,
    )
    return ActivityZone(corridor, cost, clearance, human, verb, target)


def make_activity_zones(
    partial: SceneGraph, config: Mapping[str, tuple[float, float]]
) -> list[ActivityZone]:
    """One zone per activity relation whose verb appears in ``config``;
    coincident footprints leave none. An empty config disables the feature
    (the default: costs attach to objects only, not to regions).
    """
    zones = (
        activity_zone(partial, rel.head_id, rel.name, rel.tail_id, *config[rel.name])
        for rel in partial.relations
        if rel.kind is RelationKind.ACTIVITY and rel.name in config
    )
    return [zone for zone in zones if zone is not None]


# --- evaluation ---------------------------------------------------------------


def point_cost(
    point: Iterable[float],
    footprint: Footprint,
    cost: float,
    clearance: float,
) -> float:
    """Field value of a single contribution at one point; always in [1, cost]."""
    return combined_cost(point, FieldSpec((Contribution(footprint, cost, clearance),)))


def combined_cost(point: Iterable[float], spec: FieldSpec) -> float:
    """Pointwise maximum over ``spec.contributions`` at a ``planar_points`` row; 1 for an empty spec."""
    pts = planar_points([tuple(point)], nonempty=True)
    values = np.ones(1)
    for contribution in spec.contributions:
        d = contribution.footprint.distance(pts)
        np.maximum(values, linear_falloff(d, contribution.cost, contribution.clearance), out=values)
    return float(values[0])


def field_spec_from_assessment(graph: SceneGraph, assessment) -> FieldSpec:
    """Contributions of the assessed objects above cost 1 (a cost-1 entry is
    1 everywhere), in sorted-id order. Every entry must name a node of
    ``graph``, whatever its cost; ValueError otherwise."""
    entries, nodes = assessment.entries, graph.nodes
    if unknown := sorted(entries.keys() - nodes.keys()):
        graph.node(unknown[0])  # raises ValueError naming the first unknown id
    return FieldSpec(
        Contribution(footprint_of(nodes[i]), cc.cost, cc.clearance)
        for i, cc in sorted(entries.items()) if cc.cost != 1
    )


# --- costmap ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Costmap:
    """Rasterized planar cost grid.

    ``cells[iy, ix]`` holds the cost at the center of the cell whose lower
    left corner is ``origin + (ix, iy) * resolution``; every cell is finite
    and >= 1. ``resolution`` is held to the floor of ``grid_shape``, so a
    costmap built in code takes the resolutions a map file may carry.
    """

    origin: Vec2
    resolution: float
    width: int
    height: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        origin = tuple(float(c) for c in self.origin)
        if len(origin) != 2 or not all(map(math.isfinite, origin)):
            raise ValueError(f"origin {list(origin)} must be two finite numbers")
        object.__setattr__(self, "origin", origin)
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != (self.height, self.width):
            raise ValueError(f"cells shape {cells.shape} != (height, width)")
        if not 0 < self.resolution < math.inf or self.width <= 0 or self.height <= 0:
            raise ValueError("resolution and dimensions must be > 0")
        _check_square_is_normal(self.resolution)
        if not ((cells >= 1.0) & (cells < math.inf)).all():  # also False for NaN
            raise ValueError("every cell must be finite and >= 1")
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Costmap):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.resolution == other.resolution
            and self.width == other.width
            and self.height == other.height
            and np.array_equal(self.cells, other.cells)
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def max_xy(self) -> Vec2:
        return (
            self.origin[0] + self.width * self.resolution,
            self.origin[1] + self.height * self.resolution,
        )

    def cell_center(self, ix: int, iy: int) -> Vec2:
        return (
            self.origin[0] + (ix + 0.5) * self.resolution,
            self.origin[1] + (iy + 0.5) * self.resolution,
        )

    def cell_at(self, point: Iterable[float]) -> tuple[int, int]:
        """The cell holding ``point``; every point of the closed bounds has one."""
        x, y = (float(c) for c in point)
        fx, fy = (x - self.origin[0]) / self.resolution, (y - self.origin[1]) / self.resolution
        if not (0 <= fx and 0 <= fy and fx - _EDGE_SLACK <= self.width and fy - _EDGE_SLACK <= self.height):
            raise ValueError(f"point ({x}, {y}) lies outside the costmap")
        return (min(math.floor(fx), self.width - 1), min(math.floor(fy), self.height - 1))


def grid_shape(bounds: tuple[Vec2, Vec2], resolution: float) -> tuple[int, int]:
    """(width, height) in cells of the grid that covers ``bounds``.

    Raises ValueError for a non-positive resolution, degenerate bounds, a grid
    of more than ``MAX_GRID_CELLS`` cells (refused from its size alone; nothing
    is allocated) or a cell side whose square is below the smallest normal float.
    """
    (xmin, ymin), (xmax, ymax) = bounds
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("bounds must span a non-degenerate rectangle")
    width = (xmax - xmin) / resolution - _EDGE_SLACK
    height = (ymax - ymin) / resolution - _EDGE_SLACK
    # A side alone over the cap (it may be inf) is refused before ceil; a
    # side shorter than one cell still gets one.
    if max(width, height) > MAX_GRID_CELLS or math.ceil(width) * math.ceil(height) > MAX_GRID_CELLS:
        raise ValueError(
            f"resolution {resolution!r} gives a {width:.6g} x {height:.6g} cell grid;"
            f" at most {MAX_GRID_CELLS:,} cells are allowed"
        )
    _check_square_is_normal(resolution)
    return max(1, math.ceil(width)), max(1, math.ceil(height))


def _check_square_is_normal(resolution: float) -> None:
    """The floor on every cell side: its square must be a normal float, else
    gaps within one cell square to 0 (and ``plan``'s half step lengths would
    round). The smallest side accepted is ``2**-511``, about 1.49e-154."""
    if resolution * resolution < sys.float_info.min:
        raise ValueError(f"resolution {resolution!r} squares to below the smallest normal float")


def rasterize(
    spec: FieldSpec,
    zones: Sequence[ActivityZone],
    bounds: tuple[Vec2, Vec2],
    resolution: float,
) -> Costmap:
    """Sample the field of ``spec.contributions`` and ``zones`` at every cell
    center over ``bounds``; a cost-1 zone costs only its window.

    Each contribution is evaluated only on the cells of its window: those
    whose centers lie in its footprint's box grown by its clearance plus one
    cell, found by ``searchsorted`` on the sorted centers of each axis. A
    center left out lies more than ``clearance + resolution`` beyond the box
    on one axis: the extra cell absorbs rounding and keeps in each center
    whose gap squares to 0. So a left-out center's contribution is exactly 1
    and the pointwise maximum does not change. An infinite margin (a
    clearance near the float maximum) selects the whole axis. Inside, the
    window's column centers ``xs[i0:i1]`` and row centers ``ys[j0:j1, None]``
    broadcast against each other in the footprint's ``axes_distance``, so no
    point array is built and each cell goes through the same elementwise
    operations as ``distance`` in ``combined_cost``: cell values equal
    ``combined_cost`` at the exact centers.
    """
    (xmin, ymin), _ = bounds
    width, height = grid_shape(bounds, resolution)
    xs = xmin + (np.arange(width, dtype=float) + 0.5) * resolution
    ys = ymin + (np.arange(height, dtype=float) + 0.5) * resolution
    values = np.ones((height, width), dtype=float)
    for contribution in (*spec.contributions, *zones):
        (x0, y0), (x1, y1) = contribution.footprint.box
        margin = contribution.clearance + resolution
        i0, i1 = xs.searchsorted(x0 - margin), xs.searchsorted(x1 + margin, "right")
        j0, j1 = ys.searchsorted(y0 - margin), ys.searchsorted(y1 + margin, "right")
        d = contribution.footprint.axes_distance(xs[i0:i1], ys[j0:j1, None])
        window = values[j0:j1, i0:i1]
        np.maximum(window, linear_falloff(d, contribution.cost, contribution.clearance), out=window)
    return Costmap(origin=(float(xmin), float(ymin)), resolution=float(resolution),
                   width=width, height=height, cells=values)

