"""Optimal path search on a costmap, plus the assess-then-plan iteration that
resolves the circular dependency between trajectory and relevance."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost_assessment import Assessment, Assessor, assess
from .cost_field import (
    ActivityZone,
    Costmap,
    Vec2,
    field_spec_from_assessment,
    make_activity_zones,
    rasterize,
)
from .human_augmentation import Condition, derive_condition_variant
from .scene_graph import SceneGraph, Vec3
from .trajectory_context import Trajectory, induce_partial_graph, relevant_objects

SQRT2 = math.sqrt(2.0)
DEFAULT_MAX_ROUNDS = 3

_NEIGHBORS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class PlanningError(ValueError):
    """Planning could not run or the request was invalid."""


@dataclass(frozen=True)
class PlanRequest:
    start: Vec2
    goal: Vec2
    costmap: Costmap

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", tuple(float(c) for c in self.start))
        object.__setattr__(self, "goal", tuple(float(c) for c in self.goal))


@dataclass(frozen=True)
class Path:
    """8-connected grid path with its world polyline and exact cost."""

    cells: tuple[tuple[int, int], ...]
    polyline: tuple[Vec2, ...]
    total_cost: float
    length_m: float


def path_cost(path: "Path | Sequence[tuple[int, int]]", costmap: Costmap) -> float:
    """Recompute a path's total cost from its cells; 0 for single-cell paths."""
    cells = path.cells if isinstance(path, Path) else tuple(tuple(c) for c in path)
    return path_from_cells(cells, costmap).total_cost


def path_from_cells(cells: tuple[tuple[int, int], ...], costmap: Costmap) -> Path:
    """The path through ``cells`` on ``costmap``.

    A step weighs its length (meters) x the mean of its two endpoint cell
    costs. ``total_cost`` and ``length_m`` add the steps up from the first,
    one float at a time, so they do not depend on how a Python version's
    ``sum`` rounds. Raises PlanningError at the first cell off the map, else
    at the first pair of cells that do not touch.
    """
    for cell in cells:  # on Python ints: an index of any size is refused, not overflowed
        ix, iy = cell
        if not (0 <= ix < costmap.width and 0 <= iy < costmap.height):
            raise PlanningError(f"cell {cell} lies outside the costmap")
    index = np.array(cells, dtype=np.int64).reshape(-1, 2)
    gap = np.abs(np.diff(index, axis=0))
    apart = np.flatnonzero(gap.max(axis=1) != 1).tolist()
    if apart:
        raise PlanningError(f"cells {cells[apart[0]]} and {cells[apart[0] + 1]} are not 8-adjacent")
    lengths = costmap.resolution * np.where(gap.all(axis=1), SQRT2, 1.0)
    values = costmap.cells[index[:, 1], index[:, 0]]
    weights = lengths * ((values[:-1] + values[1:]) / 2.0)
    total_cost = length_m = 0.0
    for weight, length in zip(weights.tolist(), lengths.tolist()):
        total_cost += weight
        length_m += length
    centers = np.asarray(costmap.origin) + (index + 0.5) * costmap.resolution
    return Path(cells, tuple(map(tuple, centers.tolist())), total_cost, length_m)


def plan(request: PlanRequest) -> Path:
    """Minimum-total-cost 8-connected path from start to goal.

    A* with the admissible heuristic "Euclidean distance x global minimum
    cell cost (= 1 by the costmap invariant)". Nodes are reopened whenever a
    cheaper route appears, and ties break deterministically on
    (f, h, cell index), so results are exact optima and platform-stable.

    The search runs on flat lists over the grid padded by one border cell of
    infinite cost: cell ``(ix, iy)`` has index ``(iy + 1) * (width + 2) + ix
    + 1``. A step onto the border weighs ``inf`` and is never taken, so no
    step needs a bounds check. The padded index orders cells by ``(iy, ix)``
    exactly as ``iy * width + ix`` does, and the heuristic and step weights
    keep the arithmetic of ``path_cost``, so expansion order, tie-breaks and
    every float are those of a search keyed by ``(ix, iy)``.
    """
    costmap = request.costmap
    try:
        start = costmap.cell_at(request.start)
        goal = costmap.cell_at(request.goal)
    except ValueError as exc:
        raise PlanningError(str(exc)) from exc

    if start == goal:
        return path_from_cells((start,), costmap)

    resolution = costmap.resolution
    stride = costmap.width + 2
    cost = np.pad(costmap.cells, 1, constant_values=math.inf).ravel().tolist()
    dx = np.arange(-1, costmap.width + 1) - goal[0]
    dy = np.arange(-1, costmap.height + 1) - goal[1]
    heuristic = (resolution * np.sqrt(np.add.outer(dy * dy, dx * dx))).ravel().tolist()
    steps = tuple(
        (oy * stride + ox, resolution * (SQRT2 if ox and oy else 1.0)) for ox, oy in _NEIGHBORS
    )

    start_index = (start[1] + 1) * stride + start[0] + 1
    goal_index = (goal[1] + 1) * stride + goal[0] + 1
    g = [math.inf] * len(cost)
    parent = [-1] * len(cost)
    g[start_index] = 0.0
    h0 = heuristic[start_index]
    frontier = [(h0, h0, start_index, 0.0)]
    push, pop = heapq.heappush, heapq.heappop
    while frontier:
        _, _, index, g_pushed = pop(frontier)
        if g_pushed > g[index]:
            continue  # stale entry
        if index == goal_index:
            break
        cost_here = cost[index]
        for offset, length in steps:
            neighbor = index + offset
            tentative = g_pushed + length * ((cost_here + cost[neighbor]) / 2.0)
            if tentative < g[neighbor]:
                g[neighbor] = tentative
                parent[neighbor] = index
                h = heuristic[neighbor]
                push(frontier, (tentative + h, h, neighbor, tentative))
    else:
        # Every cell is finite, so every cell is reachable; only costs that
        # overflow to inf (cells near the float maximum) end up here.
        raise PlanningError("no path from start to goal")

    chain = [goal_index]
    while chain[-1] != start_index:
        chain.append(parent[chain[-1]])
    return path_from_cells(
        tuple((i % stride - 1, i // stride - 1) for i in reversed(chain)), costmap
    )


def relevant_context(variant: SceneGraph, ids: tuple[str, ...]) -> tuple[SceneGraph, tuple[str, ...]]:
    """The context of the relevant ``ids`` (from ``relevant_objects``): the
    partial graph they induce, and the ids handed to the assessor (``ids``,
    then the humans the partial graph pulled in, sorted)."""
    partial = induce_partial_graph(variant, ids)
    found = set(ids)
    return partial, ids + tuple(i for i in sorted(partial.nodes) if i not in found)


def seed_trajectory(start: Vec2, goal: Vec2, waypoints: Sequence[Vec3] | None) -> Trajectory:
    """Round 1's trajectory: the waypoints if given, else the start-goal segment at z = 0."""
    if waypoints is not None:
        return Trajectory(tuple(waypoints))
    return Trajectory(((start[0], start[1], 0.0), (goal[0], goal[1], 0.0)))


@dataclass(frozen=True)
class PlanIteration:
    """Result of the assess-then-plan loop for one condition, as a report
    stores it. ``stop`` is "converged" when the relevant set repeated,
    "max_rounds" otherwise."""

    condition: Condition
    path: Path
    assessment: Assessment
    rounds: int
    relevant: tuple[str, ...]
    costmap: Costmap
    zones: tuple[ActivityZone, ...]
    stop: str


def iterate_plan(
    graph: SceneGraph,
    condition: Condition,
    start: Vec2,
    goal: Vec2,
    radius: float,
    assessor: Assessor,
    *,
    bounds: tuple[Vec2, Vec2],
    resolution: float,
    preferences: Sequence[str] = (),
    activity_zones: dict[str, tuple[float, float]] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    waypoints: Sequence[Vec3] | None = None,
) -> PlanIteration:
    """Alternate relevance extraction, assessment, and planning to a fixed point.

    Round 1 seeds relevance with ``seed_trajectory``; every later round
    re-extracts the relevant set from the latest path and replans. The loop
    stops when the relevant set repeats, in any order, or ``max_rounds`` is
    reached; the repeat is checked first, so only a round that assesses
    induces a partial graph. The set handed to the assessor is the partial
    graph's node set (radius hits plus attached humans), so human context
    is never dropped.

    A round whose costmap equals the previous round's keeps the previous
    path instead of running A* again: ``plan`` depends only on start, goal
    and costmap. That happens when the relevant set grows only by objects
    that leave the field as it was, such as ones assessed at cost 1.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    variant = derive_condition_variant(graph, condition)
    trajectory = seed_trajectory(start, goal, waypoints)
    previous: frozenset[str] | None = None
    costmap: Costmap | None = None
    rounds = 0
    stop = "max_rounds"
    while rounds < max_rounds:
        ids = relevant_objects(variant, trajectory, radius)
        if frozenset(ids) == previous:
            stop = "converged"
            break
        partial, assessed = relevant_context(variant, ids)
        assessment = assess(assessor, partial, trajectory, assessed, preferences)
        spec = field_spec_from_assessment(partial, assessment)
        zones = tuple(make_activity_zones(partial, activity_zones or {}))
        previous_costmap, costmap = costmap, rasterize(spec, zones, bounds, resolution)
        if costmap != previous_costmap:
            path = plan(PlanRequest(start=start, goal=goal, costmap=costmap))
        trajectory = Trajectory(tuple((x, y, 0.0) for x, y in path.polyline))
        rounds += 1
        previous = frozenset(ids)
        relevant = assessed
    return PlanIteration(condition, path, assessment, rounds, relevant, costmap, zones, stop)
