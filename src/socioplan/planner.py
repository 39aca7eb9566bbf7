"""Optimal path search on a costmap, plus the assess-then-plan iteration that
resolves the circular dependency between trajectory and relevance."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
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
from .scene_graph import SceneGraph, Vec3, float_tuple
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
        object.__setattr__(self, "start", float_tuple(self.start, "PlanRequest.start"))
        object.__setattr__(self, "goal", float_tuple(self.goal, "PlanRequest.goal"))


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

    A step weighs ``half x (cost_a + cost_b)`` with ``half = length / 2``,
    the length in meters, as in ``plan``. ``total_cost`` and ``length_m``
    are the last running sums of ``np.add.accumulate``, which adds the
    steps left to right from the first, unlike a Python version's ``sum`` or
    a pairwise sum (oracles: ``test_equals_a_loop_over_every_step`` and
    ``test_shipped_lengths_are_a_left_to_right_sum``). Raises PlanningError
    at the first cell off the map, else at the first pair of cells that do not touch.
    """
    for cell in cells:  # on Python ints: an index of any size is refused, not overflowed
        ix, iy = cell
        if not (0 <= ix < costmap.width and 0 <= iy < costmap.height):
            raise PlanningError(f"cell {cell} lies outside the costmap")
    # The loop unpacked every cell into two, so the cells hold 2n integers.
    index = np.fromiter(chain.from_iterable(cells), np.int64, 2 * len(cells)).reshape(-1, 2)
    gap = np.abs(np.diff(index, axis=0))
    apart = np.flatnonzero(gap.max(axis=1) != 1).tolist()
    if apart:
        raise PlanningError(f"cells {cells[apart[0]]} and {cells[apart[0] + 1]} are not 8-adjacent")
    lengths = costmap.resolution * np.where(gap.all(axis=1), SQRT2, 1.0)
    values = costmap.cells[index[:, 1], index[:, 0]]
    steps = np.zeros((len(lengths) + 1, 2))  # row k + 1: step k's weight and length; row 0 starts both sums
    steps[1:, 0] = (lengths / 2.0) * (values[:-1] + values[1:])
    steps[1:, 1] = lengths
    total_cost, length_m = np.add.accumulate(steps)[-1].tolist()
    centers = np.asarray(costmap.origin) + (index + 0.5) * costmap.resolution
    return Path(cells, tuple(map(tuple, centers.tolist())), total_cost, length_m)


def plan(request: PlanRequest) -> Path:
    """Minimum-total-cost 8-connected path from start to goal; the costmap
    alone fixes its cells.

    A step between neighbours u and v weighs ``w(u, v) = half x (cost[u] +
    cost[v])`` with ``half = length / 2``, in the search, the walk-back and
    ``path_from_cells`` alike. That is length times mean cost: halving a
    normal float is exact, and ``half`` is normal since ``Costmap`` holds
    ``resolution`` at or above ``2**-511``. Let ``d`` be the least float
    fixed point of ``d[v] = min_u fl(d[u] + w(u, v))`` with ``d[start] =
    0``: the values textbook Dijkstra computes. Rounding is monotone and
    every weight is positive, so ``d`` lies at or below every float route
    sum. The path is read off ``d`` backwards. From the goal, each step goes
    to the *tied predecessor* of the current cell v, a neighbour u with
    ``d[u] < d[v] == fl(d[u] + w(u, v))``, that has the least ``(d[u] +
    e(u), e(u), index)``: ``e(u)`` is u's Euclidean distance to the goal in
    meters and the index orders cells by ``(iy, ix)``. Each step lowers
    ``d``, so the walk ends at the start, and ``total_cost``, summed from the
    start along the cells, is ``d[goal]``: the float optimum. Only a step
    whose weight vanishes beside the total (about 2**53 times smaller) can
    leave a cell with no tied predecessor; PlanningError then.

    ``d`` comes from A* (``_astar``) or from an exact bucketed Dijkstra
    (``_buckets``), and ``_takes_buckets`` picks one from the request alone.
    A* with reopening pushes heap entries ``(f, index, g)`` with ``f = g +
    H``; an entry whose g exceeds its cell's is stale; a cell is pushed
    again whenever its g improves. Expanding a cell at g relaxes only the
    neighbours whose g exceeds it: every weight is > 0 and rounding is
    monotone, so ``fl(g + w) >= g``, and a skipped relaxation could not have
    lowered its neighbour; pushes, pops and reopenings are those of relaxing
    all eight. The goal is not expanded. Once it is popped at g, the search
    stops at the first entry with ``f > fl(g x (1 + 1e-9))``. ``H`` is the
    octile distance to the goal, ``r x (D + k x m)`` in floats: D and m are
    the longer and shorter offsets in cells, ``k = fl(sqrt 2) - 1`` and ``r
    = resolution x (1 - 1e-12)``. With ``u = 2**-53``:

    1. *H is consistent under rounding up to the square grid of MAX_GRID_CELLS,
       and admissible at any size.* In exact arithmetic ``r x (D + k x m)``
       changes by at most r between straight neighbours and ``r x (1 + k)``
       between diagonal ones, which undercut the step lengths ``resolution``
       and ``fl(resolution x sqrt 2)`` by more than ``0.99e-12 x resolution``.
       The float H rounds three times, each by at most ``u x H``, so two
       neighbours' H move against each other by at most ``6u x Hmax``. That
       stays inside the slack while the grid's octile extent is under 1,480
       cells: at most 1,415 on the 1,000 x 1,000 grid of MAX_GRID_CELLS, border
       included. (A thinner grid of that many cells may miss by a few ulps of
       H; that costs a reopening, and point 2 needs only admissibility.) Each
       rounding is relative, so H stays below ``(1 - 0.99e-12) x resolution x``
       the octile distance, the length of the shortest route to the goal; and
       every weight is at least its step's length, as every cost is >= 1.
    2. *Reopening and the 1e-9 margin leave every tied predecessor at its fixed
       point.* Each stored g is a float route sum, so g >= d. Let p start a
       route of tied steps (each step's sum rounds to d of the next cell) to
       the goal that repeats no cell: n < MAX_GRID_CELLS steps whose weights
       add up to R. ``d[goal]`` is the float sum of ``d[p]`` and those weights,
       so ``d[p] + R <= d[goal] / (1 - n u) < d[goal] x (1 + 1.2e-10)``; by
       point 1, ``fl(d[p] + H(p)) <= (1 + u)(d[p] + R)`` lies below the stop
       bound, which is at least ``d[goal] x (1 + 1e-9 - 3u)``. Now let q be the
       goal, a walked cell or a tied predecessor of one: each has a tied route
       to the goal, and so does every cell of a tied route from the start to q
       (Dijkstra's, say). Before q, that route has d at most ``d[q]``, below
       ``d[goal]`` unless q is the goal, so it avoids the unexpanded goal. If p
       is its first cell not expanded at ``d[p]``, p's predecessor was, and an
       entry ``(fl(d[p] + H(p)), p, d[p])`` was pushed. It never goes stale, so
       it still waits in the heap below the bound, and the search has not
       stopped. So at the stop all of the route before q was expanded at d, and
       ``g[q] = d[q]``.
    3. *So the cells depend only on the costmap.* A neighbour u of a walked
       cell v with ``fl(g[u] + w) == g[v]`` has ``fl(d[u] + w) <= d[v]``, which
       makes it a tied predecessor under d, where ``g[u] = d[u]``. So the walk
       over g is the walk over d: Dijkstra, or A* with any order of pops, gives
       the same cells. Hart, Nilsson and Raphael (1968) give the
       exact-arithmetic form of points 1 and 2.
    4. *One pass settles a bucket* (Dial, 1969). A pass relaxes at once all
       open cells below ``top = m + resolution x (1 - 1e-9)``, m the least
       open g. A tied predecessor p of a cell v below top has ``d[p] <= d[v]
       / (1 - u) - resolution < m``, as every weight is at least its step's
       length, while ``top < 1e-9 x resolution / u``, about ``9e6 x
       resolution``. So, by induction over the passes, p was settled before
       and v holds d. The search stops at the first top above ``g[goal]``:
       every cell below top holds d, every other g exceeds ``d[goal]``, and
       the walk-back reads d as in point 3.

    ``_takes_buckets`` picks buckets, which make about ``d[goal] /
    resolution`` passes, on grids of at least 10,000 cells (from there up,
    they took less time in all than A* in a sweep of seeded blob maps) when
    the straight cell line of n steps from start to goal crosses a cost
    above 1 (at 1, A* pops about one cell per path cell) and bounds
    ``d[goal]`` by ``max cost x sqrt 2 x resolution x (n + 1) < 4e6 x
    resolution``, in point 4's range.

    Both searches run on the flat grid, padded by one border cell of
    infinite cost: cell ``(ix, iy)`` has index ``(iy + 1) * (width + 2) + ix
    + 1``. A step onto the border weighs ``inf`` and is never taken, so no
    step needs a bounds check. The padded index orders cells by ``(iy, ix)``
    exactly as ``iy * width + ix`` does.
    """
    costmap = request.costmap
    try:
        start = costmap.cell_at(request.start)
        goal = costmap.cell_at(request.goal)
    except ValueError as exc:
        raise PlanningError(str(exc)) from exc

    resolution = costmap.resolution
    stride = costmap.width + 2
    cost = np.pad(costmap.cells, 1, constant_values=math.inf).ravel().tolist()
    steps = tuple(
        (oy * stride + ox, resolution * (SQRT2 if ox and oy else 1.0) / 2.0) for ox, oy in _NEIGHBORS
    )
    start_index = (start[1] + 1) * stride + start[0] + 1
    goal_index = (goal[1] + 1) * stride + goal[0] + 1
    if _takes_buckets(costmap, start, goal):
        g = _buckets(costmap, steps, start_index, goal_index)
    else:
        g = _astar(costmap, goal, cost, steps, start_index, goal_index)
    if g[goal_index] == math.inf:
        # Every cell is finite, so every cell is reachable; only costs that
        # overflow to inf (cells near the float maximum) end up here.
        raise PlanningError("no path from start to goal")

    chain = [goal_index]
    while chain[-1] != start_index:
        here = chain[-1]
        g_here, cost_here = g[here], cost[here]
        best = None
        for offset, half in steps:
            neighbor = here - offset
            g_there = g[neighbor]
            if g_there < g_here and g_there + half * (cost[neighbor] + cost_here) == g_here:
                dx, dy = neighbor % stride - 1 - goal[0], neighbor // stride - 1 - goal[1]
                euclid = resolution * math.sqrt(dx * dx + dy * dy)
                key = (g_there + euclid, euclid, neighbor)
                if best is None or key < best:
                    best = key
        if best is None:
            raise PlanningError(
                "a step's cost vanishes beside the path's total; costs span too wide a range"
            )
        chain.append(best[2])
    return path_from_cells(
        tuple((i % stride - 1, i // stride - 1) for i in reversed(chain)), costmap
    )


def _takes_buckets(costmap: Costmap, start: tuple[int, int], goal: tuple[int, int]) -> bool:
    """Whether ``plan`` searches by buckets, from the request alone; see ``plan``."""
    if costmap.cells.size < 10_000:
        return False
    n = max(abs(goal[0] - start[0]), abs(goal[1] - start[1]))
    ix, iy = np.rint(np.transpose([start]) + np.subtract(goal, start)[:, None] * np.linspace(0, 1, n + 1))
    highest = costmap.cells[iy.astype(np.intp), ix.astype(np.intp)].max()
    return 1.0 < highest and highest * SQRT2 * (n + 1) < 4e6


def _astar(costmap: Costmap, goal, cost: list, steps, start_index: int, goal_index: int) -> list:
    """``plan``'s A* over the padded grid: g per cell, d where the walk-back reads it."""
    ax = np.abs(np.arange(-1, costmap.width + 1) - goal[0])
    ay = np.abs(np.arange(-1, costmap.height + 1) - goal[1])
    octile = np.maximum.outer(ay, ax) + (SQRT2 - 1.0) * np.minimum.outer(ay, ax)
    heuristic = (costmap.resolution * (1.0 - 1e-12) * octile).ravel().tolist()
    g = [math.inf] * len(cost)
    g[start_index] = 0.0
    frontier = [(heuristic[start_index], start_index, 0.0)]
    bound = math.inf
    push, pop = heapq.heappush, heapq.heappop
    while frontier:
        f, index, g_pushed = pop(frontier)
        if f > bound:
            break
        if g_pushed > g[index]:
            continue  # stale entry
        if index == goal_index:
            bound = g_pushed * (1.0 + 1e-9)
            continue
        cost_here = cost[index]
        for offset, half in steps:
            neighbor = index + offset
            g_there = g[neighbor]
            if g_there <= g_pushed:
                continue  # no weight can lower it
            tentative = g_pushed + half * (cost_here + cost[neighbor])
            if tentative < g_there:
                g[neighbor] = tentative
                push(frontier, (tentative + heuristic[neighbor], neighbor, tentative))
    return g


def _buckets(costmap: Costmap, steps, start_index: int, goal_index: int) -> list:
    """``plan``'s bucketed Dijkstra over the padded grid: g per cell, d below ``g[goal]``."""
    padded = np.pad(costmap.cells, 1, constant_values=math.inf).ravel()
    offsets, halves = (np.array(column)[:, None] for column in zip(*steps))
    width = costmap.resolution * (1.0 - 1e-9)
    g = np.full(len(padded), math.inf)
    g[start_index] = 0.0
    entered, stamp = np.isinf(padded), np.empty(len(padded), np.intp)  # the border never enters
    entered[start_index] = True
    open_ = np.array([start_index])
    while open_.size:
        g_open = g[open_]
        top = g_open.min() + width
        if g[goal_index] < top:
            break
        here = g_open < top
        bucket, open_ = open_[here], open_[~here]
        there = bucket + offsets
        np.minimum.at(g, there.ravel(), (g_open[here] + halves * (padded[bucket] + padded[there])).ravel())
        fresh = there[~entered[there]]
        stamp[fresh] = order = np.arange(len(fresh))  # each cell enters the open array once
        fresh = fresh[stamp[fresh] == order]
        entered[fresh] = True
        open_ = np.concatenate((open_, fresh))
    return g.tolist()


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


class RunMemo:
    """What the conditions of one run share (see ``iterate_plan``): ``run``, the
    base scene, start, goal and radius it serves; ``relevant``, the base scene's
    ids per seed waypoints or path polyline; and ``paths``, ``(costmap, path)`` pairs."""

    def __init__(self) -> None:
        self.run, self.relevant, self.paths = None, {}, []


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
    memo: RunMemo | None = None,
) -> PlanIteration:
    """Alternate relevance extraction, assessment, and planning to a fixed point.

    Round 1 seeds relevance with ``seed_trajectory``; every later round
    re-extracts the relevant set from the latest path and replans. The loop
    stops when the relevant set repeats, in any order, or ``max_rounds`` is
    reached; the repeat is checked first, so only a round that assesses
    induces a partial graph. The set handed to the assessor is the partial
    graph's node set (radius hits plus attached humans), so human context
    is never dropped.

    A trajectory or costmap already handled in this run is not handled
    again: ``memo``, which ``run_scenario`` shares among its conditions,
    holds the base scene's relevant ids per trajectory, filtered to the
    variant's nodes (see ``relevant_objects``), and the path per costmap, as
    ``plan`` depends only on start, goal and costmap. A memo serves only the
    base scene, start, goal and radius it first served; ValueError otherwise.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    memo = RunMemo() if memo is None else memo
    run = (graph, tuple(start), tuple(goal), radius)
    if memo.run not in (None, run):
        raise ValueError("the memo serves another base scene, start, goal or radius")
    memo.run = run
    variant = derive_condition_variant(graph, condition)
    trajectory = seed_trajectory(start, goal, waypoints)
    key: tuple = trajectory.waypoints  # later a path's polyline: cheaper to hash, held by the memo
    previous: frozenset[str] | None = None
    rounds = 0
    stop = "max_rounds"
    while rounds < max_rounds:
        if (found := memo.relevant.get(key)) is None:
            found = memo.relevant[key] = relevant_objects(graph, trajectory, radius)
        ids = tuple(i for i in found if i in variant.nodes)
        if frozenset(ids) == previous:
            stop = "converged"
            break
        partial, assessed = relevant_context(variant, ids)
        assessment = assess(assessor, partial, trajectory, assessed, preferences)
        spec = field_spec_from_assessment(partial, assessment)
        zones = tuple(make_activity_zones(partial, activity_zones or {}))
        costmap = rasterize(spec, zones, bounds, resolution)
        path = next((p for c, p in reversed(memo.paths) if c == costmap), None)
        if path is None:
            path = plan(PlanRequest(start=start, goal=goal, costmap=costmap))
            memo.paths.append((costmap, path))
        trajectory, key = Trajectory(tuple((x, y, 0.0) for x, y in path.polyline)), path.polyline
        rounds += 1
        previous = frozenset(ids)
        relevant = assessed
    return PlanIteration(condition, path, assessment, rounds, relevant, costmap, zones, stop)
