from __future__ import annotations

import heapq
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socioplan import (
    Condition,
    HumanSpec,
    PlanRequest,
    PlanningError,
    insert_human,
    iterate_plan,
    plan,
    planner,
)
from socioplan.cost_assessment import CostClearance, rule_based_assess
from socioplan.cli import main
from socioplan.cost_field import Costmap, FieldSpec, rasterize
from socioplan.planner import Path, Run, path_cost, path_from_cells
from socioplan.scenario_runner import load_scenario, run_scenario
from socioplan.scene_graph import ObjectNode, SceneGraph
from socioplan.trajectory_context import induce_partial_graph, relevant_objects

from conftest import DATA_DIR, dijkstra_optimum, dijkstra_path, random_costmap, uniform_costmap


def cells_map(rows, resolution=1.0) -> Costmap:
    cells = np.asarray(rows, dtype=float)
    return Costmap(
        origin=(0.0, 0.0),
        resolution=resolution,
        width=cells.shape[1],
        height=cells.shape[0],
        cells=cells,
    )


class TestPlan:
    def test_uniform_map_diagonal(self):
        costmap = uniform_costmap(5, 5, resolution=0.5)
        result = plan(PlanRequest(start=(0.25, 0.25), goal=(2.25, 2.25), costmap=costmap))
        expected = 4 * math.sqrt(2.0) * 0.5  # 8-connected geodesic x resolution
        assert result.total_cost == pytest.approx(expected, rel=1e-12)
        assert result.total_cost == dijkstra_optimum(costmap, (0, 0), (4, 4))
        assert result.cells[0] == (0, 0) and result.cells[-1] == (4, 4)

    @pytest.mark.parametrize(
        "size, start, goal, cell",
        [
            (5, (2.5, 2.5), (2.5, 2.5), (2, 2)),
            (1, (0.5, 0.5), (0.5, 0.5), (0, 0)),
            (5, (2.1, 2.2), (2.9, 2.6), (2, 2)),
            (5, (5.0, 5.0), (4.6, 4.9), (4, 4)),
        ],
        ids=["same-point", "one-cell-map", "two-points-in-one-cell", "corner-cell"],
    )
    def test_start_equals_goal(self, size, start, goal, cell):
        result = plan(PlanRequest(start=start, goal=goal, costmap=uniform_costmap(size, size, cost=3.0)))
        assert result.cells == (cell,)
        assert result.total_cost == 0.0
        assert result.length_m == 0.0

    @pytest.mark.parametrize("field", ["start", "goal"])
    def test_a_bare_str_endpoint_is_refused(self, field):
        """Split by character, '12' would name cell (1, 2) of this map."""
        endpoints = {"start": (1.5, 2.5), "goal": (4.5, 4.5), field: "12"}
        with pytest.raises(TypeError) as info:
            PlanRequest(costmap=uniform_costmap(5, 5), **endpoints)
        assert str(info.value) == f"PlanRequest.{field} must be an iterable of numbers, not the str '12'"

    def test_out_of_bounds_rejected(self):
        costmap = uniform_costmap(5, 5)
        with pytest.raises(PlanningError, match="outside"):
            plan(PlanRequest(start=(-1.0, 0.0), goal=(2.0, 2.0), costmap=costmap))

    @pytest.mark.parametrize("band_cost,expect_detour", [(5.0, True), (1.05, False)])
    def test_band_with_corridor(self, band_cost, expect_detour):
        # 7x7 map, horizontal 3-wide band of `band_cost` across rows 2-4 with
        # a cost-1 corridor at the right edge.
        rows = np.ones((7, 7))
        rows[2:5, :6] = band_cost
        costmap = cells_map(rows)
        start, goal = (0, 0), (0, 6)
        result = plan(
            PlanRequest(
                start=costmap.cell_center(*start),
                goal=costmap.cell_center(*goal),
                costmap=costmap,
            )
        )
        # Independent oracle on the same map fixes the optimum.
        assert result.total_cost == dijkstra_optimum(costmap, start, goal)
        # Oracle comparison of the two route families: straight through the
        # band versus around it through the corridor.
        blocked_band = rows.copy()
        blocked_band[2:5, :6] = 1e9  # forbid crossing outside the corridor
        through_corridor = dijkstra_optimum(cells_map(blocked_band), start, goal)
        blocked_corridor = rows.copy()
        blocked_corridor[2:5, 6] = 1e9  # forbid the corridor
        straight_through = dijkstra_optimum(cells_map(blocked_corridor), start, goal)
        assert result.total_cost == min(through_corridor, straight_through)
        takes_corridor = any(c[0] == 6 for c in result.cells)
        assert takes_corridor == expect_detour

    def test_matches_dijkstra_on_random_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            costmap = random_costmap(rng)
            start = (int(rng.integers(costmap.width)), int(rng.integers(costmap.height)))
            goal = (int(rng.integers(costmap.width)), int(rng.integers(costmap.height)))
            result = plan(
                PlanRequest(
                    start=costmap.cell_center(*start),
                    goal=costmap.cell_center(*goal),
                    costmap=costmap,
                )
            )
            assert (result.total_cost, result.cells) == dijkstra_path(costmap, start, goal)

    def test_tie_heavy_maps_match_the_reference(self):
        # Uniform and two-valued maps, where many step orders tie: equal
        # routes add up to floats one ulp apart, and an A* that stops at the
        # goal's first pop can return the worse-rounded one.
        rng = np.random.default_rng(2027)
        for _ in range(200):
            width, height = (int(n) for n in rng.integers(2, 40, size=2))
            if rng.random() < 0.5:
                cells = np.ones((height, width))
            else:
                cells = np.where(rng.random((height, width)) < 0.3, 10.0, 1.0)
            costmap = cells_map(cells, resolution=float(rng.uniform(0.05, 1.0)))
            start = (int(rng.integers(width)), int(rng.integers(height)))
            goal = (int(rng.integers(width)), int(rng.integers(height)))
            result = plan(
                PlanRequest(
                    start=costmap.cell_center(*start),
                    goal=costmap.cell_center(*goal),
                    costmap=costmap,
                )
            )
            assert result.total_cost == dijkstra_optimum(costmap, start, goal)
            assert (result.total_cost, result.cells) == dijkstra_path(costmap, start, goal)

    def test_one_ulp_map_is_pinned(self):
        # Stopping at the goal's first pop gave 0.7414213562373095 here.
        costmap = uniform_costmap(12, 29, resolution=0.1)
        result = plan(
            PlanRequest(start=costmap.cell_center(2, 2), goal=costmap.cell_center(1, 9), costmap=costmap)
        )
        assert result.total_cost == 0.7414213562373094 == dijkstra_optimum(costmap, (2, 2), (1, 9))
        assert result.cells == ((2, 2), (2, 3), (2, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9))

    def test_a_step_that_vanishes_in_the_total_is_refused(self):
        # Past the start's cell every step of cost 1 rounds away beside
        # 5e16, so no route to the goal is better than another.
        rows = np.ones((8, 8))
        rows[0, 0] = 1e17
        costmap = cells_map(rows)
        with pytest.raises(PlanningError, match="vanishes"):
            plan(PlanRequest(start=(0.5, 0.5), goal=(7.5, 5.5), costmap=costmap))
        rows[0, 0] = 1e15
        result = plan(PlanRequest(start=(0.5, 0.5), goal=(7.5, 5.5), costmap=cells_map(rows)))
        assert result.total_cost == dijkstra_optimum(cells_map(rows), (0, 0), (7, 5))

    def test_plans_at_the_resolution_floor_as_at_one_meter(self):
        # 2**-511 squares to exactly the smallest normal float. Scaling by a
        # power of two is exact down there, so every weight, g and heuristic
        # value is the one at 1 m times 2**-511: the same cells, the same cost.
        r = 2.0**-511
        rows = np.random.default_rng(5).uniform(1.0, 10.0, size=(4, 6))
        tiny = Costmap(origin=(0.0, 0.0), resolution=r, width=6, height=4, cells=rows)
        result = plan(PlanRequest(start=tiny.cell_center(0, 0), goal=tiny.cell_center(5, 3), costmap=tiny))
        reference = plan(PlanRequest(start=(0.5, 0.5), goal=(5.5, 3.5), costmap=cells_map(rows)))
        assert result.cells == reference.cells
        assert result.total_cost == reference.total_cost * r == path_cost(result, tiny)

    def test_total_cost_equals_recomputation(self):
        rng = np.random.default_rng(11)
        costmap = random_costmap(rng)
        result = plan(
            PlanRequest(
                start=costmap.cell_center(0, 0),
                goal=costmap.cell_center(costmap.width - 1, costmap.height - 1),
                costmap=costmap,
            )
        )
        assert path_cost(result, costmap) == result.total_cost

    def test_deterministic_tie_breaking(self):
        costmap = uniform_costmap(9, 9)
        request = PlanRequest(start=(0.5, 4.5), goal=(8.5, 4.5), costmap=costmap)
        assert plan(request).cells == plan(request).cells

    @pytest.mark.parametrize(
        "width, height, start, goal, cells",
        [
            (9, 9, (0.5, 4.5), (8.5, 4.5), tuple((ix, 4) for ix in range(9))),
            # Many equal-cost diagonal routes; the tie rule picks one.
            (7, 5, (0.5, 0.5), (6.5, 3.5),
             ((0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3))),
        ],
    )
    def test_tie_break_is_pinned(self, width, height, start, goal, cells):
        costmap = uniform_costmap(width, height)
        assert plan(PlanRequest(start=start, goal=goal, costmap=costmap)).cells == cells

    @pytest.mark.parametrize("width, height", [(1, 7), (7, 1), (1, 2), (2, 1)])
    def test_single_row_and_column_grids(self, width, height):
        rng = np.random.default_rng(width * 10 + height)
        costmap = cells_map(rng.uniform(1.0, 10.0, size=(height, width)), resolution=0.5)
        last = (width - 1, height - 1)
        for start, goal in (((0, 0), last), (last, (0, 0))):
            result = plan(
                PlanRequest(
                    start=costmap.cell_center(*start),
                    goal=costmap.cell_center(*goal),
                    costmap=costmap,
                )
            )
            assert result.total_cost == dijkstra_optimum(costmap, start, goal)
            assert len(result.cells) == max(width, height)

    def test_border_and_corner_endpoints(self):
        # Every pair of border cells: paths may run along the padding but
        # never into it.
        rng = np.random.default_rng(31)
        costmap = cells_map(rng.uniform(1.0, 10.0, size=(5, 6)), resolution=0.25)
        border = [
            (ix, iy)
            for iy in range(costmap.height)
            for ix in range(costmap.width)
            if ix in (0, costmap.width - 1) or iy in (0, costmap.height - 1)
        ]
        for start in border:
            for goal in border:
                result = plan(
                    PlanRequest(
                        start=costmap.cell_center(*start),
                        goal=costmap.cell_center(*goal),
                        costmap=costmap,
                    )
                )
                assert result.cells[0] == start and result.cells[-1] == goal
                assert result.total_cost == dijkstra_optimum(costmap, start, goal)
                assert path_cost(result, costmap) == result.total_cost

    def test_raising_a_cell_never_helps(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            costmap = random_costmap(rng, max_side=12)
            start = (0, 0)
            goal = (costmap.width - 1, costmap.height - 1)
            request = PlanRequest(
                start=costmap.cell_center(*start),
                goal=costmap.cell_center(*goal),
                costmap=costmap,
            )
            base = plan(request).total_cost
            bumped_cells = costmap.cells.copy()
            iy = int(rng.integers(costmap.height))
            ix = int(rng.integers(costmap.width))
            bumped_cells[iy, ix] += rng.uniform(0.5, 5.0)
            bumped = Costmap(
                origin=costmap.origin,
                resolution=costmap.resolution,
                width=costmap.width,
                height=costmap.height,
                cells=bumped_cells,
            )
            higher = plan(
                PlanRequest(
                    start=bumped.cell_center(*start),
                    goal=bumped.cell_center(*goal),
                    costmap=bumped,
                )
            ).total_cost
            assert higher >= base


def _forced(request, buckets):
    """``plan(request)`` with its search fixed, bypassing ``_takes_buckets``."""
    with mock.patch.object(planner, "_takes_buckets", return_value=buckets):
        return plan(request)


def _searches(request):
    """``plan(request)`` and the names of the searches it ran."""
    spies = {name: mock.Mock(wraps=getattr(planner, name)) for name in ("_astar", "_buckets")}
    with mock.patch.multiple(planner, **spies):
        path = plan(request)
    return path, [name for name, spy in spies.items() for _ in range(spy.call_count)]


class TestBucketSearch:
    """The bucketed Dijkstra and A* compute the same ``d``, so ``plan`` gives
    the same path whichever search its rule picks."""

    def test_both_searches_equal_the_oracle_on_seeded_maps(self):
        rng = np.random.default_rng(36)
        for i in range(240):
            width, height = (int(side) for side in rng.integers(1, 41, size=2))
            kind = ("tie-heavy", "all-1", "random")[i % 3]
            if kind == "tie-heavy":
                cells = rng.integers(1, 4, size=(height, width)).astype(float)
            elif kind == "all-1":
                cells = np.ones((height, width))
            else:
                cells = rng.uniform(1.0, 10.0, size=(height, width))
            resolution = (0.05, 0.1, 0.25, 0.5, 1.0)[i % 5]
            costmap = Costmap(tuple(rng.uniform(-50.0, 50.0, size=2)), resolution, width, height, cells)
            start, goal = ((int(rng.integers(width)), int(rng.integers(height))) for _ in range(2))
            request = PlanRequest(costmap.cell_center(*start), costmap.cell_center(*goal), costmap)
            by_buckets, by_astar = _forced(request, True), _forced(request, False)
            optimum, cells_path = dijkstra_path(costmap, start, goal)
            assert by_buckets.cells == by_astar.cells == cells_path, (i, kind)
            assert by_buckets.total_cost == by_astar.total_cost == optimum, (i, kind)

    def test_all_1_square_with_an_off_diagonal_trip(self):
        # A* pops every cell of its tie parallelogram here; the rule picks A*,
        # as the line crosses no cell above cost 1.
        costmap = uniform_costmap(200, 200, resolution=0.05)
        request = PlanRequest(costmap.cell_center(0, 0), costmap.cell_center(199, 100), costmap)
        with mock.patch.object(heapq, "heappop", side_effect=heapq.heappop) as pop:
            by_astar = _forced(request, False)
        assert pop.call_count == 10_561
        assert _forced(request, True) == by_astar
        assert _searches(request) == (by_astar, ["_astar"])

    def test_the_rule_reads_cells_line_and_float_range(self):
        """Buckets for a raised line on 10,000 cells; A* below that size, for a
        line at cost 1 and for a line whose route bound leaves the range."""
        def request(side, line_cost):
            cells = np.ones((side, side))
            cells[:, side // 2] = line_cost  # a wall across the straight line
            costmap = cells_map(cells, resolution=0.1)
            return PlanRequest(costmap.cell_center(0, 3), costmap.cell_center(side - 1, side - 4), costmap)

        cases = [(100, 2.0, "_buckets"), (99, 2.0, "_astar"), (100, 1.0, "_astar"), (100, 3e4, "_astar")]
        for side, line_cost, search in cases:
            path, searches = _searches(request(side, line_cost))
            assert searches == [search], (side, line_cost)
            assert path == _forced(request(side, line_cost), buckets=search == "_astar")  # the other search
        # The line has n = 99 steps: 3e4 x sqrt 2 x (n + 1) is just over 4e6, 2.8e4 x ... just under.
        assert _searches(request(100, 2.8e4))[1] == ["_buckets"]


class TestPlanInPlace:
    """``plan`` reads the padded grid, the heuristic and g in place, so a
    search holds no whole-grid Python list, and the layout of the costmap's
    cells cannot change a path."""

    @pytest.mark.parametrize("buckets", [True, False], ids=["buckets", "astar"])
    def test_peak_memory_of_one_plan(self, buckets):
        cells = np.ones((300, 300))
        cells[150, :295] = 50.0  # a wall across the straight line
        costmap = cells_map(cells)
        request = PlanRequest(costmap.cell_center(150, 20), costmap.cell_center(150, 280), costmap)
        assert planner._takes_buckets(costmap, (150, 20), (150, 280))
        tracemalloc.start()
        try:
            path = _forced(request, buckets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.cells[-1] == (150, 280)
        # A list of the padded costs alone takes about 4x the cells' bytes: a pointer and a float per cell.
        assert peak < 6 * costmap.cells.nbytes

    @pytest.mark.parametrize("buckets", [True, False], ids=["buckets", "astar"])
    @pytest.mark.parametrize(
        "layout", [lambda big: big.T, lambda big: big.T[::2, :]], ids=["transposed", "strided"]
    )
    def test_cells_in_any_layout_give_the_path_of_a_contiguous_copy(self, layout, buckets):
        big = np.random.default_rng(38).uniform(1.0, 10.0, size=(60, 240))
        view = layout(big)
        assert not view.flags.c_contiguous
        on_view, on_copy = (cells_map(cells, resolution=0.1) for cells in (view, np.ascontiguousarray(view)))
        assert not on_view.cells.flags.c_contiguous  # Costmap keeps the view
        height, width = view.shape
        start, goal = on_view.cell_center(2, 3), on_view.cell_center(width - 3, height - 2)
        path = _forced(PlanRequest(start, goal, on_view), buckets)
        assert path == _forced(PlanRequest(start, goal, on_copy), buckets)


def _edge_points(bounds):
    """The four corners and four edge midpoints of closed ``bounds``."""
    (xmin, ymin), (xmax, ymax) = bounds
    xs, ys = (xmin, (xmin + xmax) / 2, xmax), (ymin, (ymin + ymax) / 2, ymax)
    return [(x, y) for x in xs for y in ys if x != xs[1] or y != ys[1]]


def _assert_cell_holds(costmap, cell, point):
    # The cell's closed extent holds the point, up to the slack grid_shape drops.
    slack = 1e-9 * costmap.resolution
    for i, (index, coordinate, count) in enumerate(
        zip(cell, point, (costmap.width, costmap.height))
    ):
        low = costmap.origin[i] + index * costmap.resolution
        assert 0 <= index < count
        assert low - slack <= coordinate <= low + costmap.resolution + slack


class TestEndpointsOnTheMapEdge:
    """Every point of the closed map bounds has a cell: one on the far edge
    takes the last cell, and start and goal there plan."""

    @pytest.mark.parametrize(
        "bounds, resolution",
        [(((0.0, 0.0), (6.0, 5.0)), r) for r in (0.07, 0.1, 0.25, 0.3, 1.0)]
        + [
            (((0.0, 0.0), (6.05, 5.0)), 0.1),  # span not a multiple of the resolution
            (((0.0, 0.0), (2.1, 2.7)), 0.3),  # span / resolution just over a whole number
            (((-3.7, 1.25), (2.3, 6.25)), 0.25),
        ],
    )
    def test_corners_and_edge_midpoints_plan(self, bounds, resolution):
        costmap = rasterize(FieldSpec(()), (), bounds, resolution)
        points = _edge_points(bounds)
        for point in points:
            _assert_cell_holds(costmap, costmap.cell_at(point), point)
        (xmax, ymax) = bounds[1]
        assert costmap.cell_at((xmax, ymax)) == (costmap.width - 1, costmap.height - 1)
        for start in points:
            for goal in points:
                result = plan(PlanRequest(start=start, goal=goal, costmap=costmap))
                assert result.cells[0] == costmap.cell_at(start)
                assert result.cells[-1] == costmap.cell_at(goal)

    @given(
        low=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        span=st.tuples(st.floats(0.05, 40), st.floats(0.05, 40)),
        cells=st.integers(1, 300),
        data=st.data(),
    )
    def test_every_point_of_the_bounds_has_a_cell(self, low, span, cells, data):
        bounds = (low, (low[0] + span[0], low[1] + span[1]))
        costmap = rasterize(FieldSpec(()), (), bounds, max(span) / cells)
        (xmin, ymin), (xmax, ymax) = bounds
        inside = st.tuples(st.floats(xmin, xmax), st.floats(ymin, ymax))
        for point in _edge_points(bounds) + [data.draw(inside) for _ in range(3)]:
            _assert_cell_holds(costmap, costmap.cell_at(point), point)

    def test_points_past_the_far_edge_have_no_cell(self):
        costmap = rasterize(FieldSpec(()), (), ((0.0, 0.0), (6.0, 5.0)), 0.1)
        for point in ((6.0 + 1e-6, 2.0), (3.0, 5.0 + 1e-6), (-1e-12, 2.0), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="outside the costmap"):
                costmap.cell_at(point)


class TestPathCost:
    def test_single_cell_is_zero(self):
        assert path_cost([(0, 0)], uniform_costmap(3, 3)) == 0.0

    def test_unit_step(self):
        assert path_cost([(0, 0), (1, 0)], uniform_costmap(3, 3)) == 1.0

    def test_diagonal_step_with_mixed_costs(self):
        costmap = cells_map([[1.0, 2.0], [5.0, 3.0]])
        # sqrt(2) x mean(1, 3) = 2 sqrt(2)
        assert path_cost([(0, 0), (1, 1)], costmap) == math.sqrt(2.0) * 2.0

    def test_out_of_bounds_cell_rejected(self):
        with pytest.raises(PlanningError, match="outside"):
            path_cost([(0, 0), (0, 3)], uniform_costmap(3, 3))

    def test_non_adjacent_cells_rejected(self):
        with pytest.raises(PlanningError, match="adjacent"):
            path_cost([(0, 0), (2, 0)], uniform_costmap(3, 3))


def _path_by_step(cells, costmap):
    """The path through ``cells``, one cell and one step at a time: the
    oracle of ``path_from_cells``, errors included."""
    for cell in cells:
        ix, iy = cell
        if not (0 <= ix < costmap.width and 0 <= iy < costmap.height):
            raise PlanningError(f"cell {cell} lies outside the costmap")
    total_cost = length_m = 0.0
    for a, b in zip(cells, cells[1:]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            raise PlanningError(f"cells {a} and {b} are not 8-adjacent")
        length = costmap.resolution * (math.sqrt(2.0) if a[0] != b[0] and a[1] != b[1] else 1.0)
        total_cost += length * ((costmap.cells[a[1], a[0]] + costmap.cells[b[1], b[0]]) / 2.0)
        length_m += length
    return Path(cells, tuple(costmap.cell_center(*c) for c in cells), total_cost, length_m)


def _outcome(build, cells, costmap):
    try:
        path = build(cells, costmap)
    except PlanningError as exc:
        return str(exc)
    return path, path.total_cost.hex(), path.length_m.hex()


_MOVES = st.sampled_from([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy])
_JUMPS = st.sampled_from([(0, 0), (2, 0), (0, -3), (2, 1), (-4, 4)])
_STRIDES = st.one_of(
    st.lists(_MOVES, max_size=40),
    st.builds(lambda move, n: [move] * n, _MOVES, st.integers(1, 30)),  # one long straight run
)


class TestPathFromCells:
    @settings(max_examples=300, deadline=None)
    @given(
        size=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        seed=st.integers(0, 2**32 - 1),
        resolution=st.sampled_from([0.05, 0.1, 0.25, 0.0123, 1.0]),
        origin=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        strides=_STRIDES,
        jump=st.none() | _JUMPS,
        stay=st.booleans(),
        data=st.data(),
    )
    def test_equals_a_loop_over_every_step(
        self, size, seed, resolution, origin, strides, jump, stay, data
    ):
        width, height = size
        rng = np.random.default_rng(seed)
        values = rng.choice([1.0, 1.0, 2.5, 7.0], size=(height, width)) + rng.random((height, width))
        costmap = Costmap(origin, resolution, width, height, values)
        if jump is not None:  # one pair of cells that do not touch
            strides = strides[:]
            strides.insert(data.draw(st.integers(0, len(strides))), jump)
        # A walk that stays on the map starts on it and skips each stride that
        # would leave it; any other walk starts on the map or next to it.
        off = 0 if stay else 1
        start = st.tuples(st.integers(-off, width - 1 + off), st.integers(-off, height - 1 + off))
        walk = [data.draw(start)]
        for dx, dy in strides:
            cell = (walk[-1][0] + dx, walk[-1][1] + dy)
            if not stay or (0 <= cell[0] < width and 0 <= cell[1] < height):
                walk.append(cell)
        cells = tuple(walk)
        assert _outcome(path_from_cells, cells, costmap) == _outcome(_path_by_step, cells, costmap)

    def test_an_index_of_any_size_is_refused(self):
        costmap = uniform_costmap(3, 3)
        for cell in ((10**400, 0), (0, -(10**400))):
            assert _outcome(path_from_cells, ((0, 0), cell), costmap) == (
                f"cell {cell} lies outside the costmap"
            )

    def test_sums_run_left_to_right(self):
        """Step weights 2**53, 1 and 1: each 1 added to 2**53 rounds away, so the
        left-to-right sum is 2**53; a pairwise or compensated sum gives 2**53 + 2."""
        costmap = Costmap((0.0, 0.0), 1.0, 4, 1, np.array([[2.0**54, 1.0, 1.0, 1.0]]))
        path = path_from_cells(((0, 0), (1, 0), (2, 0), (3, 0)), costmap)
        assert path.total_cost == 2.0**53 != 2.0**53 + 2.0
        assert path.length_m == 3.0

    def test_shipped_lengths_are_a_left_to_right_sum(self):
        # On Python 3.12 and later, sum() compensates rounding error; the
        # stored lengths are the plain left-to-right float sum of the steps.
        report = json.loads((DATA_DIR / "bedroom_report.json").read_text())
        resolution = report["map"]["resolution"]
        costmap = uniform_costmap(60, 50, resolution)
        for condition in report["conditions"]:
            cells = tuple(map(tuple, condition["path"]["cells"]))
            length_m = 0.0
            for a, b in zip(cells, cells[1:]):
                length_m += resolution * (math.sqrt(2.0) if a[0] != b[0] and a[1] != b[1] else 1.0)
            assert condition["path"]["length_m"] == length_m
            assert path_from_cells(cells, costmap).length_m == length_m


def detour_scene(tag="plant", **human) -> SceneGraph:
    """A human blocks the direct corridor from (0.5, 2) to (5.5, 2); avoiding
    them swings the path near ``object``, a ``tag``, that the straight seed never sees."""
    return insert_human(
        SceneGraph(nodes=[ObjectNode("object", tag, (1.8, 4.6, 0.5), (0.4, 0.4, 1.0))]),
        HumanSpec(id="human_1", bbox_center=(1.2, 2.0, 0.9), bbox_extent=(0.5, 0.5, 1.8), **human),
    )


def make_run(scene, start=(0.5, 2.0), goal=(5.5, 2.0), radius=0.9, **options) -> Run:
    """A ``Run`` on the 6 m x 5 m test map at 0.1 m, by default across ``detour_scene``."""
    return Run(scene, start, goal, radius, **{"bounds": ((0.0, 0.0), (6.0, 5.0)), "resolution": 0.1, **options})


def empty_run(**options) -> Run:
    return make_run(SceneGraph(nodes={}), (0.5, 0.5), (5.5, 4.5), 1.5, **options)


class TestIteratePlan:
    def test_empty_scene_converges_immediately_to_straight_path(self):
        outcome = iterate_plan(empty_run(), Condition.NO_HUMAN, rule_based_assess)
        assert outcome.rounds == 1
        assert outcome.assessment.entries == {}
        assert outcome.relevant == ()
        # uniform map: the path realizes the 8-connected geodesic
        start_cell = outcome.costmap.cell_at((0.5, 0.5))
        goal_cell = outcome.costmap.cell_at((5.5, 4.5))
        dx = abs(goal_cell[0] - start_cell[0])
        dy = abs(goal_cell[1] - start_cell[1])
        geodesic = 0.1 * (abs(dx - dy) + min(dx, dy) * math.sqrt(2.0))
        assert outcome.path.total_cost == pytest.approx(geodesic, rel=1e-9)

    def test_detour_pulls_new_object_into_radius(self):
        outcome = iterate_plan(make_run(detour_scene()), Condition.HUMAN_NO_RELATIONS, rule_based_assess)
        assert outcome.rounds >= 2
        assert "object" in outcome.relevant
        assert "human_1" in outcome.relevant

    def test_terminates_within_max_rounds(self):
        for max_rounds in (1, 2, 3, 5):
            run = make_run(detour_scene(), max_rounds=max_rounds)
            outcome = iterate_plan(run, Condition.HUMAN_NO_RELATIONS, rule_based_assess)
            assert 1 <= outcome.rounds <= max_rounds

    def test_stop_says_why_the_loop_ended(self):
        # The detour scene needs a second round, so a cap of 1 cuts it short.
        for max_rounds in (1, 2, 3, 5):
            run = make_run(detour_scene(), max_rounds=max_rounds)
            outcome = iterate_plan(run, Condition.HUMAN_NO_RELATIONS, rule_based_assess)
            expected = "max_rounds" if outcome.rounds == max_rounds else "converged"
            assert outcome.stop == expected
        assert outcome.stop == "converged"  # five rounds are enough to settle
        empty = iterate_plan(empty_run(max_rounds=1), Condition.NO_HUMAN, rule_based_assess)
        assert empty.stop == "max_rounds"

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            empty_run(max_rounds=0)


class TestOnePartialGraphPerRound:
    """A round that finds its relevant set repeated stops before inducing a
    partial graph, so each condition induces one graph per assessed round."""

    @pytest.fixture
    def induced(self, monkeypatch):
        calls = []

        def counting_induce(graph, ids):
            calls.append(ids)
            return induce_partial_graph(graph, ids)

        monkeypatch.setattr(planner, "induce_partial_graph", counting_induce)
        return calls

    def test_iterate_plan_induces_once_per_round(self, induced):
        stops = set()
        for max_rounds in (1, 2, 3, 5):
            induced.clear()
            run = make_run(detour_scene(), max_rounds=max_rounds)
            outcome = iterate_plan(run, Condition.HUMAN_NO_RELATIONS, rule_based_assess)
            assert len(induced) == outcome.rounds
            stops.add(outcome.stop)
        assert stops == {"converged", "max_rounds"}

    def test_bedroom_run_induces_once_per_assessed_round(self, induced):
        report = run_scenario(load_scenario(DATA_DIR / "bedroom_scenario.json"))
        assert len(induced) == sum(result.rounds for result in report.conditions) == 3

    def test_assess_command_induces_once_per_condition(self, induced, capsys):
        assert main(["assess", str(DATA_DIR / "bedroom_scenario.json")]) == 0
        capsys.readouterr()
        assert len(induced) == len(Condition) == 3


class TestIteratePlanReusesPath:
    """A round whose costmap repeats keeps the last path; A* runs once per
    distinct costmap, and the outcome is that of a loop that always replans."""

    def run(self, tag):
        # The rules score the object (1, 0) as a plant and (3, 1) as a chair
        # beside an unexplained human.
        return iterate_plan(make_run(detour_scene(tag)), Condition.HUMAN_NO_RELATIONS, rule_based_assess)

    def reused_and_replanned(self, monkeypatch, tag):
        costmaps = []

        def counting_plan(request):
            costmaps.append(request.costmap)
            return plan(request)

        with monkeypatch.context() as patch:
            patch.setattr(planner, "plan", counting_plan)
            reused = self.run(tag)
            reused_costmaps = list(costmaps)
            costmaps.clear()
            patch.setattr(Costmap, "__eq__", lambda self, other: False)
            replanned = self.run(tag)
        assert len(costmaps) == replanned.rounds
        return reused, reused_costmaps, replanned

    def assert_same_iteration(self, reused, replanned):
        assert reused.path.cells == replanned.path.cells
        assert reused.path.total_cost == replanned.path.total_cost
        assert (reused.rounds, reused.relevant, reused.stop) == (
            replanned.rounds, replanned.relevant, replanned.stop,
        )
        assert reused.costmap == replanned.costmap
        assert reused == replanned

    def test_cost_one_object_reuses_the_path(self, monkeypatch):
        reused, costmaps, replanned = self.reused_and_replanned(monkeypatch, "plant")
        assert reused.rounds == 2 and reused.stop == "converged"
        assert reused.assessment.entries["object"] == CostClearance(1.0, 0.0)
        assert len(costmaps) == 1  # round 2 rasterized the same costmap
        self.assert_same_iteration(reused, replanned)

    def test_changed_costmap_runs_a_star_again(self, monkeypatch):
        reused, costmaps, replanned = self.reused_and_replanned(monkeypatch, "chair")
        assert reused.rounds == 2 and reused.stop == "converged"
        assert reused.assessment.entries["object"] == CostClearance(3.0, 1.0)
        assert len(costmaps) == 2 and costmaps[0] != costmaps[1]
        assert costmaps[1] == reused.costmap
        self.assert_same_iteration(reused, replanned)


class TestRun:
    """A ``Run`` fixes every input that its relevance and path tables do not
    key on, so one ``Run`` serves all of a run's conditions."""

    SETTINGS = {
        "resolution": {"resolution": 0.2}, "bounds": {"bounds": ((-1.0, 0.0), (6.0, 5.0))},
        "activity_zones": {"activity_zones": {"watching": (4.0, 0.5)}},
        "waypoints": {"waypoints": [(0.5, 2.0, 0.0), (3.0, 4.5, 0.0), (5.5, 2.0, 0.0)]},
    }

    def assert_shared_answers_as_fresh(self, condition, **settings):
        """The condition's answer does not depend on what the other conditions
        left in the tables."""
        scene = detour_scene("chair", activity_relations=(("watching", "object"),))
        shared = make_run(scene, **settings)
        for other in Condition:
            if other is not condition:
                iterate_plan(shared, other, rule_based_assess)
        fresh = iterate_plan(make_run(scene, **settings), condition, rule_based_assess)
        assert iterate_plan(shared, condition, rule_based_assess) == fresh

    @pytest.mark.parametrize("condition", list(Condition))
    def test_a_run_shared_by_all_conditions_answers_each_as_a_fresh_run(self, condition):
        self.assert_shared_answers_as_fresh(condition)

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_a_shared_run_with_another_setting_answers_each_as_a_fresh_run(self, name):
        """What the tables key on, a trajectory and a costmap, covers every
        other input the run fixes."""
        for condition in Condition:
            self.assert_shared_answers_as_fresh(condition, **self.SETTINGS[name])

    def test_each_trajectory_and_costmap_is_handled_once(self, monkeypatch):
        queried, planned = [], []

        def counting_relevant(scene, trajectory, radius):
            queried.append(trajectory)
            return relevant_objects(scene, trajectory, radius)

        def counting_plan(request):
            planned.append(request.costmap)
            return plan(request)

        monkeypatch.setattr(planner, "relevant_objects", counting_relevant)
        monkeypatch.setattr(planner, "plan", counting_plan)
        run = make_run(detour_scene("chair", activity_relations=(("watching", "object"),)))
        first = [iterate_plan(run, condition, rule_based_assess) for condition in Condition]
        assert len(queried) == len(set(queried)) and run.seed in queried
        assert all(a != b for i, a in enumerate(planned) for b in planned[:i])
        counts = len(queried), len(planned)
        assert [iterate_plan(run, condition, rule_based_assess) for condition in Condition] == first
        assert (len(queried), len(planned)) == counts
