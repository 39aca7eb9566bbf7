from __future__ import annotations

import json
import math

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
    path_cost,
    plan,
    planner,
)
from socioplan.cost_assessment import CostClearance, RuleAssessor
from socioplan.cost_field import Costmap, FieldSpec, rasterize
from socioplan.planner import Path, path_from_cells
from socioplan.scene_graph import ObjectNode, SceneGraph

from conftest import DATA_DIR, dijkstra_optimum, random_costmap, uniform_costmap


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

    def test_start_equals_goal(self):
        costmap = uniform_costmap(5, 5)
        result = plan(PlanRequest(start=(2.5, 2.5), goal=(2.5, 2.5), costmap=costmap))
        assert result.cells == ((2, 2),)
        assert result.total_cost == 0.0
        assert result.length_m == 0.0

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
            assert result.total_cost == dijkstra_optimum(costmap, start, goal)

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
            # Many equal-cost diagonal routes; ties break on (f, h, iy, ix).
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
        total_cost += length * ((costmap.value(*a) + costmap.value(*b)) / 2.0)
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


class TestIteratePlan:
    BOUNDS = ((0.0, 0.0), (6.0, 5.0))

    def test_empty_scene_converges_immediately_to_straight_path(self):
        graph = SceneGraph(nodes={})
        outcome = iterate_plan(
            graph,
            Condition.NO_HUMAN,
            (0.5, 0.5),
            (5.5, 4.5),
            1.5,
            RuleAssessor(),
            bounds=self.BOUNDS,
            resolution=0.1,
        )
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
        # A human blocks the direct corridor; avoiding them swings the path
        # near a plant that the straight seed never sees.
        scene = SceneGraph(
            nodes=[
                ObjectNode("plant", "plant", (1.8, 4.6, 0.5), (0.4, 0.4, 1.0)),
            ]
        )
        graph = insert_human(
            scene,
            HumanSpec(id="human_1", bbox_center=(1.2, 2.0, 0.9), bbox_extent=(0.5, 0.5, 1.8)),
        )
        outcome = iterate_plan(
            graph,
            Condition.HUMAN_NO_RELATIONS,
            (0.5, 2.0),
            (5.5, 2.0),
            0.9,
            RuleAssessor(),
            bounds=self.BOUNDS,
            resolution=0.1,
        )
        assert outcome.rounds >= 2
        assert "plant" in outcome.relevant
        assert "human_1" in outcome.relevant

    def test_terminates_within_max_rounds(self):
        scene = SceneGraph(
            nodes=[ObjectNode("plant", "plant", (1.8, 4.6, 0.5), (0.4, 0.4, 1.0))]
        )
        graph = insert_human(
            scene,
            HumanSpec(id="human_1", bbox_center=(1.2, 2.0, 0.9), bbox_extent=(0.5, 0.5, 1.8)),
        )
        for max_rounds in (1, 2, 3, 5):
            outcome = iterate_plan(
                graph,
                Condition.HUMAN_NO_RELATIONS,
                (0.5, 2.0),
                (5.5, 2.0),
                0.9,
                RuleAssessor(),
                bounds=self.BOUNDS,
                resolution=0.1,
                max_rounds=max_rounds,
            )
            assert 1 <= outcome.rounds <= max_rounds

    def test_stop_says_why_the_loop_ended(self):
        # The detour scene needs a second round, so a cap of 1 cuts it short.
        graph = insert_human(
            SceneGraph(nodes=[ObjectNode("plant", "plant", (1.8, 4.6, 0.5), (0.4, 0.4, 1.0))]),
            HumanSpec(id="human_1", bbox_center=(1.2, 2.0, 0.9), bbox_extent=(0.5, 0.5, 1.8)),
        )
        for max_rounds in (1, 2, 3, 5):
            outcome = iterate_plan(
                graph,
                Condition.HUMAN_NO_RELATIONS,
                (0.5, 2.0),
                (5.5, 2.0),
                0.9,
                RuleAssessor(),
                bounds=self.BOUNDS,
                resolution=0.1,
                max_rounds=max_rounds,
            )
            expected = "max_rounds" if outcome.rounds == max_rounds else "converged"
            assert outcome.stop == expected
        assert outcome.stop == "converged"  # five rounds are enough to settle
        empty = iterate_plan(
            SceneGraph(nodes={}), Condition.NO_HUMAN, (0.5, 0.5), (5.5, 4.5), 1.5,
            RuleAssessor(), bounds=self.BOUNDS, resolution=0.1, max_rounds=1,
        )
        assert empty.stop == "max_rounds"

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            iterate_plan(
                SceneGraph(nodes={}),
                Condition.NO_HUMAN,
                (0.5, 0.5),
                (5.5, 4.5),
                1.0,
                RuleAssessor(),
                bounds=self.BOUNDS,
                resolution=0.1,
                max_rounds=0,
            )


class TestIteratePlanReusesPath:
    """A round whose costmap repeats keeps the last path; A* runs once per
    distinct costmap, and the outcome is that of a loop that always replans."""

    BOUNDS = ((0.0, 0.0), (6.0, 5.0))

    def run(self, tag):
        # The straight seed meets only the human; the detour around them
        # pulls in the object, which the rules score (1, 0) as a plant and
        # (3, 1) as a chair beside an unexplained human.
        graph = insert_human(
            SceneGraph(nodes=[ObjectNode("object", tag, (1.8, 4.6, 0.5), (0.4, 0.4, 1.0))]),
            HumanSpec(id="human_1", bbox_center=(1.2, 2.0, 0.9), bbox_extent=(0.5, 0.5, 1.8)),
        )
        return iterate_plan(
            graph, Condition.HUMAN_NO_RELATIONS, (0.5, 2.0), (5.5, 2.0), 0.9,
            RuleAssessor(), bounds=self.BOUNDS, resolution=0.1,
        )

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
