from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socioplan import (
    Assessment,
    CostClearance,
    ObjectNode,
    RectFootprint,
    SceneGraph,
    combined_cost,
    field_spec_from_assessment,
    footprint_of,
    insert_human,
    load_scene,
    point_cost,
    rasterize,
)
from socioplan.cost_assessment import Provenance
from socioplan.cost_field import (
    MAX_GRID_CELLS,
    ActivityZone,
    Contribution,
    Costmap,
    FieldSpec,
    OrientedRectFootprint,
    activity_zone,
    grid_shape,
    linear_falloff,
    make_activity_zones,
)
from socioplan.scenario_runner import load_scenario

from conftest import make_seated_human_spec, make_small_scene

POINT_MASS = RectFootprint((0.0, 0.0), (0.0, 0.0))  # degenerate: distance = |p|


def at_distance(d: float) -> tuple[float, float]:
    return (d, 0.0)


BEDROOM_ENTRIES = {
    "armchair": CostClearance(1.0, 0.0),
    "bed": CostClearance(3.0, 1.5),
    "human": CostClearance(5.0, 2.0),
}


def assessment_of(entries) -> Assessment:
    return Assessment(entries=entries, provenance=Provenance(assessor="test"))


def bedroom_with_human(data_dir) -> SceneGraph:
    """The shipped bedroom scene with the scenario's human inserted."""
    scenario = load_scenario(data_dir / "bedroom_scenario.json")
    return insert_human(load_scene(scenario.scene_path().read_bytes()), scenario.human)


class TestPointCost:
    def test_value_at_object_equals_cost(self):
        assert point_cost(at_distance(0.0), POINT_MASS, 3.0, 1.5) == 3.0

    def test_vanishes_at_clearance(self):
        assert point_cost(at_distance(1.5), POINT_MASS, 3.0, 1.5) == 1.0

    def test_linear_midpoint(self):
        # Hand evaluation: 1 + (3 - 1) * (1 - 0.75 / 1.5) = 2.0
        assert point_cost(at_distance(0.75), POINT_MASS, 3.0, 1.5) == 2.0

    def test_zero_clearance_is_a_point_mass(self):
        assert point_cost(at_distance(0.0), POINT_MASS, 4.0, 0.0) == 4.0
        assert point_cost(at_distance(1e-9), POINT_MASS, 4.0, 0.0) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            point_cost(at_distance(0.0), POINT_MASS, 0.5, 1.0)
        with pytest.raises(ValueError):
            point_cost(at_distance(0.0), POINT_MASS, 2.0, -1.0)

    def test_distance_measured_from_footprint_surface(self):
        rect = RectFootprint((0.0, 0.0), (2.0, 1.0))
        assert point_cost((2.5, 0.5), rect, 3.0, 1.0) == pytest.approx(2.0, abs=0)
        assert point_cost((1.0, 0.5), rect, 3.0, 1.0) == 3.0  # inside

    @given(
        cost=st.floats(1, 10),
        clearance=st.floats(0, 5),
        d1=st.floats(0, 10),
        d2=st.floats(0, 10),
    )
    def test_bounded_and_monotone(self, cost, clearance, d1, d2):
        lo, hi = sorted((d1, d2))
        v_lo = point_cost(at_distance(lo), POINT_MASS, cost, clearance)
        v_hi = point_cost(at_distance(hi), POINT_MASS, cost, clearance)
        assert 1.0 <= v_hi <= v_lo <= cost + 1e-12


class TestCombinedCost:
    def test_empty_spec_is_one(self):
        assert combined_cost((12.3, -4.5), FieldSpec(())) == 1.0

    def test_max_rule(self):
        spec = FieldSpec(
            (
                Contribution(RectFootprint((0, 0), (1, 1)), 2.0, 1.0),
                Contribution(RectFootprint((0, 0), (1, 1)), 3.0, 1.0),
            )
        )
        assert combined_cost((0.5, 0.5), spec) == 3.0

    def test_human_contribution_half_meter_away(self):
        # 1 + (5 - 1) * (1 - 0.5 / 2) = 4.0, others too far to matter
        spec = FieldSpec(
            (
                Contribution(RectFootprint((0, 0), (0.5, 0.5)), 5.0, 2.0),
                Contribution(RectFootprint((30, 30), (31, 31)), 3.0, 1.5),
            )
        )
        assert combined_cost((1.0, 0.25), spec) == 4.0

    @given(
        x=st.floats(-3, 3),
        y=st.floats(-3, 3),
    )
    def test_max_dominates_each_contribution(self, x, y):
        contributions = (
            Contribution(RectFootprint((0, 0), (1, 1)), 4.0, 2.0),
            Contribution(RectFootprint((1.5, -1), (2, 0)), 2.5, 1.0),
        )
        spec = FieldSpec(contributions)
        total = combined_cost((x, y), spec)
        for c in contributions:
            assert total >= point_cost((x, y), c.footprint, c.cost, c.clearance)


class TestActivityZones:
    def graph(self):
        return insert_human(make_small_scene(), make_seated_human_spec())

    def test_watching_creates_a_corridor(self):
        zones = make_activity_zones(self.graph(), {"watching": (4.0, 0.5)})
        assert len(zones) == 1
        zone = zones[0]
        assert (zone.human, zone.verb, zone.target) == ("human_1", "watching", "tv")
        assert (zone.cost, zone.clearance) == (4.0, 0.5)
        human = footprint_of(self.graph().node("human_1"))
        tv = footprint_of(self.graph().node("tv"))
        expected_center = (
            (human.center[0] + tv.center[0]) / 2.0,
            (human.center[1] + tv.center[1]) / 2.0,
        )
        assert zone.footprint.center == pytest.approx(expected_center)
        expected_length = math.dist(human.center, tv.center)
        assert 2.0 * zone.footprint.half_length == pytest.approx(expected_length)
        assert 2.0 * zone.footprint.half_width == pytest.approx(
            max(max(human.sides), max(tv.sides))
        )
        # zone cost applies between the endpoints
        mid = zone.footprint.center
        raster = rasterize(FieldSpec(()), zones, ((0, 0), (6, 5)), 0.1)
        ix, iy = raster.cell_at(mid)
        assert raster.cells[iy, ix] > 1.0

    def test_activity_zone_of_coincident_centers_is_none(self):
        graph = SceneGraph([
            ObjectNode("human", "human", (1.5, 2.0, 0.5), (1.0, 2.0, 1.0)),
            ObjectNode("tv", "tv", (1.5, 2.0, 0.5), (0.5, 1.0, 1.0)),  # the human's center
            ObjectNode("lamp", "lamp", (4.0, 2.0, 0.5), (0.5, 0.5, 1.0)),
        ])
        assert activity_zone(graph, "human", "watching", "tv", 4.0, 0.5) is None
        zone = activity_zone(graph, "human", "watching", "lamp", 4.0, 0.5)
        assert zone.footprint.axis == (1.0, 0.0) and zone.footprint.half_width == 1.0

    def test_activity_zone_is_checked_like_every_contribution(self):
        with pytest.raises(ValueError, match="cost 0.5 must be >= 1"):
            activity_zone(self.graph(), "human_1", "watching", "tv", 0.5, 0.5)

    def test_empty_config_disables_zones(self):
        assert make_activity_zones(self.graph(), {}) == []

    def test_non_matching_verb_produces_nothing(self):
        from socioplan import HumanSpec

        graph = insert_human(
            make_small_scene(),
            HumanSpec(
                id="human_2",
                bbox_center=(2.0, 2.0, 0.9),
                bbox_extent=(0.5, 0.5, 1.8),
                spatial_relations=(("sitting on", "armchair"),),
            ),
        )
        assert make_activity_zones(graph, {"watching": (4.0, 0.5)}) == []


class TestRasterize:
    def test_empty_spec_uniform_ones(self):
        costmap = rasterize(FieldSpec(()), (), ((0, 0), (1, 1)), 0.1)
        assert costmap.width == 10 and costmap.height == 10
        assert np.all(costmap.cells == 1.0)

    def test_cell_on_footprint_equals_cost(self):
        spec = FieldSpec((Contribution(RectFootprint((0.4, 0.4), (0.6, 0.6)), 7.0, 0.0),))
        costmap = rasterize(spec, (), ((0, 0), (1, 1)), 0.1)
        ix, iy = costmap.cell_at((0.5, 0.5))
        assert costmap.cells[iy, ix] == 7.0

    def test_max_cell_equals_strongest_contribution(self, data_dir):
        # Exhaustive scan: the human's cost dominates the rasterized map.
        graph = bedroom_with_human(data_dir)
        spec = field_spec_from_assessment(graph, assessment_of(BEDROOM_ENTRIES))
        costmap = rasterize(spec, (), ((0, 0), (6, 5)), 0.1)
        assert float(costmap.cells.max()) == 5.0

    def test_cell_centers_match_combined_cost_exactly(self):
        spec = FieldSpec(
            (
                Contribution(RectFootprint((0.3, 0.7), (1.1, 1.9)), 4.0, 1.3),
                Contribution(OrientedRectFootprint((2.0, 1.0), (1.0, 2.0), 1.0, 0.25), 2.5, 0.8),
            )
        )
        costmap = rasterize(spec, (), ((0, 0), (3, 2.5)), 0.25)
        for iy in range(costmap.height):
            for ix in range(costmap.width):
                center = costmap.cell_center(ix, iy)
                assert costmap.cells[iy, ix] == combined_cost(center, spec)

    def test_coincident_centers_agree_across_resolutions(self):
        # Tripling the resolution makes every coarse center a fine center
        # ((i + 0.5) * r == (3i + 1.5) * r/3); halving shares none.
        spec = FieldSpec((Contribution(RectFootprint((0.5, 0.5), (1.0, 1.0)), 3.0, 1.0),))
        coarse = rasterize(spec, (), ((0, 0), (3, 3)), 0.75)
        fine = rasterize(spec, (), ((0, 0), (3, 3)), 0.25)
        for iy in range(coarse.height):
            for ix in range(coarse.width):
                assert coarse.cells[iy, ix] == fine.cells[3 * iy + 1, 3 * ix + 1]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            rasterize(FieldSpec(()), (), ((0, 0), (1, 1)), 0.0)
        with pytest.raises(ValueError, match="bounds"):
            rasterize(FieldSpec(()), (), ((1, 0), (1, 1)), 0.1)

    def test_every_cell_at_least_one(self):
        spec = FieldSpec((Contribution(RectFootprint((0, 0), (0.2, 0.2)), 9.0, 0.5),))
        costmap = rasterize(spec, (), ((0, 0), (2, 2)), 0.05)
        assert float(costmap.cells.min()) >= 1.0

    def test_grid_over_the_cap_rejected_before_sampling(self):
        # 1001 x 1000 cells: one row over the cap, small enough that a
        # missing check would only build the grid and fail the assertion.
        with pytest.raises(ValueError, match="1001 x 1000 cell grid"):
            rasterize(FieldSpec(()), (), ((0, 0), (1001, 1000)), 1.0)

    def test_peak_memory_of_a_window_over_the_whole_map(self):
        """A contribution is evaluated on its window's two axes, so its peak
        holds the cells and a few window-sized temporaries, not a point array
        of two floats per cell."""
        spec = FieldSpec((Contribution(RectFootprint((100.0, 120.0), (130.0, 140.0)), 5.0, 500.0),))
        tracemalloc.start()
        try:
            costmap = rasterize(spec, (), ((0.0, 0.0), (300.0, 300.0)), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert costmap.cells.shape == (300, 300) and float(costmap.cells.min()) > 1.0
        assert peak < 5 * costmap.cells.nbytes


def full_grid_cells(spec, zones, bounds, resolution):
    """Reference kernel: every contribution, cost 1 included, on every cell."""
    (xmin, ymin), _ = bounds
    width, height = grid_shape(bounds, resolution)
    xs = xmin + (np.arange(width, dtype=float) + 0.5) * resolution
    ys = ymin + (np.arange(height, dtype=float) + 0.5) * resolution
    grid_x, grid_y = np.meshgrid(xs, ys)
    points = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    values = np.ones(len(points))
    for c in (*spec.contributions, *zones):
        np.maximum(values, linear_falloff(c.footprint.distance(points), c.cost, c.clearance), out=values)
    return values.reshape(height, width)


# Offsets from the map origin: mostly on or around the 4 x 3 m map, so
# windows are often cut by its edge, sometimes 50 m off it.
_offset = st.floats(-1.0, 5.0, allow_nan=False) | st.sampled_from([-50.0, 50.0])
_cost = st.just(1.0) | st.floats(1.0, 10.0)
_clearance = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 60.0]) | st.floats(0.0, 3.0)
# Origins with no exact binary form, negative ones and ones far from (0, 0).
_origin = st.sampled_from([(0.0, 0.0), (-2.5, -1.3), (-50.3, 7.1), (3.3, -0.7)]) | st.tuples(
    st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)
)
_resolution = st.sampled_from([0.05, 0.07, 0.1, 0.25, 0.3, 1.0])


@st.composite
def _rect(draw, origin=(0.0, 0.0)):
    x0, x1 = sorted((origin[0] + draw(_offset), origin[0] + draw(_offset)))
    y0, y1 = sorted((origin[1] + draw(_offset), origin[1] + draw(_offset)))
    return RectFootprint((x0, y0), (x1, y1))


@st.composite
def _zone(draw, origin=(0.0, 0.0)):
    angle = draw(st.floats(0.0, 2 * math.pi))
    corridor = OrientedRectFootprint(
        center=(origin[0] + draw(_offset), origin[1] + draw(_offset)),
        axis=(math.cos(angle), math.sin(angle)),
        half_length=draw(st.floats(0.0, 2.0)),
        half_width=draw(st.floats(0.0, 1.0)),
    )
    return ActivityZone(corridor, draw(_cost), draw(_clearance), "human", "watching", "tv")


def _map_bounds(origin):
    return (origin, (origin[0] + 4.0, origin[1] + 3.0))


def _corridor(center, angle, half_length, half_width, cost=3.0, clearance=0.4):
    axis = (math.cos(angle), math.sin(angle))
    corridor = OrientedRectFootprint(center, axis, half_length, half_width)
    return ActivityZone(corridor, cost, clearance, "human", "watching", "tv")


class TestFieldSpecFromAssessment:
    def test_holds_only_the_entries_above_cost_one(self, data_dir):
        graph = bedroom_with_human(data_dir)
        spec = field_spec_from_assessment(graph, assessment_of(BEDROOM_ENTRIES))
        assert spec.contributions == (
            Contribution(footprint_of(graph.node("bed")), 3.0, 1.5),
            Contribution(footprint_of(graph.node("human")), 5.0, 2.0),
        )

    def test_unknown_id_refused_at_any_cost(self, data_dir):
        graph = bedroom_with_human(data_dir)
        for cost in (1.0, 2.0):
            entries = {**BEDROOM_ENTRIES, "ghost": CostClearance(cost, 0.0)}
            with pytest.raises(ValueError, match='"ghost"'):
                field_spec_from_assessment(graph, assessment_of(entries))


class TestFootprintArguments:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: RectFootprint((1, 0), (0, 1)), "footprint min corner must not exceed max corner"),
            (lambda: RectFootprint((0, 1), (1, 0)), "footprint min corner must not exceed max corner"),
            (lambda: OrientedRectFootprint((0, 0), (0, 0), 1.0, 1.0), "axis must be a non-zero vector"),
            (lambda: OrientedRectFootprint((0, 0), (1, 0), 1.0, -0.5), "half sizes must be >= 0"),
        ],
        ids=[
            "rect_corners_swapped", "rect_corners_swapped_in_y", "oriented_zero_axis", "oriented_negative_half_size",
        ],
    )
    def test_invalid_footprint_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "corners, message",
        [
            (("00", (1, 2)), "RectFootprint.min_xy must be an iterable of numbers, not the str '00'"),
            (((0, 0), "12"), "RectFootprint.max_xy must be an iterable of numbers, not the str '12'"),
        ],
    )
    def test_a_bare_str_is_not_split_into_characters(self, corners, message):
        with pytest.raises(TypeError) as info:
            RectFootprint(*corners)
        assert str(info.value) == message


class TestRectDistance:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), origin=_origin, scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_equals_the_explicit_gap_formula(self, data, origin, scale):
        """``RectFootprint.distance`` goes through ``gap_distances``, which sums
        from 0; that adds nothing to ``sqrt(dx * dx + dy * dy)``, bit for bit."""
        rect = data.draw(_rect(origin))
        (x0, y0), (x1, y1) = (tuple(c * scale for c in corner) for corner in rect.box)
        rect = RectFootprint((x0, y0), (x1, y1))
        coordinate = st.floats(-1.0, 5.0) | st.sampled_from([-50.0, 50.0])
        points = np.array(
            data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=50))
        )
        points = (points + origin) * scale
        dx = np.maximum(np.maximum(x0 - points[:, 0], 0.0), points[:, 0] - x1)
        dy = np.maximum(np.maximum(y0 - points[:, 1], 0.0), points[:, 1] - y1)
        assert np.array_equal(rect.distance(points), np.sqrt(dx * dx + dy * dy))


class TestOrientedRectDistance:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), origin=_origin, scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_equals_the_explicit_gap_formula(self, data, origin, scale):
        """``OrientedRectFootprint.distance`` runs ``gap_distances`` on signed
        axis coordinates: ``(-h) - s`` is the float ``|s| - h`` for s < 0, and
        the sign of a zero gap vanishes when squared, so the distance is the
        explicit formula bit for bit, zero half sizes and the center included."""
        angle = data.draw(st.floats(0.0, 2 * math.pi))
        half = st.just(0.0) | st.floats(0.0, 2.0)
        corridor = OrientedRectFootprint(
            center=((origin[0] + data.draw(_offset)) * scale, (origin[1] + data.draw(_offset)) * scale),
            axis=(math.cos(angle), math.sin(angle)),
            half_length=data.draw(half) * scale,
            half_width=data.draw(half) * scale,
        )
        coordinate = st.floats(-1.0, 5.0) | st.sampled_from([-50.0, 50.0])
        points = np.array(
            data.draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=50))
        )
        points = np.vstack([corridor.center, (points + origin) * scale])
        ux, uy = corridor.axis
        rx, ry = points[:, 0] - corridor.center[0], points[:, 1] - corridor.center[1]
        dx = np.maximum(np.abs(rx * ux + ry * uy) - corridor.half_length, 0.0)
        dy = np.maximum(np.abs(-rx * uy + ry * ux) - corridor.half_width, 0.0)
        assert corridor.distance(points).tobytes() == np.sqrt(dx * dx + dy * dy).tobytes()


_CORRIDOR = OrientedRectFootprint(center=(1.0, 1.0), axis=(1.0, 1.0), half_length=1.0, half_width=0.5)


@pytest.mark.parametrize(
    "footprint", [RectFootprint((0.0, 0.0), (1.0, 2.0)), _CORRIDOR], ids=["rect", "corridor"]
)
class TestDistanceReadsRowsOfTwo:
    """Both footprint classes read points through ``planar_points``: rows of at
    least (x, y), a later column unread, zero rows allowed."""

    @pytest.mark.parametrize(
        "points, shape",
        [(np.array([3.0, 1.0]), "(2,)"), ([[3.0]], "(1, 1)"), ([(1.0,), (2.0,)], "(2, 1)"), (5.0, "()")],
    )
    def test_what_is_not_rows_of_two_is_refused(self, footprint, points, shape):
        with pytest.raises(ValueError) as info:
            footprint.distance(points)
        message = f"points must be rows of at least two numbers, not an array of shape {shape}"
        assert str(info.value) == message

    def test_zero_rows_give_no_distances(self, footprint):
        distances = footprint.distance(np.empty((0, 2)))
        assert distances.shape == (0,) and distances.dtype == float

    def test_a_third_column_is_not_read(self, footprint):
        points = np.array([(3.0, 1.0), (-1.0, 0.5), (1.0, 1.0)])
        with_z = np.column_stack([points, [7.0, -7.0, 0.0]])
        assert footprint.distance(with_z).tobytes() == footprint.distance(points).tobytes()

    def test_point_cost_of_a_one_number_point_is_refused(self, footprint):
        """At the rectangle this was 2.2, its distance along x alone."""
        with pytest.raises(ValueError, match=r"shape \(1, 1\)"):
            point_cost((3.0,), footprint, 3.0, 5.0)


@pytest.mark.parametrize(
    "spec, cost",
    [(FieldSpec(()), 1.0), (FieldSpec((Contribution(RectFootprint((0.0, 0.0), (1.0, 2.0)), 3.0, 1.0),)), 2.0)],
    ids=["empty", "one-contribution"],
)
class TestCombinedCostReadsOnePoint:
    """``combined_cost`` reads its point through ``planar_points`` before any
    contribution, so a spec without one refuses what a spec with one refuses
    (an empty spec answered 1.0 for ``()`` and ``(3.0,)``)."""

    @pytest.mark.parametrize("point, shape", [((), "(1, 0)"), ((3.0,), "(1, 1)")])
    def test_fewer_than_two_numbers_are_refused(self, spec, cost, point, shape):
        with pytest.raises(ValueError, match=re.escape(f"not an array of shape {shape}")):
            combined_cost(point, spec)

    def test_two_or_three_numbers_are_read(self, spec, cost):
        assert combined_cost((1.5, 0.5), spec) == combined_cost((1.5, 0.5, 9.0), spec) == cost


_nonzero_origin = st.sampled_from([(-2.5, -1.3), (-50.3, 7.1), (3.3, -0.7)]) | st.tuples(
    st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)
).filter(lambda origin: origin != (0.0, 0.0))


class TestAxesDistance:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        origin=_nonzero_origin,
        resolution=_resolution,
        first=st.tuples(st.integers(0, 80), st.integers(0, 80)),
        size=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    )
    def test_equals_the_point_form_bit_for_bit(self, data, origin, resolution, first, size):
        """``axes_distance`` on a column axis and a row axis, as ``rasterize``
        slices them, gives ``distance`` of the mesh's points, bit for bit;
        windows empty on one axis or both included."""
        footprint = data.draw(_rect(origin) | _zone(origin).map(lambda zone: zone.footprint))
        (i0, j0), (nx, ny) = first, size
        xs = origin[0] + (np.arange(i0 + nx, dtype=float) + 0.5) * resolution
        ys = origin[1] + (np.arange(j0 + ny, dtype=float) + 0.5) * resolution
        xs, ys = xs[i0:], ys[j0:]
        grid = footprint.axes_distance(xs, ys[:, None])
        points = np.column_stack([np.tile(xs, ny), np.repeat(ys, nx)])  # row by row, as cells
        assert grid.shape == (ny, nx)
        assert grid.tobytes() == footprint.distance(points).reshape(ny, nx).tobytes()


class TestRasterizeAgainstFullGrid:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), origin=_origin, resolution=_resolution)
    def test_cells_equal_the_reference(self, data, origin, resolution):
        contributions = data.draw(
            st.lists(st.builds(Contribution, _rect(origin), _cost, _clearance), max_size=6)
        )
        zones = data.draw(st.lists(_zone(origin), max_size=3))
        spec = FieldSpec(tuple(contributions))
        bounds = _map_bounds(origin)
        costmap = rasterize(spec, zones, bounds, resolution)
        assert np.array_equal(costmap.cells, full_grid_cells(spec, zones, bounds, resolution))

    @pytest.mark.parametrize("origin", [(0.0, 0.0), (-2.5, -1.3), (-50.3, 7.1)])
    @pytest.mark.parametrize("resolution", [0.05, 0.07, 0.3])
    @pytest.mark.parametrize(
        "contributions, zones",
        [
            pytest.param(  # cut by the left and bottom edges
                [Contribution(RectFootprint((-0.6, -0.4), (0.3, 0.9)), 4.0, 0.7)], [],
                id="rect-cut-by-edge",
            ),
            pytest.param(  # reaches in from outside through its clearance only
                [Contribution(RectFootprint((4.2, 1.0), (5.0, 2.0)), 2.5, 0.5)], [],
                id="rect-outside-clearance-inside",
            ),
            pytest.param(
                [Contribution(RectFootprint((50.0, 50.0), (51.0, 52.0)), 9.0, 3.0),
                 Contribution(RectFootprint((-51.0, -50.0), (-50.0, -49.0)), 9.0, 0.0)], [],
                id="rects-far-outside",
            ),
            pytest.param(  # windows empty on one axis only
                [Contribution(RectFootprint((-41.0, 1.0), (-40.0, 2.0)), 5.0, 0.5)], [], id="rect-off-in-x",
            ),
            pytest.param(
                [Contribution(RectFootprint((1.0, 40.0), (2.0, 41.0)), 5.0, 0.5)], [], id="rect-off-in-y",
            ),
            pytest.param(
                [], [_corridor((3.9, 2.9), 0.6, 1.2, 0.3), _corridor((0.1, 1.5), 2.0, 0.8, 0.2, 2.0, 0.0)],
                id="corridors-cut-by-edge",
            ),
            pytest.param(
                [], [_corridor((50.0, -50.0), 0.3, 2.0, 1.0), _corridor((-50.0, 50.0), 1.1, 2.0, 1.0)],
                id="corridors-far-outside",
            ),
            pytest.param(
                [Contribution(RectFootprint((1.0, 1.0), (1.5, 1.5)), 1.0, 2.0),
                 Contribution(RectFootprint((2.0, 0.5), (2.0, 0.5)), 6.0, 5e-324),
                 Contribution(RectFootprint((0.5, 2.0), (0.9, 2.4)), 3.0, 0.0)],
                [_corridor((2.0, 1.5), 0.0, 1.0, 0.1, 1.0, 1.0)],
                id="cost-one-subnormal-and-zero-clearance",
            ),
        ],
    )
    def test_guard_cases_equal_the_reference(self, origin, resolution, contributions, zones):
        def moved(footprint):
            if isinstance(footprint, RectFootprint):
                return RectFootprint(
                    (footprint.min_xy[0] + origin[0], footprint.min_xy[1] + origin[1]),
                    (footprint.max_xy[0] + origin[0], footprint.max_xy[1] + origin[1]),
                )
            center = (footprint.center[0] + origin[0], footprint.center[1] + origin[1])
            return OrientedRectFootprint(center, footprint.axis, footprint.half_length, footprint.half_width)

        spec = FieldSpec(tuple(Contribution(moved(c.footprint), c.cost, c.clearance) for c in contributions))
        zones = [
            ActivityZone(moved(z.footprint), z.cost, z.clearance, z.human, z.verb, z.target)
            for z in zones
        ]
        bounds = _map_bounds(origin)
        costmap = rasterize(spec, zones, bounds, resolution)
        assert np.array_equal(costmap.cells, full_grid_cells(spec, zones, bounds, resolution))

    def test_window_keeps_a_center_whose_gap_squares_to_zero(self):
        """The center of cell (0, 0) is exactly (0, 0). Its 1e-323 gap to the box
        squares to 0, within the 5e-324 clearance: the window's extra cell keeps it in."""
        spec = FieldSpec((Contribution(RectFootprint((1e-323, 0.0), (0.5, 0.5)), 3.0, 5e-324),))
        bounds = ((-0.05, -0.05), (0.95, 0.95))
        costmap = rasterize(spec, (), bounds, 0.1)
        assert costmap.cells[0, 0] == combined_cost((0.0, 0.0), spec) == 3.0
        assert np.array_equal(costmap.cells, full_grid_cells(spec, (), bounds, 0.1))

    @pytest.mark.parametrize("clearance", [0.0, 1e-300, 3.3 * 2e-154], ids=["zero", "1e-300", "3.3-cells"])
    def test_row_at_the_finest_resolution(self, clearance):
        """At 2e-154 m, just above the floor of ``grid_shape``, gaps within a
        cell still square to a normal float, so the windows keep every raised
        cell of a 1,000-cell row."""
        r = 2e-154
        spec = FieldSpec((Contribution(RectFootprint((400 * r, 1.2 * r), (600 * r, 1.7 * r)), 5.0, clearance),))
        bounds = ((0.0, 0.0), (1000 * r, 3 * r))
        costmap = rasterize(spec, (), bounds, r)
        assert costmap.cells.shape == (3, 1000) and (costmap.cells[1] > 1.0).sum() >= 200
        assert np.array_equal(costmap.cells, full_grid_cells(spec, (), bounds, r))

    def test_cost_one_contributions_leave_ones(self):
        spec = FieldSpec(
            (
                Contribution(RectFootprint((1.0, 1.0), (2.0, 2.0)), 1.0, 0.0),
                Contribution(RectFootprint((1.0, 1.0), (2.0, 2.0)), 1.0, 5e-324),
                Contribution(RectFootprint((0.0, 0.0), (0.5, 0.5)), 1.0, 2.0),
            )
        )
        costmap = rasterize(spec, (), ((0.0, 0.0), (3.0, 3.0)), 0.1)
        assert np.array_equal(costmap.cells, np.ones((30, 30)))
        assert np.array_equal(costmap.cells, full_grid_cells(spec, (), ((0, 0), (3, 3)), 0.1))


class TestGridShape:
    def test_cells_cover_the_bounds(self):
        assert grid_shape(((0.0, 0.0), (6.0, 5.0)), 0.1) == (60, 50)
        assert grid_shape(((0.0, 0.0), (1.0, 1.0)), 0.3) == (4, 4)

    def test_cap_is_inclusive(self):
        assert grid_shape(((0, 0), (1000, 1000)), 1.0) == (1000, 1000)
        assert MAX_GRID_CELLS == 1000 * 1000
        with pytest.raises(ValueError, match="at most 1,000,000"):
            grid_shape(((0, 0), (1000, 1000.5)), 1.0)

    def test_cap_holds_at_exactly_its_cells_without_allocating(self):
        tracemalloc.start()
        try:
            # The long side computes to exactly MAX_GRID_CELLS once the edge
            # slack is taken off.
            assert grid_shape(((0.0, 0.0), (1e6 + 1e-9, 1.0)), 1.0) == (MAX_GRID_CELLS, 1)
            assert grid_shape(((0.0, 0.0), (500.0, 2000.0)), 1.0) == (500, 2000)
            for high in ((1e6 + 1.0, 1.0), (101.0, 9901.0)):  # 1,000,001 cells
                with pytest.raises(ValueError, match="at most 1,000,000 cells"):
                    grid_shape(((0.0, 0.0), high), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("resolution", [1e-5, 1e-300, 5e-324])
    def test_huge_grids_rejected_from_their_size(self, resolution):
        # 6 x 5 m at 1e-5 m is 3e11 cells; the smaller steps overflow to inf.
        with pytest.raises(ValueError, match="cell grid; at most 1,000,000 cells"):
            grid_shape(((0.0, 0.0), (6.0, 5.0)), resolution)

    @pytest.mark.parametrize("resolution", [7.0, 1e10, 1e300])
    def test_coarse_resolution_gives_one_cell_per_side(self, resolution):
        assert grid_shape(((0.0, 0.0), (6.0, 5.0)), resolution) == (1, 1)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="resolution must be > 0"):
            grid_shape(((0, 0), (1, 1)), -0.1)
        with pytest.raises(ValueError, match="non-degenerate"):
            grid_shape(((0, 1), (1, 1)), 0.1)

    def test_cell_side_squaring_below_the_smallest_normal_float_rejected(self):
        assert grid_shape(((0.0, 0.0), (1e-153, 1e-153)), 1.5e-154) == (7, 7)
        with pytest.raises(ValueError, match=r"^resolution 1\.49e-154 squares to below the smallest normal float$"):
            grid_shape(((0.0, 0.0), (1e-153, 1e-153)), 1.49e-154)
        with pytest.raises(ValueError, match="squares to below the smallest normal float"):
            grid_shape(((0.0, 0.0), (1e-197, 1e-197)), 1e-200)


class TestCostmap:
    def test_cell_at_and_center_round_trip(self):
        costmap = rasterize(FieldSpec(()), (), ((1.0, 2.0), (3.0, 4.0)), 0.5)
        assert costmap.cell_at((1.01, 2.01)) == (0, 0)
        assert costmap.cell_at(costmap.cell_center(2, 3)) == (2, 3)

    def test_cell_at_outside_rejected(self):
        costmap = rasterize(FieldSpec(()), (), ((0, 0), (1, 1)), 0.5)
        with pytest.raises(ValueError, match="outside"):
            costmap.cell_at((2.0, 0.5))

    def test_cells_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Costmap(origin=(0, 0), resolution=1.0, width=2, height=1,
                    cells=np.array([[1.0, 0.5]]))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"origin": (math.nan, 0)}, "origin [nan, 0.0] must be two finite numbers"),
            ({"cells": np.ones((2, 1))}, "cells shape (2, 1) != (height, width)"),
            ({"resolution": 0.0}, "resolution and dimensions must be > 0"),
            ({"resolution": math.inf}, "resolution and dimensions must be > 0"),
            # grid_shape's floor: a map or report file cannot carry these either.
            ({"resolution": 1e-160}, "resolution 1e-160 squares to below the smallest normal float"),
            ({"resolution": 5e-324}, "resolution 5e-324 squares to below the smallest normal float"),
        ],
        ids=["nan_origin", "cells_not_height_by_width", "zero_resolution", "infinite_resolution",
             "resolution_1e-160", "resolution_5e-324"],
    )
    def test_malformed_grid_rejected(self, change, message):
        grid = {"origin": (0, 0), "resolution": 1.0, "width": 2, "height": 1, "cells": np.ones((1, 2))}
        with pytest.raises(ValueError) as info:
            Costmap(**{**grid, **change})
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cells_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and >= 1"):
            Costmap(origin=(0, 0), resolution=1.0, width=2, height=1,
                    cells=np.array([[1.0, bad]]))
