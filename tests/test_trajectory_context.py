from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from socioplan import (
    Trajectory,
    distance_to_object,
    induce_partial_graph,
    insert_human,
    relevant_objects,
    render_context_text,
    resample,
    validate_scene,
)
from socioplan.scene_graph import ObjectNode, SceneGraph, box_distances

from conftest import make_seated_human_spec, make_small_scene


class TestTrajectory:
    def test_needs_at_least_one_waypoint(self):
        with pytest.raises(ValueError, match="at least one"):
            Trajectory(())

    def test_resample_spacing_bound(self):
        trajectory = Trajectory(((0, 0, 0), (1.0, 0, 0)))
        dense = resample(trajectory, 0.25)
        gaps = [math.dist(a, b) for a, b in zip(dense.waypoints, dense.waypoints[1:])]
        assert all(g <= 0.25 + 1e-12 for g in gaps)
        assert dense.waypoints[0] == (0, 0, 0)
        assert dense.waypoints[-1] == (1.0, 0, 0)


def _loop_relevant_objects(graph, trajectory, radius):
    """Reference: per densified waypoint, the hits not yet seen, sorted by id."""
    ordered, seen = [], set()
    for point in resample(trajectory).waypoints:
        hits = {n.id for n in graph if distance_to_object(point, n) <= radius} - seen
        ordered += sorted(hits)
        seen |= hits
    return tuple(ordered)


_coord = st.floats(-1.0, 7.0)
_point = st.tuples(_coord, _coord, st.floats(0.0, 2.0))
_box = st.tuples(_point, st.tuples(*[st.floats(0.05, 3.0)] * 3))


@st.composite
def _scenes_with_trajectories(draw):
    """0-40 boxes whose ids sort apart from their order, 1-6 waypoints (some at
    exactly ``radius`` beyond a box face) and a radius of 0.05-4 m."""
    boxes = draw(st.lists(_box, max_size=40))
    names = draw(st.permutations(range(len(boxes))))
    nodes = [ObjectNode(f"box{k}", "box", c, e) for k, (c, e) in zip(names, boxes)]
    radius = draw(st.floats(0.05, 4.0))
    waypoints = draw(st.lists(_point, min_size=1, max_size=6))
    if nodes:
        for node in draw(st.lists(st.sampled_from(nodes), max_size=3)):
            axis = draw(st.integers(0, 2))
            point = list(node.bbox_center)
            if draw(st.booleans()):
                point[axis] = node.bbox_max[axis] + radius
            else:
                point[axis] = node.bbox_min[axis] - radius
            waypoints[draw(st.integers(0, len(waypoints) - 1))] = tuple(point)
    return SceneGraph(nodes=nodes), Trajectory(tuple(waypoints)), radius


class TestRelevantObjects:
    def test_path_near_bed_and_armchair_far_from_tv(self, small_scene):
        trajectory = Trajectory(((0.8, 2.0, 0.0), (2.0, 1.2, 0.0), (3.4, 0.2, 0.0)))
        radius = 1.5
        # Brute-force oracle: union of per-waypoint distance checks over the
        # densified trajectory.
        dense = resample(trajectory, 0.25)
        expected = {
            node.id
            for node in small_scene
            for point in dense.waypoints
            if distance_to_object(point, node) <= radius
        }
        result = relevant_objects(small_scene, trajectory, radius)
        assert set(result) == expected == {"bed", "armchair"}

    def test_covering_radius_is_deterministic(self, small_scene):
        trajectory = Trajectory(((0.0, 0.0, 0.0),))
        first = relevant_objects(small_scene, trajectory, 100.0)
        assert set(first) == set(small_scene.nodes)
        assert first == relevant_objects(small_scene, trajectory, 100.0)

    def test_single_waypoint_at_bed_center(self, small_scene):
        trajectory = Trajectory((small_scene.node("bed").bbox_center,))
        assert relevant_objects(small_scene, trajectory, 0.05) == ("bed",)

    def test_order_is_first_appearance_then_id(self, small_scene):
        trajectory = Trajectory(((3.4, 0.2, 0.0), (0.8, 2.0, 0.0)))
        assert relevant_objects(small_scene, trajectory, 1.5) == ("armchair", "bed")

    @given(
        waypoints=st.lists(
            st.tuples(st.floats(0, 5), st.floats(0, 5), st.just(0.0)), min_size=1, max_size=5
        ),
        radius=st.floats(0.1, 4.0),
    )
    def test_set_invariant_under_reversal(self, waypoints, radius):
        graph = make_small_scene()
        forward = Trajectory(tuple(waypoints))
        backward = Trajectory(tuple(reversed(waypoints)))
        # Disable densification so both directions sample identical points.
        spacing = math.inf
        assert set(relevant_objects(graph, forward, radius, max_spacing=spacing)) == set(
            relevant_objects(graph, backward, radius, max_spacing=spacing)
        )

    def test_resampled_reversal_on_fixture(self, small_scene):
        waypoints = ((0.8, 2.0, 0.0), (3.4, 0.2, 0.0))
        forward = relevant_objects(small_scene, Trajectory(waypoints), 1.5)
        backward = relevant_objects(small_scene, Trajectory(tuple(reversed(waypoints))), 1.5)
        assert set(forward) == set(backward)

    def test_non_positive_radius_rejected(self, small_scene):
        with pytest.raises(ValueError, match="> 0"):
            relevant_objects(small_scene, Trajectory(((0, 0, 0),)), 0.0)

    def test_empty_scene_has_no_relevant_objects(self):
        trajectory = Trajectory(((0, 0, 0), (3.0, 4.0, 0.0)))
        assert relevant_objects(SceneGraph(nodes={}), trajectory, 4.0) == ()

    @settings(deadline=None)
    @given(case=_scenes_with_trajectories())
    def test_matches_per_waypoint_loop(self, case):
        graph, trajectory, radius = case
        assert relevant_objects(graph, trajectory, radius) == _loop_relevant_objects(
            graph, trajectory, radius
        )


def _loop_resample(trajectory, max_spacing=0.25):
    """Reference: the point-by-point loop ``resample`` replaced."""
    if not math.isfinite(max_spacing):
        return trajectory
    points = [trajectory.waypoints[0]]
    for a, b in zip(trajectory.waypoints, trajectory.waypoints[1:]):
        steps = max(1, math.ceil(math.dist(a, b) / max_spacing))
        for k in range(1, steps + 1):
            t = k / steps
            points.append(tuple(a[i] + (b[i] - a[i]) * t for i in range(3)))
    return Trajectory(tuple(points))


def _full_matrix_relevant_objects(graph, trajectory, radius, max_spacing=0.25):
    """Reference: every (waypoint, object) box distance, the first hit per object."""
    nodes = tuple(graph)
    hits = box_distances(_loop_resample(trajectory, max_spacing).waypoints, nodes) <= radius
    first, any_hit = hits.argmax(axis=0).tolist(), hits.any(axis=0).tolist()
    return tuple(i for _, i in sorted((w, n.id) for w, n, hit in zip(first, nodes, any_hit) if hit))


def _bits(trajectory):
    return [c.hex() for point in trajectory.waypoints for c in point]


@st.composite
def _relevance_cases(draw):
    """A scene of 0-60 boxes and a trajectory of 1-8 waypoints about one
    offset (0, -37.5 or +-1e6 m), with repeated waypoints, waypoints exactly
    ``radius`` beyond a box face, and spacings and radii that include inf,
    a single dense waypoint and a radius whose margin overflows."""
    offset = draw(st.sampled_from([0.0, -37.5, -1e6, 1e6]))
    coord = st.floats(-8.0, 8.0).map(lambda v: v + offset)
    point = st.tuples(coord, coord, st.floats(-1.0, 2.0))
    boxes = draw(st.lists(st.tuples(point, st.tuples(*[st.floats(0.01, 4.0)] * 3)), max_size=60))
    names = draw(st.permutations(range(len(boxes))))
    nodes = [ObjectNode(f"n{k:02d}", "box", c, e) for k, (c, e) in zip(names, boxes)]
    radius = draw(st.one_of(st.floats(0.01, 5.0), st.sampled_from([sys.float_info.max, math.inf])))
    spacing = draw(st.one_of(st.floats(0.05, 2.0), st.sampled_from([0.25, math.inf])))
    waypoints = draw(st.lists(point, min_size=1, max_size=8))
    for index in draw(st.lists(st.integers(1, len(waypoints)), max_size=2)):
        waypoints.insert(index, waypoints[index - 1])  # a zero-length segment
    if nodes and radius < 10.0:
        for node in draw(st.lists(st.sampled_from(nodes), max_size=3)):
            axis, face = draw(st.integers(0, 2)), draw(st.booleans())
            spot = list(node.bbox_center)
            spot[axis] = node.bbox_max[axis] + radius if face else node.bbox_min[axis] - radius
            waypoints[draw(st.integers(0, len(waypoints) - 1))] = tuple(spot)
    return SceneGraph(nodes=nodes), Trajectory(tuple(waypoints)), radius, spacing


class TestRelevanceReferences:
    """``resample`` and ``relevant_objects`` against the loop and the full
    distance matrix they replaced: bit-equal points and equal id tuples."""

    @settings(max_examples=300, deadline=None)
    @given(case=_relevance_cases())
    def test_match_the_references(self, case):
        graph, trajectory, radius, spacing = case
        assert _bits(resample(trajectory, spacing)) == _bits(_loop_resample(trajectory, spacing))
        assert relevant_objects(graph, trajectory, radius, max_spacing=spacing) == (
            _full_matrix_relevant_objects(graph, trajectory, radius, spacing)
        )

    @pytest.mark.parametrize("offset", [0.0, -1e6, 1e6])
    def test_long_trip_past_faces_at_the_radius(self, offset):
        """Boxes beside a 30 m trip, over a hundred dense waypoints, each with a
        face exactly 1 m off the trip or a hair beyond it."""
        radius, nodes = 1.0, []
        for k in range(60):
            x = offset + k * 0.5
            gap = radius if k % 2 else math.nextafter(radius, 2.0)
            nodes.append(ObjectNode(f"b{k:02d}", "box", (x, offset + gap + 0.25, 0.0), (0.2, 0.5, 0.2)))
        trajectory = Trajectory(((offset, offset, 0.0), (offset + 30.0, offset, 0.0)))
        found = relevant_objects(SceneGraph(nodes), trajectory, radius)
        assert found == _full_matrix_relevant_objects(SceneGraph(nodes), trajectory, radius)
        assert len(resample(trajectory).waypoints) > 100
        if offset == 0.0:
            assert found == tuple(f"b{k:02d}" for k in range(1, 60, 2))

    def test_single_waypoint_and_empty_scene(self, small_scene):
        trajectory = Trajectory(((1.0, 1.0, 0.0),))
        for spacing in (0.25, math.inf):
            assert _bits(resample(trajectory, spacing)) == _bits(trajectory)
            assert relevant_objects(SceneGraph(nodes={}), trajectory, 2.0, max_spacing=spacing) == ()
            assert relevant_objects(small_scene, trajectory, sys.float_info.max, max_spacing=spacing) == (
                _full_matrix_relevant_objects(small_scene, trajectory, sys.float_info.max, spacing)
            )


class TestInducePartialGraph:
    def test_attached_human_is_pulled_in(self, scene_with_human):
        partial = induce_partial_graph(scene_with_human, {"bed", "armchair"})
        assert set(partial.nodes) == {"bed", "armchair", "human_1"}
        triples = {r.triple for r in partial.relations}
        assert ("sitting on", "human_1", "bed") in triples
        # tv is outside the requested set, so the watching edge must not dangle
        assert all("tv" not in (r.head_id, r.tail_id) for r in partial.relations)
        assert validate_scene(partial) is None

    def test_all_ids_reproduces_graph(self, scene_with_human):
        partial = induce_partial_graph(scene_with_human, set(scene_with_human.nodes))
        assert partial == scene_with_human

    def test_isolated_node(self, small_scene):
        partial = induce_partial_graph(small_scene, {"tv"})
        assert set(partial.nodes) == {"tv"}
        assert partial.relations == ()

    def test_unknown_id_rejected(self, small_scene):
        with pytest.raises(ValueError, match="ghost"):
            induce_partial_graph(small_scene, {"ghost"})

    @given(
        ids=st.sets(st.sampled_from(["bed", "tv", "armchair", "human_1"]), min_size=1)
    )
    def test_partial_graph_always_valid(self, ids):
        graph = insert_human(make_small_scene(), make_seated_human_spec())
        assert validate_scene(induce_partial_graph(graph, ids)) is None


def _relations_line(text: str, object_id: str) -> str:
    """The ``relations:`` line of one object's block in a context text."""
    block = text.split(f"- object_id: {object_id}\n", 1)[1]
    return next(line.strip() for line in block.splitlines() if "relations:" in line)


class TestContextTextRelations:
    def test_inverted_relation_flagged(self, scene_with_human):
        text = render_context_text(scene_with_human, Trajectory(((0, 0, 0),)), [])
        # bed is the tail of both edges, so both carry the inverted flag
        assert _relations_line(text, "bed") == (
            "relations: [(next to, armchair, inverted), (sitting on, human, inverted)]"
        )
        # while the armchair (head of "next to") sees it un-inverted
        assert _relations_line(text, "armchair") == "relations: [(next to, bed)]"

    def test_empty_sets_render_as_empty_lists(self, scene_with_human):
        text = render_context_text(
            induce_partial_graph(scene_with_human, {"human_1"}),
            Trajectory(((0, 0, 0),)),
            [],
        )
        assert "affordances: []" in text
        assert "attributes: []" in text

    def test_tag_collision_appends_ids(self):
        from socioplan.scene_graph import Relation, RelationKind

        graph = SceneGraph(
            nodes=[
                ObjectNode("chair_a", "chair", (0, 0, 0), (1, 1, 1)),
                ObjectNode("chair_b", "chair", (3, 0, 0), (1, 1, 1)),
                ObjectNode("table", "table", (1.5, 0, 0), (1, 1, 1)),
            ],
            relations=[Relation("next to", "table", "chair_a", RelationKind.SPATIAL)],
        )
        text = render_context_text(graph, Trajectory(((0, 0, 0),)), [])
        assert _relations_line(text, "table") == "relations: [(next to, chair[chair_a])]"
        # the unique tag "table" stays a bare tag
        assert _relations_line(text, "chair_a") == "relations: [(next to, table, inverted)]"


class TestRenderContextText:
    def test_preference_appears_verbatim(self, scene_with_human):
        preference = "Don't disturb anyone watching a football match"
        text = render_context_text(
            scene_with_human, Trajectory(((0.8, 2.0, 0.0), (3.4, 0.2, 0.0))), [preference]
        )
        assert preference in text

    def test_empty_preferences_marker(self, small_scene):
        text = render_context_text(small_scene, Trajectory(((0, 0, 0),)), [])
        assert text.rstrip().endswith("PREFERENCES\n(none)")

    def test_identical_inputs_identical_bytes(self, scene_with_human):
        trajectory = Trajectory(((0.8, 2.0, 0.0), (3.4, 0.2, 0.0)))
        a = render_context_text(scene_with_human, trajectory, ["p"])
        b = render_context_text(scene_with_human, trajectory, ["p"])
        assert a == b

    def test_every_relevant_object_appears_exactly_once(self, scene_with_human):
        trajectory = Trajectory(((0.8, 2.0, 0.0), (3.4, 0.2, 0.0)))
        ids = relevant_objects(scene_with_human, trajectory, 1.5)
        partial = induce_partial_graph(scene_with_human, ids)
        text = render_context_text(partial, trajectory, [])
        for node_id in ids:
            assert text.count(f"- object_id: {node_id}\n") == 1

    def test_waypoints_use_three_decimals(self, small_scene):
        text = render_context_text(small_scene, Trajectory(((1.23456, 2, 0),)), [])
        assert "- [1.235, 2.000, 0.000]" in text
