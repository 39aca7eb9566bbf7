from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from socioplan import (
    FormatError,
    HumanSpec,
    ObjectNode,
    Relation,
    RelationKind,
    SceneGraph,
    distance_to_object,
    insert_human,
    load_scene,
    objects_within_radius,
    serialize_scene,
    validate_scene,
)
from socioplan.jsonio import UnknownKeyWarning
from socioplan.scene_graph import box_distances

from conftest import make_small_scene


def small_scene_document() -> str:
    return json.dumps(
        {
            "nodes": [
                {"id": "bed", "tag": "bed", "bbox_center": [1.0, 3.8, 0.3],
                 "bbox_extent": [1.6, 2.0, 0.6], "affordances": ["lie on", "sit"]},
                {"id": "tv", "tag": "tv", "bbox_center": [3.0, 4.85, 1.2],
                 "bbox_extent": [1.2, 0.2, 0.7]},
                {"id": "armchair", "tag": "armchair", "bbox_center": [3.0, 1.0, 0.45],
                 "bbox_extent": [0.8, 0.8, 0.9]},
            ],
            "relations": [
                {"name": "next to", "head": "armchair", "tail": "bed", "kind": "spatial"}
            ],
        }
    )


class TestLoadScene:
    def test_loads_nodes_and_relations(self):
        graph = load_scene(small_scene_document())
        assert len(graph.nodes) == 3
        assert len(graph.relations) == 1
        assert graph.relations[0].triple == ("next to", "armchair", "bed")
        assert validate_scene(graph) is None

    def test_empty_document_reports_missing_nodes(self):
        with pytest.raises(FormatError, match='missing required field "nodes"'):
            load_scene("{}")

    def test_dangling_endpoint_names_the_ghost(self):
        doc = json.loads(small_scene_document())
        doc["relations"].append(
            {"name": "next to", "head": "ghost", "tail": "bed", "kind": "spatial"}
        )
        with pytest.raises(FormatError, match="ghost"):
            load_scene(json.dumps(doc))

    def test_malformed_syntax(self):
        with pytest.raises(FormatError, match="not valid JSON"):
            load_scene("{nodes: [")

    def test_duplicate_id_reports_path(self):
        doc = json.loads(small_scene_document())
        doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(FormatError, match=r"nodes\[3\].id"):
            load_scene(json.dumps(doc))

    def test_non_positive_extent_rejected(self):
        doc = json.loads(small_scene_document())
        doc["nodes"][0]["bbox_extent"] = [1.0, 0.0, 1.0]
        with pytest.raises(FormatError, match=r"nodes\[0\].bbox_extent"):
            load_scene(json.dumps(doc))

    @pytest.mark.parametrize(
        "relation, where",
        [
            ({"head": "ghost", "tail": "bed"}, r"^relations\[1\]\.head: .*ghost"),
            ({"head": "bed", "tail": "bed"}, r"^relations\[1\]: .*distinct"),
            ({"head": "armchair", "tail": "bed"}, r"^relations\[1\]: duplicate"),
        ],
    )
    def test_relation_violation_reports_its_path(self, relation, where):
        doc = json.loads(small_scene_document())
        doc["relations"].append({"name": "next to", "kind": "spatial", **relation})
        with pytest.raises(FormatError, match=where):
            load_scene(json.dumps(doc))

    def test_activity_head_must_be_human(self):
        doc = json.loads(small_scene_document())
        doc["relations"].append(
            {"name": "watching", "head": "armchair", "tail": "tv", "kind": "activity"}
        )
        with pytest.raises(FormatError, match="human"):
            load_scene(json.dumps(doc))

    def test_unknown_key_warns_by_default_and_fails_strict(self):
        doc = json.loads(small_scene_document())
        doc["flavour"] = "unexpected"
        with pytest.warns(UnknownKeyWarning, match="flavour"):
            load_scene(json.dumps(doc))
        with pytest.raises(FormatError, match="flavour"):
            load_scene(json.dumps(doc), strict=True)

    def test_unsupported_schema_version(self):
        doc = json.loads(small_scene_document())
        doc["schema_version"] = 99
        with pytest.raises(FormatError, match="schema_version"):
            load_scene(json.dumps(doc))


class TestSerialization:
    def test_load_serialize_load_is_identity(self):
        graph = load_scene(small_scene_document())
        again = load_scene(serialize_scene(graph))
        assert again == graph

    def test_reserialization_is_content_identical(self, bedroom_scene_text):
        graph = load_scene(bedroom_scene_text)
        assert serialize_scene(graph) == bedroom_scene_text


def _with_relations(scene: SceneGraph, *relations: Relation) -> SceneGraph:
    return SceneGraph(nodes=scene.nodes, relations=scene.relations + relations)


def _box(**change) -> SceneGraph:
    """A one-node graph, built in code, of a unit box with ``change`` applied."""
    return SceneGraph(nodes=[replace(ObjectNode("box", "box", (0, 0, 0), (1, 1, 1)), **change)])


class TestValidateScene:
    def test_valid_fixture_returns_none(self, small_scene):
        assert validate_scene(small_scene) is None

    def test_empty_id(self):
        graph = SceneGraph(nodes=[ObjectNode("", "box", (0, 0, 0), (1, 1, 1))])
        with pytest.raises(FormatError, match="non-empty") as info:
            validate_scene(graph)
        assert info.value.path == "nodes[0].id"

    @pytest.mark.parametrize(
        "extent, path, reason",
        [
            ((1.0, 0.0, 1.0), "nodes[0].bbox_extent",
             'node "box" has bbox_extent (1.0, 0.0, 1.0); every component must be > 0'),
            ((math.nan, 1.0, 1.0), "nodes[0].bbox_extent[0]", "number must be finite"),
            ((1.0, math.nan, 1.0), "nodes[0].bbox_extent[1]", "number must be finite"),
        ],
        ids=["zero", "nan-x", "nan-y"],
    )
    def test_non_positive_extent(self, extent, path, reason):
        node = ObjectNode("box", "box", (0, 0, 0), extent)  # built in code, not read from a file
        with pytest.raises(FormatError) as info:
            validate_scene(SceneGraph(nodes=[node]))
        assert (info.value.path, info.value.reason) == (path, reason)

    @pytest.mark.parametrize(
        "graph, line",
        [
            (_box(bbox_center=(math.nan, 0, 0)), "nodes[0].bbox_center[0]: number must be finite"),
            (_box(bbox_extent=(math.inf, 1, 1)), "nodes[0].bbox_extent[0]: number must be finite"),
            (_box(bbox_center=(0, 0)), "nodes[0].bbox_center: expected a list of 3 numbers"),
            (_box(tag=""), "nodes[0].tag: must be non-empty"),
            (_box(affordances={""}), "nodes[0].affordances[0]: must be non-empty"),
            (_box(id="a\x01"), "nodes[0].id: holds U+0001, which no report or SVG can carry"),
            (_with_relations(make_small_scene(), Relation("", "tv", "bed", RelationKind.SPATIAL)),
             "relations[1].name: must be non-empty"),
        ],
        ids=["nan-center", "inf-extent", "2d-center", "empty-tag", "empty-affordance", "control-id",
             "empty-relation-name"],
    )
    def test_a_field_the_scene_file_refuses(self, graph, line):
        for check in (lambda: validate_scene(graph), lambda: load_scene(serialize_scene(graph))):
            with pytest.raises(FormatError) as info:
                check()
            assert str(info.value) == line

    @pytest.mark.parametrize(
        "relation, path, message",
        [
            (Relation("on", "ghost", "bed", RelationKind.SPATIAL), "relations[1].head", "ghost"),
            (Relation("on", "bed", "ghost", RelationKind.SPATIAL), "relations[1].tail", "ghost"),
            (Relation("on", "bed", "bed", RelationKind.SPATIAL), "relations[1]", "distinct"),
            (Relation("next to", "armchair", "bed", RelationKind.SPATIAL), "relations[1]", "duplicate"),
            (Relation("reading", "armchair", "tv", RelationKind.ACTIVITY), "relations[1].head", "human"),
        ],
        ids=["dangling_head", "dangling_tail", "self_loop", "duplicate", "activity_head"],
    )
    def test_relation_rule(self, small_scene, relation, path, message):
        with pytest.raises(FormatError, match=message) as info:
            validate_scene(_with_relations(small_scene, relation))
        assert info.value.path == path

    def test_first_break_wins(self, small_scene):
        nodes = dict(small_scene.nodes)
        nodes["tv"] = replace(nodes["tv"], bbox_extent=(1.2, 0.0, 0.7))
        graph = SceneGraph(
            nodes=nodes, relations=(Relation("on", "bed", "ghost", RelationKind.SPATIAL),)
        )
        with pytest.raises(FormatError) as info:
            validate_scene(graph)
        assert info.value.path == "nodes[1].bbox_extent"


def _scene_graphs(faulty: bool) -> st.SearchStrategy[SceneGraph]:
    """Graphs built in code; with ``faulty``, fields may hold what a scene file
    refuses: NaN, infinities, boxes of 2 or 4 numbers, empty or unprintable text."""

    def pick(good: list, bad: list) -> st.SearchStrategy:
        return st.sampled_from(good + bad if faulty else good)

    names = pick(["a", "b", "c"], ["", "d\x01", "\ud800"])
    numbers = st.floats(0, 2) | pick([1.0], [math.nan, math.inf, -math.inf, -1.0])
    boxes = st.lists(numbers, min_size=2 if faulty else 3, max_size=4 if faulty else 3)
    nodes = st.builds(
        ObjectNode,
        id=names,
        tag=pick(["box", "human"], ["", "t\x1f"]),
        bbox_center=boxes,
        bbox_extent=boxes,
        affordances=st.frozensets(pick(["sit", "open"], ["", "x\x01"]), max_size=2),
        attributes=st.frozensets(pick(["soft"], ["", "\ud800"]), max_size=2),
    )
    relations = st.builds(
        Relation,
        name=pick(["on", "near"], ["", "n\x01"]),
        head_id=names,
        tail_id=names,
        kind=st.sampled_from(RelationKind),
    )
    return st.builds(
        SceneGraph, st.lists(nodes, max_size=3, unique_by=lambda n: n.id), st.lists(relations, max_size=2)
    )


class TestValidateAgreesWithTheFile:
    @given(graph=st.booleans().flatmap(_scene_graphs))
    def test_validate_scene_and_load_scene_agree(self, graph):
        """A graph built in code passes ``validate_scene`` exactly when its own
        file loads back, to an equal graph; else both give the same error."""
        document = serialize_scene(graph)
        try:
            validate_scene(graph)
        except FormatError as exc:
            with pytest.raises(FormatError) as info:
                load_scene(document)
            assert str(info.value) == str(exc)
        else:
            assert load_scene(document) == graph


class TestDistance:
    def test_center_is_inside(self, small_scene):
        bed = small_scene.node("bed")
        assert distance_to_object(bed.bbox_center, bed) == 0.0

    def test_face_distance(self):
        box = ObjectNode("box", "box", (0, 0, 0), (2, 2, 2))
        assert distance_to_object((2.0, 0.0, 0.0), box) == pytest.approx(1.0, abs=0)

    def test_edge_distance(self):
        box = ObjectNode("box", "box", (0, 0, 0), (2, 2, 2))
        assert distance_to_object((2.0, 2.0, 0.0), box) == pytest.approx(math.sqrt(2.0), abs=0)

    @given(
        p=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
        q=st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
    )
    def test_distance_is_1_lipschitz(self, p, q):
        box = ObjectNode("box", "box", (0.5, -0.25, 1.0), (2.0, 1.0, 0.5))
        lhs = abs(distance_to_object(p, box) - distance_to_object(q, box))
        assert lhs <= math.dist(p, q) + 1e-9

    @given(p=st.tuples(*[st.floats(-5, 5) for _ in range(3)]))
    def test_zero_exactly_on_or_inside_box(self, p):
        box = ObjectNode("box", "box", (0, 0, 0), (2, 3, 1))
        inside = all(lo <= c <= hi for c, lo, hi in zip(p, box.bbox_min, box.bbox_max))
        assert (distance_to_object(p, box) == 0.0) == inside

    def test_box_distances_match_single_pairs_bit_for_bit(self, small_scene):
        box = ObjectNode("box", "box", (0.5, -0.25, 1.0), (2.0, 1.0, 0.5))
        nodes = [box, *small_scene]
        points = [
            (0.5, -0.25, 1.0),  # inside
            (1.5, 0.0, 1.1),  # on a face
            (1.5, 0.25, 1.1),  # on an edge
            (-0.5, -0.75, 0.75),  # on a corner
            (0.1, 0.3, 0.7),  # near, oblique
            (1e6, -3e5, 42.0),  # far away
        ]
        distances = box_distances(points, nodes)
        assert distances.shape == (len(points), len(nodes))
        for i, point in enumerate(points):
            for j, node in enumerate(nodes):
                # Reference arithmetic: per-axis gaps, squares summed x, y, z.
                total = 0.0
                for p, c, e in zip(point, node.bbox_center, node.bbox_extent):
                    gap = max(c - e / 2.0 - p, 0.0, p - (c + e / 2.0))
                    total += gap * gap
                assert distance_to_object(point, node) == distances[i, j] == math.sqrt(total)
        assert distances[:4, 0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_box_distances_of_no_points_or_no_nodes(self, small_scene):
        assert box_distances([], list(small_scene)).shape == (0, 3)
        assert box_distances([(0.0, 0.0, 0.0)], []).shape == (1, 0)


class TestRadiusQuery:
    def test_zero_radius_inside_bed(self, small_scene):
        center = small_scene.node("bed").bbox_center
        assert objects_within_radius(small_scene, center, 0.0) == {"bed"}

    def test_covering_radius_returns_all(self, small_scene):
        assert objects_within_radius(small_scene, (0, 0, 0), 100.0) == {"bed", "tv", "armchair"}

    def test_radius_between_bed_and_tv_distances(self, small_scene):
        # Brute-force oracle: pick a radius strictly between the two nearest
        # object distances and check only the nearer one is returned.
        point = (1.0, 2.0, 0.0)
        distances = sorted(
            (distance_to_object(point, node), node.id) for node in small_scene
        )
        radius = (distances[0][0] + distances[1][0]) / 2.0
        expected = {node_id for d, node_id in distances if d <= radius}
        assert expected == {distances[0][1]}
        assert objects_within_radius(small_scene, point, radius) == expected

    def test_negative_radius_rejected(self, small_scene):
        with pytest.raises(ValueError, match=">= 0"):
            objects_within_radius(small_scene, (0, 0, 0), -0.1)

    @given(
        r1=st.floats(0, 6),
        r2=st.floats(0, 6),
        point=st.tuples(st.floats(0, 5), st.floats(0, 5), st.floats(0, 2)),
    )
    def test_monotone_in_radius(self, r1, r2, point):
        graph = make_small_scene()
        lo, hi = sorted((r1, r2))
        assert objects_within_radius(graph, point, lo) <= objects_within_radius(graph, point, hi)


class TestSceneGraphType:
    def test_duplicate_node_ids_rejected(self):
        node = ObjectNode("a", "box", (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match='node id "a" already exists in the scene'):
            SceneGraph(nodes=[node, node])

    def test_repeated_id_has_one_reason_wherever_it_arises(self, small_scene):
        # A scene file, a graph built from nodes, and an inserted human all
        # meet the one check in the SceneGraph constructor.
        doc = json.loads(small_scene_document())
        doc["nodes"].append(dict(doc["nodes"][0], tag="sofa"))
        bed = small_scene.node("bed")
        taken = HumanSpec(id="bed", bbox_center=(0, 0, 0), bbox_extent=(1, 1, 1))
        for build, path in (
            (lambda: load_scene(json.dumps(doc)), "nodes[3].id"),
            (lambda: SceneGraph(nodes=(bed, bed)), "nodes[1].id"),
            (lambda: insert_human(small_scene, taken), f"nodes[{len(small_scene.nodes)}].id"),
        ):
            with pytest.raises(FormatError) as info:
                build()
            assert (info.value.path, info.value.reason) == (
                path, 'node id "bed" already exists in the scene'
            )

    def test_mapping_values_that_repeat_an_id_are_refused(self):
        # Two keys, one node id: a graph keyed by id cannot hold both.
        node = ObjectNode("a", "box", (0, 0, 0), (1, 1, 1))
        with pytest.raises(FormatError, match=r'^nodes\[1\]\.id: node id "a" already exists'):
            SceneGraph(nodes={"a": node, "b": node})

    def test_mapping_is_keyed_by_node_id(self):
        node = ObjectNode("a", "box", (0, 0, 0), (1, 1, 1))
        assert SceneGraph(nodes={"x": node}).nodes == {"a": node}

    def test_repeated_id_is_reported_after_shape_errors(self):
        doc = json.loads(small_scene_document())
        doc["nodes"].append(dict(doc["nodes"][0]))
        doc["relations"][0]["kind"] = "nearby"
        with pytest.raises(FormatError, match=r"^relations\[0\]\.kind: unknown kind"):
            load_scene(json.dumps(doc))

    def test_unknown_node_lookup(self, small_scene):
        with pytest.raises(ValueError, match="ghost"):
            small_scene.node("ghost")
