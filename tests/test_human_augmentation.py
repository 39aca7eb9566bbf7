from __future__ import annotations

import dataclasses
import math

import pytest

from socioplan import (
    Condition,
    FormatError,
    HumanSpec,
    RelationKind,
    derive_condition_variant,
    insert_human,
    validate_scene,
)

from conftest import ALL_CONDITIONS, make_seated_human_spec


class TestInsertHuman:
    def test_sitting_on_bed_watching_tv(self, small_scene):
        graph = insert_human(small_scene, make_seated_human_spec())
        human = graph.node("human_1")
        assert human.tag == "human"
        triples = {r.triple: r.kind for r in graph.relations}
        assert triples[("sitting on", "human_1", "bed")] is RelationKind.SPATIAL
        assert triples[("watching", "human_1", "tv")] is RelationKind.ACTIVITY
        assert validate_scene(graph) is None

    def test_empty_relation_lists_gives_isolated_human(self, small_scene):
        spec = HumanSpec(id="human_1", bbox_center=(2, 2, 0.9), bbox_extent=(0.5, 0.5, 1.8))
        graph = insert_human(small_scene, spec)
        assert "human_1" in graph
        assert all("human_1" not in (r.head_id, r.tail_id) for r in graph.relations)

    def test_missing_target_is_an_error(self, small_scene):
        spec = HumanSpec(
            id="human_1",
            bbox_center=(0, 0, 0),
            bbox_extent=(1, 1, 1),
            spatial_relations=(("sitting on", "ghost"),),
        )
        with pytest.raises(ValueError, match="ghost"):
            insert_human(small_scene, spec)

    def test_empty_verb_is_an_error(self, small_scene):
        spec = HumanSpec(
            id="human_1", bbox_center=(0, 0, 0), bbox_extent=(1, 1, 1), spatial_relations=(("", "bed"),)
        )
        with pytest.raises(FormatError) as info:
            insert_human(small_scene, spec)
        assert str(info.value) == "relations[0].name: must be non-empty"

    def test_duplicate_id_is_an_error(self, small_scene):
        spec = HumanSpec(id="bed", bbox_center=(0, 0, 0), bbox_extent=(1, 1, 1))
        with pytest.raises(ValueError, match="already exists"):
            insert_human(small_scene, spec)

    @pytest.mark.parametrize(
        "change, reason",
        [
            (
                {"bbox_extent": (0.5, 0.0, 0.9)},
                'node "human_1" has bbox_extent (0.5, 0.0, 0.9); every component must be > 0',
            ),
            ({"bbox_extent": (math.nan, 0.5, 0.9)}, "number must be finite"),
            ({"bbox_extent": (0.5, math.nan, 0.9)}, "number must be finite"),
            (
                {"spatial_relations": (("sitting on", "bed"), ("sitting on", "bed"))},
                "duplicate relation triple ('sitting on', 'human_1', 'bed')",
            ),
        ],
        ids=["zero-extent", "nan-x-extent", "nan-y-extent", "repeated-pair"],
    )
    def test_a_broken_scene_rule_is_refused(self, small_scene, change, reason):
        spec = dataclasses.replace(make_seated_human_spec(), **change)
        with pytest.raises(FormatError) as info:
            insert_human(small_scene, spec)
        assert info.value.reason == reason

    @pytest.mark.parametrize(
        "change, line",
        [
            ({"bbox_center": (math.nan, 1, 1)}, "nodes[2].bbox_center[0]: number must be finite"),
            ({"id": "h\x01"}, "nodes[2].id: holds U+0001, which no report or SVG can carry"),
        ],
        ids=["nan-center", "control-id"],
    )
    def test_a_field_the_scene_file_refuses_is_refused(self, small_scene, change, line):
        """Paths count the added part: the targets, the bed and the TV, then the human."""
        spec = dataclasses.replace(make_seated_human_spec(), **change)
        with pytest.raises(FormatError) as info:
            insert_human(small_scene, spec)
        assert str(info.value) == line

    def test_the_human_node_is_the_spec_node(self, small_scene):
        spec = make_seated_human_spec()
        assert insert_human(small_scene, spec).node(spec.id) == spec.node

    def test_input_graph_is_unchanged(self, small_scene):
        nodes_before = dict(small_scene.nodes)
        relations_before = small_scene.relations
        insert_human(small_scene, make_seated_human_spec())
        assert small_scene.nodes == nodes_before
        assert small_scene.relations == relations_before

    def test_counts_grow_by_spec_size(self, small_scene):
        spec = make_seated_human_spec()
        graph = insert_human(small_scene, spec)
        assert len(graph.nodes) == len(small_scene.nodes) + 1
        expected_new = len(spec.spatial_relations) + len(spec.activity_relations)
        assert len(graph.relations) == len(small_scene.relations) + expected_new


class TestConditionVariants:
    def test_no_human_removes_human_nodes_and_edges(self, scene_with_human):
        variant = derive_condition_variant(scene_with_human, Condition.NO_HUMAN)
        assert variant.human_ids() == ()
        for relation in variant.relations:
            assert variant.node(relation.head_id).tag != "human"
            assert variant.node(relation.tail_id).tag != "human"

    def test_human_no_relations_keeps_isolated_human(self, scene_with_human):
        variant = derive_condition_variant(scene_with_human, Condition.HUMAN_NO_RELATIONS)
        assert "human_1" in variant
        degree = sum(1 for r in variant.relations if "human_1" in (r.head_id, r.tail_id))
        assert degree == 0
        # static relations survive
        assert any(r.triple == ("next to", "armchair", "bed") for r in variant.relations)

    def test_no_human_and_no_relations_drop_the_same_relations(self, scene_with_human):
        no_human = derive_condition_variant(scene_with_human, Condition.NO_HUMAN)
        no_relations = derive_condition_variant(scene_with_human, Condition.HUMAN_NO_RELATIONS)
        assert no_relations.relations == no_human.relations
        assert no_relations.nodes == scene_with_human.nodes

    def test_with_relations_is_identity(self, scene_with_human):
        assert derive_condition_variant(scene_with_human, Condition.HUMAN_WITH_RELATIONS) is scene_with_human

    @pytest.mark.parametrize("condition", ALL_CONDITIONS)
    def test_variants_are_valid_graphs(self, scene_with_human, condition):
        assert validate_scene(derive_condition_variant(scene_with_human, condition)) is None

    def test_no_human_on_humanless_graph_is_noop(self, small_scene):
        variant = derive_condition_variant(small_scene, Condition.NO_HUMAN)
        assert variant == small_scene
