"""Insert humans into a static scene graph and derive the ablation variants
that isolate the effect of human modeling on planning."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .scene_graph import HUMAN_TAG, ObjectNode, Relation, RelationKind, SceneGraph, Vec3, validate_scene


class Condition(enum.Enum):
    """Graph variant used for a run: no human, human without relations, or full."""

    NO_HUMAN = "no_human"
    HUMAN_NO_RELATIONS = "human_no_relations"
    HUMAN_WITH_RELATIONS = "human_with_relations"

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Condition.NO_HUMAN: "No Human",
    Condition.HUMAN_NO_RELATIONS: "Human w/out relations",
    Condition.HUMAN_WITH_RELATIONS: "Human w/ relations",
}


@dataclass(frozen=True)
class HumanSpec:
    """Placement of one human: body box plus the relations anchoring them.

    ``spatial_relations`` describe physical arrangement ("sitting on", bed);
    ``activity_relations`` describe ongoing activities ("watching", tv).
    Each entry is a (verb, target id) pair; targets must be existing
    non-human nodes.
    """

    id: str
    bbox_center: Vec3
    bbox_extent: Vec3
    spatial_relations: tuple[tuple[str, str], ...] = ()
    activity_relations: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bbox_center", tuple(float(c) for c in self.bbox_center))
        object.__setattr__(self, "bbox_extent", tuple(float(c) for c in self.bbox_extent))
        object.__setattr__(
            self, "spatial_relations", tuple((v, t) for v, t in self.spatial_relations)
        )
        object.__setattr__(
            self, "activity_relations", tuple((v, t) for v, t in self.activity_relations)
        )

    @property
    def node(self) -> ObjectNode:
        """The human's ``ObjectNode``, tagged ``HUMAN_TAG``."""
        return ObjectNode(self.id, HUMAN_TAG, self.bbox_center, self.bbox_extent)


def insert_human(graph: SceneGraph, spec: HumanSpec) -> SceneGraph:
    """Return a new graph with a human node and its relations added.

    The input graph is never mutated. Raises ValueError for a missing or
    human-tagged target, then ``SceneGraph``'s FormatError for a taken id, then
    ``validate_scene``'s FormatError for a broken rule of the added part (the
    human, its targets and its relations), such as an empty verb, a non-finite
    number, a ``bbox_extent`` component <= 0 or a repeated (verb, target) pair.
    A valid input graph thus gives a valid result.
    """
    added: list[Relation] = []
    for kind, pairs in (
        (RelationKind.SPATIAL, spec.spatial_relations),
        (RelationKind.ACTIVITY, spec.activity_relations),
    ):
        for verb, target in pairs:
            if target not in graph:
                raise ValueError(f'human relation target "{target}" does not name a node')
            if graph.node(target).is_human:
                raise ValueError(f'human relation target "{target}" must be a non-human node')
            added.append(Relation(name=verb, head_id=spec.id, tail_id=target, kind=kind))
    human = spec.node
    result = SceneGraph(nodes=(*graph, human), relations=graph.relations + tuple(added))
    # No base relation has the new id as its head, so only the added part can break a rule.
    targets = {r.tail_id: graph.node(r.tail_id) for r in added}
    validate_scene(SceneGraph(nodes=(*targets.values(), human), relations=added))
    return result


def derive_condition_variant(graph: SceneGraph, condition: Condition) -> SceneGraph:
    """Project the graph onto an experimental condition.

    NO_HUMAN and HUMAN_NO_RELATIONS drop every relation touching a human;
    NO_HUMAN also drops the human nodes. HUMAN_WITH_RELATIONS returns the
    graph unchanged.
    """
    if condition is Condition.HUMAN_WITH_RELATIONS:
        return graph
    human_ids = set(graph.human_ids())
    relations = tuple(
        r for r in graph.relations if r.head_id not in human_ids and r.tail_id not in human_ids
    )
    nodes = graph.nodes
    if condition is Condition.NO_HUMAN:
        nodes = {i: n for i, n in nodes.items() if i not in human_ids}
    return SceneGraph(nodes=nodes, relations=relations)
