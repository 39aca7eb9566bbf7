"""3D semantic scene graphs: object nodes with axis-aligned bounding boxes,
labeled directed relations, a JSON file format, validation, and the geometric
queries the planning pipeline builds on.

Conventions: coordinates are (x, y, z) in meters with z up; ``bbox_extent``
stores full side lengths (not half-extents); boxes are axis-aligned. Graphs
are immutable after construction; derived graphs are built by copying.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .jsonio import (
    FormatError,
    canonical_json,
    check_document,
    check_keys,
    choice,
    items,
    parse_document,
    plain_numbers,
    plain_strings,
    string,
    string_list,
    vector,
)

Vec3 = tuple[float, float, float]

SCENE_SCHEMA_VERSION = 1
HUMAN_TAG = "human"


class RelationKind(enum.Enum):
    SPATIAL = "spatial"
    COMPARATIVE = "comparative"
    ACTIVITY = "activity"


@dataclass(frozen=True)
class ObjectNode:
    """One scene object.

    ``affordances`` are actions the object supports ("sit", "open");
    ``attributes`` are descriptive labels ("wooden", "soft").
    """

    id: str
    tag: str
    bbox_center: Vec3
    bbox_extent: Vec3
    affordances: frozenset[str] = frozenset()
    attributes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bbox_center", tuple(map(float, self.bbox_center)))
        object.__setattr__(self, "bbox_extent", tuple(map(float, self.bbox_extent)))
        object.__setattr__(self, "affordances", frozenset(self.affordances))
        object.__setattr__(self, "attributes", frozenset(self.attributes))

    @property
    def bbox_min(self) -> Vec3:
        c, e = self.bbox_center, self.bbox_extent
        return (c[0] - e[0] / 2.0, c[1] - e[1] / 2.0, c[2] - e[2] / 2.0)

    @property
    def bbox_max(self) -> Vec3:
        c, e = self.bbox_center, self.bbox_extent
        return (c[0] + e[0] / 2.0, c[1] + e[1] / 2.0, c[2] + e[2] / 2.0)

    @property
    def is_human(self) -> bool:
        return self.tag == HUMAN_TAG


@dataclass(frozen=True)
class Relation:
    """Directed labeled edge ``head --name--> tail``."""

    name: str
    head_id: str
    tail_id: str
    kind: RelationKind

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.name, self.head_id, self.tail_id)


@dataclass(frozen=True)
class SceneGraph:
    """Immutable scene graph: id-keyed nodes, from a Mapping's values or any
    iterable, plus directed relations. The constructor is the one home of the
    unique-id rule, since a graph keyed by id has already merged its repeats:
    the first repeat is a FormatError at ``nodes[i].id``, in the order given."""

    nodes: Mapping[str, ObjectNode]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self) -> None:
        given = self.nodes.values() if isinstance(self.nodes, Mapping) else self.nodes
        nodes: dict[str, ObjectNode] = {}
        for i, node in enumerate(given):
            if node.id in nodes:
                raise FormatError(f'node id "{node.id}" already exists in the scene', f"nodes[{i}].id")
            nodes[node.id] = node
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "relations", tuple(self.relations))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def __iter__(self) -> Iterator[ObjectNode]:
        return iter(self.nodes.values())

    def node(self, node_id: str) -> ObjectNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ValueError(f'unknown object id "{node_id}"') from None

    def human_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self if n.is_human)


def validate_scene(graph: SceneGraph) -> None:
    """Hold a graph built in code to the scene file's rules: the reader's field
    checks on ``scene_to_dict(graph)``, then ``_check_graph``. FormatError at the
    first broken one; paths count nodes and relations in graph (= document) order."""
    data = scene_to_dict(graph)
    if not _plain(data["nodes"], data["relations"]):
        _check_fields(data["nodes"], data["relations"], strict=True)
    _check_graph(graph)


def _check_graph(graph: SceneGraph) -> None:
    """The scene's graph rules: each extent > 0, then each relation's head, tail,
    distinct ends, unique triple and, for an activity, a human head."""
    for i, node in enumerate(graph):
        if not all(e > 0 for e in node.bbox_extent):
            raise FormatError(
                f'node "{node.id}" has bbox_extent {node.bbox_extent}; every component must be > 0',
                f"nodes[{i}].bbox_extent",
            )
    seen: set[tuple[str, str, str]] = set()
    for j, rel in enumerate(graph.relations):
        path = f"relations[{j}]"
        for field_name, endpoint in (("head", rel.head_id), ("tail", rel.tail_id)):
            if endpoint not in graph:
                raise FormatError(
                    f'relation ({rel.name}, {rel.head_id}, {rel.tail_id}) references unknown id "{endpoint}"',
                    f"{path}.{field_name}",
                )
        if rel.head_id == rel.tail_id:
            raise FormatError(f'relation "{rel.name}" must connect two distinct nodes', path)
        if rel.triple in seen:
            raise FormatError(f"duplicate relation triple {rel.triple}", path)
        seen.add(rel.triple)
        if rel.kind is RelationKind.ACTIVITY and not graph.node(rel.head_id).is_human:
            raise FormatError(
                f'activity relation "{rel.name}" originates at "{rel.head_id}" '
                f'(tag "{graph.node(rel.head_id).tag}"), not at a human node',
                f"{path}.head",
            )


def load_scene(document: bytes | str, *, strict: bool = False) -> SceneGraph:
    """Parse and validate a scene JSON document (see ``scene_from_dict``)."""
    return scene_from_dict(parse_document(document, what="scene document"), strict=strict)


_NODE_REQUIRED = ("id", "tag", "bbox_center", "bbox_extent")
_NODE_OPTIONAL = ("affordances", "attributes")
_RELATION_FIELDS = ("name", "head", "tail", "kind")
_NODE_KEYS = frozenset(_NODE_REQUIRED), frozenset(_NODE_REQUIRED + _NODE_OPTIONAL)  # fewest, most
_RELATION_KEYS = frozenset(_RELATION_FIELDS)
_KINDS = {k.value: k for k in RelationKind}


def _plain(raw_nodes: object, raw_relations: object) -> bool:
    """Whether every node and relation is plainly well-formed: known and required
    keys only, ``plain_strings`` ids, tags, names, affordances and attributes,
    ``plain_numbers`` 3-list bboxes, and a ``RelationKind`` kind."""
    if not (
        type(raw_nodes) is type(raw_relations) is list
        and all(type(n) is dict and _NODE_KEYS[0] <= n.keys() <= _NODE_KEYS[1] for n in raw_nodes)
        and all(type(r) is dict and r.keys() == _RELATION_KEYS for r in raw_relations)
    ):
        return False
    labels = [n.get(k, []) for n in raw_nodes for k in _NODE_OPTIONAL]
    boxes = [n[k] for n in raw_nodes for k in ("bbox_center", "bbox_extent")]
    kinds = [r["kind"] for r in raw_relations]
    names = [r[k] for r in raw_relations for k in ("name", "head", "tail")]
    return (
        set(map(type, labels + boxes)) <= {list} and set(map(len, boxes)) <= {3}
        and plain_strings([n[k] for n in raw_nodes for k in ("id", "tag")] + names + kinds + list(chain(*labels)))
        and _KINDS.keys() >= set(kinds)
        and plain_numbers(list(chain(*boxes)))
    )


def scene_from_dict(data: object, *, strict: bool = False) -> SceneGraph:
    """Validate a parsed scene document and build the graph.

    Raises FormatError with a path into the document for missing fields and
    wrong types, then a repeated node id, then the first rule ``_check_graph``
    finds broken. Unknown keys are rejected in strict mode, warned otherwise.
    A document that passes one bulk check (``_plain``), a sufficient condition
    only, skips the per-field reader, the one source of error text and warnings.
    """
    check_document(data, SCENE_SCHEMA_VERSION, ("nodes",), ("relations",), strict=strict)
    raw_nodes, raw_relations = data["nodes"], data.get("relations", [])
    if not _plain(raw_nodes, raw_relations):
        _check_fields(raw_nodes, raw_relations, strict)
    graph = SceneGraph(
        [ObjectNode(n["id"], n["tag"], n["bbox_center"], n["bbox_extent"], n.get("affordances", ()),
                    n.get("attributes", ())) for n in raw_nodes],
        tuple(Relation(r["name"], r["head"], r["tail"], _KINDS[r["kind"]]) for r in raw_relations),
    )
    _check_graph(graph)
    return graph


def _check_fields(raw_nodes: object, raw_relations: object, strict: bool) -> None:
    """The per-field reader of a scene's nodes and relations."""
    for raw, path in items(raw_nodes, "nodes", "a list of node objects"):
        check_keys(raw, required=_NODE_REQUIRED, optional=_NODE_OPTIONAL, path=path, strict=strict)
        for key in ("id", "tag"):
            string(raw[key], f"{path}.{key}")
        for key in ("bbox_center", "bbox_extent"):
            vector(raw[key], f"{path}.{key}", 3)
        for key in _NODE_OPTIONAL:
            string_list(raw.get(key, []), f"{path}.{key}")
    for raw, path in items(raw_relations, "relations", "a list of relation objects"):
        check_keys(raw, required=_RELATION_FIELDS, optional=(), path=path, strict=strict)
        for key in ("name", "head", "tail"):
            string(raw[key], f"{path}.{key}")
        choice(raw["kind"], f"{path}.kind", "kind", _KINDS)


def scene_to_dict(graph: SceneGraph) -> dict:
    return {
        "schema_version": SCENE_SCHEMA_VERSION,
        "nodes": [
            {
                "id": n.id,
                "tag": n.tag,
                "bbox_center": list(n.bbox_center),
                "bbox_extent": list(n.bbox_extent),
                "affordances": sorted(n.affordances),
                "attributes": sorted(n.attributes),
            }
            for n in graph
        ],
        "relations": [
            {"name": r.name, "head": r.head_id, "tail": r.tail_id, "kind": r.kind.value}
            for r in graph.relations
        ],
    }


def serialize_scene(graph: SceneGraph) -> str:
    """Canonical JSON for a scene; ``load_scene`` of the output reproduces the graph."""
    return canonical_json(scene_to_dict(graph))


def box_corners(nodes: Iterable[ObjectNode]) -> tuple[np.ndarray, np.ndarray]:
    """(3, N) lower and upper corners of the nodes' boxes, ``c -/+ e / 2``, axis first."""
    nodes = tuple(nodes)
    boxes = np.fromiter(chain(*[n.bbox_center + n.bbox_extent for n in nodes]), float, 6 * len(nodes))
    center, extent = boxes.reshape(len(nodes), 2, 3).transpose(1, 2, 0)
    return center - extent / 2.0, center + extent / 2.0


def gap_distances(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean distances from points to boxes, 0 inside or on a box, with
    ``p[a]``, ``lo[a]`` and ``hi[a]`` broadcasting together on each axis a of
    ``p``. The one home of the formula: per axis the gap is ``max(max(lo - p,
    0), p - hi)``; the squared gaps are summed in axis order from 0, then rooted."""
    total = 0.0
    for p_a, lo_a, hi_a in zip(p, lo, hi):
        gap = np.maximum(np.maximum(lo_a - p_a, 0.0), p_a - hi_a)
        total = total + gap * gap
    return np.sqrt(total)


def box_distances(points: Iterable[Iterable[float]], nodes: Iterable[ObjectNode]) -> np.ndarray:
    """(P, N) Euclidean distances (``gap_distances``) from each point to each
    node's box, worked on (P, N) arrays, so no (P, N, 3) block is built."""
    rows = [tuple(q) for q in points]
    p = np.array(rows, dtype=float).reshape(len(rows), 3)
    lo, hi = box_corners(nodes)
    return gap_distances(p.T[:, :, None], lo[:, None, :], hi[:, None, :])


def distance_to_object(point: Iterable[float], node: ObjectNode) -> float:
    """Euclidean distance from ``point`` to the closest point of the node's box.

    0 if the point is inside or on the box.
    """
    return float(box_distances([point], [node])[0, 0])


def objects_within_radius(graph: SceneGraph, point: Iterable[float], radius: float) -> set[str]:
    """Ids of all nodes whose box lies within ``radius`` meters of ``point``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    nodes = tuple(graph)
    distances = box_distances([point], nodes)[0]
    return {node.id for node, d in zip(nodes, distances.tolist()) if d <= radius}
