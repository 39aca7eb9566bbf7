"""Trajectories, extraction of the trajectory-relevant partial scene graph,
and the canonical per-object description text fed to assessors."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .scene_graph import SceneGraph, Vec3, box_distances

DEFAULT_QUERY_RADIUS_M = 2.0
# Relevance is sampled at waypoints only; trajectories are densified to this
# spacing first so segment coverage is implied.
DEFAULT_WAYPOINT_SPACING_M = 0.25


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of 3D waypoints; at least one waypoint."""

    waypoints: tuple[Vec3, ...]

    def __post_init__(self) -> None:
        waypoints = tuple(tuple(float(c) for c in p) for p in self.waypoints)
        if not waypoints:
            raise ValueError("a trajectory needs at least one waypoint")
        if any(len(p) != 3 for p in waypoints):
            raise ValueError("waypoints must be 3-vectors")
        object.__setattr__(self, "waypoints", waypoints)

    def __len__(self) -> int:
        return len(self.waypoints)


def resample(trajectory: Trajectory, max_spacing: float = DEFAULT_WAYPOINT_SPACING_M) -> Trajectory:
    """Insert evenly spaced waypoints so consecutive ones are <= max_spacing apart."""
    if max_spacing <= 0:
        raise ValueError("max_spacing must be > 0")
    if not math.isfinite(max_spacing):
        return trajectory
    points = [trajectory.waypoints[0]]
    for a, b in zip(trajectory.waypoints, trajectory.waypoints[1:]):
        length = math.dist(a, b)
        steps = max(1, math.ceil(length / max_spacing))
        for k in range(1, steps + 1):
            t = k / steps
            points.append(tuple(a[i] + (b[i] - a[i]) * t for i in range(3)))
    return Trajectory(tuple(points))


def relevant_objects(
    graph: SceneGraph,
    trajectory: Trajectory,
    radius: float = DEFAULT_QUERY_RADIUS_M,
    *,
    max_spacing: float = DEFAULT_WAYPOINT_SPACING_M,
) -> tuple[str, ...]:
    """Ids of objects within ``radius`` of any (densified) waypoint.

    All (waypoint, object) box distances are computed in one pass. Ids are
    ordered by the index of the first waypoint within ``radius`` of the
    object, ties broken by id, so the result is deterministic.
    """
    if radius <= 0:
        raise ValueError("query radius must be > 0")
    dense = resample(trajectory, max_spacing)
    nodes = tuple(graph)
    hits = box_distances(dense.waypoints, nodes) <= radius
    first, any_hit = hits.argmax(axis=0).tolist(), hits.any(axis=0).tolist()
    found = sorted((i, node.id) for i, node, hit in zip(first, nodes, any_hit) if hit)
    return tuple(node_id for _, node_id in found)


def induce_partial_graph(graph: SceneGraph, ids: Iterable[str]) -> SceneGraph:
    """Subgraph of ``ids`` plus any humans related to them.

    Keeps every relation among the given nodes and every relation linking a
    pulled-in human to a given node, so human context survives extraction.
    The result is always a valid scene graph.
    """
    wanted = set(ids)
    for node_id in wanted:
        if node_id not in graph:
            raise ValueError(f'unknown object id "{node_id}"')
    extras: set[str] = set()
    for rel in graph.relations:
        for human_end, other_end in ((rel.head_id, rel.tail_id), (rel.tail_id, rel.head_id)):
            if human_end in wanted or human_end not in graph:
                continue
            if graph.node(human_end).is_human and other_end in wanted:
                extras.add(human_end)
    keep = wanted | extras

    def keep_relation(head: str, tail: str) -> bool:
        if head in wanted and tail in wanted:
            return True
        # Human-attachment edges: one pulled-in human, one requested node.
        return (head in extras and tail in wanted) or (head in wanted and tail in extras)

    nodes = {i: n for i, n in graph.nodes.items() if i in keep}
    relations = tuple(r for r in graph.relations if keep_relation(r.head_id, r.tail_id))
    return SceneGraph(nodes=nodes, relations=relations)


def _vec(values: Sequence[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _names(values: Iterable[str]) -> str:
    return "[" + ", ".join(sorted(values)) + "]"


def render_context_text(
    partial: SceneGraph, trajectory: Trajectory, preferences: Sequence[str]
) -> str:
    """Canonical text block describing the partial graph, trajectory, and
    preferences. Identical inputs always produce byte-identical text."""
    tag_counts = Counter(node.tag for node in partial)

    def label(node_id: str) -> str:
        tag = partial.node(node_id).tag
        return f"{tag}[{node_id}]" if tag_counts[tag] > 1 else tag

    lines = ["OBJECTS"]
    node_ids = sorted(partial.nodes)
    if not node_ids:
        lines.append("(none)")
    for node_id in node_ids:
        node = partial.node(node_id)
        # (verb, other entity, inverted): edges where the node is the head,
        # plus inverted-flagged edges where it is the tail.
        relations = set()
        for rel in partial.relations:
            if rel.head_id == node_id:
                relations.add((rel.name, label(rel.tail_id), False))
            elif rel.tail_id == node_id:
                relations.add((rel.name, label(rel.head_id), True))
        rel_text = ", ".join(
            f"({verb}, {other}, inverted)" if inverted else f"({verb}, {other})"
            for verb, other, inverted in sorted(relations)
        )
        lines += [
            f"- object_id: {node.id}",
            f"  object_tag: {node.tag}",
            f"  bbox_center: {_vec(node.bbox_center)}",
            f"  bbox_extent: {_vec(node.bbox_extent)}",
            f"  affordances: {_names(node.affordances)}",
            f"  attributes: {_names(node.attributes)}",
            f"  relations: [{rel_text}]",
        ]
    lines.append("TRAJECTORY")
    for point in trajectory.waypoints:
        lines.append(f"- {_vec(point)}")
    lines.append("PREFERENCES")
    if preferences:
        lines.extend(f"- {p}" for p in preferences)
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"
