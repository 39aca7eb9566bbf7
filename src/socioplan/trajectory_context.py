"""Trajectories, extraction of the trajectory-relevant partial scene graph,
and the canonical per-object description text fed to assessors."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .scene_graph import SceneGraph, Vec3, box_corners, float_tuple, gap_distances

DEFAULT_QUERY_RADIUS_M = 2.0
# Relevance is sampled at waypoints only; trajectories are densified to this
# spacing first so segment coverage is implied.
DEFAULT_WAYPOINT_SPACING_M = 0.25
# Most waypoints a trajectory densifies to; refused from the count, before any allocation.
MAX_WAYPOINTS = 1_000_000


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of 3D waypoints; at least one waypoint."""

    waypoints: tuple[Vec3, ...]

    def __post_init__(self) -> None:
        waypoints = tuple(float_tuple(p, "a Trajectory waypoint") for p in self.waypoints)
        if not waypoints:
            raise ValueError("a trajectory needs at least one waypoint")
        if any(len(p) != 3 for p in waypoints):
            raise ValueError("waypoints must be 3-vectors")
        object.__setattr__(self, "waypoints", waypoints)

    def __len__(self) -> int:
        return len(self.waypoints)


def _densify(waypoints: Sequence[Vec3], max_spacing: float) -> np.ndarray:
    """(W, 3) waypoints, each segment a -> b split into ``steps = max(1,
    ceil(dist(a, b) / max_spacing))`` points ``a + (b - a) * (k / steps)``,
    k = 1..steps; an infinite spacing keeps the waypoints, a ``Trajectory``'s
    3-vectors read flat. ValueError when W would exceed ``MAX_WAYPOINTS``."""
    if max_spacing <= 0:
        raise ValueError("max_spacing must be > 0")
    points = np.fromiter(chain.from_iterable(waypoints), float, 3 * len(waypoints)).reshape(-1, 3)
    if not math.isfinite(max_spacing):
        return points
    lengths = np.array([math.dist(a, b) for a, b in zip(waypoints, waypoints[1:])])
    with np.errstate(over="ignore"):  # a step count beyond the float range is inf
        steps = np.maximum(np.ceil(lengths / max_spacing), 1.0)
        count = 1.0 + steps.sum()
    if count > MAX_WAYPOINTS:
        raise ValueError(
            f"the trajectory densifies to {count:.6g} waypoints at {max_spacing!r} m;"
            f" at most {MAX_WAYPOINTS:,} are allowed"
        )
    steps = steps.astype(np.int64)
    segment = np.repeat(np.arange(len(steps)), steps)
    k = np.arange(1, len(segment) + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    a, b = points[segment], points[segment + 1]
    return np.concatenate([points[:1], a + (b - a) * (k / steps[segment])[:, None]])


def resample(trajectory: Trajectory, max_spacing: float = DEFAULT_WAYPOINT_SPACING_M) -> Trajectory:
    """Insert evenly spaced waypoints so consecutive ones are <= max_spacing apart."""
    return Trajectory(tuple(map(tuple, _densify(trajectory.waypoints, max_spacing).tolist())))


def relevant_objects(
    graph: SceneGraph,
    trajectory: Trajectory,
    radius: float = DEFAULT_QUERY_RADIUS_M,
    *,
    max_spacing: float = DEFAULT_WAYPOINT_SPACING_M,
) -> tuple[str, ...]:
    """Ids of objects within ``radius`` of any (densified) waypoint, ordered
    by the index of the first such waypoint, ties broken by id.

    A (chunk of ``chunk`` consecutive waypoints, object) pair is dropped when
    the gap between their boxes on some axis exceeds ``radius * (1 + 1e-9)``;
    ``gap_distances`` runs on the (waypoint, object) pairs left. This is
    exact: rounding of a subtraction is monotone, so a waypoint's computed gap
    is at least the chunk's, and the square, sum and root lose under 1e-15
    relative, far inside the margin.

    Whether and where a node is hit depends on its own box alone. So a graph
    that keeps a subset of another's nodes unchanged, as a condition variant
    keeps its base scene's, gets the other's ids filtered to its nodes.
    """
    if radius <= 0:
        raise ValueError("query radius must be > 0")
    points, chunk = _densify(trajectory.waypoints, max_spacing), 16
    nodes = tuple(graph)
    lo, hi = box_corners(nodes)
    starts = np.arange(0, len(points), chunk)
    low, high = np.minimum.reduceat(points, starts).T, np.maximum.reduceat(points, starts).T
    limit = radius * (1 + 1e-9)
    far = (lo[:, None] - high[:, :, None] > limit) | (low[:, :, None] - hi[:, None] > limit)
    near, node = np.nonzero(~far.any(axis=0))
    # A pair stands for its chunk's waypoints; a short last chunk repeats its last one.
    waypoint = np.minimum(near[:, None] * chunk + np.arange(chunk), len(points) - 1).ravel()
    node = node.repeat(chunk)
    hit = gap_distances(points.T.take(waypoint, 1), lo.take(node, 1), hi.take(node, 1)) <= radius
    first = np.full(len(nodes), len(points))
    np.minimum.at(first, node[hit], waypoint[hit])
    found = sorted((i, n.id) for i, n in zip(first.tolist(), nodes) if i < len(points))
    return tuple(node_id for _, node_id in found)


def induce_partial_graph(graph: SceneGraph, ids: Iterable[str]) -> SceneGraph:
    """Subgraph of ``ids`` plus the humans related to them.

    A node is pulled in when it is tagged human, is not in ``ids`` and shares
    a relation, in either direction, with a node in ``ids``. A relation is kept
    when both of its ends are kept and at least one is in ``ids``. Nodes and
    relations keep the graph's order, and the result is always a valid scene
    graph. ValueError names the smallest id that is not in the graph.
    """
    wanted, nodes = set(ids), graph.nodes
    if unknown := sorted(wanted.difference(nodes)):
        raise ValueError(f'unknown object id "{unknown[0]}"')
    extras = {
        end
        for r in graph.relations
        if r.head_id in wanted or r.tail_id in wanted
        for end in (r.head_id, r.tail_id)
        if end not in wanted and end in nodes and nodes[end].is_human
    }
    keep = wanted | extras
    relations = tuple(
        r
        for r in graph.relations
        if r.head_id in keep and r.tail_id in keep and (r.head_id in wanted or r.tail_id in wanted)
    )
    return SceneGraph(nodes={i: n for i, n in nodes.items() if i in keep}, relations=relations)


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

    # (verb, other entity, inverted) per node: edges where the node is the
    # head, plus inverted-flagged edges where it is the tail (and not the head).
    relations = defaultdict(set)
    for rel in partial.relations:
        relations[rel.head_id].add((rel.name, label(rel.tail_id), False))
        if rel.tail_id != rel.head_id:
            relations[rel.tail_id].add((rel.name, label(rel.head_id), True))
    lines = ["OBJECTS"]
    node_ids = sorted(partial.nodes)
    if not node_ids:
        lines.append("(none)")
    for node_id in node_ids:
        node = partial.node(node_id)
        rel_text = ", ".join(
            f"({verb}, {other}, inverted)" if inverted else f"({verb}, {other})"
            for verb, other, inverted in sorted(relations[node_id])
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
