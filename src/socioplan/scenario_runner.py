"""End-to-end orchestration: scenario files, condition ablation runs,
deterministic run reports, and the condition comparison table."""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path as FilePath
from typing import Iterator, Sequence

import numpy as np

from .cost_assessment import (
    DEFAULT_MAX_ATTEMPTS,
    Assessment,
    AssessmentError,
    Assessor,
    HttpChatTransport,
    Provenance,
    RetryPolicy,
    cost_clearance,
    entries_from_dict,
    entries_to_dict,
    llm_assess,
    load_assessment_fixtures,
    replay_assess,
    rule_based_assess,
)
from .cost_field import (
    ActivityZone,
    RectFootprint,
    activity_zone,
    field_spec_from_assessment,
    footprint_of,
    grid_shape,
    planar_points,
    rasterize,
)
from .human_augmentation import Condition, HumanSpec, insert_human
from .jsonio import (
    FormatError,
    canonical_json,
    check_document,
    check_keys,
    choice,
    finite_number,
    index_vectors,
    integer,
    items,
    keyed,
    parse_document,
    read_file,
    string,
    string_list,
    unwritable,
    vector,
)
from .planner import PlanIteration, PlanningError, RunMemo, iterate_plan, path_from_cells
from .scene_graph import RelationKind, SceneGraph, Vec3, load_scene, scene_from_dict, scene_to_dict

Vec2 = tuple[float, float]

SCENARIO_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 2

ASSESSOR_KINDS = ("rules", "llm", "replay")


class ScenarioError(Exception):
    """A scenario run failed; message carries the condition and stage."""


@dataclass(frozen=True)
class AssessorConfig:
    kind: str
    fixtures: str | None = None  # replay: fixture file, relative to the scenario
    model: str | None = None  # llm: model name
    max_attempts: int = DEFAULT_MAX_ATTEMPTS  # llm: retry budget


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment: scene, human, conditions, and planner setup.
    ``base_dir`` and ``strict`` record how the file was read, so equality
    ignores them: its scene and replay fixture files are found from
    ``base_dir`` and read with ``strict``, and its name keys the fixtures."""

    name: str
    scene: str
    conditions: tuple[Condition, ...]
    start: Vec2
    goal: Vec2
    query_radius_m: float
    bounds: tuple[Vec2, Vec2]
    resolution: float
    assessor: AssessorConfig
    human: HumanSpec | None = None
    preferences: tuple[str, ...] = ()
    waypoints: tuple[Vec3, ...] | None = None
    activity_zones: tuple[tuple[str, tuple[float, float]], ...] = ()
    base_dir: FilePath = field(default=FilePath("."), compare=False)
    strict: bool = field(default=False, compare=False)

    def scene_path(self) -> FilePath:
        return self.base_dir / self.scene


def read_condition(value: object, path: str, earlier: Sequence[Condition]) -> Condition:
    """The condition ``value`` names at ``path``; it must be none of ``earlier``."""
    condition = Condition(choice(value, path, "condition", [c.value for c in Condition]))
    if condition in earlier:
        raise FormatError(f'condition "{condition.value}" repeats', path)
    return condition


def _parse_human(raw: dict, path: str, strict: bool) -> HumanSpec:
    check_keys(
        raw,
        required=("id", "bbox_center", "bbox_extent"),
        optional=("spatial_relations", "activity_relations"),
        path=path,
        strict=strict,
    )

    def pairs(key: str) -> tuple[tuple[str, str], ...]:
        return tuple(
            tuple(string(*part) for part in items(*pair, "a [verb, target id] pair", 2))
            for pair in items(raw.get(key, []), f"{path}.{key}", "a list of [verb, target id] pairs")
        )

    return HumanSpec(
        id=string(raw["id"], f"{path}.id"),
        bbox_center=vector(raw["bbox_center"], f"{path}.bbox_center", 3),
        bbox_extent=vector(raw["bbox_extent"], f"{path}.bbox_extent", 3),
        spatial_relations=pairs("spatial_relations"),
        activity_relations=pairs("activity_relations"),
    )


def _parse_assessor(raw: dict, path: str, strict: bool) -> AssessorConfig:
    check_keys(
        raw,
        required=("kind",),
        optional=("fixtures", "model", "max_attempts"),
        path=path,
        strict=strict,
    )
    return AssessorConfig(
        kind=choice(raw["kind"], f"{path}.kind", "assessor kind", ASSESSOR_KINDS),
        fixtures=string(raw["fixtures"], f"{path}.fixtures") if "fixtures" in raw else None,
        model=string(raw["model"], f"{path}.model") if "model" in raw else None,
        max_attempts=integer(
            raw.get("max_attempts", DEFAULT_MAX_ATTEMPTS), f"{path}.max_attempts", 1
        ),
    )


def _parse_map(raw: object, strict: bool) -> tuple[tuple[Vec2, Vec2], float]:
    """The ``map`` block of a scenario or a report: bounds and resolution."""
    check_keys(raw, required=("bounds", "resolution"), optional=(), path="map", strict=strict)
    what = "[[xmin, ymin], [xmax, ymax]]"
    low, high = (vector(*p, 2) for p in items(raw["bounds"], "map.bounds", what, 2))
    if high[0] <= low[0] or high[1] <= low[1]:
        raise FormatError("bounds must span a non-degenerate rectangle", "map.bounds")
    resolution = finite_number(raw["resolution"], "map.resolution")
    try:
        grid_shape((low, high), resolution)
    except ValueError as exc:
        raise FormatError(str(exc), "map.resolution") from None
    if resolution > min(high[0] - low[0], high[1] - low[1]):  # a cell center off the map
        raise FormatError(f"resolution {resolution!r} is coarser than the map", "map.resolution")
    return (low, high), resolution


def load_scenario(path: str | FilePath, *, strict: bool = False) -> Scenario:
    path = FilePath(path)
    data = parse_document(read_file(path, "scenario", "$"), what="scenario document")
    check_document(
        data,
        SCENARIO_SCHEMA_VERSION,
        ("name", "scene", "conditions", "start", "goal", "query_radius_m", "map", "assessor"),
        ("human", "preferences", "waypoints", "activity_zones"),
        strict=strict,
    )

    conditions: list[Condition] = []
    what = "a non-empty list of condition names"
    for value, where in items(data["conditions"], "conditions", what, nonempty=True):
        conditions.append(read_condition(value, where, conditions))

    (low, high), resolution = _parse_map(data["map"], strict)

    radius = finite_number(data["query_radius_m"], "query_radius_m")
    if radius <= 0:
        raise FormatError("query_radius_m must be > 0", "query_radius_m")

    def on_map(label: str, point: tuple[float, ...]) -> None:
        if not (low[0] <= point[0] <= high[0] and low[1] <= point[1] <= high[1]):
            raise FormatError(f"{label} {list(point)} lies outside map.bounds", label)

    start = vector(data["start"], "start", 2)
    goal = vector(data["goal"], "goal", 2)
    on_map("start", start)
    on_map("goal", goal)

    waypoints = None
    if "waypoints" in data:
        what = "a non-empty list of [x, y, z] points"
        waypoints = tuple(vector(*p, 3) for p in items(data["waypoints"], "waypoints", what, nonempty=True))
        for i, point in enumerate(waypoints):
            on_map(f"waypoints[{i}]", point)

    zones: list[tuple[str, tuple[float, float]]] = []
    what = "an object mapping activity verbs to [cost, clearance]"
    for verb, raw_zone, zone_path in keyed(data.get("activity_zones", {}), "activity_zones", what):
        cc = cost_clearance(dict(zip(("cost", "clearance"), vector(raw_zone, zone_path, 2))), zone_path)
        zones.append((string(verb, zone_path), (cc.cost, cc.clearance)))

    return Scenario(
        name=string(data["name"], "name"),
        scene=string(data["scene"], "scene"),
        conditions=tuple(conditions),
        start=(start[0], start[1]),
        goal=(goal[0], goal[1]),
        query_radius_m=radius,
        bounds=(low, high),
        resolution=resolution,
        assessor=_parse_assessor(data["assessor"], "assessor", strict),
        human=_parse_human(data["human"], "human", strict) if "human" in data else None,
        preferences=tuple(string_list(data.get("preferences", []), "preferences")),
        waypoints=waypoints,
        activity_zones=tuple(zones),
        base_dir=path.parent,
        strict=strict,
    )


def serialize_scenario(scenario: Scenario) -> str:
    data: dict = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": scenario.name,
        "scene": scenario.scene,
        "conditions": [c.value for c in scenario.conditions],
        "start": list(scenario.start),
        "goal": list(scenario.goal),
        "query_radius_m": scenario.query_radius_m,
        "map": {"bounds": [list(p) for p in scenario.bounds], "resolution": scenario.resolution},
        "assessor": {"kind": scenario.assessor.kind},
    }
    if scenario.assessor.fixtures is not None:
        data["assessor"]["fixtures"] = scenario.assessor.fixtures
    if scenario.assessor.model is not None:
        data["assessor"]["model"] = scenario.assessor.model
    if scenario.assessor.max_attempts != DEFAULT_MAX_ATTEMPTS:
        data["assessor"]["max_attempts"] = scenario.assessor.max_attempts
    if scenario.human is not None:
        data["human"] = {
            "id": scenario.human.id,
            "bbox_center": list(scenario.human.bbox_center),
            "bbox_extent": list(scenario.human.bbox_extent),
            "spatial_relations": [list(p) for p in scenario.human.spatial_relations],
            "activity_relations": [list(p) for p in scenario.human.activity_relations],
        }
    if scenario.preferences:
        data["preferences"] = list(scenario.preferences)
    if scenario.waypoints is not None:
        data["waypoints"] = [list(p) for p in scenario.waypoints]
    if scenario.activity_zones:
        data["activity_zones"] = {verb: list(pair) for verb, pair in scenario.activity_zones}
    return canonical_json(data)


def build_assessor(scenario: Scenario, condition: Condition, kind: str) -> Assessor:
    """The assessor of ``kind`` for one condition of a scenario; a replay
    assessor reads its fixture file with ``scenario.strict`` and replays
    the entries keyed by the scenario's name."""
    if kind == "rules":
        return rule_based_assess
    if kind == "replay":
        if scenario.assessor.fixtures is None:
            raise ScenarioError("replay assessor needs assessor.fixtures in the scenario")
        fixtures = read_file(scenario.base_dir / scenario.assessor.fixtures, "fixture", "assessor.fixtures")
        store = load_assessment_fixtures(fixtures, strict=scenario.strict)
        return lambda partial, trajectory, relevant, preferences: replay_assess(
            store, scenario.name, condition, relevant
        )
    if kind == "llm":
        if scenario.assessor.model is None:
            raise ScenarioError("llm assessor needs assessor.model in the scenario")
        transport = HttpChatTransport(model=scenario.assessor.model)
        return functools.partial(
            llm_assess, transport, policy=RetryPolicy(scenario.assessor.max_attempts)
        )
    raise ScenarioError(f'unknown assessor kind "{kind}"')


@contextmanager
def condition_stage(condition: Condition, kind: str) -> Iterator[None]:
    """Re-raise a failure of one condition's run as a ScenarioError naming
    the condition, the pipeline stage and, for an assessor's error, ``kind``."""
    try:
        yield
    # FormatError and PlanningError are ValueErrors.
    except (ScenarioError, AssessmentError, ValueError) as exc:
        reason = str(exc)
        if isinstance(exc, AssessmentError):
            stage, reason = "assess", f'assessor "{kind}": {reason}'
        elif isinstance(exc, PlanningError):
            stage = "plan"
        elif isinstance(exc, FormatError):
            stage = "load"
        else:
            stage = "setup"
        raise ScenarioError(f'condition "{condition.value}", stage "{stage}": {reason}') from exc


# --- report -------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Per-condition results; serialization is deterministic. A report stores
    what made each costmap (map, scene, entries and zones), not its cells."""

    scenario_name: str
    scene: SceneGraph
    conditions: tuple[PlanIteration, ...]
    bounds: tuple[Vec2, Vec2]
    resolution: float

    def human_distances(self) -> tuple[float | None, ...]:
        """``min_distance_to_human`` of each condition's path, with the
        scene's human footprints collected once."""
        humans = _human_footprints(self.scene)
        return tuple(_nearest_human(humans, _vertices(r.path.polyline)) for r in self.conditions)


def min_distance_to_footprint(polyline: Sequence[Vec2], footprint: RectFootprint) -> float:
    """Smallest planar distance from any polyline vertex to the footprint. ``planar_points``
    refuses a polyline with no vertex, a bare point and vertices of fewer than two numbers."""
    return float(footprint.distance(planar_points(polyline, nonempty=True)).min())


def _human_footprints(scene: SceneGraph) -> tuple[RectFootprint, ...]:
    return tuple(footprint_of(n) for n in scene if n.is_human)


def _nearest_human(humans: Sequence[RectFootprint], points: np.ndarray) -> float | None:
    return min((min_distance_to_footprint(points, f) for f in humans), default=None)


def _vertices(polyline: tuple[Vec2, ...]) -> np.ndarray:
    """A ``Path.polyline``, whose vertices are pairs, read flat into an (N, 2) array."""
    return np.fromiter(chain.from_iterable(polyline), float, 2 * len(polyline)).reshape(-1, 2)


def min_distance_to_human(scene: SceneGraph, polyline: Sequence[Vec2]) -> float | None:
    """Smallest planar distance from any polyline vertex to the footprint of any human
    of ``scene``, None without one; refused as by ``min_distance_to_footprint`` even then."""
    return _nearest_human(_human_footprints(scene), planar_points(polyline, nonempty=True))


def human_footprint(scenario: Scenario) -> RectFootprint | None:
    """``footprint_of`` the scenario's human box; None without a human."""
    return None if scenario.human is None else footprint_of(scenario.human.node)


def load_base_scene(scenario: Scenario) -> SceneGraph:
    """The scenario's scene, read with ``scenario.strict``, with its human, if
    any, inserted. ``insert_human`` refuses a human that breaks a scene rule,
    as a FormatError at ``human``. Each ``activity_zones`` verb must name an
    activity relation of the result."""
    scene = load_scene(read_file(scenario.scene_path(), "scene", "scene"), strict=scenario.strict)
    if scenario.human is not None:
        try:
            scene = insert_human(scene, scenario.human)
        except ValueError as exc:  # a FormatError's path is into the graph, not the scenario
            raise FormatError(exc.reason if isinstance(exc, FormatError) else str(exc), "human") from None
    verbs = {r.name for r in scene.relations if r.kind is RelationKind.ACTIVITY}
    for verb, _ in scenario.activity_zones:
        if verb not in verbs:
            raise FormatError(
                f'no activity relation of the scene has the verb "{verb}"', f"activity_zones[{verb!r}]"
            )
    return scene


def run_scenario(scenario: Scenario, *, assessor_kind: str | None = None) -> RunReport:
    """Run every requested condition: derive the graph variant and iterate
    assess-and-plan with the assessor of ``assessor_kind``, by default the
    scenario's. The scene and fixture files are read with ``scenario.strict``.

    The conditions share one ``RunMemo`` (see ``iterate_plan``). Deterministic
    for the rules and replay assessors. Errors are re-raised by ``condition_stage``.
    """
    kind = assessor_kind or scenario.assessor.kind
    base, memo = load_base_scene(scenario), RunMemo()
    results = []
    for condition in scenario.conditions:
        with condition_stage(condition, kind):
            results.append(
                iterate_plan(
                    base,
                    condition,
                    scenario.start,
                    scenario.goal,
                    scenario.query_radius_m,
                    build_assessor(scenario, condition, kind),
                    bounds=scenario.bounds,
                    resolution=scenario.resolution,
                    preferences=scenario.preferences,
                    activity_zones=dict(scenario.activity_zones),
                    waypoints=scenario.waypoints,
                    memo=memo,
                )
            )
    return RunReport(scenario.name, base, tuple(results), scenario.bounds, scenario.resolution)


def report_to_json(report: RunReport) -> str:
    """The report in the compact layout: sorted keys, no whitespace, one final newline."""
    conditions = []
    for result, distance in zip(report.conditions, report.human_distances()):
        conditions.append(
            {
                "condition": result.condition.value,
                "rounds": result.rounds,
                "stop": result.stop,
                "relevant": list(result.relevant),
                "assessment": {
                    "provenance": {
                        "assessor": result.assessment.provenance.assessor,
                        "parameters": dict(result.assessment.provenance.parameters),
                        "attempts": result.assessment.provenance.attempts,
                        "transcript": [list(t) for t in result.assessment.provenance.transcript],
                    },
                    "entries": entries_to_dict(result.assessment.entries),
                },
                "zones": [
                    {"human": z.human, "verb": z.verb, "target": z.target,
                     "cost": z.cost, "clearance": z.clearance}
                    for z in result.zones
                ],
                "path": {
                    "cells": [list(c) for c in result.path.cells],
                    "total_cost": result.path.total_cost,
                    "length_m": result.path.length_m,
                },
                "stats": {"min_distance_to_human_m": distance},
            }
        )
    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": report.scenario_name,
        "map": {"bounds": [list(p) for p in report.bounds], "resolution": report.resolution},
        "scene": scene_to_dict(report.scene),
        "conditions": conditions,
    }
    return json.dumps(document, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def _is_message(value: object) -> bool:
    return type(value) is list and len(value) == 2 and all(isinstance(s, str) for s in value)


def _strings(value: object) -> Iterator[str]:
    """Every string of a parsed JSON value, object keys included, at any depth the parser took."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            yield value
        elif isinstance(value, dict):
            stack += [*value, *value.values()]
        elif isinstance(value, list):
            stack += value


def _zone_from_dict(raw: object, path: str, scene: SceneGraph, strict: bool) -> ActivityZone:
    """One stored zone, rebuilt by ``activity_zone`` from the scene."""
    relation = ("verb", "human", "target")
    check_keys(raw, required=relation + ("cost", "clearance"), optional=(), path=path, strict=strict)
    verb, human, target = (string(raw[k], f"{path}.{k}") for k in relation)
    cc = cost_clearance(raw, path)
    activities = {r.triple for r in scene.relations if r.kind is RelationKind.ACTIVITY}
    if (verb, human, target) not in activities:
        raise FormatError(f'the scene has no activity "{verb}" from "{human}" to "{target}"', path)
    zone = activity_zone(scene, human, verb, target, cc.cost, cc.clearance)
    if zone is None:
        raise FormatError("human and target footprints share a center", path)
    return zone


def _condition_from_dict(
    raw: object, path: str, scene: SceneGraph, grid: tuple[tuple[Vec2, Vec2], float], strict: bool,
    earlier: Sequence[PlanIteration], humans: Sequence[RectFootprint],
) -> PlanIteration:
    """One entry of a report's ``conditions``, with a condition none of ``earlier`` has. Its
    costmap is rebuilt from the scene, its entries and zones on the report's map; its path's
    stored ``total_cost`` and ``length_m`` must equal those of its cells on it, and
    ``stats.min_distance_to_human_m`` that of its polyline to ``humans``, the scene's human
    footprints."""

    def fields(value: object, where: str, *required: str) -> dict:
        check_keys(value, required=required, optional=(), path=where, strict=strict)
        return value

    raw = fields(
        raw, path, "condition", "rounds", "stop", "relevant", "assessment", "zones", "path", "stats"
    )
    condition = read_condition(raw["condition"], f"{path}.condition", [c.condition for c in earlier])
    stop = choice(raw["stop"], f"{path}.stop", "stop", ("converged", "max_rounds"))

    raw_assessment = fields(raw["assessment"], f"{path}.assessment", "provenance", "entries")
    where = f"{path}.assessment.provenance"
    prov = fields(
        raw_assessment["provenance"], where, "assessor", "parameters", "attempts", "transcript"
    )
    parameters = {k: v for k, v, _ in keyed(prov["parameters"], f"{where}.parameters", "an object")}
    transcript = prov["transcript"]
    if not isinstance(transcript, list) or not all(map(_is_message, transcript)):
        raise FormatError("expected a list of [role, text] string pairs", f"{where}.transcript")
    # The string rule, so that report_to_json can write what was read.
    for j, message in enumerate(transcript):
        if reason := unwritable("".join(message)):
            raise FormatError(reason, f"{where}.transcript[{j}]")
    if reason := unwritable("".join(_strings(parameters))):
        raise FormatError(reason, f"{where}.parameters")
    assessment = Assessment(
        entries=entries_from_dict(
            raw_assessment["entries"], f"{path}.assessment.entries", strict=strict
        ),
        provenance=Provenance(
            assessor=string(prov["assessor"], f"{where}.assessor"),
            parameters=parameters,
            attempts=integer(prov["attempts"], f"{where}.attempts", 1),
            transcript=tuple((role, text) for role, text in transcript),
        ),
    )
    try:
        spec = field_spec_from_assessment(scene, assessment)
    except ValueError as exc:  # an entry names an object the scene lacks
        raise FormatError(str(exc), f"{path}.assessment.entries") from None

    where = f"{path}.relevant"
    relevant = tuple(string_list(raw["relevant"], where))
    if len(set(relevant)) != len(relevant):
        raise FormatError("an id repeats", where)
    if set(relevant) != set(assessment.entries):
        raise FormatError("ids differ from those of assessment.entries", where)

    raw_zones = items(raw["zones"], f"{path}.zones", "a list of zone objects")
    zones = tuple(_zone_from_dict(*z, scene, strict) for z in raw_zones)
    costmap = rasterize(spec, zones, *grid)

    where = f"{path}.path"
    raw_path = fields(raw["path"], where, "cells", "total_cost", "length_m")
    cells = index_vectors(raw_path["cells"], f"{where}.cells", 2)
    try:
        plan_path = path_from_cells(cells, costmap)
    except PlanningError as exc:  # a cell off the map, or a step between cells that do not touch
        raise FormatError(str(exc), where) from None
    for key in ("total_cost", "length_m"):
        rebuilt = getattr(plan_path, key)
        if finite_number(raw_path[key], f"{where}.{key}") != rebuilt:
            raise FormatError(f"differs from the {key} of its cells, {rebuilt!r}", f"{where}.{key}")

    raw_stats = fields(raw["stats"], f"{path}.stats", "min_distance_to_human_m")
    stored, where = raw_stats["min_distance_to_human_m"], f"{path}.stats.min_distance_to_human_m"
    distance = _nearest_human(humans, _vertices(plan_path.polyline))
    if (None if stored is None else finite_number(stored, where)) != distance:
        raise FormatError(f"differs from its path's distance to a human, {distance!r}", where)
    return PlanIteration(
        condition=condition,
        path=plan_path,
        assessment=assessment,
        rounds=integer(raw["rounds"], f"{path}.rounds", 1),
        relevant=relevant,
        costmap=costmap,
        zones=zones,
        stop=stop,
    )


def load_report(document: bytes | str, *, strict: bool = False) -> RunReport:
    """Parse a report written by ``report_to_json`` and rebuild its costmaps.

    Raises FormatError with a path into the document for a missing field, a
    value of the wrong type, counts, costs or cells out of range, provenance
    text that ``unwritable`` flags, a condition that repeats an earlier one,
    a ``relevant`` list that repeats an id or names other ids than its entries,
    a path whose ``total_cost`` or ``length_m`` differs from that of its
    cells, and a ``stats.min_distance_to_human_m`` that differs from that of
    its polyline.
    """
    data = parse_document(document, what="report document")
    check_document(
        data, REPORT_SCHEMA_VERSION, ("scenario", "map", "scene", "conditions"), strict=strict
    )
    grid = _parse_map(data["map"], strict)
    scene = scene_from_dict(data["scene"], strict=strict)
    what = "a non-empty list of condition objects"
    raw_conditions = items(data["conditions"], "conditions", what, nonempty=True)
    name = string(data["scenario"], "scenario")
    humans = _human_footprints(scene)
    conditions: list[PlanIteration] = []
    for raw, where in raw_conditions:
        conditions.append(_condition_from_dict(raw, where, scene, grid, strict, conditions, humans))
    return RunReport(name, scene, tuple(conditions), *grid)


# --- comparison ---------------------------------------------------------------


def comparison_dict(report: RunReport) -> dict:
    """Machine-readable companion of the comparison table."""
    if len(report.conditions) < 2:
        raise ValueError("need >= 2 conditions to compare")
    objects = sorted({o for r in report.conditions for o in r.assessment.entries})
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": report.scenario_name,
        "objects": objects,
        "conditions": [
            {
                "condition": r.condition.value,
                "label": r.condition.label,
                "entries": entries_to_dict(r.assessment.entries),
            }
            for r in report.conditions
        ],
    }


def compare_conditions(report: RunReport) -> str:
    """Aligned text table: one row per condition, one "cost (clearance)"
    column per object, "-" where a condition did not assess the object."""
    data = comparison_dict(report)
    objects: list[str] = data["objects"]
    header = ["Condition"] + objects
    rows = [header]
    for entry in data["conditions"]:
        row = [entry["label"]]
        for object_id in objects:
            cc = entry["entries"].get(object_id)  # :g drops trailing zeros, 1.0 -> "1"
            row.append("-" if cc is None else f"{cc['cost']:g} ({cc['clearance']:g})")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
