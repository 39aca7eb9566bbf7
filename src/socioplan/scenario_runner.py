"""End-to-end orchestration: scenario files, condition ablation runs,
deterministic run reports, and the condition comparison table."""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    out_of_range,
    replay_assess,
    rule_based_assess,
)
from .cost_field import (
    ActivityZone,
    RectFootprint,
    corridor_between,
    field_spec_from_assessment,
    footprint_of,
    grid_shape,
    rasterize,
)
from .human_augmentation import Condition, HumanSpec, insert_human
from .jsonio import (
    FormatError,
    canonical_json,
    check_keys,
    finite_number,
    index_vectors,
    integer,
    parse_document,
    require_version,
    string,
    string_list,
    vector,
)
from .planner import PlanIteration, PlanningError, iterate_plan, path_from_cells
from .scene_graph import (
    RelationKind,
    SceneGraph,
    Vec3,
    load_scene,
    scene_from_dict,
    scene_to_dict,
    validate_scene,
)

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
    scenario_key: str | None = None  # replay: defaults to the scenario name
    model: str | None = None  # llm: model name
    max_attempts: int = DEFAULT_MAX_ATTEMPTS  # llm: retry budget


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment: scene, human, conditions, and planner setup."""

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

    def scene_path(self) -> FilePath:
        return self.base_dir / self.scene

    def fixtures_path(self) -> FilePath | None:
        if self.assessor.fixtures is None:
            return None
        return self.base_dir / self.assessor.fixtures


def _parse_human(raw: dict, path: str, strict: bool) -> HumanSpec:
    check_keys(
        raw,
        required=("id", "bbox_center", "bbox_extent"),
        optional=("spatial_relations", "activity_relations"),
        path=path,
        strict=strict,
    )

    def pairs(key: str) -> tuple[tuple[str, str], ...]:
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise FormatError("expected a list of [verb, target id] pairs", f"{path}.{key}")
        out = []
        for i, item in enumerate(items):
            item_path = f"{path}.{key}[{i}]"
            if not isinstance(item, list) or len(item) != 2:
                raise FormatError("expected a [verb, target id] pair", item_path)
            out.append((string(item[0], f"{item_path}[0]"), string(item[1], f"{item_path}[1]")))
        return tuple(out)

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
        optional=("fixtures", "scenario_key", "model", "max_attempts"),
        path=path,
        strict=strict,
    )
    kind = string(raw["kind"], f"{path}.kind")
    if kind not in ASSESSOR_KINDS:
        raise FormatError(f'unknown assessor kind "{kind}" (valid: {", ".join(ASSESSOR_KINDS)})', f"{path}.kind")
    return AssessorConfig(
        kind=kind,
        fixtures=string(raw["fixtures"], f"{path}.fixtures") if "fixtures" in raw else None,
        scenario_key=string(raw["scenario_key"], f"{path}.scenario_key")
        if "scenario_key" in raw
        else None,
        model=string(raw["model"], f"{path}.model") if "model" in raw else None,
        max_attempts=integer(
            raw.get("max_attempts", DEFAULT_MAX_ATTEMPTS), f"{path}.max_attempts", 1
        ),
    )


def _parse_map(raw: object, strict: bool) -> tuple[tuple[Vec2, Vec2], float]:
    """The ``map`` block of a scenario or a report: bounds and resolution."""
    check_keys(raw, required=("bounds", "resolution"), optional=(), path="map", strict=strict)
    raw_bounds = raw["bounds"]
    if not isinstance(raw_bounds, list) or len(raw_bounds) != 2:
        raise FormatError("expected [[xmin, ymin], [xmax, ymax]]", "map.bounds")
    low = vector(raw_bounds[0], "map.bounds[0]", 2)
    high = vector(raw_bounds[1], "map.bounds[1]", 2)
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


def parse_scenario(document: bytes | str, base_dir: FilePath, *, strict: bool = False) -> Scenario:
    data = parse_document(document, what="scenario document")
    check_keys(
        data,
        required=(
            "name",
            "scene",
            "conditions",
            "start",
            "goal",
            "query_radius_m",
            "map",
            "assessor",
        ),
        optional=("schema_version", "human", "preferences", "waypoints", "activity_zones"),
        path="$",
        strict=strict,
    )
    require_version(data, "$", SCENARIO_SCHEMA_VERSION)

    raw_conditions = data["conditions"]
    if not isinstance(raw_conditions, list) or not raw_conditions:
        raise FormatError("conditions must be a non-empty list", "conditions")
    conditions = []
    for i, value in enumerate(raw_conditions):
        try:
            condition = Condition(string(value, f"conditions[{i}]"))
        except ValueError:
            valid = ", ".join(c.value for c in Condition)
            raise FormatError(f'unknown condition "{value}" (valid: {valid})', f"conditions[{i}]") from None
        if condition in conditions:
            raise FormatError(f'condition "{value}" repeats', f"conditions[{i}]")
        conditions.append(condition)

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
        raw_waypoints = data["waypoints"]
        if not isinstance(raw_waypoints, list) or not raw_waypoints:
            raise FormatError("waypoints must be a non-empty list", "waypoints")
        waypoints = tuple(vector(p, f"waypoints[{i}]", 3) for i, p in enumerate(raw_waypoints))
        for i, point in enumerate(waypoints):
            on_map(f"waypoints[{i}]", point)

    raw_zones = data.get("activity_zones", {})
    if not isinstance(raw_zones, dict):
        raise FormatError(
            "expected an object mapping activity verbs to [cost, clearance]", "activity_zones"
        )
    zones: list[tuple[str, tuple[float, float]]] = []
    for verb, raw_zone in raw_zones.items():
        zone_path = f"activity_zones[{verb!r}]"
        verb = string(verb, zone_path)
        cost, clearance = vector(raw_zone, zone_path, 2)
        bad = out_of_range(cost, clearance)
        if bad:
            field_name, value, floor = bad
            raise FormatError(f"zone {field_name} {value!r} must be >= {floor:g}", zone_path)
        zones.append((verb, (cost, clearance)))

    scenario = Scenario(
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
        base_dir=base_dir,
    )
    if not scenario.scene_path().exists():
        raise FormatError(f"scene file not found: {scenario.scene_path()}", "scene")
    fixtures = scenario.fixtures_path()
    if fixtures is not None and not fixtures.exists():
        raise FormatError(f"fixture file not found: {fixtures}", "assessor.fixtures")
    return scenario


def load_scenario(path: str | FilePath, *, strict: bool = False) -> Scenario:
    path = FilePath(path)
    if not path.exists():
        raise FormatError(f"scenario file not found: {path}")
    return parse_scenario(path.read_bytes(), path.parent, strict=strict)


def scenario_to_dict(scenario: Scenario) -> dict:
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
    if scenario.assessor.scenario_key is not None:
        data["assessor"]["scenario_key"] = scenario.assessor.scenario_key
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
    return data


def serialize_scenario(scenario: Scenario) -> str:
    return canonical_json(scenario_to_dict(scenario))


def build_assessor(scenario: Scenario, condition: Condition, kind: str) -> Assessor:
    """The assessor of ``kind`` for one condition of a scenario."""
    if kind == "rules":
        return rule_based_assess
    if kind == "replay":
        fixtures = scenario.fixtures_path()
        if fixtures is None:
            raise ScenarioError("replay assessor needs assessor.fixtures in the scenario")
        store = load_assessment_fixtures(fixtures.read_bytes())
        key = scenario.assessor.scenario_key or scenario.name
        return lambda partial, trajectory, relevant, preferences: replay_assess(
            store, key, condition, relevant
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


def min_distance_to_footprint(polyline: Sequence[Vec2], footprint: RectFootprint) -> float:
    """Smallest planar distance from any polyline vertex to the footprint."""
    points = np.asarray(polyline, dtype=float)
    return float(footprint.distance(points).min())


def min_distance_to_human(scene: SceneGraph, polyline: Sequence[Vec2]) -> float | None:
    """Smallest planar distance from any polyline vertex to the footprint of
    any human of ``scene``; None when the scene has no human."""
    return min(
        (min_distance_to_footprint(polyline, footprint_of(n)) for n in scene if n.is_human),
        default=None,
    )


def human_footprint(scenario: Scenario) -> RectFootprint | None:
    if scenario.human is None:
        return None
    c, e = scenario.human.bbox_center, scenario.human.bbox_extent
    return RectFootprint((c[0] - e[0] / 2.0, c[1] - e[1] / 2.0), (c[0] + e[0] / 2.0, c[1] + e[1] / 2.0))


def load_base_scene(scenario: Scenario, *, strict: bool = False) -> SceneGraph:
    """The scenario's scene with its human, if any, inserted. The result
    holds every scene rule; a broken one is a FormatError at ``human``. Each
    ``activity_zones`` verb must name an activity relation of the result."""
    scene = load_scene(scenario.scene_path().read_bytes(), strict=strict)
    if scenario.human is not None:
        try:
            scene = insert_human(scene, scenario.human)
            validate_scene(scene)
        except ValueError as exc:  # a FormatError's path is into the graph, not the scenario
            raise FormatError(exc.reason if isinstance(exc, FormatError) else str(exc), "human") from None
    verbs = {r.name for r in scene.relations if r.kind is RelationKind.ACTIVITY}
    for verb, _ in scenario.activity_zones:
        if verb not in verbs:
            raise FormatError(
                f'no activity relation of the scene has the verb "{verb}"', f"activity_zones[{verb!r}]"
            )
    return scene


def run_scenario(
    scenario: Scenario,
    *,
    assessor_kind: str | None = None,
    strict: bool = False,
) -> RunReport:
    """Run every requested condition: derive the graph variant and iterate
    assess-and-plan with the assessor of ``assessor_kind``, by default the
    scenario's.

    Deterministic for the rules and replay assessors. Errors are re-raised
    by ``condition_stage``.
    """
    kind = assessor_kind or scenario.assessor.kind
    base = load_base_scene(scenario, strict=strict)
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
                )
            )
    return RunReport(scenario.name, base, tuple(results), scenario.bounds, scenario.resolution)


def report_to_dict(report: RunReport) -> dict:
    conditions = []
    for result in report.conditions:
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
                "stats": {
                    "min_distance_to_human_m": min_distance_to_human(
                        report.scene, result.path.polyline
                    )
                },
            }
        )
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": report.scenario_name,
        "map": {"bounds": [list(p) for p in report.bounds], "resolution": report.resolution},
        "scene": scene_to_dict(report.scene),
        "conditions": conditions,
    }


def report_to_json(report: RunReport) -> str:
    return canonical_json(report_to_dict(report))


def _is_message(value: object) -> bool:
    return type(value) is list and len(value) == 2 and all(isinstance(s, str) for s in value)


def _zone_from_dict(raw: object, path: str, scene: SceneGraph, strict: bool) -> ActivityZone:
    """One stored zone; its corridor is rebuilt from the scene's footprints."""
    relation = ("verb", "human", "target")
    check_keys(raw, required=relation + ("cost", "clearance"), optional=(), path=path, strict=strict)
    verb, human, target = (string(raw[k], f"{path}.{k}") for k in relation)
    cc = cost_clearance(raw, path)
    activities = {r.triple for r in scene.relations if r.kind is RelationKind.ACTIVITY}
    if (verb, human, target) not in activities:
        raise FormatError(f'the scene has no activity "{verb}" from "{human}" to "{target}"', path)
    corridor = corridor_between(footprint_of(scene.node(human)), footprint_of(scene.node(target)))
    if corridor is None:
        raise FormatError("human and target footprints share a center", path)
    return ActivityZone(human, verb, target, cc.cost, cc.clearance, corridor)


def _condition_from_dict(
    raw: object, path: str, scene: SceneGraph, grid: tuple[tuple[Vec2, Vec2], float], strict: bool
) -> PlanIteration:
    """One entry of a report's ``conditions``. Its costmap is rebuilt from
    the scene, its entries and zones on the report's map; its path's stored
    ``total_cost`` and ``length_m`` must equal those of its cells on it, and
    ``stats.min_distance_to_human_m`` that of its polyline in the scene."""

    def fields(value: object, where: str, *required: str) -> dict:
        check_keys(value, required=required, optional=(), path=where, strict=strict)
        return value

    raw = fields(
        raw, path, "condition", "rounds", "stop", "relevant", "assessment", "zones", "path", "stats"
    )
    try:
        condition = Condition(raw["condition"])
    except ValueError:
        raise FormatError(f'unknown condition "{raw["condition"]}"', f"{path}.condition") from None
    if raw["stop"] not in ("converged", "max_rounds"):
        raise FormatError('expected "converged" or "max_rounds"', f"{path}.stop")

    raw_assessment = fields(raw["assessment"], f"{path}.assessment", "provenance", "entries")
    where = f"{path}.assessment.provenance"
    prov = fields(
        raw_assessment["provenance"], where, "assessor", "parameters", "attempts", "transcript"
    )
    if not isinstance(prov["parameters"], dict):
        raise FormatError("expected an object", f"{where}.parameters")
    transcript = prov["transcript"]
    if not isinstance(transcript, list) or not all(map(_is_message, transcript)):
        raise FormatError("expected a list of [role, text] string pairs", f"{where}.transcript")
    assessment = Assessment(
        entries=entries_from_dict(
            raw_assessment["entries"], f"{path}.assessment.entries", strict=strict
        ),
        provenance=Provenance(
            assessor=string(prov["assessor"], f"{where}.assessor"),
            parameters=dict(prov["parameters"]),
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

    raw_zones = raw["zones"]
    if not isinstance(raw_zones, list):
        raise FormatError("expected a list of zone objects", f"{path}.zones")
    zones = tuple(
        _zone_from_dict(z, f"{path}.zones[{j}]", scene, strict) for j, z in enumerate(raw_zones)
    )
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
    distance = min_distance_to_human(scene, plan_path.polyline)
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
        stop=raw["stop"],
    )


def load_report(document: bytes | str, *, strict: bool = False) -> RunReport:
    """Parse a report written by ``report_to_json`` and rebuild its costmaps.

    Raises FormatError with a path into the document for a missing field, a
    value of the wrong type, counts, costs or cells out of range, a condition
    that repeats an earlier one, a ``relevant`` list that repeats an id or
    names other ids than its entries,
    a path whose ``total_cost`` or ``length_m`` differs from that of its
    cells, and a ``stats.min_distance_to_human_m`` that differs from that of
    its polyline.
    """
    data = parse_document(document, what="report document")
    if isinstance(data, dict):  # an older report fails on its version, not its fields
        require_version(data, "$", REPORT_SCHEMA_VERSION)
    check_keys(
        data,
        required=("scenario", "map", "scene", "conditions"),
        optional=("schema_version",),
        path="$",
        strict=strict,
    )
    grid = _parse_map(data["map"], strict)
    scene = scene_from_dict(data["scene"], strict=strict)
    raw_conditions = data["conditions"]
    if not isinstance(raw_conditions, list) or not raw_conditions:
        raise FormatError("conditions must be a non-empty list", "conditions")
    name = string(data["scenario"], "scenario")
    conditions: list[PlanIteration] = []
    for i, raw in enumerate(raw_conditions):
        result = _condition_from_dict(raw, f"conditions[{i}]", scene, grid, strict)
        if result.condition in {c.condition for c in conditions}:
            raise FormatError(f'condition "{result.condition.value}" repeats', f"conditions[{i}].condition")
        conditions.append(result)
    return RunReport(name, scene, tuple(conditions), *grid)


# --- comparison ---------------------------------------------------------------


def format_value(value: float) -> str:
    """Trailing-zero-free numbers: 1.0 -> "1", 0.5 -> "0.5"."""
    return format(value, "g")


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
            cc = entry["entries"].get(object_id)
            row.append(
                "-" if cc is None else f"{format_value(cc['cost'])} ({format_value(cc['clearance'])})"
            )
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
