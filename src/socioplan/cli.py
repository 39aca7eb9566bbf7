"""Command-line interface: validate, assess, plan, compare, render."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath

from .cost_assessment import assess, entries_to_dict
from .human_augmentation import Condition, derive_condition_variant
from .jsonio import FormatError, canonical_json
from .planner import relevant_context, seed_trajectory
from .render import render_svg
from .scenario_runner import (
    ASSESSOR_KINDS,
    RunReport,
    ScenarioError,
    build_assessor,
    compare_conditions,
    comparison_dict,
    condition_stage,
    load_base_scene,
    load_report,
    load_scenario,
    min_distance_to_human,
    report_to_json,
    run_scenario,
)
from .scene_graph import load_scene


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--assessor",
        choices=ASSESSOR_KINDS,
        help="override the scenario's assessor",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socioplan",
        description="Plan trajectories through domestic scenes described by "
        "human-augmented 3D semantic scene graphs.",
    )
    parser.add_argument(
        "--strict", action="store_true", help="reject unknown keys in input files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scene file")
    p.add_argument("scene", type=FilePath)
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("assess", help="assess costs for a scenario without planning")
    p.add_argument("scenario", type=FilePath)
    p.add_argument(
        "--condition",
        action="append",
        choices=[c.value for c in Condition],
        help="restrict to specific conditions (repeatable)",
    )
    _add_run_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("plan", help="run a scenario and write the report")
    p.add_argument("scenario", type=FilePath)
    p.add_argument("-o", "--out", type=FilePath, help="write report JSON here")
    _add_run_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("compare", help="run a scenario and tabulate conditions")
    p.add_argument("scenario", type=FilePath)
    _add_run_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("render", help="render a report to SVG")
    p.add_argument("report", type=FilePath)
    p.add_argument("-o", "--out", type=FilePath, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_render)

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        graph = load_scene(args.scene.read_bytes(), strict=args.strict)
    except FileNotFoundError:
        raise FormatError(f"scene file not found: {args.scene}") from None
    # load_scene raises FormatError at the first broken invariant: a loaded graph is valid.
    nodes, relations = len(graph.nodes), len(graph.relations)
    if args.format == "json":
        print(canonical_json({"nodes": nodes, "ok": True, "relations": relations}), end="")
    else:
        print(f"OK: {nodes} nodes, {relations} relations")
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, strict=args.strict)
    conditions = scenario.conditions
    if args.condition:
        conditions = tuple(map(Condition, args.condition))
        for i, condition in enumerate(conditions):
            if condition in conditions[:i]:
                raise FormatError(f'condition "{condition.value}" repeats', "--condition")
    kind = args.assessor or scenario.assessor.kind
    base = load_base_scene(scenario, strict=args.strict)
    trajectory = seed_trajectory(scenario.start, scenario.goal, scenario.waypoints)

    output = []
    for condition in conditions:
        with condition_stage(condition, kind):
            assessor = build_assessor(scenario, condition, kind)
            variant = derive_condition_variant(base, condition)
            _, partial, assessed = relevant_context(variant, trajectory, scenario.query_radius_m)
            output.append(
                (condition, assess(assessor, partial, trajectory, assessed, scenario.preferences))
            )

    if args.format == "json":
        payload = {
            "scenario": scenario.name,
            "conditions": [
                {
                    "condition": condition.value,
                    "assessor": assessment.provenance.assessor,
                    "entries": entries_to_dict(assessment.entries),
                }
                for condition, assessment in output
            ],
        }
        print(canonical_json(payload), end="")
    else:
        for condition, assessment in output:
            print(f"condition: {condition.value} (assessor: {assessment.provenance.assessor})")
            for object_id, cc in sorted(assessment.entries.items()):
                print(f"  {object_id}: cost {cc.cost:g}, clearance {cc.clearance:g} m")
    return 0


def _run(args: argparse.Namespace) -> RunReport:
    scenario = load_scenario(args.scenario, strict=args.strict)
    count = len(scenario.conditions)
    if args.command == "compare" and count < 2:
        raise FormatError(f"compare needs at least 2 conditions, got {count}", "conditions")
    return run_scenario(scenario, assessor_kind=args.assessor, strict=args.strict)


def _cmd_plan(args: argparse.Namespace) -> int:
    report = _run(args)
    text = report_to_json(report)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    if args.format == "json" and not args.out:
        print(text, end="")
    else:
        for result in report.conditions:
            distance = min_distance_to_human(report.scene, result.path.polyline)
            human = f", min dist to human {distance:.3f} m" if distance is not None else ""
            print(
                f"{result.condition.value}: total cost {result.path.total_cost:.3f}, "
                f"length {result.path.length_m:.3f} m, rounds {result.rounds}{human}"
            )
        if args.out:
            print(f"report written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = _run(args)
    if args.format == "json":
        print(canonical_json(comparison_dict(report)), end="")
    else:
        print(compare_conditions(report), end="")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.report.read_bytes(), strict=args.strict)
    except FileNotFoundError:
        raise FormatError(f"report file not found: {args.report}") from None
    # Overlay every condition's path on the last condition's costmap (the
    # richest field when conditions are ordered none -> full).
    svg = render_svg(
        report.conditions[-1].costmap,
        [r.path for r in report.conditions],
        report.scene,
        labels=[r.condition.label for r in report.conditions],
    )
    args.out.write_text(svg, encoding="utf-8")
    if args.format == "json":
        print(canonical_json({"ok": True, "out": str(args.out)}), end="")
    else:
        print(f"svg written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. a directory given as an input file or as -o
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
