"""Command-line interface: validate, assess, plan, compare, render."""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path as FilePath

from .cost_assessment import assess, entries_to_dict
from .human_augmentation import Condition, derive_condition_variant
from .jsonio import FormatError, UnknownKeyWarning, canonical_json, read_file
from .planner import relevant_context
from .render import render_svg
from .scenario_runner import (
    ASSESSOR_KINDS,
    RunReport,
    ScenarioError,
    build_assessor,
    build_run,
    compare_conditions,
    comparison_dict,
    condition_stage,
    load_report,
    load_scenario,
    read_condition,
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
        help="restrict to specific conditions (repeatable): "
        + ", ".join(c.value for c in Condition),
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
    graph = load_scene(read_file(args.scene, "scene", "$"), strict=args.strict)
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
        conditions = []
        for value in args.condition:
            conditions.append(read_condition(value, "--condition", conditions))
    kind = args.assessor or scenario.assessor.kind
    run = build_run(scenario)

    output = []
    for condition in conditions:
        with condition_stage(condition, kind):
            assessor = build_assessor(scenario, condition, kind)
            variant = derive_condition_variant(run.scene, condition)
            partial, assessed = relevant_context(variant, run.relevant(variant, run.seed))
            output.append((condition, assess(assessor, partial, run.seed, assessed, run.preferences)))

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
    return run_scenario(scenario, assessor_kind=args.assessor)


def _cmd_plan(args: argparse.Namespace) -> int:
    report = _run(args)
    text = report_to_json(report)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    if args.format == "json":
        print(text, end="")
    else:
        for result, distance in zip(report.conditions, report.human_distances()):
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
    report = load_report(read_file(args.report, "report", "$"), strict=args.strict)
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
    """Run one command. Each distinct warning it raised is one ``warning:``
    line on stderr (a fixture file is read once per condition), printed
    before the ``error:`` line of a failed command."""
    args = build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnknownKeyWarning)
        try:
            code = args.func(args)
        except (FormatError, ScenarioError) as exc:
            error = str(exc)
        except OSError as exc:  # e.g. a directory given as an input file or as -o
            where = "" if exc.filename is None else f"{exc.filename}: "
            error = f"{where}{exc.strerror or exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is None:
        return code
    print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
