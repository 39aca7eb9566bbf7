"""One benchmark op and its output checks.

An op is what ``socioplan plan`` followed by ``socioplan render`` do, through
the same public calls:

- plan step: ``load_scenario`` -> ``run_scenario`` -> ``report_to_json``,
  from a scenario file to report bytes;
- render step: ``load_report`` -> ``render_svg``, from those report bytes to
  SVG text.

Every call goes through a module attribute looked up at call time, so a
tracer that replaces the attribute sees it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from socioplan import planner, render, scenario_runner


@dataclass(frozen=True)
class OpResult:
    report: bytes
    svg: str
    plan_s: float
    render_s: float
    run_report: object  # RunReport from the plan step
    loaded: object  # RunReport the render step parsed from ``report``
    scenario: object


def plan_step(scenario_path: Path):
    scenario = scenario_runner.load_scenario(scenario_path)
    run_report = scenario_runner.run_scenario(scenario)
    return scenario_runner.report_to_json(run_report).encode("utf-8"), run_report, scenario


def render_step(report: bytes):
    loaded = scenario_runner.load_report(report)
    conditions = loaded.conditions
    # The CLI overlays every condition's path on the last condition's costmap.
    svg = render.render_svg(
        conditions[-1].costmap,
        [c.path for c in conditions],
        loaded.scene,
        labels=[c.condition.label for c in conditions],
    )
    return svg, loaded


def run_op(scenario_path: Path) -> OpResult:
    t0 = time.perf_counter()
    report, run_report, scenario = plan_step(scenario_path)
    t1 = time.perf_counter()
    svg, loaded = render_step(report)
    t2 = time.perf_counter()
    return OpResult(report, svg, t1 - t0, t2 - t1, run_report, loaded, scenario)


def check_op(op: OpResult, reference: OpResult | None, expected_report: bytes | None) -> list[str]:
    """Problems with one op's outputs; empty when every check passes."""
    problems = []
    if expected_report is not None and op.report != expected_report:
        problems.append("report differs from the shipped fixture")
    if reference is not None:
        if op.report != reference.report:
            problems.append("report bytes differ from the run's first op")
        if op.svg != reference.svg:
            problems.append("svg differs from the run's first op")
    planned = op.run_report.conditions
    loaded = op.loaded.conditions
    if [c.condition for c in loaded] != [c.condition for c in planned]:
        problems.append("render step read other conditions than the plan step wrote")
    for ran, read in zip(planned, loaded):
        name = read.condition.value
        if read.path.cells != ran.path.cells or read.costmap != ran.costmap:
            problems.append(f"{name}: render step read another path or costmap than was planned")
        costmap = read.costmap
        if costmap.cells.min() < 1.0:
            problems.append(f"{name}: costmap cell below 1")
        cells = read.path.cells
        if cells[0] != costmap.cell_at(op.scenario.start) or cells[-1] != costmap.cell_at(op.scenario.goal):
            problems.append(f"{name}: path does not run from the start cell to the goal cell")
        if read.path.total_cost != planner.path_cost(cells, costmap):
            problems.append(f"{name}: total_cost differs from path_cost of its cells")
    if op.svg.count("<polyline ") != len(loaded):
        problems.append("svg does not draw one path per condition")
    return problems
