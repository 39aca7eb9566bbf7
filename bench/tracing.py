"""Spans and counters recorded from outside the program.

``Tracer`` replaces public functions at the module attribute the pipeline
calls through, records a span per call (name, start, end, parent) and the
counters of that call, and puts the originals back when it exits.

A span's self time is its duration minus the durations of its child spans
and minus the time the tracer spent computing its children's counters.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

from socioplan import planner, render, scenario_runner, trajectory_context


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0
    counting_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s - self.counting_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _open: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                self._exit(index)
                self.counters[f"{name.rsplit('.', 1)[0]}.failures"] += 1
                raise
            self._exit(index)
            if count is not None:
                started = time.perf_counter()
                count(self.counters, result, *args, **kwargs)
                if self._open:
                    # Counting ran inside the caller's span, outside any child.
                    self.spans[self._open[-1]].counting_s += time.perf_counter() - started
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_ms(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s * 1000.0
        return dict(totals)


# --- counters of each layer -----------------------------------------------------


def _count_scene(c, graph, *args, **kwargs) -> None:
    c["scene_graph.nodes"] += len(graph.nodes)
    c["scene_graph.relations"] += len(graph.relations)


def _count_relevance(c, ids, graph, trajectory, *args, **kwargs) -> None:
    spacing = kwargs.get("max_spacing", trajectory_context.DEFAULT_WAYPOINT_SPACING_M)
    waypoints = len(trajectory_context.resample(trajectory, spacing))
    c["trajectory_context.relevant_objects_calls"] += 1
    c["trajectory_context.waypoints"] += waypoints
    c["trajectory_context.box_distance_evals"] += waypoints * len(graph.nodes)
    c["trajectory_context.relevant"] += len(ids)


def _count_assess(c, assessment, port, partial, trajectory, relevant, *args, **kwargs) -> None:
    c["cost_assessment.objects"] += len(relevant)
    c["cost_assessment.attempts"] += assessment.provenance.attempts


def _count_rasterize(c, costmap, spec, zones, *args, **kwargs) -> None:
    cells = costmap.width * costmap.height
    contributions = len(spec.contributions) + len(zones)
    c["cost_field.cells"] += cells
    c["cost_field.contributions"] += contributions
    c["cost_field.cell_evals"] += cells * contributions


def _count_plan(c, path, request, *args, **kwargs) -> None:
    c["planner.plan_calls"] += 1
    c["planner.grid_cells"] += request.costmap.width * request.costmap.height
    c["planner.path_cells"] += len(path.cells)


def _count_rounds(c, iteration, *args, **kwargs) -> None:
    c["planner.rounds"] += iteration.rounds


def _count_svg(c, svg, costmap, *args, **kwargs) -> None:
    c["render.svg_bytes"] += len(svg.encode("utf-8"))
    c["render.heat_cells"] += int((costmap.cells > 1.0).sum())


def install(tracer: Tracer) -> None:
    """Wrap every traced function where the pipeline looks it up. ``planner``
    and ``scenario_runner`` import their helpers by name, so the helpers are
    wrapped in the importing module, not where they are defined."""
    sr, pl = scenario_runner, planner
    tracer.wrap(sr, "load_scenario", "scenario_runner.load_scenario")
    tracer.wrap(sr, "run_scenario", "scenario_runner.run_scenario")
    tracer.wrap(sr, "report_to_json", "scenario_runner.report_to_json")
    tracer.wrap(sr, "load_report", "scenario_runner.load_report")
    tracer.wrap(sr, "load_scene", "scene_graph.load_scene", _count_scene)
    tracer.wrap(sr, "iterate_plan", "planner.iterate_plan", _count_rounds)
    tracer.wrap(pl, "derive_condition_variant", "human_augmentation.derive_condition_variant")
    tracer.wrap(pl, "relevant_objects", "trajectory_context.relevant_objects", _count_relevance)
    tracer.wrap(pl, "induce_partial_graph", "trajectory_context.induce_partial_graph")
    tracer.wrap(pl, "assess", "cost_assessment.assess", _count_assess)
    tracer.wrap(pl, "rasterize", "cost_field.rasterize", _count_rasterize)
    tracer.wrap(pl, "plan", "planner.plan", _count_plan)
    tracer.wrap(render, "render_svg", "render.render_svg", _count_svg)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced op: self time in ms per span name and
    the counters, summed over the op's calls."""
    metrics = {f"{name}_ms": value for name, value in tracer.self_ms().items()}
    metrics.update(tracer.counters)
    evals = metrics.get("trajectory_context.box_distance_evals", 0.0)
    relevant = metrics.pop("trajectory_context.relevant", 0.0)
    metrics["trajectory_context.hit_ratio"] = relevant / evals if evals else 0.0
    return metrics
