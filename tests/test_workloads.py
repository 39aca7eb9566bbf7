"""Pinned outputs of the benchmark's generated workloads.

One op per workload and seed, built through ``bench/workloads.py`` and
``bench/ops.py`` as the benchmark builds it, must write a report and an SVG
with the sha256 digests pinned here, so a change that claims byte-identical
outputs is checked on the large scenes as well as on the shipped one. A
report's digest is that of its document in the indented canonical layout,
so the pins check its content whatever layout the report is written in.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from socioplan import (
    ObjectNode, PlanRequest, Relation, cost_assessment, iterate_plan, load_scenario, plan, planner, scene_graph
)
from socioplan.cost_assessment import entries_from_dict
from socioplan.cost_field import field_spec_from_assessment, rasterize
from socioplan.jsonio import canonical_json
from socioplan.scenario_runner import build_assessor, load_base_scene
from socioplan.scene_graph import scene_from_dict

REPO_DIR = Path(__file__).resolve().parent.parent


def _bench_module(name: str):
    """``bench/<name>.py``, imported under another name and left unedited."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO_DIR / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
ops = _bench_module("ops")

# (workload, seed): (report sha256, SVG sha256). bedroom ignores the seed.
PINNED = {
    ("bedroom", 1): (
        "37292909e86d55ef4797ac6ede6bed72debfeaeb575c1928a9c9e22a461c8fb5",
        "f641bb9ef3743e2d698f490cae71c97b60f96a04b2207e984a3fbb2f71b81225",
    ),
    ("cluttered_house", 1): (
        "389b02d63d1bb4a43979e6f3de7a246f49e83704f445caab7a8be74e0c0b3868",
        "20d6aacb1cf6cf16857e02bcecfe2829637c6dc839e09a96c5e269b821a25fad",
    ),
    ("open_hall", 1): (
        "79492f8fa86486bbdbce32e7743e489125411fdb769e6b798944cbf3bb2a3094",
        "8508ce828ec25cdcc4929ac4161bfe42042db4ef5866c5d17404364d300b0c7d",
    ),
    ("bedroom", 5): (
        "37292909e86d55ef4797ac6ede6bed72debfeaeb575c1928a9c9e22a461c8fb5",
        "f641bb9ef3743e2d698f490cae71c97b60f96a04b2207e984a3fbb2f71b81225",
    ),
    ("cluttered_house", 5): (
        "bfb4e25407540dc50deac740d6bd54e528c5451ed8951ba2d47febd8b53980ca",
        "831e50a64086ca04d86314b6c48bd31990fd34e70860501f321243f779618652",
    ),
    ("open_hall", 5): (
        "139c2b56fd38068c2ece352f5512508ebc754489640b8edce5ec2dc4d2b8a97b",
        "b8297fc1d291047a237bae922b82c2e23a360db8702a7613ad2250a14dba4969",
    ),
}


@pytest.mark.parametrize("workload, seed", sorted(PINNED))
def test_op_outputs_are_pinned(tmp_path, workload, seed):
    op = ops.run_op(workloads.materialize(workload, seed, REPO_DIR, tmp_path))
    assert ops.check_op(op, None, None) == []
    document = json.loads(op.report)
    compact = json.dumps(document, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
    assert op.report.decode("utf-8") == compact
    digests = (
        hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest(),
        hashlib.sha256(op.svg.encode("utf-8")).hexdigest(),
    )
    assert digests == PINNED[workload, seed]


@pytest.mark.parametrize("workload", ["cluttered_house", "open_hall"])
def test_generated_documents_take_the_bulk_path(tmp_path, workload):
    """The bulk readers hold for the generated scenes and their reports'
    entries, so the byte-identity pinned above covers them."""
    scenario = load_scenario(workloads.materialize(workload, 1, REPO_DIR, tmp_path))
    report = json.loads(ops.plan_step(scenario.base_dir / f"{workload}_scenario.json")[0])
    with mock.patch.object(scene_graph, "_check_fields", side_effect=AssertionError):
        scene_from_dict(json.loads(scenario.scene_path().read_text()), strict=True)
        scene_from_dict(report["scene"], strict=True)
    with mock.patch.object(cost_assessment, "cost_clearance", side_effect=AssertionError):
        for condition in report["conditions"]:
            entries_from_dict(condition["assessment"]["entries"], "entries", strict=True)


@pytest.mark.parametrize("workload", ["cluttered_house", "open_hall"])
def test_generated_workloads_draw_corridors(tmp_path, workload):
    """Each generated workload plans an activity corridor that raises cells,
    so the digests pinned above cover ``OrientedRectFootprint.distance``."""
    _, run_report, _ = ops.plan_step(workloads.materialize(workload, 1, REPO_DIR, tmp_path))
    last = run_report.conditions[-1]
    assert last.zones
    spec = field_spec_from_assessment(run_report.scene, last.assessment)
    assert rasterize(spec, (), run_report.bounds, run_report.resolution) != last.costmap


def test_open_hall_search_work_is_pinned(tmp_path):
    """Heap pops and pushes of A* on each open_hall condition's costmap, with
    the search fixed to A* whatever ``plan``'s rule picks: a change to the
    heuristic or the stop rule shows here before it shows in a timing, and a
    relaxation skipped in the loop that could have lowered a g would change
    the pushes."""
    _, run_report, scenario = ops.plan_step(workloads.materialize("open_hall", 1, REPO_DIR, tmp_path))
    pops, pushes = [], []
    for condition in run_report.conditions:
        request = PlanRequest(start=scenario.start, goal=scenario.goal, costmap=condition.costmap)
        with mock.patch.object(planner, "_takes_buckets", return_value=False), \
                mock.patch.object(heapq, "heappop", side_effect=heapq.heappop) as pop, \
                mock.patch.object(heapq, "heappush", side_effect=heapq.heappush) as push:
            assert plan(request) == condition.path
        pops.append(pop.call_count)
        pushes.append(push.call_count)
    assert pops == [199, 17_309, 28_309]
    assert pushes == [988, 18_602, 29_358]


@pytest.mark.parametrize(
    "workload, searches",
    [
        ("bedroom", [("_astar", None)] * 3),
        ("cluttered_house", [("_astar", None)] * 2),
        ("open_hall", [("_astar", None), ("_buckets", 312), ("_buckets", 331)]),
    ],
)
def test_each_costmap_takes_a_pinned_search(tmp_path, workload, searches):
    """The search ``plan`` picks for each costmap a run plans, and the passes
    of each bucket search (one ``np.minimum.at`` per pass): a change to the
    rule or to the bucket width shows here."""
    taken = []

    def spy(name):
        def search(*args, _search=getattr(planner, name)):
            minimum = mock.Mock(wraps=np.minimum)
            with mock.patch.object(np, "minimum", minimum):
                g = _search(*args)
            taken.append((name, minimum.at.call_count if name == "_buckets" else None))
            return g

        return search

    with mock.patch.multiple(planner, _astar=spy("_astar"), _buckets=spy("_buckets")):
        ops.plan_step(workloads.materialize(workload, 1, REPO_DIR, tmp_path))
    assert taken == searches


@pytest.mark.parametrize(
    "workload, queries, searches", [("cluttered_house", 2, 2), ("open_hall", 4, 3), ("bedroom", 4, 3)]
)
def test_each_query_and_search_runs_once_per_run(tmp_path, monkeypatch, workload, queries, searches):
    """Calls of ``relevant_objects`` and ``plan`` in one run: one per distinct
    trajectory and costmap, where running each condition alone makes 6, 8 and
    6 queries and 3 searches on each workload. A second run repeats them all,
    so no answer outlives its run."""
    scenario_path = workloads.materialize(workload, 1, REPO_DIR, tmp_path)
    calls = Counter()
    for name in ("relevant_objects", "plan"):
        def counting(*args, _name=name, _original=getattr(planner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(planner, name, counting)
    for _ in range(2):
        calls.clear()
        ops.plan_step(scenario_path)
        assert calls == {"relevant_objects": queries, "plan": searches}


@pytest.mark.parametrize("workload", ["bedroom", "cluttered_house", "open_hall"])
def test_a_lone_condition_equals_its_run_entry(tmp_path, workload):
    """``iterate_plan`` called alone, with a fresh memo, gives the entry its
    condition has in a run whose conditions share one."""
    _, run_report, scenario = ops.plan_step(workloads.materialize(workload, 1, REPO_DIR, tmp_path))
    base = load_base_scene(scenario)
    for entry in run_report.conditions:
        alone = iterate_plan(
            base, entry.condition, scenario.start, scenario.goal, scenario.query_radius_m,
            build_assessor(scenario, entry.condition, scenario.assessor.kind),
            bounds=scenario.bounds, resolution=scenario.resolution, preferences=scenario.preferences,
            activity_zones=dict(scenario.activity_zones), waypoints=scenario.waypoints,
        )
        assert alone == entry


def test_cluttered_house_scene_reads_are_pinned(tmp_path, monkeypatch):
    """Records one cluttered_house op builds: the plan step's scene read (with
    the inserted human) and the render step's report read each build every node
    and relation once, so a third read or a per-call rebuild shows here before
    it shows in a timing. ``__init__`` is each record's one constructor path."""
    scenario_path = workloads.materialize("cluttered_house", 1, REPO_DIR, tmp_path)
    built = Counter()
    for cls in (ObjectNode, Relation):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    scene = ops.run_op(scenario_path).run_report.scene
    assert built == {"ObjectNode": 2 * len(scene.nodes), "Relation": 2 * len(scene.relations)}
    assert built == {"ObjectNode": 628, "Relation": 588}
