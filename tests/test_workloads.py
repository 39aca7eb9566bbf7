"""Pinned outputs of the benchmark's generated workloads.

One op per workload and seed, built through ``bench/workloads.py`` and
``bench/ops.py`` as the benchmark builds it, must write a report and an SVG
with the sha256 digests pinned here, so a change that claims byte-identical
outputs is checked on the large scenes as well as on the shipped one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from socioplan import cost_assessment, load_scenario, scene_graph
from socioplan.cost_assessment import entries_from_dict
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
    digests = (hashlib.sha256(op.report).hexdigest(), hashlib.sha256(op.svg.encode("utf-8")).hexdigest())
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
