from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import shutil
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socioplan import (
    Condition,
    CostClearance,
    compare_conditions,
    comparison_dict,
    derive_condition_variant,
    load_report,
    load_scene,
    load_scenario,
    render_svg,
    report_to_json,
    run_scenario,
)
from socioplan import cost_assessment, scene_graph
from socioplan.cost_assessment import entries_from_dict, load_assessment_fixtures
from socioplan.cost_field import Costmap, footprint_of
from socioplan.jsonio import FormatError, UnknownKeyWarning, canonical_json
from socioplan.render import PX_PER_M
from socioplan.scenario_runner import (
    ScenarioError,
    human_footprint,
    load_base_scene,
    min_distance_to_footprint,
    min_distance_to_human,
    serialize_scenario,
)
from socioplan.scene_graph import SceneGraph, scene_from_dict, serialize_scene

from conftest import DATA_DIR


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(DATA_DIR / "bedroom_scenario.json")


@pytest.fixture(scope="module")
def replay_report(scenario):
    return run_scenario(scenario)


SHIPPED_SVG_SHA256 = "f641bb9ef3743e2d698f490cae71c97b60f96a04b2207e984a3fbb2f71b81225"


def _render_digest(report) -> str:
    """sha256 of what `socioplan render` writes for ``report``."""
    svg = render_svg(
        report.conditions[-1].costmap,
        [r.path for r in report.conditions],
        report.scene,
        labels=[r.condition.label for r in report.conditions],
    )
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


class TestLoadScenario:
    def test_loads_canonical_fixture(self, scenario):
        assert scenario.name == "bedroom"
        assert scenario.conditions == (
            Condition.NO_HUMAN,
            Condition.HUMAN_NO_RELATIONS,
            Condition.HUMAN_WITH_RELATIONS,
        )
        assert scenario.query_radius_m == 1.5
        assert scenario.assessor.kind == "replay"

    def test_missing_scene_file_fails_before_planning(self, tmp_path):
        document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
        document["scene"] = "nowhere.json"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        shutil.copy(DATA_DIR / "bedroom_assessments.json", tmp_path)
        with pytest.raises(FormatError, match="scene file not found"):
            run_scenario(load_scenario(path))

    def test_empty_conditions_rejected(self, tmp_path):
        document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
        document["conditions"] = []
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        with pytest.raises(FormatError, match="non-empty"):
            load_scenario(path)

    def test_start_outside_bounds_rejected(self, tmp_path):
        document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
        document["start"] = [-5.0, 0.0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        with pytest.raises(FormatError, match="outside map.bounds"):
            load_scenario(path)

    def test_round_trip_in_place(self, tmp_path):
        for name in (
            "bedroom_scene.json",
            "bedroom_assessments.json",
            "bedroom_scenario.json",
        ):
            shutil.copy(DATA_DIR / name, tmp_path)
        first = load_scenario(tmp_path / "bedroom_scenario.json")
        text = serialize_scenario(first)
        (tmp_path / "again.json").write_text(text, encoding="utf-8")
        second = load_scenario(tmp_path / "again.json")
        assert second == first
        assert serialize_scenario(second) == text

    def test_every_optional_field_round_trips(self, tmp_path):
        for name in ("bedroom_scene.json", "bedroom_assessments.json"):
            shutil.copy(DATA_DIR / name, tmp_path)
        document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
        document["waypoints"] = [[0.8, 2.0, 0.0], [2.0, 1.0, 0.5], [3.4, 0.2, 0.0]]
        document["activity_zones"] = {"watching": [4.0, 0.5]}
        document["assessor"].update(model="m", max_attempts=5)
        text = canonical_json(document)
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        assert serialize_scenario(load_scenario(path, strict=True)) == text

    def test_scenario_key_is_an_unknown_field(self, tmp_path):
        """The replay key is the scenario's name; ``assessor.scenario_key`` is no field."""
        for name in ("bedroom_scene.json", "bedroom_assessments.json"):
            shutil.copy(DATA_DIR / name, tmp_path)
        document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
        document["assessor"]["scenario_key"] = "bedroom"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        with pytest.raises(FormatError) as info:
            load_scenario(path, strict=True)
        assert str(info.value) == "assessor: unknown field(s): scenario_key"
        with pytest.warns(UnknownKeyWarning, match=r"^assessor: unknown field\(s\): scenario_key$"):
            scenario = load_scenario(path)
        shipped = (DATA_DIR / "bedroom_report.json").read_text(encoding="utf-8")
        assert report_to_json(run_scenario(scenario)) == shipped


class TestStrictScenario:
    """``load_scenario(path, strict=True)`` makes the whole run strict."""

    @pytest.mark.parametrize(
        "name, error, message",
        [
            ("bedroom_scene.json", FormatError, "$: unknown field(s): extra"),
            ("bedroom_assessments.json", ScenarioError,
             'condition "no_human", stage "load": $: unknown field(s): extra'),
        ],
        ids=["scene", "fixtures"],
    )
    def test_an_unknown_key_in_a_file_the_run_reads(self, tmp_path, name, error, message):
        for copied in ("bedroom_scenario.json", "bedroom_scene.json", "bedroom_assessments.json"):
            shutil.copy(DATA_DIR / copied, tmp_path)
        document = json.loads((tmp_path / name).read_text())
        document["extra"] = 1
        (tmp_path / name).write_text(json.dumps(document))
        path = tmp_path / "bedroom_scenario.json"
        with pytest.raises(error) as info:
            run_scenario(load_scenario(path, strict=True))
        assert str(info.value) == message
        cause = info.value if error is FormatError else info.value.__cause__
        assert isinstance(cause, FormatError) and cause.reason == "unknown field(s): extra"
        with pytest.warns(UnknownKeyWarning, match="extra"):
            run_scenario(load_scenario(path))

    def test_strict_is_how_the_file_was_read(self, scenario):
        strict = dataclasses.replace(scenario, strict=True)
        assert strict == scenario
        assert serialize_scenario(strict) == serialize_scenario(scenario)


class TestLoadBaseScene:
    def test_validates_the_scene_and_only_the_added_part(self, scenario):
        """The shipped scene's 4 nodes, then the human and its targets, the bed and the TV."""
        real = scene_graph._check_graph
        validated = []

        def spy(graph):
            validated.append(len(graph.nodes))
            return real(graph)

        with mock.patch.object(scene_graph, "_check_graph", spy):
            base = load_base_scene(scenario)
        assert validated == [4, 3]
        assert len(base.nodes) == 5


class TestRunScenario:
    def test_replay_report_matches_recorded_rows(self, replay_report):
        assert [r.condition for r in replay_report.conditions] == [
            Condition.NO_HUMAN,
            Condition.HUMAN_NO_RELATIONS,
            Condition.HUMAN_WITH_RELATIONS,
        ]
        by_condition = {r.condition: r.assessment.entries for r in replay_report.conditions}
        assert by_condition[Condition.NO_HUMAN] == {
            "bed": CostClearance(1.0, 0.5),
            "armchair": CostClearance(2.0, 1.5),
        }
        assert by_condition[Condition.HUMAN_NO_RELATIONS] == {
            "bed": CostClearance(2.0, 0.5),
            "human": CostClearance(10.0, 2.0),
            "armchair": CostClearance(3.0, 1.0),
        }
        assert by_condition[Condition.HUMAN_WITH_RELATIONS] == {
            "bed": CostClearance(3.0, 1.5),
            "human": CostClearance(5.0, 2.0),
            "armchair": CostClearance(1.0, 0.0),
        }

    def test_paths_start_and_end_at_request_cells(self, scenario, replay_report):
        for result in replay_report.conditions:
            costmap = result.costmap
            assert result.path.cells[0] == costmap.cell_at(scenario.start)
            assert result.path.cells[-1] == costmap.cell_at(scenario.goal)

    def test_rules_assessor_releases_the_armchair(self, scenario):
        report = run_scenario(scenario, assessor_kind="rules")
        scene = load_scene(scenario.scene_path().read_bytes())
        armchair = footprint_of(scene.node("armchair"))
        distance = {
            r.condition: min_distance_to_footprint(r.path.polyline, armchair)
            for r in report.conditions
        }
        assert (
            distance[Condition.HUMAN_WITH_RELATIONS] <= distance[Condition.HUMAN_NO_RELATIONS]
        )

    def test_min_distance_stat_present_with_human(self, scenario, replay_report):
        footprint = human_footprint(scenario)
        stats = json.loads(report_to_json(replay_report))["conditions"]
        for result, stored in zip(replay_report.conditions, stats):
            stat = stored["stats"]["min_distance_to_human_m"]
            assert stat == min_distance_to_footprint(result.path.polyline, footprint)
            assert stat == min_distance_to_human(replay_report.scene, result.path.polyline)

    def test_unknown_assessor_kind_is_a_setup_error(self, scenario):
        with pytest.raises(ScenarioError) as info:
            run_scenario(scenario, assessor_kind="x")
        assert str(info.value) == 'condition "no_human", stage "setup": unknown assessor kind "x"'

    def test_no_human_footprint_without_a_human(self, scenario):
        assert human_footprint(dataclasses.replace(scenario, human=None)) is None

    def test_min_distance_is_to_the_nearest_human_of_the_scene(self, replay_report):
        scene = replay_report.scene
        polyline = replay_report.conditions[0].path.polyline
        nearest = min(
            min_distance_to_footprint(polyline, footprint_of(scene.node(i)))
            for i in ("bed", "armchair")
        )
        as_humans = dataclasses.replace(
            scene,
            nodes={
                i: dataclasses.replace(n, tag="human") if i in ("bed", "armchair") else n
                for i, n in scene.nodes.items()
                if i != "human"
            },
        )
        assert min_distance_to_human(as_humans, polyline) == nearest
        without = derive_condition_variant(scene, Condition.NO_HUMAN)
        assert min_distance_to_human(without, polyline) is None

    def test_replay_with_missing_row_is_annotated(self, tmp_path):
        for name in ("bedroom_scene.json", "bedroom_scenario.json"):
            shutil.copy(DATA_DIR / name, tmp_path)
        fixtures = json.loads((DATA_DIR / "bedroom_assessments.json").read_text())
        del fixtures["assessments"]["bedroom/no_human"]
        (tmp_path / "bedroom_assessments.json").write_text(json.dumps(fixtures))
        scenario = load_scenario(tmp_path / "bedroom_scenario.json")
        with pytest.raises(ScenarioError, match='condition "no_human", stage "assess"'):
            run_scenario(scenario)

    def test_byte_reproducible(self, scenario):
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert report_to_json(first) == report_to_json(second)


class TestReportSerialization:
    def test_round_trip_identity(self, replay_report):
        text = report_to_json(replay_report)
        loaded = load_report(text)
        assert report_to_json(loaded) == text
        assert load_report(report_to_json(loaded)) == loaded

    def test_run_reproduces_shipped_report_bytes(self):
        # Golden check: planning the shipped scenario writes the shipped report.
        text = report_to_json(run_scenario(load_scenario(DATA_DIR / "bedroom_scenario.json")))
        assert text.encode("utf-8") == (DATA_DIR / "bedroom_report.json").read_bytes()

    def test_shipped_report_fixture_round_trips(self):
        text = (DATA_DIR / "bedroom_report.json").read_text(encoding="utf-8")
        assert report_to_json(load_report(text)) == text

    def test_report_in_the_indented_layout_loads_alike(self):
        """Reports written before the compact layout still load and render."""
        shipped = (DATA_DIR / "bedroom_report.json").read_text(encoding="utf-8")
        indented = canonical_json(json.loads(shipped))
        assert len(indented) > len(shipped)
        report = load_report(indented)
        assert report == load_report(shipped)
        assert _render_digest(report) == SHIPPED_SVG_SHA256

    def test_timing_is_not_serialized(self, replay_report):
        data = json.loads(report_to_json(replay_report))
        assert "timing" not in json.dumps(data)

    def test_no_derived_copies_are_stored(self, replay_report):
        data = json.loads(report_to_json(replay_report))
        assert data["schema_version"] == 2
        assert data["map"] == {"bounds": [[0.0, 0.0], [6.0, 5.0]], "resolution": 0.1}
        for condition in data["conditions"]:
            assert "costmap" not in condition
            assert set(condition["path"]) == {"cells", "total_cost", "length_m"}
            assert set(condition["stats"]) == {"min_distance_to_human_m"}
            assert condition["stop"] == "converged"

    def test_load_rebuilds_the_planned_costmaps_and_polylines(self, replay_report):
        loaded = load_report(report_to_json(replay_report))
        for ran, read in zip(replay_report.conditions, loaded.conditions):
            assert read.costmap == ran.costmap
            assert read.path == ran.path

    def test_zones_round_trip_and_rebuild_their_corridors(self, tmp_path):
        for name in ("bedroom_scene.json", "bedroom_assessments.json"):
            shutil.copy(DATA_DIR / name, tmp_path)
        document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
        document["activity_zones"] = {"watching": [4.0, 0.5]}
        document["assessor"] = {"kind": "rules"}
        document["query_radius_m"] = 10.0  # the tv too, so its corridor is built
        (tmp_path / "scenario.json").write_text(json.dumps(document))
        report = run_scenario(load_scenario(tmp_path / "scenario.json"))
        with_relations = report.conditions[-1]
        assert [(z.human, z.verb, z.target) for z in with_relations.zones] == [
            ("human", "watching", "tv")
        ]
        text = report_to_json(report)
        stored = json.loads(text)["conditions"][-1]["zones"]
        assert stored == [
            {"human": "human", "verb": "watching", "target": "tv", "cost": 4.0, "clearance": 0.5}
        ]
        loaded = load_report(text)
        assert loaded == report
        assert loaded.conditions[-1].zones[0].footprint == with_relations.zones[0].footprint

    def test_version_1_report_rejected(self):
        data = json.loads(_SHIPPED_REPORT)
        data["schema_version"] = 1
        with pytest.raises(FormatError, match="unsupported schema_version 1"):
            load_report(json.dumps(data))

    @pytest.mark.parametrize("key", ["total_cost", "length_m"])
    def test_path_figures_must_equal_those_of_its_cells(self, key):
        data = json.loads(_SHIPPED_REPORT)
        data["conditions"][0]["path"][key] += 1e-12
        with pytest.raises(FormatError, match=rf"conditions\[0\]\.path\.{key}: differs"):
            load_report(json.dumps(data))

    def test_moved_object_breaks_the_cost_tie(self):
        # The costmap is rebuilt from the scene, so moving an assessed object
        # changes what the stored path costs.
        data = json.loads(_SHIPPED_REPORT)
        for node in data["scene"]["nodes"]:
            if node["id"] == "armchair":
                node["bbox_center"][0] -= 0.5
        with pytest.raises(FormatError, match="total_cost"):
            load_report(json.dumps(data))

    @pytest.mark.parametrize("value", [None, True])
    def test_distance_to_human_must_equal_that_of_its_polyline(self, value):
        data = json.loads(_SHIPPED_REPORT)
        data["conditions"][1]["stats"]["min_distance_to_human_m"] = value
        where = r"conditions\[1\]\.stats\.min_distance_to_human_m"
        with pytest.raises(FormatError, match=where):
            load_report(json.dumps(data))

    def test_entry_for_an_object_missing_from_the_scene_rejected(self):
        data = json.loads(_SHIPPED_REPORT)
        data["conditions"][0]["assessment"]["entries"]["ghost"] = {"cost": 2.0, "clearance": 1.0}
        with pytest.raises(FormatError, match=r"conditions\[0\]\.assessment\.entries: .*ghost"):
            load_report(json.dumps(data))


class TestCompareConditions:
    def test_table_matches_recorded_values(self, replay_report):
        table = compare_conditions(replay_report)
        lines = table.splitlines()
        assert lines[0].split() == ["Condition", "armchair", "bed", "human"]
        import re

        rows = {re.split(r"\s{2,}", line)[0]: re.split(r"\s{2,}", line)[1:] for line in lines[1:]}
        assert rows["No Human"] == ["2 (1.5)", "1 (0.5)", "-"]
        assert rows["Human w/out relations"] == ["3 (1)", "2 (0.5)", "10 (2)"]
        assert rows["Human w/ relations"] == ["1 (0)", "3 (1.5)", "5 (2)"]

    def test_single_condition_rejected(self, replay_report):
        single = dataclasses.replace(replay_report, conditions=replay_report.conditions[:1])
        with pytest.raises(ValueError, match=">= 2"):
            compare_conditions(single)

    def test_union_semantics_with_dash(self, replay_report):
        table = compare_conditions(replay_report)
        assert "-" in table  # human column under No Human

    def test_json_companion_round_trips_numbers(self, replay_report):
        data = comparison_dict(replay_report)
        text = json.dumps(data)
        parsed = json.loads(text)
        for entry, result in zip(parsed["conditions"], replay_report.conditions):
            for object_id, cc in result.assessment.entries.items():
                assert entry["entries"][object_id]["cost"] == cc.cost
                assert entry["entries"][object_id]["clearance"] == cc.clearance


def _heat_block(svg):
    lines = svg.splitlines()
    start = lines.index('<g shape-rendering="crispEdges">')
    return lines[start + 1 : lines.index("</g>", start)]


def _heat_color(value: float, vmax: float) -> str:
    # White at cost 1, warm red toward the map maximum.
    t = 0.0 if vmax <= 1.0 else (value - 1.0) / (vmax - 1.0)
    red = 255
    green = int(round(250.0 - 190.0 * t))
    blue = int(round(240.0 - 210.0 * t))
    return f"#{red:02x}{green:02x}{blue:02x}"


def _heat_block_by_cell(costmap):
    """The heat cells `render_svg` draws, from a plain loop over every cell."""
    (xmin, ymin), (_, ymax) = costmap.origin, costmap.max_xy
    res = costmap.resolution
    vmax = float(costmap.cells.max())
    size = res * PX_PER_M
    block = []
    for iy, row in enumerate(costmap.cells.tolist()):
        for ix, value in enumerate(row):
            if value > 1.0:
                x = (xmin + ix * res - xmin) * PX_PER_M
                y = (ymax - (ymin + (iy + 1) * res)) * PX_PER_M
                block.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{size:.2f}" '
                    f'height="{size:.2f}" fill="{_heat_color(value, vmax)}"/>'
                )
    return block


class TestRenderSvg:
    # At 0.0123 m a cell is 1.107 px wide, so some cell edges fall on a .2f
    # rounding tie and only the same float expressions give the same text.
    @pytest.mark.parametrize("resolution", [0.05, 0.1, 0.25, 0.0123])
    @pytest.mark.parametrize("origin", [(0.0, 0.0), (-3.7, -1.25), (2.3, 0.45)])
    def test_heat_cells_match_a_loop_over_every_cell(self, origin, resolution):
        rng = np.random.default_rng(17)
        shapes = [(7, 23), (31, 12), (1, 17), (13, 1), (40, 40)]
        for height, width in shapes:
            smooth = 1.0 + 5.0 * rng.random((height, width))
            smooth[rng.random((height, width)) < 0.3] = 1.0
            repeated = rng.choice([1.0, 1.25, 2.0, 7.5], size=(height, width))
            for cells in (smooth, repeated):
                costmap = Costmap(origin, resolution, width, height, cells)
                svg = render_svg(costmap, [], SceneGraph(nodes={}), labels=[])
                assert _heat_block(svg) == _heat_block_by_cell(costmap)

    def test_color_ties_round_half_to_even(self):
        # With a maximum of 3, cost 1.5 gives green 202.5 and blue 187.5, and
        # cost 2.5 gives green 107.5 and blue 82.5: every channel is a tie.
        costmap = Costmap((0.0, 0.0), 0.1, 3, 1, np.array([[1.5, 2.5, 3.0]]))
        block = _heat_block(render_svg(costmap, [], SceneGraph(nodes={}), labels=[]))
        assert block == _heat_block_by_cell(costmap)
        assert [line.split('fill="')[1][:7] for line in block] == ["#ffcabc", "#ff6c52", "#ff3c1e"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("resolution", [0.05, 0.1, 0.25])
    def test_all_cost_one_map_has_no_heat_cells(self, resolution):
        costmap = Costmap((-1.5, 2.0), resolution, 9, 4, np.ones((4, 9)))
        svg = render_svg(costmap, [], SceneGraph(nodes={}), labels=[])
        assert _heat_block(svg) == []

    def test_shipped_report_svg_bytes(self):
        report = load_report((DATA_DIR / "bedroom_report.json").read_bytes())
        assert _render_digest(report) == SHIPPED_SVG_SHA256

    def test_markup_in_tags_and_labels_is_escaped(self, replay_report):
        document = json.loads((DATA_DIR / "bedroom_scene.json").read_text())
        document["nodes"][0]["tag"] = "R&D <shelf>"
        scene = load_scene(json.dumps(document).encode("utf-8"))
        svg = render_svg(
            replay_report.conditions[-1].costmap,
            [replay_report.conditions[0].path],
            scene,
            labels=["cost > 1 & <raw>"],
        )
        texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "R&D <shelf>" in texts
        assert "cost > 1 & <raw>" in texts

    def test_empty_map_renders(self):
        from socioplan.cost_field import FieldSpec, rasterize

        costmap = rasterize(FieldSpec(()), (), ((0, 0), (1, 1)), 0.25)
        svg = render_svg(costmap, [], SceneGraph(nodes={}), labels=[])
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_fixture_report_has_paths_and_labels(self, replay_report):
        svg = render_svg(
            replay_report.conditions[-1].costmap,
            [r.path for r in replay_report.conditions],
            replay_report.scene,
            labels=[r.condition.label for r in replay_report.conditions],
        )
        assert svg.count("<polyline") == 3
        for tag in ("bed", "tv", "armchair", "human"):
            assert f">{tag}</text>" in svg

    def test_byte_deterministic(self, replay_report):
        args = (
            replay_report.conditions[-1].costmap,
            [r.path for r in replay_report.conditions],
            replay_report.scene,
        )
        labels = [r.condition.label for r in replay_report.conditions]
        assert render_svg(*args, labels=labels) == render_svg(*args, labels=labels)

    def test_label_count_mismatch_rejected(self, replay_report):
        with pytest.raises(ValueError, match="label"):
            render_svg(
                replay_report.conditions[-1].costmap,
                [r.path for r in replay_report.conditions],
                replay_report.scene,
                labels=["just one"],
            )


def _locations(value, where=()):
    """Every key path of ``value``; only the first and last item of each list."""
    yield where
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _locations(item, where + (key,))
    elif isinstance(value, list) and value:
        for index in sorted({0, len(value) - 1}):
            yield from _locations(value[index], where + (index,))


_SHIPPED_REPORT = (DATA_DIR / "bedroom_report.json").read_text(encoding="utf-8")
_REPORT_LOCATIONS = list(_locations(json.loads(_SHIPPED_REPORT)))[1:]
_MUTATIONS = st.sampled_from([("delete",), ("wrap",)]) | st.tuples(
    st.just("replace"),
    st.sampled_from(
        [None, True, 0, -1, -0.5, 1.5, 10**400, float("nan"), float("inf"), "x", "", [], {}]
    ),
)


def _mutated(document: str, where: tuple, mutation: tuple) -> object:
    """The parsed ``document`` with ``mutation`` applied at key path ``where``."""
    data = json.loads(document)
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    key = where[-1]
    if mutation[0] == "delete":
        del parent[key]
    elif mutation[0] == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = mutation[1]
    return data


class TestLoadReportMutations:
    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from(_REPORT_LOCATIONS), mutation=_MUTATIONS)
    def test_returns_or_raises_format_error(self, where, mutation):
        try:
            load_report(json.dumps(_mutated(_SHIPPED_REPORT, where, mutation)))
        except FormatError:
            pass


_SHIPPED_SCENARIO = (DATA_DIR / "bedroom_scenario.json").read_text(encoding="utf-8")
_SCENARIO_LOCATIONS = list(_locations(json.loads(_SHIPPED_SCENARIO)))[1:]


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """A copy of the shipped scene and fixtures, beside which mutated scenarios are written."""
    directory = tmp_path_factory.mktemp("scenario")
    for name in ("bedroom_scene.json", "bedroom_assessments.json"):
        shutil.copy(DATA_DIR / name, directory)
    return directory


class TestLoadScenarioMutations:
    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from(_SCENARIO_LOCATIONS), mutation=_MUTATIONS)
    def test_returns_or_raises_format_error(self, scenario_dir, where, mutation):
        path = scenario_dir / "scenario.json"
        path.write_text(json.dumps(_mutated(_SHIPPED_SCENARIO, where, mutation)), encoding="utf-8")
        try:
            load_base_scene(load_scenario(path))
        except FormatError:
            pass


_SHIPPED_SCENE = (DATA_DIR / "bedroom_scene.json").read_text(encoding="utf-8")
_SCENE_LOCATIONS = list(_locations(json.loads(_SHIPPED_SCENE)))[1:]


class TestLoadSceneMutations:
    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from(_SCENE_LOCATIONS), mutation=_MUTATIONS)
    def test_returns_or_raises_format_error(self, where, mutation):
        try:
            load_scene(json.dumps(_mutated(_SHIPPED_SCENE, where, mutation)))
        except FormatError:
            pass


_SHIPPED_FIXTURES = (DATA_DIR / "bedroom_assessments.json").read_text(encoding="utf-8")
_FIXTURE_LOCATIONS = list(_locations(json.loads(_SHIPPED_FIXTURES)))[1:]


class TestLoadFixturesMutations:
    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from(_FIXTURE_LOCATIONS), mutation=_MUTATIONS)
    def test_returns_or_raises_format_error(self, where, mutation):
        try:
            load_assessment_fixtures(json.dumps(_mutated(_SHIPPED_FIXTURES, where, mutation)))
        except FormatError:
            pass


# --- bulk readers ---------------------------------------------------------------

_BULK_VALUES = [
    None, True, False, 0, -1, 1.5, 10**400, -(10**400), float("nan"), float("inf"), "x", "", [], {},
    "a\x01b", "a b", "\ud800", "sit", ("sit",), ["sit", 1], [1.0, 2.0], [1, 2, True], "spatial",
]
_BULK_MUTATIONS = st.sampled_from([("delete",), ("wrap",), ("unknown_key",)]) | st.tuples(
    st.just("replace"), st.sampled_from(_BULK_VALUES)
)


def _bulk_mutated(data: object, where: tuple, mutation: tuple) -> object:
    """A copy of ``data`` with ``mutation`` applied at key path ``where``;
    ``unknown_key`` adds a key to the object there, or else beside it."""
    data = copy.deepcopy(data)
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    key = where[-1]
    if mutation[0] == "unknown_key":
        target = parent[key] if isinstance(parent[key], dict) else parent
        if isinstance(target, dict):
            target["zz_unknown"] = 1
    elif mutation[0] == "delete":
        del parent[key]
    elif mutation[0] == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = copy.deepcopy(mutation[1])
    return data


def _outcome(read, data: object) -> tuple:
    """``read(data)`` as the repr of its result or its FormatError text, and
    the UnknownKeyWarning messages it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(copy.deepcopy(data))
            text = serialize_scene(result) if isinstance(result, SceneGraph) else repr(result)
        except FormatError as exc:
            text = f"FormatError: {exc}"
    return text, [str(w.message) for w in caught if issubclass(w.category, UnknownKeyWarning)]


def _bulk_off(module, name: str):
    """Patch ``module.name``, a check the bulk path needs, to refuse everything."""
    return mock.patch.object(module, name, lambda *args: False)


_SCENE_DATA = json.loads(_SHIPPED_SCENE)
_SCENE_DATA["relations"].append({"name": "faces", "head": "armchair", "tail": "tv", "kind": "comparative"})
_SCENE_DATA_LOCATIONS = list(_locations(_SCENE_DATA))[1:]
_ENTRIES_DATA = json.loads(_SHIPPED_REPORT)["conditions"][-1]["assessment"]["entries"]
_ENTRIES_DATA["int_valued"] = {"clearance": 0, "cost": 2}
_ENTRIES_LOCATIONS = list(_locations(_ENTRIES_DATA))[1:]


class TestBulkReadersAreSound:
    """The bulk checks of ``scene_from_dict`` and ``entries_from_dict`` are
    sufficient conditions only: with them switched off, every document reads
    to the same graph or entries, the same FormatError and the same warnings."""

    def test_shipped_documents_take_the_bulk_path(self):
        for document in (_SCENE_DATA, json.loads(_SHIPPED_REPORT)["scene"]):
            with mock.patch.object(scene_graph, "_check_fields", side_effect=AssertionError):
                scene_from_dict(document, strict=True)
        with mock.patch.object(cost_assessment, "cost_clearance", side_effect=AssertionError):
            entries = entries_from_dict(_ENTRIES_DATA, "entries", strict=True)
        assert type(entries["int_valued"].cost) is float

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("reader", ["scene", "entries"])
    def test_every_single_edit(self, reader, strict):
        data, locations, read, switch = self._reader(reader, strict)
        for where in locations:
            for mutation in [("delete",), ("wrap",), ("unknown_key",)] + [("replace", v) for v in _BULK_VALUES]:
                edited = _bulk_mutated(data, where, mutation)
                shipped = _outcome(read, edited)
                with switch:
                    assert _outcome(read, edited) == shipped, (where, mutation)

    @settings(max_examples=300, deadline=None)
    @given(
        reader=st.sampled_from(["scene", "entries"]),
        picks=st.lists(st.tuples(st.integers(0, 10**6), _BULK_MUTATIONS), min_size=2, max_size=3),
        strict=st.booleans(),
    )
    def test_several_edits(self, reader, picks, strict):
        data, locations, read, switch = self._reader(reader, strict)
        for pick, mutation in picks:
            try:
                data = _bulk_mutated(data, locations[pick % len(locations)], mutation)
            except (KeyError, IndexError, TypeError):  # an earlier edit removed the path
                pass
        shipped = _outcome(read, data)
        with switch:
            assert _outcome(read, data) == shipped

    @staticmethod
    def _reader(reader: str, strict: bool) -> tuple:
        """The document, its edit locations, the reader, and a patch that
        switches the reader's bulk check off."""
        if reader == "scene":
            read = functools.partial(scene_from_dict, strict=strict)
            return _SCENE_DATA, _SCENE_DATA_LOCATIONS, read, _bulk_off(scene_graph, "_plain")
        read = functools.partial(entries_from_dict, path="entries", strict=strict)
        return _ENTRIES_DATA, _ENTRIES_LOCATIONS, read, _bulk_off(cost_assessment, "plain_numbers")
