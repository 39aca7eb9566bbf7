from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import pytest

import socioplan
from socioplan import scenario_runner
from socioplan.cli import main
from socioplan.cost_assessment import entries_to_dict
from socioplan.human_augmentation import Condition
from socioplan.jsonio import canonical_json
from socioplan.planner import iterate_plan
from socioplan.scenario_runner import build_assessor, build_run, load_scenario, run_scenario
from socioplan.trajectory_context import relevant_objects

from conftest import DATA_DIR
from test_workloads import PINNED

SCENARIO = str(DATA_DIR / "bedroom_scenario.json")
SCENE = str(DATA_DIR / "bedroom_scene.json")


class TestValidate:
    def test_valid_scene(self, capsys):
        assert main(["validate", SCENE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK")

    def test_json_format(self, capsys):
        assert main(["validate", SCENE, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"nodes": 4, "ok": True, "relations": 1}

    def test_missing_file(self, capsys):
        assert main(["validate", "nope.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_scene(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", str(bad)]) == 1
        assert "nodes" in capsys.readouterr().err

    def test_strict_accepts_the_shipped_scene(self, capsys):
        assert main(["--strict", "validate", SCENE]) == 0
        assert capsys.readouterr().err == ""

    def test_strict_rejects_unknown_keys(self, tmp_path, capsys):
        document = json.loads((DATA_DIR / "bedroom_scene.json").read_text())
        document["extra"] = 1
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(document))
        assert main(["--strict", "validate", str(path)]) == 1
        assert "extra" in capsys.readouterr().err


def _waypoint_scenario(tmp_path, replay=False, waypoints=((0.8, 2.4, 0.0), (1.0, 2.4, 0.0))):
    """The shipped scenario with the rules assessor, or its own replay one,
    and by default a trajectory hugging the bed: only the bed (and the human
    attached to it) is in range."""
    for name in ("bedroom_scene.json", "bedroom_assessments.json"):
        shutil.copy(DATA_DIR / name, tmp_path)
    document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
    document["waypoints"] = [list(p) for p in waypoints]
    if not replay:
        document["assessor"] = {"kind": "rules"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    return path


class TestAssess:
    def test_replay_text_output(self, capsys):
        assert main(["assess", SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "condition: no_human" in out
        assert "human: cost 5, clearance 2 m" in out

    def test_rules_json_output(self, capsys):
        assert main(["assess", SCENARIO, "--assessor", "rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_condition = {c["condition"]: c for c in payload["conditions"]}
        assert by_condition["human_with_relations"]["entries"]["armchair"]["cost"] == 1.0
        assert by_condition["human_no_relations"]["entries"]["armchair"]["cost"] == 3.0

    def test_replay_assesses_what_the_fixtures_hold(self, capsys):
        assert main(["--strict", "assess", SCENARIO, "--format", "json"]) == 0
        conditions = json.loads(capsys.readouterr().out)["conditions"]
        fixtures = json.loads((DATA_DIR / "bedroom_assessments.json").read_text())["assessments"]
        assert len(conditions) == 3
        for condition in conditions:
            assert condition["entries"] == fixtures[f"bedroom/{condition['condition']}"]

    def test_one_relevance_query_serves_every_condition(self, capsys):
        # The base scene is queried once; each variant keeps the ids of its own nodes.
        with mock.patch("socioplan.planner.relevant_objects", wraps=relevant_objects) as query:
            assert main(["--strict", "assess", SCENARIO, "--format", "json"]) == 0
        assert query.call_count == 1
        entries = {c["condition"]: set(c["entries"]) for c in json.loads(capsys.readouterr().out)["conditions"]}
        assert entries == {
            "no_human": {"armchair", "bed"},
            "human_no_relations": {"armchair", "bed", "human"},
            "human_with_relations": {"armchair", "bed", "human"},
        }

    def test_condition_filter(self, capsys):
        assert main(["assess", SCENARIO, "--condition", "no_human"]) == 0
        out = capsys.readouterr().out
        assert "no_human" in out and "with_relations" not in out

    def test_unknown_condition_is_one_error_line(self, capsys):
        assert main(["assess", SCENARIO, "--condition", "bogus"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            'error: --condition: unknown condition "bogus" '
            "(valid: no_human, human_no_relations, human_with_relations)"
        ]

    def test_explicit_waypoints_are_used(self, tmp_path, capsys):
        path = _waypoint_scenario(tmp_path)
        assert main(["assess", str(path), "--condition", "human_with_relations",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload["conditions"][0]["entries"]
        assert set(entries) == {"bed", "human"}


def _first_round(scenario, condition):
    """Round 1 of ``condition`` in the scenario's run, alone."""
    run = build_run(scenario)
    run.max_rounds = 1
    return iterate_plan(run, condition, build_assessor(scenario, condition, scenario.assessor.kind))


class TestWaypointsSeedRoundOne:
    """``waypoints`` seed round 1 of ``assess`` and of ``plan`` alike."""

    def test_assess_prints_round_one_of_plan(self, tmp_path, capsys):
        path = _waypoint_scenario(tmp_path)
        assert main(["assess", str(path), "--format", "json"]) == 0
        printed = {c["condition"]: c["entries"] for c in json.loads(capsys.readouterr().out)["conditions"]}
        scenario = load_scenario(path)
        for condition in scenario.conditions:
            first = _first_round(scenario, condition)
            assert entries_to_dict(first.assessment.entries) == printed[condition.value]
        assert set(printed["no_human"]) == {"bed"}
        # The straight start-goal segment would have assessed the armchair too.
        straight = _first_round(dataclasses.replace(scenario, waypoints=None), scenario.conditions[0])
        assert set(straight.assessment.entries) == {"armchair", "bed"}

    def test_plan_starts_from_the_waypoints(self, tmp_path):
        # From {bed}, round 2 finds {bed, armchair} and round 3 repeats it; the
        # straight seed finds {armchair, bed} in round 1.
        report = run_scenario(load_scenario(_waypoint_scenario(tmp_path)))
        assert [(r.rounds, r.stop) for r in report.conditions] == [(2, "converged")] * 3

    def test_replay_answers_round_one_from_part_of_its_recording(self, tmp_path, capsys):
        # Round 1 asks the no_human recording of {armchair, bed} for the bed alone.
        path = _waypoint_scenario(tmp_path, replay=True)
        scenario = load_scenario(path)
        first = _first_round(scenario, Condition.NO_HUMAN)
        assert entries_to_dict(first.assessment.entries) == {"bed": {"cost": 1.0, "clearance": 0.5}}
        assert main(["plan", str(path)]) == 0
        assert capsys.readouterr().err == ""


_PLAN_SUMMARY = (
    "no_human: total cost 5.041, length 3.346 m, rounds 1, min dist to human 1.200 m\n"
    "human_no_relations: total cost 6.900, length 4.038 m, rounds 1, min dist to human 1.200 m\n"
    "human_with_relations: total cost 4.240, length 3.346 m, rounds 1, min dist to human 1.200 m\n"
)


class TestPlanCommand:
    def test_rules_run_needs_no_fixture_file(self, tmp_path, capsys):
        _write_inputs(tmp_path, _fixture_file_missing)
        scenario = str(tmp_path / _INPUTS["scenario"])
        assert main(["--strict", "plan", scenario, "--assessor", "rules"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("goal", [[6.0, 5.0], [6.0, 0.2], [3.4, 5.0], [0.0, 0.0]])
    def test_goal_on_the_map_edge_plans(self, tmp_path, capsys, goal):
        def goal_on_edge(files):
            files["scenario"]["goal"] = goal

        _write_inputs(tmp_path, goal_on_edge)
        assert main(["plan", str(tmp_path / _INPUTS["scenario"]), "--assessor", "rules"]) == 0
        assert capsys.readouterr().err == ""

    def test_text_summary(self, capsys):
        assert main(["plan", SCENARIO]) == 0
        assert capsys.readouterr().out == _PLAN_SUMMARY

    def test_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["plan", SCENARIO, "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenario"] == "bedroom"
        assert len(payload["conditions"]) == 3
        assert capsys.readouterr().out == f"{_PLAN_SUMMARY}report written to {out_path}\n"

    def test_json_format_prints_the_report_also_with_out(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["plan", SCENARIO, "-o", str(out_path), "--format", "json"]) == 0
        shipped = (DATA_DIR / "bedroom_report.json").read_bytes()
        assert capsys.readouterr().out.encode() == out_path.read_bytes() == shipped

    def test_no_byte_depends_on_the_hash_seed(self, tmp_path):
        """Set iteration order follows PYTHONHASHSEED; each child imports the
        ``socioplan`` this test imports."""
        package_parent = str(Path(socioplan.__file__).resolve().parent.parent)
        shipped = (DATA_DIR / "bedroom_report.json").read_bytes()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_parent}
            cli = [sys.executable, "-m", "socioplan.cli", "--strict", "plan", SCENARIO]
            run = subprocess.run([*cli, "--format", "json"], env=env, capture_output=True, check=True)
            assert run.stdout == shipped
            rules = ["--assessor", "rules", "-o", str(tmp_path / f"rules_{seed}.json")]
            subprocess.run([*cli, *rules], env=env, capture_output=True, check=True)
        assert (tmp_path / "rules_0.json").read_bytes() == (tmp_path / "rules_1.json").read_bytes()

    def test_unknown_keys_print_one_warning_line_each(self, tmp_path, capsys):
        def unknown_keys(files):
            files["scenario"]["extra"] = 1
            files["scenario"]["human"]["note"] = "x"

        _write_inputs(tmp_path, unknown_keys)
        assert main(["plan", str(tmp_path / _INPUTS["scenario"])]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: $: unknown field(s): extra",
            "warning: human: unknown field(s): note",
        ]

    def test_warning_survives_a_callers_ignore_filter(self, tmp_path):
        def colour(files):
            files["scenario"]["colour"] = "red"

        _write_inputs(tmp_path, colour)
        package_parent = str(Path(socioplan.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        scenario = str(tmp_path / _INPUTS["scenario"])
        run = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "socioplan.cli", "plan", scenario],
            env={**env, "PYTHONPATH": package_parent},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stderr.splitlines() == ["warning: $: unknown field(s): colour"]


class TestCompareCommand:
    def test_text_table(self, capsys):
        assert main(["compare", SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "Human w/ relations" in out
        assert "10 (2)" in out

    def test_readme_table_is_the_output(self, capsys):
        """The table is the code block after the README line that introduces it."""
        lines = (DATA_DIR.parent / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("`socioplan compare` on the shipped"))
        fences = [i for i in range(start, len(lines)) if lines[i].startswith("```")]
        assert main(["--strict", "compare", SCENARIO]) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines[fences[0] + 1 : fences[1]])

    def test_json_companion(self, capsys):
        assert main(["compare", SCENARIO, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objects"] == ["armchair", "bed", "human"]


class TestRenderCommand:
    def test_renders_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        svg_path = tmp_path / "out.svg"
        assert main(["plan", SCENARIO, "-o", str(report_path)]) == 0
        capsys.readouterr()
        assert main(["render", str(report_path), "-o", str(svg_path)]) == 0
        assert capsys.readouterr().out == f"svg written to {svg_path}\n"
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 3
        assert "Human w/ relations" in svg

    def test_strict_render_of_the_shipped_report_is_the_pinned_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "r.svg"
        assert main(["--strict", "render", str(DATA_DIR / "bedroom_report.json"), "-o", str(svg_path)]) == 0
        assert capsys.readouterr().err == ""
        ElementTree.parse(svg_path)
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == PINNED["bedroom", 1][1]

    def test_missing_report(self, capsys):
        assert main(["render", "missing.json", "-o", "/tmp/x.svg"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        svg_path = tmp_path / "out.svg"
        assert main(["render", str(DATA_DIR / "bedroom_report.json"), "-o", str(svg_path),
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == canonical_json({"ok": True, "out": str(svg_path)})
        assert svg_path.read_text().count("<polyline") == 3


class TestRelevantSetOrder:
    @pytest.mark.parametrize("replay", [False, True], ids=["rules", "replay"])
    def test_a_reordered_set_converges(self, tmp_path, replay):
        """Waypoints from goal to start find (armchair, bed) in round 1; the
        path from start to goal finds (bed, armchair), the same set, so the
        loop stops without asking the assessor again."""
        path = _waypoint_scenario(tmp_path, replay, waypoints=[(3.4, 0.2, 0.0), (0.8, 2.0, 0.0)])
        name = "replay_assess" if replay else "rule_based_assess"
        with mock.patch.object(scenario_runner, name, wraps=getattr(scenario_runner, name)) as spy:
            report = run_scenario(load_scenario(path))
        assert [(r.rounds, r.stop) for r in report.conditions] == [(1, "converged")] * 3
        assert spy.call_count == 3


def _drop_provenance(files):
    del files["report"]["conditions"][0]["assessment"]["provenance"]


def _total_cost_off_its_cells(files):
    files["report"]["conditions"][0]["path"]["total_cost"] *= 0.5


def _zones_as_list(files):
    files["scenario"]["activity_zones"] = [["watching", 4.0, 0.5]]


def _missing_human_target(files):
    files["scenario"]["human"]["spatial_relations"] = [["sitting on", "ghost"]]


def _fixture_cost_below_one(files):
    files["fixtures"]["assessments"]["bedroom/no_human"]["armchair"]["cost"] = 0.5


def _path_cell_off_the_map(files):
    files["report"]["conditions"][0]["path"]["cells"][-1] = [60, 2]  # the map is 60 x 50 cells


def _resolution_too_fine(files):
    files["scenario"]["map"]["resolution"] = 1e-5  # 3e11 cells over 6 x 5 m


def _entry_cost_text(files):
    files["report"]["conditions"][0]["assessment"]["entries"]["bed"]["cost"] = "x"


def _entry_ghost(cost):
    def mutate(files):
        entries = files["report"]["conditions"][0]["assessment"]["entries"]
        entries["ghost"] = {"cost": cost, "clearance": 0.0}

    mutate.__name__ = f"_entry_ghost_at_cost_{cost:g}"
    return mutate


def _path_cell_too_short(files):
    files["report"]["conditions"][0]["path"]["cells"] = [[1]]


def _rounds_text(files):
    files["report"]["conditions"][0]["rounds"] = "a"


def _stats_as_list(files):
    files["report"]["conditions"][0]["stats"] = []


def _conditions_as_object(files):
    files["report"]["conditions"] = {}


def _map_bounds_of_three(files):
    files["report"]["map"]["bounds"] = [[0.0, 0.0, 7.0], [6.0, 5.0]]


def _map_resolution_nan(files):
    files["report"]["map"]["resolution"] = float("nan")


def _resolution_coarser_than_map(files):
    files["scenario"]["map"]["resolution"] = 1e10


def _report_resolution_coarser_than_map(files):
    files["report"]["map"]["resolution"] = 7.0  # the map is 6 x 5 m


def _spatial_relations_as_number(files):
    files["scenario"]["human"]["spatial_relations"] = 5


def _activity_relations_null(files):
    files["scenario"]["human"]["activity_relations"] = None


def _max_attempts_true(files):
    files["scenario"]["assessor"]["max_attempts"] = True


def _human_extent_zero(files):
    files["scenario"]["human"]["bbox_extent"] = [0.5, 0.0, 0.9]


def _distance_to_human_edited(files):
    files["report"]["conditions"][0]["stats"]["min_distance_to_human_m"] = 99.0


def _relevant_ghosts(files):
    files["report"]["conditions"][0]["relevant"] = ["ghost", "nobody"]


def _relevant_repeats(files):
    relevant = files["report"]["conditions"][0]["relevant"]
    relevant.append(relevant[0])


def _zone_verb_misspelt(files):
    files["scenario"]["activity_zones"] = {"wathcing": [4.0, 0.5]}


def _zone_verb_empty(files):
    files["scenario"]["activity_zones"] = {"": [4.0, 0.5]}


def _waypoint_off_the_map(files):
    files["scenario"]["waypoints"] = [[0.8, 2.0, 0.0], [100.0, 2.0, 0.0]]  # the map is 6 x 5 m


def _conditions_repeat(files):
    files["scenario"]["conditions"] = ["no_human", "human_with_relations", "no_human"]


def _report_conditions_repeat(files):
    files["report"]["conditions"].append(files["report"]["conditions"][0])


def _transcript_surrogate(files):
    files["report"]["conditions"][0]["assessment"]["provenance"]["transcript"] = [["user", "a\ud800b"]]


def _parameters_surrogate(files):
    files["report"]["conditions"][0]["assessment"]["provenance"]["parameters"]["scenario_key"] = "\ud800"


def _parameters_as_list(files):
    files["report"]["conditions"][0]["assessment"]["provenance"]["parameters"] = []


def _one_condition(files):
    files["scenario"]["conditions"] = ["no_human"]


def _two_conditions(files):
    files["scenario"]["conditions"] = ["no_human", "human_with_relations"]


def _no_fixtures(files):
    files["scenario"]["assessor"] = {"kind": "rules"}


def _fixture_lacks_the_bed(files):
    del files["fixtures"]["assessments"]["bedroom/no_human"]["bed"]


def _fixture_lacks_no_human(files):
    del files["fixtures"]["assessments"]["bedroom/no_human"]


def _fixture_unknown_keys(files):
    files["fixtures"]["extra_top"] = 1
    files["fixtures"]["assessments"]["bedroom/no_human"]["bed"]["note"] = "x"


def _waypoints_far_up(files):
    files["scenario"]["waypoints"] = [[0.5, 0.5, 0.0], [0.5, 0.5, 1e9]]
    files["scenario"]["assessor"] = {"kind": "rules"}


def _waypoints_empty(files):
    files["scenario"]["waypoints"] = []


def _zone_cost_below_one(files):
    files["scenario"]["activity_zones"] = {"watching": [0.5, 0.5]}


def _max_attempts_zero(files):
    files["scenario"]["assessor"]["max_attempts"] = 0


def _fixture_file_missing(files):
    files["scenario"]["assessor"]["fixtures"] = "missing.json"


def _unchanged(files):
    pass


def _scene_file_missing(files):
    files["scenario"]["scene"] = "nowhere.json"


def _condition_number(files):
    files["scenario"]["conditions"] = [5]


def _condition_empty(files):
    files["scenario"]["conditions"] = [""]


def _condition_control(files):
    files["scenario"]["conditions"] = ["\u0001"]


def _report_condition_object(files):
    files["report"]["conditions"][0]["condition"] = {}


def _report_condition_unknown(files):
    files["report"]["conditions"][0]["condition"] = "nobody"


def _fixture_costs_at_float_max(files):
    for entries in files["fixtures"]["assessments"].values():
        for object_id in entries:
            entries[object_id] = {"cost": 1.7e308, "clearance": 5.0}


def _query_radius_zero(files):
    files["scenario"]["query_radius_m"] = 0


def _assessor_kind_oracle(files):
    files["scenario"]["assessor"]["kind"] = "oracle"


def _scenario_not_utf8(files):
    files["scenario"] = b"\xff" + json.dumps(files["scenario"]).encode()


def _zone_verb_reading(files):
    zone = {"verb": "reading", "human": "human", "target": "tv", "cost": 4.0, "clearance": 0.5}
    files["report"]["conditions"][2]["zones"] = [zone]


def _transcript_unpaired(files):
    files["report"]["conditions"][0]["assessment"]["provenance"]["transcript"] = [["user"]]


def _map_of_coarse_terameters(files):
    files["scenario"]["map"] = {"bounds": [[0.0, 0.0], [1e12, 1e12]], "resolution": 1e9}
    files["scenario"]["goal"] = [1e12, 1e12]
    files["scenario"]["assessor"] = {"kind": "rules"}


def _map_finer_than_normal(files):
    files["scenario"]["map"] = {"bounds": [[0, 0], [1e-197, 1e-197]], "resolution": 1e-200}


def _report_map_finer_than_normal(files):
    files["report"]["map"] = {"bounds": [[0, 0], [1e-197, 1e-197]], "resolution": 1e-200}


def _conditions_empty(files):
    files["scenario"]["conditions"] = []


def _spatial_relation_of_three(files):
    files["scenario"]["human"]["spatial_relations"] = [["sitting on", "bed", "x"]]


def _report_zones_as_object(files):
    files["report"]["conditions"][0]["zones"] = {}


def _nodes_as_object(files):
    files["scene"]["nodes"] = {}


def _relations_number(files):
    files["scene"]["relations"] = 5


def _map_bounds_as_object(files):
    files["scenario"]["map"]["bounds"] = {"min": [0.0, 0.0], "max": [6.0, 5.0]}


def _map_bounds_one_corner(files):
    files["scenario"]["map"]["bounds"] = [[0.0, 0.0]]


def _map_bounds_three_corners(files):
    files["report"]["map"]["bounds"] = [[0.0, 0.0], [6.0, 5.0], [7.0, 7.0]]


def _preferences_text(files):
    files["scenario"]["preferences"] = "quiet"


def _stop_unknown(files):
    files["report"]["conditions"][0]["stop"] = "done"


def _stop_number(files):
    files["report"]["conditions"][0]["stop"] = 5


def _map_bounds_swapped(files):
    files["scenario"]["map"]["bounds"] = [[6.0, 5.0], [0.0, 0.0]]


def _zone_target_on_the_human(files):
    nodes = {n["id"]: n for n in files["report"]["scene"]["nodes"]}
    nodes["tv"]["bbox_center"] = list(nodes["human"]["bbox_center"])
    zone = {"verb": "watching", "human": "human", "target": "tv", "cost": 2.0, "clearance": 0.5}
    files["report"]["conditions"][2]["zones"] = [zone]


def _parameters_control_in_list(files):
    files["report"]["conditions"][0]["assessment"]["provenance"]["parameters"]["notes"] = ["\u0001"]


_INPUTS = {
    "scene": "bedroom_scene.json",
    "fixtures": "bedroom_assessments.json",
    "scenario": "bedroom_scenario.json",
    "report": "bedroom_report.json",
}


def _write_inputs(tmp_path, mutate):
    """Write the shipped inputs into ``tmp_path`` after ``mutate`` edits them;
    ``mutate`` may replace a document by the bytes to write."""
    files = {k: json.loads((DATA_DIR / name).read_text()) for k, name in _INPUTS.items()}
    mutate(files)
    for key, name in _INPUTS.items():
        data = files[key]
        data = data if isinstance(data, bytes) else json.dumps(data).encode()
        (tmp_path / name).write_bytes(data)


class TestMalformedInputs:
    """Each malformed input ends with exit 1 and exactly one "error: <path>: ..." line."""

    @pytest.mark.parametrize(
        "command, mutate, line",
        [
            ("render", _drop_provenance,
             'conditions[0].assessment: missing required field "provenance"'),
            ("render", _total_cost_off_its_cells,
             "conditions[0].path.total_cost: differs from the total_cost of its cells,"
             " 5.040985246679991"),
            ("plan", _zones_as_list,
             "activity_zones: expected an object mapping activity verbs to [cost, clearance]"),
            ("plan", _missing_human_target,
             'human: human relation target "ghost" does not name a node'),
            ("plan", _fixture_cost_below_one,
             'condition "no_human", stage "load": '
             "assessments['bedroom/no_human']['armchair'].cost: cost 0.5 must be >= 1"),
            ("render", _path_cell_off_the_map,
             "conditions[0].path: cell (60, 2) lies outside the costmap"),
            ("plan", _resolution_too_fine,
             "map.resolution: resolution 1e-05 gives a 600000 x 500000 cell grid;"
             " at most 1,000,000 cells are allowed"),
            ("render", _entry_cost_text,
             "conditions[0].assessment.entries['bed'].cost: expected a number, got str"),
            ("render", _entry_ghost(1.0),
             'conditions[0].assessment.entries: unknown object id "ghost"'),
            ("render", _entry_ghost(2.0),
             'conditions[0].assessment.entries: unknown object id "ghost"'),
            ("render", _path_cell_too_short,
             "conditions[0].path.cells: expected a non-empty list of 2-integer lists >= 0"),
            ("render", _rounds_text, "conditions[0].rounds: expected an integer, got str"),
            ("render", _stats_as_list, "conditions[0].stats: expected an object, got list"),
            ("render", _conditions_as_object,
             "conditions: expected a non-empty list of condition objects"),
            ("render", _map_bounds_of_three, "map.bounds[0]: expected a list of 2 numbers"),
            ("render", _map_resolution_nan, "map.resolution: number must be finite"),
            ("plan", _resolution_coarser_than_map,
             "map.resolution: resolution 10000000000.0 is coarser than the map"),
            ("render", _report_resolution_coarser_than_map,
             "map.resolution: resolution 7.0 is coarser than the map"),
            ("plan", _spatial_relations_as_number,
             "human.spatial_relations: expected a list of [verb, target id] pairs"),
            ("assess", _activity_relations_null,
             "human.activity_relations: expected a list of [verb, target id] pairs"),
            ("compare", _spatial_relations_as_number,
             "human.spatial_relations: expected a list of [verb, target id] pairs"),
            ("plan", _max_attempts_true, "assessor.max_attempts: expected an integer, got bool"),
            ("plan", _human_extent_zero,
             'human: node "human" has bbox_extent (0.5, 0.0, 0.9); every component must be > 0'),
            ("render", _distance_to_human_edited,
             "conditions[0].stats.min_distance_to_human_m: differs from its path's distance"
             " to a human, 1.1999999999999997"),
            ("render", _relevant_ghosts,
             "conditions[0].relevant: ids differ from those of assessment.entries"),
            ("render", _relevant_repeats, "conditions[0].relevant: an id repeats"),
            ("plan", _zone_verb_misspelt,
             "activity_zones['wathcing']: "
             'no activity relation of the scene has the verb "wathcing"'),
            ("assess", _zone_verb_misspelt,
             "activity_zones['wathcing']: "
             'no activity relation of the scene has the verb "wathcing"'),
            ("plan", _zone_verb_empty, "activity_zones['']: must be non-empty"),
            ("plan", _waypoint_off_the_map,
             "waypoints[1]: waypoints[1] [100.0, 2.0, 0.0] lies outside map.bounds"),
            ("assess", _waypoint_off_the_map,
             "waypoints[1]: waypoints[1] [100.0, 2.0, 0.0] lies outside map.bounds"),
            ("compare", _conditions_repeat, 'conditions[2]: condition "no_human" repeats'),
            ("plan", _conditions_repeat, 'conditions[2]: condition "no_human" repeats'),
            ("assess", _conditions_repeat, 'conditions[2]: condition "no_human" repeats'),
            ("render", _report_conditions_repeat,
             'conditions[3].condition: condition "no_human" repeats'),
            ("render", _transcript_surrogate,
             "conditions[0].assessment.provenance.transcript[0]:"
             " holds U+D800, which no report or SVG can carry"),
            ("render", _parameters_surrogate,
             "conditions[0].assessment.provenance.parameters:"
             " holds U+D800, which no report or SVG can carry"),
            ("plan", _waypoints_empty, "waypoints: expected a non-empty list of [x, y, z] points"),
            ("plan", _zone_cost_below_one,
             "activity_zones['watching'].cost: cost 0.5 must be >= 1"),
            ("plan", _max_attempts_zero, "assessor.max_attempts: must be >= 1"),
            ("plan", _fixture_file_missing,
             'condition "no_human", stage "load":'
             " assessor.fixtures: fixture file not found: <tmp>/missing.json"),
            ("plan", _scene_file_missing, "scene: scene file not found: <tmp>/nowhere.json"),
            ("assess", _scene_file_missing, "scene: scene file not found: <tmp>/nowhere.json"),
            ("plan", _condition_number, "conditions[0]: expected a string, got int"),
            ("plan", _condition_empty, "conditions[0]: must be non-empty"),
            ("plan", _condition_control,
             "conditions[0]: holds U+0001, which no report or SVG can carry"),
            ("render", _report_condition_object,
             "conditions[0].condition: expected a string, got dict"),
            ("render", _report_condition_unknown,
             'conditions[0].condition: unknown condition "nobody"'
             " (valid: no_human, human_no_relations, human_with_relations)"),
            ("plan", _fixture_costs_at_float_max,
             'condition "no_human", stage "plan": no path from start to goal'),
            ("plan", _query_radius_zero, "query_radius_m: query_radius_m must be > 0"),
            ("plan", _assessor_kind_oracle,
             'assessor.kind: unknown assessor kind "oracle" (valid: rules, llm, replay)'),
            ("plan --assessor llm", _unchanged,
             'condition "no_human", stage "setup":'
             " llm assessor needs assessor.model in the scenario"),
            ("plan", _scenario_not_utf8,
             "$: scenario document is not valid UTF-8:"
             " 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ("render", _zone_verb_reading,
             'conditions[2].zones[0]: the scene has no activity "reading" from "human" to "tv"'),
            ("render", _transcript_unpaired,
             "conditions[0].assessment.provenance.transcript:"
             " expected a list of [role, text] string pairs"),
            ("plan", _map_finer_than_normal,
             "map.resolution: resolution 1e-200 squares to below the smallest normal float"),
            ("render", _report_map_finer_than_normal,
             "map.resolution: resolution 1e-200 squares to below the smallest normal float"),
            ("plan", _conditions_empty, "conditions: expected a non-empty list of condition names"),
            ("plan", _spatial_relation_of_three,
             "human.spatial_relations[0]: expected a [verb, target id] pair"),
            ("render", _report_zones_as_object, "conditions[0].zones: expected a list of zone objects"),
            ("validate", _nodes_as_object, "nodes: expected a list of node objects"),
            ("validate", _relations_number, "relations: expected a list of relation objects"),
            ("plan", _map_bounds_as_object, "map.bounds: expected [[xmin, ymin], [xmax, ymax]]"),
            ("plan", _map_bounds_one_corner, "map.bounds: expected [[xmin, ymin], [xmax, ymax]]"),
            ("render", _map_bounds_three_corners, "map.bounds: expected [[xmin, ymin], [xmax, ymax]]"),
            ("plan", _preferences_text, "preferences: expected a list of strings"),
            ("render", _stop_unknown,
             'conditions[0].stop: unknown stop "done" (valid: converged, max_rounds)'),
            ("render", _stop_number, "conditions[0].stop: expected a string, got int"),
            ("plan", _map_bounds_swapped,
             "map.bounds: bounds must span a non-degenerate rectangle"),
            ("render", _zone_target_on_the_human,
             "conditions[2].zones[0]: human and target footprints share a center"),
            ("render", _parameters_control_in_list,
             "conditions[0].assessment.provenance.parameters:"
             " holds U+0001, which no report or SVG can carry"),
            ("render", _parameters_as_list, "conditions[0].assessment.provenance.parameters: expected an object"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_one_error_line(self, tmp_path, capsys, command, mutate, line):
        _write_inputs(tmp_path, mutate)
        command, *options = command.split()
        target = _INPUTS[{"render": "report", "validate": "scene"}.get(command, "scenario")]
        out = ["-o", str(tmp_path / "out")] if command == "render" else []
        assert main([command, str(tmp_path / target), *out, *options]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {line.replace('<tmp>', str(tmp_path))}"
        ]

    def test_strict_refuses_a_scenario_key(self, tmp_path, capsys):
        def scenario_key(files):
            files["scenario"]["assessor"]["scenario_key"] = "bedroom"

        _write_inputs(tmp_path, scenario_key)
        assert main(["--strict", "plan", str(tmp_path / _INPUTS["scenario"])]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: assessor: unknown field(s): scenario_key"]

    def test_repeated_condition_flag(self, capsys):
        scenario = str(DATA_DIR / _INPUTS["scenario"])
        assert main(["assess", scenario, "--condition", "no_human", "--condition", "no_human"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ['error: --condition: condition "no_human" repeats']

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compare_needs_two_conditions(self, tmp_path, capsys, fmt):
        _write_inputs(tmp_path, _one_condition)
        assert main(["compare", str(tmp_path / _INPUTS["scenario"]), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: conditions: compare needs at least 2 conditions, got 1"
        ]

    def test_compare_runs_on_two_conditions(self, tmp_path, capsys):
        _write_inputs(tmp_path, _two_conditions)
        assert main(["compare", str(tmp_path / _INPUTS["scenario"]), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["conditions"]
        assert [row["condition"] for row in rows] == ["no_human", "human_with_relations"]

    @pytest.mark.parametrize(
        "mutate, stage, reason",
        [
            (_no_fixtures, "setup", "replay assessor needs assessor.fixtures in the scenario"),
            (_fixture_cost_below_one, "load",
             "assessments['bedroom/no_human']['armchair'].cost: cost 0.5 must be >= 1"),
            (_fixture_lacks_the_bed, "assess", "assessor \"replay\": missing ids: ['bed']"),
            (_fixture_lacks_no_human, "assess",
             'assessor "replay": no recorded assessment for "bedroom/no_human"'),
        ],
        ids=["setup", "load", "assess-missing-id", "assess-missing-key"],
    )
    @pytest.mark.parametrize("command", ["assess", "plan", "compare"])
    def test_condition_failure_line(self, tmp_path, capsys, command, mutate, stage, reason):
        """``assess``, ``plan`` and ``compare`` name the failed condition and stage alike."""
        _write_inputs(tmp_path, mutate)
        assert main([command, str(tmp_path / _INPUTS["scenario"]), "--assessor", "replay"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f'error: condition "no_human", stage "{stage}": {reason}'
        ]

    @pytest.mark.parametrize("command", ["assess", "plan"])
    def test_strict_reaches_the_fixture_file(self, tmp_path, capsys, command):
        _write_inputs(tmp_path, _fixture_unknown_keys)
        scenario = str(tmp_path / _INPUTS["scenario"])
        assert main(["--strict", command, scenario]) == 1
        assert capsys.readouterr().err.splitlines() == [
            'error: condition "no_human", stage "load": $: unknown field(s): extra_top'
        ]
        # The fixture file is read once per condition; each warning prints once.
        assert main([command, scenario]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: $: unknown field(s): extra_top",
            "warning: assessments['bedroom/no_human']['bed']: unknown field(s): note",
        ]

    @pytest.mark.parametrize(
        "mutate, count",
        [(_waypoints_far_up, "4e+09"), (_map_of_coarse_terameters, "5.65685e+12")],
    )
    @pytest.mark.parametrize("command", ["assess", "plan"])
    def test_trajectory_over_the_cap(self, tmp_path, capsys, command, mutate, count):
        """A relevance trajectory far over ``MAX_WAYPOINTS`` is refused from its
        count, before anything is allocated."""
        _write_inputs(tmp_path, mutate)
        assert main([command, str(tmp_path / _INPUTS["scenario"])]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f'error: condition "no_human", stage "setup": the trajectory densifies to {count}'
            " waypoints at 0.25 m; at most 1,000,000 are allowed"
        ]


def _relation(name, head, tail, kind="spatial"):
    return {"name": name, "head": head, "tail": tail, "kind": kind}


def _bed_extent_zero(files):
    files["scene"]["nodes"][1]["bbox_extent"] = [1.6, 0.0, 0.6]


def _relation_to_ghost(files):
    files["scene"]["relations"].append(_relation("on", "bed", "ghost"))


def _relation_repeated(files):
    files["scene"]["relations"].append(dict(files["scene"]["relations"][0]))


def _relation_self_loop(files):
    files["scene"]["relations"].append(_relation("on", "bed", "bed"))


def _activity_from_armchair(files):
    files["scene"]["relations"].append(_relation("watching", "armchair", "tv", "activity"))


def _human_id_taken(files):
    files["scenario"]["human"]["id"] = "bed"


def _human_relation_to_a_human(files):
    guest = dict(files["scene"]["nodes"][0], id="guest", tag="human")
    files["scene"]["nodes"].append(guest)
    files["scenario"]["human"]["spatial_relations"] = [["next to", "guest"]]


_SCENE_BREAKS = [
    (_bed_extent_zero,
     'nodes[1].bbox_extent: node "bed" has bbox_extent (1.6, 0.0, 0.6); every component must be > 0'),
    (_relation_to_ghost, 'relations[1].tail: relation (on, bed, ghost) references unknown id "ghost"'),
    (_relation_repeated, "relations[1]: duplicate relation triple ('next to', 'wardrobe', 'tv')"),
    (_relation_self_loop, 'relations[1]: relation "on" must connect two distinct nodes'),
    (_activity_from_armchair,
     'relations[1].head: activity relation "watching" originates at "armchair" (tag "armchair"), '
     "not at a human node"),
]
_HUMAN_BREAKS = [
    (_human_extent_zero,
     'human: node "human" has bbox_extent (0.5, 0.0, 0.9); every component must be > 0'),
    (_human_id_taken, 'human: node id "bed" already exists in the scene'),
    (_missing_human_target, 'human: human relation target "ghost" does not name a node'),
    (_human_relation_to_a_human, 'human: human relation target "guest" must be a non-human node'),
]


class TestRuleBreakLines:
    """A broken scene rule ends in the exact "error:" line of its first break."""

    @pytest.mark.parametrize(
        "command, mutate, line",
        [(c, m, line) for m, line in _SCENE_BREAKS for c in ("validate", "plan")]
        + [("plan", m, line) for m, line in _HUMAN_BREAKS],
        ids=[f"{m.__name__}-{c}" for m, _ in _SCENE_BREAKS for c in ("validate", "plan")]
        + [f"{m.__name__}-plan" for m, _ in _HUMAN_BREAKS],
    )
    def test_error_line(self, tmp_path, capsys, command, mutate, line):
        _write_inputs(tmp_path, mutate)
        target = _INPUTS["scene"] if command == "validate" else _INPUTS["scenario"]
        assert main([command, str(tmp_path / target)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]


class TestUnwritableStrings:
    """A string no report or SVG can carry is refused where it is read."""

    @pytest.mark.parametrize(
        "tag, code", [("\ud800", "D800"), ("a\u0001b", "0001"), ("\uffff", "FFFF")]
    )
    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_tag_is_one_error_line(self, tmp_path, capsys, command, tag, code):
        def bad_tag(files):
            files["scene"]["nodes"][0]["tag"] = tag

        _write_inputs(tmp_path, bad_tag)  # json.dumps writes the tag as \u escapes
        target = _INPUTS["scene"] if command == "validate" else _INPUTS["scenario"]
        out = tmp_path / "r.json"
        argv = [command, str(tmp_path / target)] + (["-o", str(out)] if command == "plan" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: nodes[0].tag: holds U+{code}, which no report or SVG can carry"
        ]
        assert not out.exists()


class TestUnwritableLlmReply:
    def test_plan_refuses_the_reply_before_it_is_recorded(self, tmp_path, capsys, monkeypatch):
        """A reply the report's transcript cannot carry ends ``plan`` with one
        error line, though a valid reply would follow it."""
        recorded = json.loads((DATA_DIR / "bedroom_assessments.json").read_text())
        entries = recorded["assessments"]["bedroom/no_human"]
        valid = json.dumps({"assessments": [{"object_id": k, **v} for k, v in entries.items()]})
        replies = ["\ud800 not json", valid]

        class FakeTransport:
            def __init__(self, model):
                self.model = model

            def __call__(self, messages):
                return replies.pop(0)

        def llm_no_human(files):
            files["scenario"]["assessor"] = {"kind": "llm", "model": "fake"}
            files["scenario"]["conditions"] = ["no_human"]

        monkeypatch.setattr(scenario_runner, "HttpChatTransport", FakeTransport)
        _write_inputs(tmp_path, llm_no_human)
        out = tmp_path / "r.json"
        assert main(["plan", str(tmp_path / _INPUTS["scenario"]), "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            'error: condition "no_human", stage "assess": assessor "llm": '
            "reply holds U+D800, which no report or SVG can carry"
        ]
        assert not out.exists()


class TestUnreadableInputs:
    """Input files that cannot be parsed or opened, and outputs that cannot be
    written, end with exit 1 and one "error:" line, not a traceback."""

    @pytest.mark.parametrize(
        "command, what", [("validate", "scene"), ("plan", "scenario"), ("render", "report")]
    )
    def test_missing_file(self, tmp_path, capsys, command, what):
        missing = tmp_path / "missing.json"
        out = ["-o", str(tmp_path / "out.svg")] if command == "render" else []
        assert main([command, str(missing), *out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: $: {what} file not found: {missing}"]

    @pytest.mark.parametrize(
        "command, what", [("validate", "scene"), ("plan", "scenario"), ("render", "report")]
    )
    def test_deeply_nested_json(self, tmp_path, capsys, command, what):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        out = ["-o", str(tmp_path / "out.svg")] if command == "render" else []
        assert main([command, str(deep), *out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: $: {what} document is nested too deeply to parse"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{dir}"],
            ["render", "{dir}", "-o", "{dir}/out.svg"],
            ["plan", SCENARIO, "-o", "{dir}"],
            ["plan", "{dir}"],
        ],
        ids=["validate", "render", "plan-o", "plan"],
    )
    def test_directory_is_one_error_line(self, tmp_path, capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {tmp_path}: Is a directory"]

    def test_scene_that_is_a_directory(self, tmp_path, capsys):
        def scene_is_a_directory(files):
            files["scenario"]["scene"] = "rooms"

        _write_inputs(tmp_path, scene_is_a_directory)
        (tmp_path / "rooms").mkdir()
        assert main(["plan", str(tmp_path / _INPUTS["scenario"])]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {tmp_path / 'rooms'}: Is a directory"]
