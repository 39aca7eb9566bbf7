from __future__ import annotations

import json
import shutil

import pytest

from socioplan.cli import main
from socioplan.cost_assessment import entries_to_dict
from socioplan.human_augmentation import Condition
from socioplan.planner import iterate_plan
from socioplan.scenario_runner import build_assessor, load_base_scene, load_scenario, run_scenario

from conftest import DATA_DIR

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

    def test_strict_rejects_unknown_keys(self, tmp_path, capsys):
        document = json.loads((DATA_DIR / "bedroom_scene.json").read_text())
        document["extra"] = 1
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(document))
        assert main(["--strict", "validate", str(path)]) == 1
        assert "extra" in capsys.readouterr().err


def _waypoint_scenario(tmp_path, replay=False):
    """The shipped scenario with the rules assessor, or its own replay one,
    and a trajectory hugging the bed: only the bed (and the human attached
    to it) is in range."""
    for name in ("bedroom_scene.json", "bedroom_assessments.json"):
        shutil.copy(DATA_DIR / name, tmp_path)
    document = json.loads((DATA_DIR / "bedroom_scenario.json").read_text())
    document["waypoints"] = [[0.8, 2.4, 0.0], [1.0, 2.4, 0.0]]
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

    def test_condition_filter(self, capsys):
        assert main(["assess", SCENARIO, "--condition", "no_human"]) == 0
        out = capsys.readouterr().out
        assert "no_human" in out and "with_relations" not in out

    def test_explicit_waypoints_are_used(self, tmp_path, capsys):
        path = _waypoint_scenario(tmp_path)
        assert main(["assess", str(path), "--condition", "human_with_relations",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload["conditions"][0]["entries"]
        assert set(entries) == {"bed", "human"}


def _first_round(scenario, condition, **kwargs):
    return iterate_plan(
        load_base_scene(scenario),
        condition,
        scenario.start,
        scenario.goal,
        scenario.query_radius_m,
        build_assessor(scenario, condition, scenario.assessor.kind),
        bounds=scenario.bounds,
        resolution=scenario.resolution,
        preferences=scenario.preferences,
        activity_zones=dict(scenario.activity_zones),
        max_rounds=1,
        **kwargs,
    )


class TestWaypointsSeedRoundOne:
    """``waypoints`` seed round 1 of ``assess`` and of ``plan`` alike."""

    def test_assess_prints_round_one_of_plan(self, tmp_path, capsys):
        path = _waypoint_scenario(tmp_path)
        assert main(["assess", str(path), "--format", "json"]) == 0
        printed = {c["condition"]: c["entries"] for c in json.loads(capsys.readouterr().out)["conditions"]}
        scenario = load_scenario(path)
        for condition in scenario.conditions:
            first = _first_round(scenario, condition, waypoints=scenario.waypoints)
            assert entries_to_dict(first.assessment.entries) == printed[condition.value]
        assert set(printed["no_human"]) == {"bed"}
        # The straight start-goal segment would have assessed the armchair too.
        straight = _first_round(scenario, scenario.conditions[0])
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
        first = _first_round(scenario, Condition.NO_HUMAN, waypoints=scenario.waypoints)
        assert entries_to_dict(first.assessment.entries) == {"bed": {"cost": 1.0, "clearance": 0.5}}
        assert main(["plan", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestPlanCommand:
    @pytest.mark.parametrize("goal", [[6.0, 5.0], [6.0, 0.2], [3.4, 5.0], [0.0, 0.0]])
    def test_goal_on_the_map_edge_plans(self, tmp_path, capsys, goal):
        def goal_on_edge(files):
            files["scenario"]["goal"] = goal

        _write_inputs(tmp_path, goal_on_edge)
        assert main(["plan", str(tmp_path / _INPUTS["scenario"]), "--assessor", "rules"]) == 0
        assert capsys.readouterr().err == ""

    def test_text_summary(self, capsys):
        assert main(["plan", SCENARIO]) == 0
        out = capsys.readouterr().out
        for condition in ("no_human", "human_no_relations", "human_with_relations"):
            assert condition in out

    def test_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["plan", SCENARIO, "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenario"] == "bedroom"
        assert len(payload["conditions"]) == 3


class TestCompareCommand:
    def test_text_table(self, capsys):
        assert main(["compare", SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "Human w/ relations" in out
        assert "10 (2)" in out

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
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 3
        assert "Human w/ relations" in svg

    def test_missing_report(self, capsys):
        assert main(["render", "missing.json", "-o", "/tmp/x.svg"]) == 1
        assert "not found" in capsys.readouterr().err


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


def _one_condition(files):
    files["scenario"]["conditions"] = ["no_human"]


def _no_fixtures(files):
    files["scenario"]["assessor"] = {"kind": "rules"}


def _fixture_lacks_the_bed(files):
    del files["fixtures"]["assessments"]["bedroom/no_human"]["bed"]


def _fixture_lacks_no_human(files):
    del files["fixtures"]["assessments"]["bedroom/no_human"]


_INPUTS = {
    "scene": "bedroom_scene.json",
    "fixtures": "bedroom_assessments.json",
    "scenario": "bedroom_scenario.json",
    "report": "bedroom_report.json",
}


def _write_inputs(tmp_path, mutate):
    """Write the shipped inputs into ``tmp_path`` after ``mutate`` edits them."""
    files = {k: json.loads((DATA_DIR / name).read_text()) for k, name in _INPUTS.items()}
    mutate(files)
    for key, name in _INPUTS.items():
        (tmp_path / name).write_text(json.dumps(files[key]))


class TestMalformedInputs:
    """Each malformed input ends with exit 1 and one "error: <path>: ..." line."""

    @pytest.mark.parametrize(
        "command, mutate, where",
        [
            ("render", _drop_provenance, "conditions[0].assessment"),
            ("render", _total_cost_off_its_cells, "conditions[0].path.total_cost"),
            ("plan", _zones_as_list, "activity_zones"),
            ("plan", _missing_human_target, "human"),
            ("plan", _fixture_cost_below_one, "['bedroom/no_human']['armchair'].cost"),
            ("render", _path_cell_off_the_map, "conditions[0].path"),
            ("plan", _resolution_too_fine, "map.resolution"),
            ("render", _entry_cost_text, "conditions[0].assessment.entries['bed'].cost"),
            ("render", _path_cell_too_short, "conditions[0].path.cells"),
            ("render", _rounds_text, "conditions[0].rounds"),
            ("render", _stats_as_list, "conditions[0].stats"),
            ("render", _conditions_as_object, "conditions"),
            ("render", _map_bounds_of_three, "map.bounds[0]"),
            ("render", _map_resolution_nan, "map.resolution"),
            ("plan", _resolution_coarser_than_map, "map.resolution"),
            ("render", _report_resolution_coarser_than_map, "map.resolution"),
            ("plan", _spatial_relations_as_number, "human.spatial_relations"),
            ("assess", _activity_relations_null, "human.activity_relations"),
            ("compare", _spatial_relations_as_number, "human.spatial_relations"),
            ("plan", _max_attempts_true, "assessor.max_attempts"),
            ("plan", _human_extent_zero, "human"),
            ("render", _distance_to_human_edited, "conditions[0].stats.min_distance_to_human_m"),
            ("render", _relevant_ghosts, "conditions[0].relevant"),
            ("render", _relevant_repeats, "conditions[0].relevant"),
            ("plan", _zone_verb_misspelt, "activity_zones['wathcing']"),
            ("assess", _zone_verb_misspelt, "activity_zones['wathcing']"),
            ("plan", _zone_verb_empty, "activity_zones['']"),
            ("plan", _waypoint_off_the_map, "waypoints[1]"),
            ("assess", _waypoint_off_the_map, "waypoints[1]"),
            ("compare", _conditions_repeat, "conditions[2]"),
            ("plan", _conditions_repeat, "conditions[2]"),
            ("assess", _conditions_repeat, "conditions[2]"),
            ("render", _report_conditions_repeat, "conditions[3].condition"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_one_error_line(self, tmp_path, capsys, command, mutate, where):
        _write_inputs(tmp_path, mutate)
        target = _INPUTS["report"] if command == "render" else _INPUTS["scenario"]
        out = ["-o", str(tmp_path / "out")] if command == "render" else []
        assert main([command, str(tmp_path / target), *out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{where}: " in err[0]

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


class TestUnreadableInputs:
    """Input files that cannot be parsed or opened, and outputs that cannot be
    written, end with exit 1 and one "error:" line, not a traceback."""

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
