from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, strategies as st

from socioplan import (
    Assessment,
    Condition,
    CostClearance,
    ObjectNode,
    Relation,
    RelationKind,
    Trajectory,
    derive_condition_variant,
    induce_partial_graph,
    insert_human,
    load_assessment_fixtures,
    load_scene,
    relevant_objects,
    rule_based_assess,
    replay_assess,
)
from socioplan.cost_assessment import (
    CoverageError,
    FixtureKeyError,
    Provenance,
    ResponseFormatError,
    RetriesExhaustedError,
    RetryPolicy,
    TransportError,
    ValueOutOfRangeError,
    assess,
    build_prompt,
    check_entries,
    llm_assess,
    parse_assessment,
    serialize_fixtures,
)
from socioplan.scene_graph import SceneGraph

from conftest import GOLDEN_DIR, make_seated_human_spec, make_small_scene

RELEVANT = ("bed", "human", "armchair")

VALID_RESPONSE = json.dumps(
    {
        "assessments": [
            {"object_id": "bed", "cost": 3, "clearance": 1.5},
            {"object_id": "human", "cost": 5, "clearance": 2},
            {"object_id": "armchair", "cost": 1, "clearance": 0},
        ]
    }
)


# The rules model's entry table. Each case: scene, relevant ids in the order
# asked (never sorted, so the dict order is pinned too), and the entries the
# rules give, in that order. The values are written out, not imported.
_ARMCHAIR = ObjectNode("armchair", "armchair", (3.0, 1.0, 0.45), (0.8, 0.8, 0.9), affordances={"sit"})
_LARGE_BED = ObjectNode("bed", "bed", (1.0, 3.8, 0.3), (1.0, 1.5, 0.6))  # 1.5 m2: just large
_SMALL_BED = ObjectNode("cot", "bed", (4.5, 3.8, 0.3), (1.0, 1.2, 0.5))
_STOOL = ObjectNode("stool", "stool", (2.0, 2.0, 0.3), (0.4, 0.4, 0.5), affordances={"sit"})
_SOFA = ObjectNode("sofa", "sofa", (5.0, 1.0, 0.4), (2.0, 0.9, 0.8))
_TV = ObjectNode("tv", "tv", (3.0, 4.85, 1.2), (1.2, 0.2, 0.7), affordances={"watch"})
_HUMAN_1 = ObjectNode("human_1", "human", (1.0, 3.5, 0.75), (0.5, 0.5, 0.9))
_HUMAN_2 = ObjectNode("human_2", "human", (4.0, 1.0, 0.9), (0.5, 0.5, 1.8))
_SITS_ON_BED = Relation("sitting on", "human_1", "bed", RelationKind.SPATIAL)
_WATCHES_TV = Relation("watching", "human_1", "tv", RelationKind.ACTIVITY)
_FREE = CostClearance(1.0, 0.0)

RULES_TABLE = {
    "no_human": (
        SceneGraph(
            nodes=[_LARGE_BED, _TV, _ARMCHAIR],
            relations=[Relation("next to", "armchair", "bed", RelationKind.SPATIAL)],
        ),
        ("tv", "armchair", "bed"),
        [("tv", _FREE), ("armchair", _FREE), ("bed", _FREE)],
    ),
    "human_without_relations": (
        SceneGraph(nodes=[_HUMAN_1, _ARMCHAIR, _LARGE_BED, _SMALL_BED, _STOOL, _TV], relations=[]),
        ("cot", "armchair", "human_1", "tv", "bed", "stool"),
        [
            ("cot", CostClearance(3.0, 1.0)),
            ("armchair", CostClearance(3.0, 1.0)),
            ("human_1", CostClearance(10.0, 2.0)),
            ("tv", _FREE),
            ("bed", CostClearance(2.0, 0.5)),
            ("stool", CostClearance(3.0, 1.0)),
        ],
    ),
    "human_sitting_and_watching": (
        SceneGraph(
            nodes=[_HUMAN_1, _LARGE_BED, _TV, _ARMCHAIR, _SOFA],
            relations=[_SITS_ON_BED, _WATCHES_TV],
        ),
        ("sofa", "tv", "human_1", "armchair", "bed"),
        [
            ("sofa", _FREE),
            ("tv", CostClearance(2.0, 1.0)),
            ("human_1", CostClearance(5.0, 2.0)),
            ("armchair", _FREE),
            ("bed", CostClearance(3.0, 1.5)),
        ],
    ),
    "human_only_watching": (
        SceneGraph(nodes=[_HUMAN_1, _LARGE_BED, _TV, _ARMCHAIR], relations=[_WATCHES_TV]),
        ("armchair", "human_1", "bed", "tv"),
        [
            ("armchair", _FREE),
            ("human_1", CostClearance(5.0, 2.0)),
            ("bed", _FREE),
            ("tv", CostClearance(2.0, 1.0)),
        ],
    ),
    "one_human_seated_one_without_relations": (
        SceneGraph(nodes=[_HUMAN_1, _HUMAN_2, _LARGE_BED, _ARMCHAIR, _TV], relations=[_SITS_ON_BED]),
        ("human_2", "armchair", "bed", "human_1", "tv"),
        [
            ("human_2", CostClearance(5.0, 2.0)),
            ("armchair", _FREE),
            ("bed", CostClearance(3.0, 1.5)),
            ("human_1", CostClearance(5.0, 2.0)),
            ("tv", _FREE),
        ],
    ),
}


def scripted_transport(replies):
    """Canned transport: pops one reply per call, recording requests."""
    queue = list(replies)
    calls = []

    def transport(messages):
        calls.append([dict(m) for m in messages])
        if not queue:
            raise TransportError("transcript exhausted")
        return queue.pop(0)

    transport.calls = calls
    transport.model = "canned"
    return transport


@pytest.fixture
def partial_and_trajectory():
    graph = insert_human(make_small_scene(), make_seated_human_spec())
    trajectory = Trajectory(((0.8, 2.0, 0.0), (3.4, 0.2, 0.0)))
    ids = relevant_objects(graph, trajectory, 1.5)
    partial = induce_partial_graph(graph, ids)
    return partial, trajectory


class TestParseAssessment:
    def test_valid_response(self):
        assessment = parse_assessment(VALID_RESPONSE, RELEVANT)
        assert assessment.entries == {
            "bed": CostClearance(3.0, 1.5),
            "human": CostClearance(5.0, 2.0),
            "armchair": CostClearance(1.0, 0.0),
        }

    def test_cost_below_one_names_the_object(self):
        response = json.dumps(
            {"assessments": [{"object_id": "bed", "cost": 0.5, "clearance": 0}]}
        )
        with pytest.raises(ValueOutOfRangeError, match="bed") as info:
            parse_assessment(response, ("bed",))
        assert info.value.field_name == "cost"
        assert info.value.value == 0.5

    def test_negative_clearance_rejected(self):
        response = json.dumps(
            {"assessments": [{"object_id": "bed", "cost": 2, "clearance": -0.1}]}
        )
        with pytest.raises(ValueOutOfRangeError, match="clearance"):
            parse_assessment(response, ("bed",))

    def test_missing_object_listed_in_coverage_error(self):
        response = json.dumps(
            {
                "assessments": [
                    {"object_id": "bed", "cost": 3, "clearance": 1.5},
                    {"object_id": "human", "cost": 5, "clearance": 2},
                ]
            }
        )
        with pytest.raises(CoverageError) as info:
            parse_assessment(response, RELEVANT)
        assert info.value.missing == ("armchair",)
        assert info.value.extra == ()

    def test_extra_object_listed_in_coverage_error(self):
        response = json.dumps(
            {"assessments": [{"object_id": "lamp", "cost": 2, "clearance": 1}]}
        )
        with pytest.raises(CoverageError) as info:
            parse_assessment(response, ())
        assert info.value.extra == ("lamp",)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (RELEVANT + ("ghost",), "extra ids: ['ghost']"),
            (("bed", "human", "ghost"), "missing ids: ['armchair']; extra ids: ['ghost']"),
        ],
        ids=["extra", "missing_and_extra"],
    )
    def test_coverage_error_text(self, ids, message):
        response = json.dumps(
            {"assessments": [{"object_id": i, "cost": 2, "clearance": 1} for i in ids]}
        )
        with pytest.raises(CoverageError) as info:
            parse_assessment(response, RELEVANT)
        assert str(info.value) == message

    def test_garbage_is_a_format_error(self):
        with pytest.raises(ResponseFormatError, match="not valid JSON"):
            parse_assessment("I think the bed should cost about three.", RELEVANT)

    def test_unexpected_top_level_keys_rejected(self):
        response = json.dumps({"assessments": [], "note": "hi"})
        with pytest.raises(ResponseFormatError) as info:
            parse_assessment(response, ())
        assert str(info.value) == "$: unknown field(s): note"

    @pytest.mark.parametrize(
        "response, message",
        [
            ("[1]", "$: expected an object, got list"),
            ("{}", '$: missing required field "assessments"'),
            ("not json", "$: response is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["list", "no_assessments", "not_json"],
    )
    def test_reply_error_names_the_root_path(self, response, message):
        with pytest.raises(ResponseFormatError) as info:
            parse_assessment(response, ())
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "assessments, message",
        [
            ({"bed": {"cost": 2, "clearance": 1}},
             "assessments: expected a list of assessment objects"),
            ([{"object_id": "bed", "cost": 2}],
             'assessments[0]: missing required field "clearance"'),
            ([{"object_id": "", "cost": 2, "clearance": 1}],
             "assessments[0].object_id: must be non-empty"),
            ([{"object_id": "bed", "cost": 2, "clearance": 1, "why": "near"}],
             "assessments[0]: unknown field(s): why"),
            ([5], "assessments[0]: expected an object, got int"),
            ([{"object_id": 7, "cost": 2, "clearance": 1}],
             "assessments[0].object_id: expected a string, got int"),
            ([{"object_id": "\u0001", "cost": 2, "clearance": 1}],
             "assessments[0].object_id: holds U+0001, which no report or SVG can carry"),
            ([{"object_id": "bed", "cost": 2, "clearance": 1}] * 2,
             'assessments[1].object_id: duplicate object_id "bed"'),
        ],
        ids=["not_a_list", "missing_key", "empty_object_id", "extra_key", "item_not_object",
             "object_id_number", "object_id_control", "duplicate_object_id"],
    )
    def test_malformed_item_is_a_format_error(self, assessments, message):
        response = json.dumps({"assessments": assessments})
        with pytest.raises(ResponseFormatError) as info:
            parse_assessment(response, ("bed",))
        assert str(info.value) == message

    def test_duplicate_object_id_rejected(self):
        response = json.dumps(
            {
                "assessments": [
                    {"object_id": "bed", "cost": 2, "clearance": 1},
                    {"object_id": "bed", "cost": 3, "clearance": 1},
                ]
            }
        )
        with pytest.raises(ResponseFormatError, match="duplicate"):
            parse_assessment(response, ("bed",))

    def test_boolean_cost_rejected(self):
        response = json.dumps(
            {"assessments": [{"object_id": "bed", "cost": True, "clearance": 1}]}
        )
        with pytest.raises(ResponseFormatError, match="number"):
            parse_assessment(response, ("bed",))

    @pytest.mark.parametrize(
        "cost, message",
        [
            ("9" * 401, "finite"),  # beyond the float range
            ("9" * 5000, "not valid JSON"),  # beyond the integer digit limit of json.loads
            ("NaN", "finite"),
            ("-Infinity", "finite"),
        ],
        ids=["401_digits", "5000_digits", "nan", "minus_infinity"],
    )
    def test_unreadable_number_is_a_format_error(self, cost, message):
        response = '{"assessments": [{"object_id": "bed", "cost": %s, "clearance": 1}]}' % cost
        with pytest.raises(ResponseFormatError, match=message):
            parse_assessment(response, ("bed",))

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(ResponseFormatError, match="nested too deeply"):
            parse_assessment("[" * 200_000, RELEVANT)


class TestBuildPrompt:
    def test_matches_reviewed_golden_snapshot(self, data_dir):
        from socioplan import load_scene
        from socioplan.scenario_runner import load_scenario

        scenario = load_scenario(data_dir / "bedroom_scenario.json")
        scene = load_scene(scenario.scene_path().read_bytes())
        graph = insert_human(scene, scenario.human)
        trajectory = Trajectory(
            (
                (scenario.start[0], scenario.start[1], 0.0),
                (scenario.goal[0], scenario.goal[1], 0.0),
            )
        )
        ids = relevant_objects(graph, trajectory, scenario.query_radius_m)
        partial = induce_partial_graph(graph, ids)
        prompt = build_prompt(partial, trajectory, scenario.preferences)
        golden = (GOLDEN_DIR / "prompt_bedroom.txt").read_text(encoding="utf-8")
        assert prompt == golden

    def test_contains_contract_and_all_ids(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        prompt = build_prompt(partial, trajectory, [])
        assert "greater than or equal to 1" in prompt
        assert "greater than or equal to 0" in prompt
        for node_id in partial.nodes:
            assert node_id in prompt

    def test_empty_scene_prompt(self):
        prompt = build_prompt(SceneGraph(nodes={}), Trajectory(((0, 0, 0),)), [])
        assert "OBJECTS\n(none)" in prompt

    def test_byte_stable(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        assert build_prompt(partial, trajectory, ["p"]) == build_prompt(partial, trajectory, ["p"])


class TestLlmAssess:
    def test_valid_on_first_attempt(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        transport = scripted_transport([VALID_RESPONSE])
        assessment = llm_assess(transport, partial, trajectory, RELEVANT, [])
        assert assessment.provenance.assessor == "llm"
        assert assessment.provenance.attempts == 1
        assert assessment.entries["human"] == CostClearance(5.0, 2.0)

    def test_garbage_then_valid_takes_two_attempts(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        transport = scripted_transport(["not json at all", VALID_RESPONSE])
        assessment = llm_assess(transport, partial, trajectory, RELEVANT, [])
        assert assessment.provenance.attempts == 2
        # second request must carry the validation feedback
        second_call = transport.calls[1]
        assert any("invalid" in m["content"] for m in second_call if m["role"] == "user")
        roles = [role for role, _ in assessment.provenance.transcript]
        assert roles == ["user", "assistant", "user", "assistant"]

    def test_transcript_is_what_was_sent(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        extra_key = VALID_RESPONSE.replace('"clearance": 1.5}', '"clearance": 1.5, "why": "near"}', 1)
        transport = scripted_transport(["not json", extra_key, VALID_RESPONSE])
        assessment = llm_assess(transport, partial, trajectory, RELEVANT, [])
        turns = [{"role": role, "content": text} for role, text in assessment.provenance.transcript]
        assert len(transport.calls) == 3
        for k, request in enumerate(transport.calls, 1):
            assert request == turns[: 2 * k - 1]
        assert turns == transport.calls[-1] + [{"role": "assistant", "content": VALID_RESPONSE}]
        first_feedback, second_feedback = turns[2]["content"], turns[4]["content"]
        assert "invalid: $: response is not valid JSON: " in first_feedback
        assert "invalid: assessments[0]: unknown field(s): why. " in second_feedback

    def test_hostile_then_valid_takes_two_attempts(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        hostile = VALID_RESPONSE.replace('"cost": 3', '"cost": ' + "9" * 401)
        transport = scripted_transport([hostile, VALID_RESPONSE])
        assessment = llm_assess(transport, partial, trajectory, RELEVANT, [])
        assert assessment.provenance.attempts == 2
        assert assessment.entries["bed"] == CostClearance(3.0, 1.5)

    def test_three_garbage_replies_exhaust_retries(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        transport = scripted_transport(["a", "b", "c"])
        with pytest.raises(RetriesExhaustedError) as info:
            llm_assess(transport, partial, trajectory, RELEVANT, [], RetryPolicy(max_attempts=3))
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, ResponseFormatError)

    def test_zero_attempts_rejected(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        transport = scripted_transport([VALID_RESPONSE])
        with pytest.raises(ValueError) as info:
            llm_assess(transport, partial, trajectory, RELEVANT, [], RetryPolicy(0))
        assert str(info.value) == "max_attempts must be >= 1"
        assert transport.calls == []

    def test_a_reply_that_is_not_text_is_a_transport_error(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        with pytest.raises(TransportError) as info:
            llm_assess(lambda messages: 5, partial, trajectory, RELEVANT, [])
        assert str(info.value) == "transport must return text, got int"

    def test_transport_errors_are_not_retried(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory

        def failing(messages):
            raise TransportError("connection refused")

        with pytest.raises(TransportError, match="connection refused"):
            llm_assess(failing, partial, trajectory, RELEVANT, [])

    @pytest.mark.parametrize("bad, code", [("\ud800", "D800"), ("\x01", "0001"), ("\uffff", "FFFF")])
    def test_a_reply_no_report_can_carry_is_not_retried(self, partial_and_trajectory, bad, code):
        partial, trajectory = partial_and_trajectory
        transport = scripted_transport([bad + " not json", VALID_RESPONSE])
        with pytest.raises(TransportError) as info:
            llm_assess(transport, partial, trajectory, RELEVANT, [])
        assert str(info.value) == f"reply holds U+{code}, which no report or SVG can carry"
        assert len(transport.calls) == 1

    def test_never_returns_out_of_range_values(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        bad = json.dumps(
            {"assessments": [
                {"object_id": i, "cost": 0.2, "clearance": 0} for i in RELEVANT
            ]}
        )
        transport = scripted_transport([bad, bad, bad])
        with pytest.raises(RetriesExhaustedError):
            llm_assess(transport, partial, trajectory, RELEVANT, [])

    def test_exhausted_retries_name_the_last_error(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        low = json.dumps({"assessments": [{"object_id": "bed", "cost": 0.5, "clearance": 0}]})
        transport = scripted_transport([low, low])
        with pytest.raises(RetriesExhaustedError) as info:
            llm_assess(transport, partial, trajectory, ("bed",), [], RetryPolicy(max_attempts=2))
        assert str(info.value) == (
            'no valid assessment after 2 attempt(s): cost for "bed" is 0.5, must be >= 1'
        )


class TestRuleBasedAssess:
    def run_condition(self, condition):
        graph = insert_human(make_small_scene(), make_seated_human_spec())
        variant = derive_condition_variant(graph, condition)
        trajectory = Trajectory(((0.8, 2.0, 0.0), (3.4, 0.2, 0.0)))
        ids = relevant_objects(variant, trajectory, 1.5)
        partial = induce_partial_graph(variant, ids)
        assessed = ids + tuple(i for i in sorted(partial.nodes) if i not in set(ids))
        return rule_based_assess(partial, trajectory, assessed, [])

    def test_with_relations_releases_armchair_and_human_dominates(self):
        assessment = self.run_condition(Condition.HUMAN_WITH_RELATIONS)
        entries = assessment.entries
        assert entries["armchair"] == CostClearance(1.0, 0.0)
        for object_id, cc in entries.items():
            if object_id != "human_1":
                assert entries["human_1"].cost > cc.cost

    def test_no_relations_inflates_armchair(self):
        with_relations = self.run_condition(Condition.HUMAN_WITH_RELATIONS)
        without = self.run_condition(Condition.HUMAN_NO_RELATIONS)
        assert without.entries["armchair"].cost > with_relations.entries["armchair"].cost

    def test_no_human_costs_stay_low(self):
        assessment = self.run_condition(Condition.NO_HUMAN)
        assert "human_1" not in assessment.entries
        assert {cc.cost for cc in assessment.entries.values()} <= {1.0, 2.0}

    def test_deterministic(self):
        first = self.run_condition(Condition.HUMAN_WITH_RELATIONS)
        second = self.run_condition(Condition.HUMAN_WITH_RELATIONS)
        assert first == second

    def test_preference_keywords_never_lower_human_cost(self):
        graph = insert_human(make_small_scene(), make_seated_human_spec())
        trajectory = Trajectory(((0.8, 2.0, 0.0),))
        ids = tuple(sorted(graph.nodes))
        partial = induce_partial_graph(graph, ids)
        plain = rule_based_assess(partial, trajectory, ids, [])
        preferred = rule_based_assess(
            partial, trajectory, ids, ["Don't disturb anyone watching a football match"]
        )
        assert preferred.entries["human_1"].cost >= plain.entries["human_1"].cost

    @pytest.mark.parametrize("scene, relevant, expected", RULES_TABLE.values(), ids=RULES_TABLE.keys())
    def test_entry_table(self, scene, relevant, expected):
        assessment = rule_based_assess(scene, Trajectory(((0.0, 0.0, 0.0),)), relevant, [])
        assert list(assessment.entries.items()) == expected
        assert assessment.provenance == Provenance(assessor="rules")

    @given(
        seed_ids=st.sets(st.sampled_from(["bed", "tv", "armchair"]), min_size=1),
        with_human=st.booleans(),
        prefs=st.lists(st.sampled_from(["", "don't disturb", "watching tv"]), max_size=2),
    )
    def test_output_always_validates(self, seed_ids, with_human, prefs):
        graph = make_small_scene()
        if with_human:
            graph = insert_human(graph, make_seated_human_spec())
        ids = tuple(sorted(seed_ids))
        partial = induce_partial_graph(graph, ids)
        assessed = ids + tuple(i for i in sorted(partial.nodes) if i not in set(ids))
        assessment = rule_based_assess(partial, Trajectory(((0, 0, 0),)), assessed, prefs)
        check_entries(assessment.entries, assessed)


class TestReplayAssess:
    @pytest.fixture
    def store(self, data_dir):
        return load_assessment_fixtures((data_dir / "bedroom_assessments.json").read_bytes())

    def test_with_relations_row(self, store):
        assessment = replay_assess(
            store, "bedroom", Condition.HUMAN_WITH_RELATIONS, ("armchair", "bed", "human")
        )
        assert assessment.entries == {
            "bed": CostClearance(3.0, 1.5),
            "human": CostClearance(5.0, 2.0),
            "armchair": CostClearance(1.0, 0.0),
        }

    def test_no_relations_row(self, store):
        assessment = replay_assess(
            store, "bedroom", Condition.HUMAN_NO_RELATIONS, ("armchair", "bed", "human")
        )
        assert assessment.entries == {
            "bed": CostClearance(2.0, 0.5),
            "human": CostClearance(10.0, 2.0),
            "armchair": CostClearance(3.0, 1.0),
        }

    def test_no_human_row(self, store):
        assessment = replay_assess(store, "bedroom", Condition.NO_HUMAN, ("armchair", "bed"))
        assert assessment.entries == {
            "bed": CostClearance(1.0, 0.5),
            "armchair": CostClearance(2.0, 1.5),
        }

    def test_missing_key_names_it(self, store):
        with pytest.raises(FixtureKeyError, match="kitchen/no_human"):
            replay_assess(store, "kitchen", Condition.NO_HUMAN, ())

    def test_fixture_round_trip(self, store):
        assert load_assessment_fixtures(serialize_fixtures(store)) == store

    def test_answers_the_ids_asked_for_in_recorded_order(self, store, data_dir):
        recorded = list(store["bedroom/human_with_relations"])
        asked = list(reversed(recorded[1:]))
        assessment = replay_assess(store, "bedroom", Condition.HUMAN_WITH_RELATIONS, asked)
        assert list(assessment.entries) == recorded[1:]
        scene = load_scene((data_dir / "bedroom_scene.json").read_bytes())
        trajectory = Trajectory(((0.8, 2.4, 0.0), (1.0, 2.4, 0.0)))

        def replay(partial, trajectory, relevant, preferences):
            return replay_assess(store, "bedroom", Condition.NO_HUMAN, relevant)

        assert assess(replay, scene, trajectory, ["bed"], []).entries == {"bed": CostClearance(1.0, 0.5)}
        # The no_human recording holds the armchair and the bed, not the tv.
        with pytest.raises(CoverageError, match=r"^missing ids: \['tv'\]$"):
            assess(replay, scene, trajectory, ["bed", "tv"], [])


class TestCheckEntries:
    def table_entries(self):
        return {
            "bed": CostClearance(3.0, 1.5),
            "human": CostClearance(5.0, 2.0),
            "armchair": CostClearance(1.0, 0.0),
        }

    def test_valid_entries_pass(self):
        check_entries(self.table_entries(), RELEVANT)

    def test_negative_clearance_raises(self):
        with pytest.raises(ValueOutOfRangeError) as info:
            check_entries({"bed": CostClearance(2.0, -0.1)}, ("bed",))
        assert (info.value.object_id, info.value.field_name) == ("bed", "clearance")

    def test_extra_id_raises(self):
        entries = self.table_entries()
        entries["lamp"] = CostClearance(2.0, 0.0)
        with pytest.raises(CoverageError) as info:
            check_entries(entries, RELEVANT)
        assert (info.value.missing, info.value.extra) == ((), ("lamp",))


class TestAssessPort:
    def test_lets_the_assessors_own_error_through(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        relevant = tuple(sorted(partial.nodes))
        error = TransportError("endpoint down")

        def broken(partial, trajectory, relevant, preferences):
            raise error

        with pytest.raises(TransportError) as info:
            assess(broken, partial, trajectory, relevant, [])
        assert info.value is error

    def test_invalid_output_is_a_coverage_error(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        relevant = tuple(sorted(partial.nodes))

        def empty(partial, trajectory, relevant, preferences):
            return Assessment(entries={}, provenance=Provenance(assessor="empty"))

        with pytest.raises(CoverageError) as info:
            assess(empty, partial, trajectory, relevant, [])
        assert info.value.missing == relevant

    def test_out_of_range_entry_is_a_value_error(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        relevant = tuple(sorted(partial.nodes))

        def out_of_range(partial, trajectory, relevant, preferences):
            entries = {i: CostClearance(1.0, 0.0) for i in relevant}
            entries[relevant[0]] = CostClearance(0.5, 0.0)
            return Assessment(entries=entries, provenance=Provenance(assessor="test"))

        with pytest.raises(ValueOutOfRangeError) as info:
            assess(out_of_range, partial, trajectory, relevant, [])
        assert (info.value.object_id, info.value.field_name) == (relevant[0], "cost")

    def test_empty_relevant_set_gives_empty_assessment(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        assessment = assess(rule_based_assess, partial, trajectory, (), [])
        assert assessment.entries == {}

    def test_relevant_must_be_subset_of_partial(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        with pytest.raises(ValueError) as info:
            assess(rule_based_assess, partial, trajectory, ("ghost",), [])
        assert str(info.value) == "relevant ids not in the partial graph: ['ghost']"


class _Reply:
    """What ``urlopen`` returns: a context manager with ``read``."""

    def __init__(self, body: bytes) -> None:
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def read(self) -> bytes:
        return self.body


class TestHttpChatTransport:
    URL = "http://llm.invalid/v1/chat/completions"

    def transport(self, monkeypatch, urlopen):
        import urllib.request

        from socioplan.cost_assessment import HttpChatTransport

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        return HttpChatTransport(model="m", url=self.URL, api_key="k", timeout_s=5.0)

    def test_good_reply_returns_the_content(self, monkeypatch):
        seen = {}

        def urlopen(request, timeout):
            seen.update(request=request, timeout=timeout)
            return _Reply(json.dumps({"choices": [{"message": {"content": "hi"}}]}).encode())

        transport = self.transport(monkeypatch, urlopen)
        assert transport([{"role": "user", "content": "q"}]) == "hi"
        request = seen["request"]
        assert request.full_url == self.URL and request.get_method() == "POST"
        assert request.get_header("Authorization") == "Bearer k"
        assert json.loads(request.data) == {
            "model": "m", "messages": [{"role": "user", "content": "q"}]
        }
        assert seen["timeout"] == 5.0

    def test_http_error_status_is_a_transport_error(self, monkeypatch):
        import urllib.error

        def urlopen(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", {}, None)

        with pytest.raises(TransportError, match="503"):
            self.transport(monkeypatch, urlopen)([])

    def test_timeout_is_a_transport_error(self, monkeypatch):
        def urlopen(request, timeout):
            raise TimeoutError("timed out")

        with pytest.raises(TransportError, match="timed out"):
            self.transport(monkeypatch, urlopen)([])

    def test_repr_does_not_print_the_key(self):
        from socioplan.cost_assessment import HttpChatTransport

        transport = HttpChatTransport(model="m", api_key="sk-secret")
        for shown in (transport, functools.partial(llm_assess, transport, policy=RetryPolicy(2))):
            assert "sk-secret" not in repr(shown) and "model='m'" in repr(shown)

    def test_no_endpoint_is_a_transport_error(self, monkeypatch):
        from socioplan.cost_assessment import LLM_URL_ENV, HttpChatTransport

        monkeypatch.delenv(LLM_URL_ENV, raising=False)
        with pytest.raises(TransportError) as info:
            HttpChatTransport(model="m")([])
        assert str(info.value) == "no LLM endpoint configured; set SOCIOPLAN_LLM_URL"

    def test_url_without_a_scheme_is_a_transport_error(self):
        from socioplan.cost_assessment import HttpChatTransport

        with pytest.raises(TransportError, match="unknown url type"):
            HttpChatTransport(model="m", url="llm.invalid/v1")([])

    @pytest.mark.parametrize(
        "body",
        [b'{"choices": []}', b"<html>", b'{"choices": [{}]}', b"[" * 200_000],
        ids=["no_choice", "html", "no_message", "deep"],
    )
    def test_malformed_body_is_a_transport_error(self, monkeypatch, body):
        transport = self.transport(monkeypatch, lambda request, timeout: _Reply(body))
        with pytest.raises(TransportError, match="malformed completion response"):
            transport([])
