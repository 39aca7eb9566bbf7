from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from socioplan import (
    Assessment,
    Condition,
    CostClearance,
    Trajectory,
    assess,
    build_prompt,
    derive_condition_variant,
    induce_partial_graph,
    insert_human,
    llm_assess,
    load_assessment_fixtures,
    load_scene,
    parse_assessment,
    relevant_objects,
    rule_based_assess,
    replay_assess,
)
from socioplan.cost_assessment import (
    AssessorFailure,
    CoverageError,
    FixtureKeyError,
    Provenance,
    ReplayAssessor,
    ResponseFormatError,
    RetriesExhaustedError,
    RetryPolicy,
    RuleAssessor,
    TransportError,
    ValueOutOfRangeError,
    check_entries,
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

    def test_garbage_is_a_format_error(self):
        with pytest.raises(ResponseFormatError, match="not valid JSON"):
            parse_assessment("I think the bed should cost about three.", RELEVANT)

    def test_unexpected_top_level_keys_rejected(self):
        response = json.dumps({"assessments": [], "note": "hi"})
        with pytest.raises(ResponseFormatError, match="single key"):
            parse_assessment(response, ())

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

    def test_transport_errors_are_not_retried(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory

        def failing(messages):
            raise TransportError("connection refused")

        with pytest.raises(TransportError, match="connection refused"):
            llm_assess(failing, partial, trajectory, RELEVANT, [])

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
        assessment = replay_assess(store, "bedroom", Condition.HUMAN_WITH_RELATIONS)
        assert assessment.entries == {
            "bed": CostClearance(3.0, 1.5),
            "human": CostClearance(5.0, 2.0),
            "armchair": CostClearance(1.0, 0.0),
        }

    def test_no_relations_row(self, store):
        assessment = replay_assess(store, "bedroom", Condition.HUMAN_NO_RELATIONS)
        assert assessment.entries == {
            "bed": CostClearance(2.0, 0.5),
            "human": CostClearance(10.0, 2.0),
            "armchair": CostClearance(3.0, 1.0),
        }

    def test_no_human_row(self, store):
        assessment = replay_assess(store, "bedroom", Condition.NO_HUMAN)
        assert assessment.entries == {
            "bed": CostClearance(1.0, 0.5),
            "armchair": CostClearance(2.0, 1.5),
        }

    def test_missing_key_names_it(self, store):
        with pytest.raises(FixtureKeyError, match="kitchen/no_human"):
            replay_assess(store, "kitchen", Condition.NO_HUMAN)

    def test_fixture_round_trip(self, store):
        assert load_assessment_fixtures(serialize_fixtures(store)) == store

    def test_port_answers_the_ids_asked_for(self, store, data_dir):
        scene = load_scene((data_dir / "bedroom_scene.json").read_bytes())
        port = ReplayAssessor(store, "bedroom", Condition.NO_HUMAN)
        trajectory = Trajectory(((0.8, 2.4, 0.0), (1.0, 2.4, 0.0)))
        assert assess(port, scene, trajectory, ["bed"], []).entries == {"bed": CostClearance(1.0, 0.5)}
        # The no_human recording holds the armchair and the bed, not the tv.
        with pytest.raises(AssessorFailure, match=r"missing ids: \['tv'\]$"):
            assess(port, scene, trajectory, ["bed", "tv"], [])


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
    def test_wraps_invalid_output_with_assessor_name(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        relevant = tuple(sorted(partial.nodes))

        class BrokenAssessor:
            name = "broken"

            def __call__(self, partial, trajectory, relevant, preferences):
                return Assessment(entries={}, provenance=Provenance(assessor="broken"))

        with pytest.raises(AssessorFailure, match='assessor "broken"'):
            assess(BrokenAssessor(), partial, trajectory, relevant, [])

    def test_out_of_range_entry_is_an_assessor_failure(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        relevant = tuple(sorted(partial.nodes))

        class OutOfRangeAssessor:
            name = "out_of_range"

            def __call__(self, partial, trajectory, relevant, preferences):
                entries = {i: CostClearance(1.0, 0.0) for i in relevant}
                entries[relevant[0]] = CostClearance(0.5, 0.0)
                return Assessment(entries=entries, provenance=Provenance(assessor="test"))

        with pytest.raises(AssessorFailure, match='assessor "out_of_range"') as info:
            assess(OutOfRangeAssessor(), partial, trajectory, relevant, [])
        assert isinstance(info.value.cause, ValueOutOfRangeError)
        assert (info.value.cause.object_id, info.value.cause.field_name) == (relevant[0], "cost")

    def test_empty_relevant_set_gives_empty_assessment(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        assessment = assess(RuleAssessor(), partial, trajectory, (), [])
        assert assessment.entries == {}

    def test_relevant_must_be_subset_of_partial(self, partial_and_trajectory):
        partial, trajectory = partial_and_trajectory
        with pytest.raises(ValueError, match="ghost"):
            assess(RuleAssessor(), partial, trajectory, ("ghost",), [])


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

        from socioplan import HttpChatTransport

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

    def test_url_without_a_scheme_is_a_transport_error(self):
        from socioplan import HttpChatTransport

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
