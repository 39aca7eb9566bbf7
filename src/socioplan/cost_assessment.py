"""Assessors: map (partial graph, trajectory, preferences) to a validated
per-object (cost, clearance) assessment.

An assessor is any function of (partial graph, trajectory, relevant ids,
preferences) to an Assessment; ``assess`` holds every one to one contract.
Three are provided: an LLM-backed assessor speaking an OpenAI-compatible chat
endpoint, a deterministic rule model, and a replay of recorded fixtures.
Cost is dimensionless and >= 1 (1 = no impact); clearance is meters and >= 0
(0 = no influence beyond the object itself).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from .human_augmentation import Condition
from .jsonio import (
    FormatError,
    canonical_json,
    check_document,
    check_keys,
    finite_number,
    items,
    keyed,
    parse_document,
    plain_numbers,
    string,
    unwritable,
)
from .scene_graph import RelationKind, SceneGraph
from .trajectory_context import Trajectory, render_context_text

FIXTURE_SCHEMA_VERSION = 1

COST_FLOOR = 1.0
CLEARANCE_FLOOR = 0.0


class AssessmentError(Exception):
    """Base class for assessor failures."""


class TransportError(AssessmentError):
    """The completion endpoint could not be reached or answered garbage."""


class ResponseFormatError(AssessmentError):
    """The response was not the required JSON shape."""


class ValueOutOfRangeError(AssessmentError):
    """A cost or clearance value violates its lower bound."""

    def __init__(self, object_id: str, field_name: str, value: float, floor: float) -> None:
        super().__init__(f'{field_name} for "{object_id}" is {value!r}, must be >= {floor:g}')
        self.object_id = object_id
        self.field_name = field_name
        self.value = value


class CoverageError(AssessmentError):
    """The response ids do not match the requested object set exactly."""

    def __init__(self, missing: Iterable[str], extra: Iterable[str]) -> None:
        self.missing = tuple(sorted(missing))
        self.extra = tuple(sorted(extra))
        parts = []
        if self.missing:
            parts.append(f"missing ids: {list(self.missing)}")
        if self.extra:
            parts.append(f"extra ids: {list(self.extra)}")
        super().__init__("; ".join(parts) or "coverage mismatch")


class RetriesExhaustedError(AssessmentError):
    """Every attempt produced an invalid response; carries the last error."""

    def __init__(self, attempts: int, last_error: AssessmentError) -> None:
        super().__init__(f"no valid assessment after {attempts} attempt(s): {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class FixtureKeyError(AssessmentError):
    """Requested scenario/condition pair is absent from the fixture store."""


@dataclass(frozen=True, init=False)
class CostClearance:
    """Impact factor (>= 1, dimensionless) and falloff range (>= 0, meters).
    A report's read builds one per entry, so it stores its fields as
    ``scene_graph.ObjectNode`` does."""

    cost: float
    clearance: float

    def __init__(self, cost: float, clearance: float) -> None:
        fields = self.__dict__
        fields["cost"] = cost
        fields["clearance"] = clearance


def out_of_range(cost: float, clearance: float) -> tuple[str, float, float] | None:
    """(field, value, floor) of the first value that breaks the contract every
    assessment meets (both finite, cost >= 1, clearance >= 0), or None."""
    for name, value, floor in (("cost", cost, COST_FLOOR), ("clearance", clearance, CLEARANCE_FLOOR)):
        if not math.isfinite(value) or value < floor:
            return name, value, floor
    return None


def entries_to_dict(entries: dict[str, CostClearance]) -> dict:
    """JSON form of an assessment's entries, as reports and fixtures store them."""
    return {
        object_id: {"cost": cc.cost, "clearance": cc.clearance}
        for object_id, cc in sorted(entries.items())
    }


def cost_clearance(raw: dict, path: str) -> CostClearance:
    """The ``cost`` and ``clearance`` of a read object; FormatError at the
    first one that ``out_of_range`` flags."""
    cost, clearance = (finite_number(raw[k], f"{path}.{k}") for k in ("cost", "clearance"))
    bad = out_of_range(cost, clearance)
    if bad:
        field_name, value, floor = bad
        raise FormatError(f"{field_name} {value!r} must be >= {floor:g}", f"{path}.{field_name}")
    return CostClearance(cost, clearance)


def entries_from_dict(
    raw_entries: object, path: str, *, strict: bool = False
) -> dict[str, CostClearance]:
    """Read entries written by ``entries_to_dict``; each must pass ``out_of_range``.
    Entries that pass one bulk check (keys exactly cost and clearance, and
    ``plain_numbers`` whose least cost and clearance ``out_of_range`` accepts),
    a sufficient condition only, skip the per-entry reader, the one source of error text and warnings."""
    entries = keyed(raw_entries, path, "an object keyed by object id")
    raws = raw_entries.values()
    if not (
        all(type(raw) is dict and raw.keys() == {"cost", "clearance"} for raw in raws)
        and plain_numbers([value for raw in raws for value in raw.values()])
        and not (raws and out_of_range(min(r["cost"] for r in raws), min(r["clearance"] for r in raws)))
    ):
        for _, raw, entry_path in entries:
            check_keys(raw, required=("cost", "clearance"), optional=(), path=entry_path, strict=strict)
            cost_clearance(raw, entry_path)
    return {i: CostClearance(float(raw["cost"]), float(raw["clearance"])) for i, raw in raw_entries.items()}


@dataclass(frozen=True)
class Provenance:
    assessor: str
    parameters: dict = field(default_factory=dict)
    attempts: int = 1
    transcript: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Assessment:
    """Validated map from object id to (cost, clearance), plus provenance."""

    entries: dict[str, CostClearance]
    provenance: Provenance


Assessor = Callable[[SceneGraph, Trajectory, Sequence[str], Sequence[str]], Assessment]


def check_entries(entries: dict[str, CostClearance], relevant: Iterable[str]) -> None:
    """The contract every assessment meets: ValueOutOfRangeError at the first
    value that ``out_of_range`` flags, CoverageError unless the ids are
    exactly ``relevant``."""
    for object_id, cc in entries.items():
        bad = out_of_range(cc.cost, cc.clearance)
        if bad:
            raise ValueOutOfRangeError(object_id, *bad)
    wanted = set(relevant)
    if set(entries) != wanted:
        raise CoverageError(missing=wanted - set(entries), extra=set(entries) - wanted)


def assess(
    assessor: Assessor,
    partial: SceneGraph,
    trajectory: Trajectory,
    relevant: Sequence[str],
    preferences: Sequence[str],
) -> Assessment:
    """Run an assessor and enforce ``check_entries`` on its output. The
    assessor's own AssessmentError passes through as it was raised."""
    unknown = [i for i in relevant if i not in partial]
    if unknown:
        raise ValueError(f"relevant ids not in the partial graph: {unknown}")
    assessment = assessor(partial, trajectory, relevant, preferences)
    check_entries(assessment.entries, relevant)
    return assessment


# --- prompt and response contract -------------------------------------------

PROMPT_HEADER = """\
You assign navigation impact values to objects near a planned robot
trajectory in a domestic scene. The scene is given as object descriptions
with bounding boxes (meters), affordances, attributes, and relations between
objects, followed by the trajectory waypoints and the user's preferences.

For every object listed under OBJECTS, return:
- "cost": a number greater than or equal to 1. It is the object's impact
  factor on the trajectory; use 1 for objects the robot may treat as
  ordinary free space.
- "clearance": a number greater than or equal to 0, in meters. The object's
  influence fades with distance and vanishes beyond this range; use 0 for
  objects with no influence past their own footprint.

Respond with JSON only, exactly this shape:
{"assessments": [{"object_id": "<id>", "cost": <number>, "clearance": <number>}]}
Include every listed object id exactly once and no others.
"""


def build_prompt(
    partial: SceneGraph, trajectory: Trajectory, preferences: Sequence[str]
) -> str:
    """Deterministic prompt: fixed instruction header + canonical context text."""
    return PROMPT_HEADER + "\n" + render_context_text(partial, trajectory, preferences)


def parse_assessment(response: str, relevant: Iterable[str]) -> Assessment:
    """Read the response with the ``jsonio`` readers, unknown keys refused, then
    enforce ranges and exact coverage with ``check_entries``.

    Raises ResponseFormatError (its text names the JSON path), ValueOutOfRangeError
    or CoverageError; each is distinct so retry policies can react to the failure.
    """
    entries: dict[str, CostClearance] = {}
    keys = ("object_id", "cost", "clearance")
    try:
        data = parse_document(response, what="response")
        check_keys(data, required=("assessments",), optional=(), path="$", strict=True)
        for item, path in items(data["assessments"], "assessments", "a list of assessment objects"):
            check_keys(item, required=keys, optional=(), path=path, strict=True)
            object_id = string(item["object_id"], f"{path}.object_id")
            if object_id in entries:
                raise FormatError(f'duplicate object_id "{object_id}"', f"{path}.object_id")
            entries[object_id] = CostClearance(*(finite_number(item[k], f"{path}.{k}") for k in keys[1:]))
    except FormatError as exc:
        raise ResponseFormatError(str(exc)) from exc
    check_entries(entries, relevant)
    return Assessment(entries=entries, provenance=Provenance(assessor="parse"))


# --- LLM assessor ------------------------------------------------------------

LLM_URL_ENV = "SOCIOPLAN_LLM_URL"
LLM_KEY_ENV = "SOCIOPLAN_LLM_KEY"

DEFAULT_MAX_ATTEMPTS = 3

Transport = Callable[[list[dict]], str]


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = DEFAULT_MAX_ATTEMPTS


@dataclass
class HttpChatTransport:
    """OpenAI-compatible chat-completion transport.

    Endpoint and credential default to the SOCIOPLAN_LLM_URL and
    SOCIOPLAN_LLM_KEY environment variables. Each call builds its own
    request state, so concurrent independent requests are safe.
    """

    model: str
    url: str | None = None
    api_key: str | None = field(default=None, repr=False)
    timeout_s: float = 60.0

    def __call__(self, messages: list[dict]) -> str:
        import http.client
        import urllib.request

        url = self.url or os.environ.get(LLM_URL_ENV)
        if not url:
            raise TransportError(f"no LLM endpoint configured; set {LLM_URL_ENV}")
        key = self.api_key or os.environ.get(LLM_KEY_ENV)
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = json.dumps({"model": self.model, "messages": list(messages)}).encode("utf-8")
        # URLError, HTTPError (an error status) and timeouts are OSErrors; a URL
        # without a scheme is a ValueError.
        try:
            request = urllib.request.Request(url, data=body, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                reply = response.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransportError(str(exc)) from exc
        try:
            return parse_document(reply, what="completion")["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:  # FormatError is a ValueError
            raise TransportError(f"malformed completion response: {exc!r}") from exc


def llm_assess(
    transport: Transport,
    partial: SceneGraph,
    trajectory: Trajectory,
    relevant: Sequence[str],
    preferences: Sequence[str],
    policy: RetryPolicy = RetryPolicy(),
) -> Assessment:
    """Query the LLM and validate its answer, re-querying on invalid responses.

    Each request sends the whole transcript, so the recorded transcript is what
    the model was sent plus its last reply. A retry appends the reply and the
    validation error, which names the JSON path, so the model can repair its
    output. Transport failures are not retried; nor is a reply no report can
    carry, a TransportError. Raises RetriesExhaustedError (carrying the last
    parse error) when every attempt fails validation.
    """
    if policy.max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    transcript: list[tuple[str, str]] = [("user", build_prompt(partial, trajectory, preferences))]
    last_error: AssessmentError | None = None
    for attempt in range(1, policy.max_attempts + 1):
        reply = transport([{"role": role, "content": text} for role, text in transcript])
        if not isinstance(reply, str):
            raise TransportError(f"transport must return text, got {type(reply).__name__}")
        if reason := unwritable(reply):  # the transcript goes into the report
            raise TransportError(f"reply {reason}")
        transcript.append(("assistant", reply))
        try:
            parsed = parse_assessment(reply, relevant)
        except (ResponseFormatError, ValueOutOfRangeError, CoverageError) as exc:
            last_error = exc
            feedback = (
                f"Your previous response was invalid: {exc}. "
                "Respond again with JSON only, in exactly the required shape, "
                "covering every listed object id exactly once."
            )
            transcript.append(("user", feedback))
            continue
        provenance = Provenance(
            assessor="llm",
            parameters={
                "model": getattr(transport, "model", None),
                "max_attempts": policy.max_attempts,
            },
            attempts=attempt,
            transcript=tuple(transcript),
        )
        return replace(parsed, provenance=provenance)
    assert last_error is not None
    raise RetriesExhaustedError(policy.max_attempts, last_error)


# --- rule-based assessor ------------------------------------------------------

HUMAN_PRESENT = CostClearance(5.0, 2.0)
HUMAN_UNEXPLAINED = CostClearance(10.0, 2.0)
SITTABLE_UNEXPLAINED = CostClearance(3.0, 1.0)
LARGE_BED_UNEXPLAINED = CostClearance(2.0, 0.5)
SPATIAL_TARGET = CostClearance(3.0, 1.5)
ACTIVITY_TARGET = CostClearance(2.0, 1.0)
NO_IMPACT = CostClearance(1.0, 0.0)

SITTABLE_TAGS = frozenset({"bed", "armchair", "chair", "sofa"})
SIT_AFFORDANCE = "sit"
LARGE_FOOTPRINT_AREA_M2 = 1.5


def rule_based_assess(
    partial: SceneGraph,
    trajectory: Trajectory,
    relevant: Sequence[str],
    preferences: Sequence[str],
) -> Assessment:
    """Deterministic stand-in assessor.

    Encodes how an engaged human reshapes object impact: a human whose
    placement is unexplained by relations dominates everything sittable,
    while an explained (seated, occupied) human concentrates impact on the
    objects they actually use and releases the rest.

    Rules apply in order, later rules overriding earlier ones:
      1. every object starts at no impact;
      2. human nodes carry elevated impact, dominant (10, 2) when no human
         has a relation;
      3. if humans are present but carry no relations, every sittable object
         is raised, large-footprint beds less so;
      4. targets of a human spatial relation get (3, 1.5); targets of a human
         activity relation get (2, 1).
    Once some human has a relation, rule 3 does not fire, so every sittable
    object that is not a relation target stays at no impact.
    """
    entries = {object_id: NO_IMPACT for object_id in relevant}  # rule 1

    humans = set(partial.human_ids())
    human_relations = [r for r in partial.relations if r.head_id in humans]

    human_entry = HUMAN_PRESENT if human_relations else HUMAN_UNEXPLAINED
    for human_id in humans & entries.keys():  # rule 2
        entries[human_id] = human_entry

    if humans and not human_relations:  # rule 3
        for object_id in relevant:
            node = partial.node(object_id)
            if node.is_human or not (SIT_AFFORDANCE in node.affordances or node.tag in SITTABLE_TAGS):
                continue
            footprint_area = node.bbox_extent[0] * node.bbox_extent[1]
            large_bed = node.tag == "bed" and footprint_area >= LARGE_FOOTPRINT_AREA_M2
            entries[object_id] = LARGE_BED_UNEXPLAINED if large_bed else SITTABLE_UNEXPLAINED

    for rel in human_relations:  # rule 4
        if rel.tail_id not in entries:
            continue
        if rel.kind is RelationKind.SPATIAL:
            entries[rel.tail_id] = SPATIAL_TARGET
        elif rel.kind is RelationKind.ACTIVITY:
            entries[rel.tail_id] = ACTIVITY_TARGET

    return Assessment(entries=entries, provenance=Provenance(assessor="rules"))


# --- replay assessor ----------------------------------------------------------


Fixtures = dict[str, dict[str, CostClearance]]  # entries keyed "<scenario_key>/<condition>"


def load_assessment_fixtures(document: bytes | str, *, strict: bool = False) -> Fixtures:
    data = parse_document(document, what="assessment fixture file")
    check_document(data, FIXTURE_SCHEMA_VERSION, ("assessments",), strict=strict)
    what = "an object keyed by scenario/condition"
    return {
        key: entries_from_dict(raw_entries, path, strict=strict)
        for key, raw_entries, path in keyed(data["assessments"], "assessments", what)
    }


def serialize_fixtures(store: Fixtures) -> str:
    return canonical_json({
        "schema_version": FIXTURE_SCHEMA_VERSION,
        "assessments": {key: entries_to_dict(entries) for key, entries in store.items()},
    })


def replay_assess(
    store: Fixtures, scenario_key: str, condition: Condition, relevant: Iterable[str]
) -> Assessment:
    """The recorded entries of the ``relevant`` ids for a scenario/condition
    pair, in recorded order; an id the recording lacks stays missing."""
    key = f"{scenario_key}/{condition.value}"
    if key not in store:
        raise FixtureKeyError(f'no recorded assessment for "{key}"')
    wanted = set(relevant)
    return Assessment(
        entries={i: e for i, e in store[key].items() if i in wanted},
        provenance=Provenance(
            assessor="replay",
            parameters={"scenario_key": scenario_key, "condition": condition.value},
        ),
    )
