from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socioplan.jsonio import FormatError, canonical_json, finite_number, parse_document, string
from socioplan.render import _xml_text


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


_TEXT = st.text() | st.sampled_from(
    [", ", "a, b", '"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "é ß 中文 😀", " "]
)
_NUMBERS = st.integers(min_value=-(2**80), max_value=2**80) | st.floats()
_SCALARS = st.none() | st.booleans() | _NUMBERS | _TEXT
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(_NUMBERS, max_size=5)
    | st.dictionaries(_TEXT, children, max_size=5),
    max_leaves=40,
)


class TestCanonicalJson:
    @settings(max_examples=200, deadline=None)
    @given(value=_VALUES)
    def test_matches_indented_stdlib_dump(self, value):
        assert canonical_json(value) == _reference(value)

    def test_edge_values(self):
        cases = [
            [],
            {},
            [[], {}, ()],
            [1.0, -0.0, 5e-324, 1e-05, 1e16, float("nan"), float("inf"), float("-inf")],
            [True, False, None, 1, 2**64 + 1],
            ["a, b", 1],
            {"b": [1, [2, 3.5]], "a": {"c, d": (1.5,)}},
            (1, (2, 3), ("x", "y, z")),
            "text only",
            -(2**100),
        ]
        for value in cases:
            assert canonical_json(value) == _reference(value)

    def test_subclasses_follow_isinstance(self):
        value = {"f": np.float64(0.1), "row": [np.float64(1.5), 2.0], "flag": [True, 1]}
        assert canonical_json(value) == _reference(value)
        assert '"flag": [\n    true,\n    1\n  ]' in canonical_json(value)

    def test_scalar_keys_are_written_as_the_stdlib_writes_them(self):
        for value in ({1: "a", 2: "b"}, {1.5: 0, -2.0: 1}, {True: 1, False: 0}, {None: 1}):
            assert canonical_json(value) == _reference(value)
        for writer in (canonical_json, _reference):
            with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
                writer({(1, 2): 0})


class TestReaders:
    def test_integer_over_the_digit_limit_is_a_format_error(self):
        with pytest.raises(FormatError, match="not valid JSON"):
            parse_document("1" * 5000, what="document")

    def test_integer_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(FormatError, match="must be finite"):
            finite_number(10**400, "x")

    @pytest.mark.parametrize(
        "value, code",
        [("\ud800", "D800"), ("x\udfff", "DFFF"), ("\x00", "0000"), ("a\x1fb", "001F"),
         ("\x0b", "000B"), ("\ufffe", "FFFE"), ("ok \uffff", "FFFF")],
    )
    def test_string_refuses_what_a_report_or_svg_cannot_carry(self, value, code):
        with pytest.raises(FormatError) as info:
            string(value, "nodes[0].tag")
        assert str(info.value) == f"nodes[0].tag: holds U+{code}, which no report or SVG can carry"

    @pytest.mark.parametrize(
        "value", ["bed", "a\tb", "a\nb\r", "caf\u00e9", "a\x7fb", "\U0001f600", "\ufffd", "R&D <shelf>"]
    )
    def test_string_keeps_every_other_character(self, value):
        assert string(value, "tag") == value
        canonical_json(value).encode("utf-8")
        ET.fromstring(f"<t>{_xml_text(value)}</t>")  # XML 1.0 can carry it
