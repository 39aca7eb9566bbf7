from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from socioplan.jsonio import (
    FormatError,
    canonical_json,
    choice,
    finite_number,
    items,
    keyed,
    parse_document,
    string,
)
from socioplan.render import _xml_text


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


class TestItems:
    def test_each_item_comes_with_its_path(self):
        assert list(items(["a", 2], "p", "a pair", 2)) == [("a", "p[0]"), (2, "p[1]")]
        assert list(items([], "p", "a list")) == []

    @pytest.mark.parametrize(
        "value, size, nonempty",
        [({}, None, False), ("ab", None, False), (None, 2, False), ([1], 2, False),
         ([1, 2, 3], 2, False), ([], None, True), ([], 2, True)],
    )
    def test_refused_with_what_at_the_path(self, value, size, nonempty):
        with pytest.raises(FormatError) as info:  # on the call, before any item is taken
            items(value, "human.pairs", "a [verb, target id] pair", size, nonempty=nonempty)
        assert str(info.value) == "human.pairs: expected a [verb, target id] pair"


class TestKeyed:
    def test_each_entry_comes_with_its_key_and_path(self):
        assert list(keyed({"bed": 1, "": 2}, "p", "an object")) == [("bed", 1, "p['bed']"), ("", 2, "p['']")]
        assert list(keyed({}, "p", "an object")) == []

    @pytest.mark.parametrize("value", [[], "ab", None, 5])
    def test_refused_with_what_at_the_path(self, value):
        with pytest.raises(FormatError) as info:  # on the call, before any entry is taken
            keyed(value, "activity_zones", "an object mapping verbs")
        assert str(info.value) == "activity_zones: expected an object mapping verbs"


class TestChoice:
    VALID = ("converged", "max_rounds")

    def test_returns_a_valid_name(self):
        assert choice("max_rounds", "stop", "stop", self.VALID) == "max_rounds"

    @pytest.mark.parametrize(
        "value, reason",
        [(5, "expected a string, got int"), (None, "expected a string, got NoneType"),
         ("", "must be non-empty"), ("done", 'unknown stop "done" (valid: converged, max_rounds)'),
         ("Converged", 'unknown stop "Converged" (valid: converged, max_rounds)')],
    )
    def test_refused_at_the_path(self, value, reason):
        with pytest.raises(FormatError) as info:
            choice(value, "conditions[1].stop", "stop", self.VALID)
        assert str(info.value) == f"conditions[1].stop: {reason}"
