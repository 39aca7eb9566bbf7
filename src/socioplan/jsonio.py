"""Shared JSON document plumbing: canonical serialization and schema errors."""

from __future__ import annotations

import json
import math
import re
import warnings
from itertools import chain
from pathlib import Path
from typing import Any, Collection, Iterable, Iterator


class FormatError(ValueError):
    """A document failed to parse or violates its schema.

    ``path`` locates the offending element inside the document, e.g.
    ``nodes[2].bbox_extent``.
    """

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class UnknownKeyWarning(UserWarning):
    """Unknown key accepted outside strict mode."""


def canonical_json(value: Any) -> str:
    """Serialize with sorted keys and fixed layout; byte-stable for equal values."""
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def read_file(path: Path, kind: str, where: str) -> bytes:
    """The bytes of ``path``; a missing file is a FormatError at ``where``."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{kind} file not found: {path}", where) from None


def parse_document(document: bytes | str, *, what: str) -> Any:
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(document)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError(f"{what} is nested too deeply to parse") from None


def check_keys(
    obj: Any,
    *,
    required: Iterable[str],
    optional: Iterable[str],
    path: str,
    strict: bool,
) -> None:
    """Require ``required`` keys; reject (strict) or warn about unknown ones."""
    if not isinstance(obj, dict):
        raise FormatError(f"expected an object, got {type(obj).__name__}", path)
    for key in required:
        if key not in obj:
            raise FormatError(f'missing required field "{key}"', path)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        message = "unknown field(s): " + ", ".join(unknown)
        if strict:
            raise FormatError(message, path)
        warnings.warn(f"{path}: {message}", UnknownKeyWarning, stacklevel=3)


def check_document(
    data: Any, version: int, required: Iterable[str], optional: Iterable[str] = (), *, strict: bool
) -> None:
    """A document's header: an object's ``schema_version`` (absent reads as ``version``)
    first, so an older document fails on its version, then ``check_keys`` at ``$``."""
    if isinstance(data, dict) and data.get("schema_version", version) != version:
        raise FormatError(
            f"unsupported schema_version {data['schema_version']!r} (expected {version})",
            "$.schema_version",
        )
    check_keys(data, required=required, optional=("schema_version", *optional), path="$", strict=strict)


def finite_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"expected a number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise FormatError("number must be finite", path)
    return number


def integer(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"expected an integer, got {type(value).__name__}", path)
    if value < minimum:
        raise FormatError(f"must be >= {minimum}", path)
    return value


def items(
    value: Any, path: str, what: str, size: int | None = None, *, nonempty: bool = False
) -> Iterator[tuple[Any, str]]:
    """Each item of the list ``value`` with its path ``path[i]``; FormatError ``expected
    <what>`` at ``path`` for a non-list, a length not ``size``, or with ``nonempty`` none."""
    if not isinstance(value, list) or size not in (None, len(value)) or (nonempty and not value):
        raise FormatError(f"expected {what}", path)
    return ((item, f"{path}[{i}]") for i, item in enumerate(value))


def keyed(value: Any, path: str, what: str) -> Iterator[tuple[str, Any, str]]:
    """Each entry of the object ``value`` as (key, item, ``path[key!r]``); FormatError
    ``expected <what>`` at ``path`` for a non-object."""
    if not isinstance(value, dict):
        raise FormatError(f"expected {what}", path)
    return ((key, item, f"{path}[{key!r}]") for key, item in value.items())


def vector(value: Any, path: str, length: int) -> tuple[float, ...]:
    return tuple(finite_number(*c) for c in items(value, path, f"a list of {length} numbers", length))


def index_vectors(value: Any, path: str, length: int) -> tuple[tuple[int, ...], ...]:
    """A non-empty list of ``length``-integer lists, integers >= 0; checked in bulk."""
    rows = value if isinstance(value, list) and set(map(type, value)) <= {list} else []
    items = list(chain.from_iterable(rows)) if set(map(len, rows)) <= {length} else []
    if not items or not set(map(type, items)) <= {int} or min(items) < 0:
        raise FormatError(f"expected a non-empty list of {length}-integer lists >= 0", path)
    return tuple(map(tuple, value))


# What a UTF-8 report or XML 1.0 SVG cannot carry, all unprintable; compiled on first use.
_UNWRITABLE = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def unwritable(text: str) -> str | None:
    """Why no report or SVG can carry ``text``, or None when both can."""
    if text.isprintable() or not (bad := re.search(_UNWRITABLE, text)):
        return None
    return f"holds U+{ord(bad[0]):04X}, which no report or SVG can carry"


def string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"expected a string, got {type(value).__name__}", path)
    if not value:
        raise FormatError("must be non-empty", path)
    if reason := unwritable(value):
        raise FormatError(reason, path)
    return value


def plain_strings(values: list) -> bool:
    """Whether ``string`` surely accepts each value: a non-empty printable ``str``."""
    return set(map(type, values)) <= {str} and all(values) and "".join(values).isprintable()


_NUMBER_TYPES = frozenset((int, float))


def plain_numbers(values: list) -> bool:
    """Whether ``finite_number`` surely accepts each value: a finite ``int`` or ``float``."""
    try:
        return set(map(type, values)) <= _NUMBER_TYPES and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def string_list(value: Any, path: str) -> list[str]:
    """A list of ``string``s; a list that passes ``plain_strings`` skips the per-item reader."""
    if isinstance(value, list) and plain_strings(value):
        return list(value)
    return [string(*item) for item in items(value, path, "a list of strings")]


def choice(value: Any, path: str, what: str, valid: Collection[str]) -> str:
    """The ``string`` at ``path``, which must be one of ``valid``."""
    name = string(value, path)
    if name not in valid:
        raise FormatError(f'unknown {what} "{name}" (valid: {", ".join(valid)})', path)
    return name
