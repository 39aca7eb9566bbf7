"""Shared JSON document plumbing: canonical serialization and schema errors."""

from __future__ import annotations

import json
import math
import re
import warnings
from itertools import chain
from typing import Any, Callable, Iterable


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


# With ``indent`` set, ``json.dumps`` runs the pure-Python encoder, one
# generator step per value. The canonical layout is written here instead, and
# every scalar, and every list of plain numbers, goes through the C encoder.
_encode = json.JSONEncoder(ensure_ascii=False).encode
_NUMBER_TYPES = frozenset((int, float))


def canonical_json(value: Any) -> str:
    """Serialize with sorted keys and fixed layout; byte-stable for equal values.

    The text is exactly ``json.dumps(value, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"``.
    """
    chunks: list[str] = []
    _write(value, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, newline: str, emit: Callable[[str], None]) -> None:
    """Emit ``value`` laid out as the stdlib's ``indent=2`` encoder does;
    ``newline`` is the line break plus the indentation of ``value``'s own line."""
    if isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                # As in the stdlib: a scalar key is written as its JSON text.
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = _encode(key)
            emit(separator + _encode(key) + ": ")
            _write(item, inner, emit)
            separator = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) <= _NUMBER_TYPES:
            # A number's text holds no ", ", so every ", " is a separator.
            emit("[" + inner + _encode(value)[1:-1].replace(", ", "," + inner) + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            emit(separator)
            _write(item, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    else:
        emit(_encode(value))


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


def require_version(obj: dict, path: str, expected: int) -> None:
    version = obj.get("schema_version", expected)
    if version != expected:
        raise FormatError(
            f"unsupported schema_version {version!r} (expected {expected})",
            f"{path}.schema_version",
        )


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


def vector(value: Any, path: str, length: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise FormatError(f"expected a list of {length} numbers", path)
    return tuple(finite_number(c, f"{path}[{i}]") for i, c in enumerate(value))


def index_vectors(value: Any, path: str, length: int) -> tuple[tuple[int, ...], ...]:
    """A non-empty list of ``length``-integer lists, integers >= 0; checked in bulk."""
    rows = value if isinstance(value, list) and set(map(type, value)) <= {list} else []
    items = list(chain.from_iterable(rows)) if set(map(len, rows)) <= {length} else []
    if not items or not set(map(type, items)) <= {int} or min(items) < 0:
        raise FormatError(f"expected a non-empty list of {length}-integer lists >= 0", path)
    return tuple(map(tuple, value))


# What a UTF-8 report or XML 1.0 SVG cannot carry, all unprintable; compiled on first use.
_UNWRITABLE = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"expected a string, got {type(value).__name__}", path)
    if not value:
        raise FormatError("must be non-empty", path)
    if not value.isprintable() and (bad := re.search(_UNWRITABLE, value)):
        raise FormatError(f"holds U+{ord(bad[0]):04X}, which no report or SVG can carry", path)
    return value


def plain_strings(values: list) -> bool:
    """Whether ``string`` surely accepts each value: a non-empty printable ``str``."""
    return set(map(type, values)) <= {str} and all(values) and "".join(values).isprintable()


def plain_numbers(values: list) -> bool:
    """Whether ``finite_number`` surely accepts each value: a finite ``int`` or ``float``."""
    try:
        return set(map(type, values)) <= _NUMBER_TYPES and all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def string_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list):
        raise FormatError("expected a list of strings", path)
    return [string(v, f"{path}[{i}]") for i, v in enumerate(value)]
