"""One type check for every JSON object ttabench reads.

A :class:`Fields` table, built once at import, gives each key its JSON type.
Values are checked, never converted: an integer where a number is wanted stays
an integer. A number is finite: Python's ``json`` reads ``NaN`` and
``Infinity``, but they are no JSON numbers, and every range check would pass
NaN. Other range and domain checks stay with the code that reads the value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping


@dataclass(frozen=True)
class JsonType:
    """A JSON type's name in messages, its test, and a nested object's table."""

    name: str
    accepts: Callable[[object], bool]
    fields: Fields | None = None


@dataclass(frozen=True)
class Fields:
    """An object's keys with their JSON types. Every key is required but those
    in ``optional``; an ``open`` object may hold other keys, left unchecked."""

    types: Mapping[str, JsonType]
    optional: Collection[str] = ()
    open: bool = False


def _is_number(value: object, kinds: type | tuple[type, ...]) -> bool:
    # JSON true and false load as Python ints; neither is ever a number
    return isinstance(value, kinds) and not isinstance(value, bool)


def _list_of(kind: JsonType, name: str) -> JsonType:
    # tuples pass for Python callers; JSON text only ever loads lists
    return JsonType(name, lambda v: isinstance(v, (list, tuple)) and all(map(kind.accepts, v)))


STRING = JsonType("a string", lambda v: isinstance(v, str))
INTEGER = JsonType("an integer", lambda v: _is_number(v, int))
NUMBER = JsonType(
    "a number", lambda v: _is_number(v, int) or isinstance(v, float) and math.isfinite(v)
)
BOOL = JsonType("true or false", lambda v: isinstance(v, bool))
STRINGS = _list_of(STRING, "a list of strings")
NUMBERS = _list_of(NUMBER, "a list of numbers")


def or_null(kind: JsonType) -> JsonType:
    return JsonType(f"{kind.name} or null", lambda v: v is None or kind.accepts(v))


def object_of(fields: Fields) -> JsonType:
    return JsonType("a JSON object", lambda v: isinstance(v, dict), fields)


def check_object(
    value: object, fields: Fields, where: str, error: type[Exception], prefix: str = ""
) -> dict:
    """Return ``value``, parsed first when it is text or UTF-8 bytes, once it passes
    ``fields``. Otherwise raise one ``error``, whose message starts with ``where``
    and names the key, after ``prefix`` (the path of a nested object)."""
    if isinstance(value, (str, bytes)):
        try:
            value = json.loads(value)
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise error(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: expected a JSON object, got {type(value).__name__}")
    unknown = [] if fields.open else sorted(prefix + k for k in value if k not in fields.types)
    if unknown:
        raise error(f"{where}: unknown fields {unknown}; known: {sorted(fields.types)}")
    for key, kind in fields.types.items():
        if key not in value:
            if key in fields.optional:
                continue
            raise error(f"{where}: missing field {prefix + key!r}")
        if not kind.accepts(value[key]):
            v = value[key]
            got = repr(v) if isinstance(v, float) and not math.isfinite(v) else type(v).__name__
            raise error(f"{where}: field {prefix + key!r} must be {kind.name}, got {got}")
        if kind.fields is not None:
            check_object(value[key], kind.fields, where, error, f"{prefix}{key}.")
    return value
