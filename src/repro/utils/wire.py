"""One wire schema: a declarative field table per JSON record kind.

A :class:`Field` names one JSON field, its :class:`Rule` (what the value
must be, which is also the error text) and whether it may be left out;
a :class:`Schema` is a kind's field table plus the constructor it
feeds.  The tables are :data:`repro.online.events.EVENT_SCHEMAS` and
:data:`repro.packet.trace.PACKET_SCHEMAS`; :func:`read_record` is the
one reader of both.  For every field, a JSON ``true``/``false`` is never
a number, an optional field may be absent or ``null`` (both mean "not
set"), and fields no table names are ignored.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from operator import itemgetter
from os import PathLike
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ValidationError

__all__ = [
    "Rule", "Field", "Schema", "NONNEGATIVE", "POSITIVE", "PROBABILITY",
    "NAME", "check_fields", "record_of", "read_record", "read_lines",
    "write_lines",
]


@dataclass(frozen=True)
class Rule:
    """What a value must be: ``text`` (docs and errors) and its test."""

    text: str
    valid: Callable[[Any], bool]


def _number(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    def valid(v: Any) -> bool:
        try:
            return not isinstance(v, bool) and math.isfinite(v) and test(v)
        except (TypeError, OverflowError):
            return False

    return valid


NONNEGATIVE = Rule("finite and >= 0", _number(lambda v: v >= 0.0))
POSITIVE = Rule("finite and positive", _number(lambda v: v > 0.0))
PROBABILITY = Rule("in (0, 1)", _number(lambda v: 0.0 < v < 1.0))
NAME = Rule("a non-empty string", lambda v: isinstance(v, str) and v != "")


@dataclass(frozen=True)
class Field:
    """One JSON field.  ``label`` is the subject of its error text (the
    name when empty); ``schema`` reads a nested JSON object."""

    name: str
    rule: Rule
    optional: bool = False
    label: str = ""
    schema: Schema | None = None


@dataclass(frozen=True)
class Schema:
    """A kind's field table and ``build``, which takes the values in
    table order.  With ``build_checks``, ``build`` runs
    :func:`check_fields` itself (the event dataclasses do)."""

    fields: tuple[Field, ...]
    build: Callable[..., Any]
    build_checks: bool = False

    def __post_init__(self) -> None:
        # A table of required flat fields is read in one C call.
        flat = all(not f.optional and f.schema is None for f in self.fields)
        names = [f.name for f in self.fields]
        getter = itemgetter(*names) if flat and len(names) > 1 else None
        object.__setattr__(self, "_get", getter)


def check_fields(fields: Sequence[Field], values: Iterable[Any]) -> None:
    """Raise :class:`ValidationError` for the first value its rule
    rejects (``None`` passes an optional field)."""
    for field, value in zip(fields, values):
        if value is None and field.optional:
            continue
        if not field.rule.valid(value):
            raise ValidationError(
                f"{field.label or field.name} must be {field.rule.text}, "
                f"got {reprlib.repr(value)}"
            )


def record_of(fields: Sequence[Field], value: Any) -> dict[str, Any] | None:
    """The JSON object of ``value``'s fields, nested objects included
    (``None`` stays ``None``): the inverse of the reader."""
    if value is None:
        return None
    return {
        f.name: getattr(value, f.name)
        if f.schema is None
        else record_of(f.schema.fields, getattr(value, f.name))
        for f in fields
    }


def _read(
    schema: Schema, record: dict, kind: str, subject: str | None = None
) -> Any:
    try:
        if schema._get is not None:
            values = schema._get(record)
        else:
            values = []
            for field in schema.fields:
                value = record.get(field.name)
                if value is None and field.name not in record:
                    if not field.optional:
                        raise KeyError(field.name)
                elif field.schema is not None and isinstance(value, dict):
                    value = _read(
                        field.schema, value, kind, field.label or field.name
                    )
                values.append(value)
    except KeyError as exc:
        where = subject or f"event record for kind {kind!r}"
        raise ValidationError(f"{where} is missing field {exc}") from None
    if not schema.build_checks:
        check_fields(schema.fields, values)
    return schema.build(*values)


def read_record(record: Any, kinds: Mapping[str, Schema]) -> Any:
    """Build one decoded JSON record through its kind's table in
    ``kinds``; anything else raises :class:`ValidationError`."""
    if not isinstance(record, dict):
        raise ValidationError(
            f"event record must be a JSON object, got {type(record).__name__}"
        )
    kind = record.get("kind")
    try:
        schema = kinds[kind]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown event kind: {reprlib.repr(kind)}"
        ) from None
    return _read(schema, record, kind)


def write_lines(destination: Any, records: Iterable[Any]) -> int:
    """Write records as JSON Lines to a path or an open text file;
    returns the number written."""
    if isinstance(destination, (str, PathLike)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_lines(handle, records)
    count = 0
    for record in records:
        destination.write(json.dumps(record) + "\n")
        count += 1
    return count


def read_lines(
    lines: Iterable[str], kinds: Mapping[str, Schema]
) -> Iterator[Any]:
    """Lazily :func:`read_record` each non-blank JSON line; a bad line
    raises :class:`ValidationError` with its 1-based number."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = read_record(json.loads(stripped), kinds)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        yield value
