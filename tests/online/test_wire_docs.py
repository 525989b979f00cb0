"""docs/ONLINE.md prints the wire tables the readers run.

Each field of each record kind — nested ``ebb``/``target`` fields
included — must appear in the docs as the row this test derives from
the code's table, so the documented rules cannot drift from the
checked ones.
"""

from pathlib import Path

import pytest

from repro.online.events import EVENT_SCHEMAS
from repro.packet.trace import PACKET_SCHEMAS

DOC = Path(__file__).resolve().parents[2] / "docs" / "ONLINE.md"


def rows(schemas):
    """The markdown table rows of one vocabulary, in table order."""
    out = []

    def walk(kind, fields, prefix):
        for field in fields:
            optional = "optional" if field.optional else "required"
            out.append(
                f"| `{kind}` | `{prefix}{field.name}` | "
                f"{field.rule.text} | {optional} |"
            )
            if field.schema is not None:
                walk(kind, field.schema.fields, f"{field.name}.")

    for kind, schema in schemas.items():
        walk(kind, schema.fields, "")
    return out


@pytest.mark.parametrize(
    "schemas", [EVENT_SCHEMAS, PACKET_SCHEMAS], ids=["events", "packets"]
)
def test_docs_print_the_wire_table(schemas):
    text = DOC.read_text(encoding="utf-8")
    missing = [row for row in rows(schemas) if row not in text]
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("cls", list(EVENT_SCHEMAS.values()))
def test_event_table_follows_the_dataclass_fields(cls):
    from dataclasses import fields

    assert [f.name for f in cls.fields] == [
        f.name for f in fields(cls.build)
    ]
