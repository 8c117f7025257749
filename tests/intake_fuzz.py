"""Hypothesis strategies that damage one record of a CLI input.

Each kind of input the CLI reads has one: a TimeBank-style TSV row, and
a QA row, an extracted instance or a corpus document as a JSONL line.
Each example is one kind of damage: one field replaced by an edge string
or (in a JSON record) by any JSON value, one field dropped or added, the
whole record replaced by a JSON value, or the line cut short.
"""

from __future__ import annotations

import json

from hypothesis import strategies as st

# Strings that earlier intake faults were made of, or that sit on an
# edge of a number, a unit or a line.
EDGE_STRINGS = [
    "", " ", "\t", "\n", "\r", "\u2028", "\u0085", "\ufeff", "\x00", "[MASK]", "They [MASK] met.",
    "0", "-1", "-0", "1e-320", "nan", "inf", "-inf", "1e400", "1e301", "9" * 400, "0x1p3", "\u0661",
    "m\u0130nutes", "hour", "hours", "centuries", "3 hours", "3hours", "a while", "0 days",
    "x" * 140_000,
]
_TEXT = st.sampled_from(EDGE_STRINGS) | st.text(max_size=12)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_cells(draw, cells: list[str]) -> str:
    """A TSV line: `cells` with one cell replaced, dropped or added."""
    cells = list(cells)
    kind = draw(st.sampled_from(["replace", "drop", "add"]))
    at = draw(st.integers(0, len(cells) - 1))
    if kind == "replace":
        cells[at] = draw(_TEXT)
    elif kind == "drop":
        del cells[at]
    else:
        cells.insert(at, draw(_TEXT))
    return "\t".join(cells)


@st.composite
def damaged_record(draw, record: dict) -> str:
    """A JSONL line: `record` with one field replaced, dropped or added,
    or the whole record replaced, or its line cut short."""
    record = dict(record)
    kind = draw(st.sampled_from(["text", "value", "drop", "add", "record", "cut"]))
    key = draw(st.sampled_from(sorted(record)))
    if kind == "text":
        record[key] = draw(_TEXT)
    elif kind == "value":
        record[key] = draw(_JSON)
    elif kind == "drop":
        del record[key]
    elif kind == "add":
        record[draw(st.text(max_size=6))] = draw(_JSON)
    elif kind == "record":
        return json.dumps(draw(_JSON), ensure_ascii=False)
    line = json.dumps(record, ensure_ascii=False)
    return line[:draw(st.integers(0, len(line) - 1))] if kind == "cut" else line
