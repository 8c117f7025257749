"""Adapters from event-annotation and QA rows to masked model inputs.

Event rows (TimeBank style) get the pattern ", lasting [MASK] [MASK],"
spliced in right after the annotated event word; their label is the log
of the arithmetic mean of the annotated min and max durations. QA rows
(McTACO style) are rewritten question-to-statement, suffixed with
", lasting [MASK] [MASK].", and joined to their context sentence.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TypeVar

from .text import MASK_TOKEN, splice_masks, starts_word
from .units import (
    UNITS_8,
    TemporalUnit,
    UnitInventory,
    closest_unit,
    normalize,
)

__all__ = [
    "MalformedRowError",
    "TimeBankRow",
    "McTacoRow",
    "ModelInput",
    "timebank_label",
    "timebank_to_input",
    "question_to_statement",
    "McTacoQuestion",
    "mctaco_to_input",
    "parse_answer_value",
    "group_mctaco_rows",
    "read_timebank_tsv",
    "write_tsv",
    "write_timebank_tsv",
    "loads_stripped",
    "read_jsonl",
    "read_mctaco_jsonl",
    "read_mctaco_questions",
]

T = TypeVar("T")

MASK_PATTERN_MID = ", lasting [MASK] [MASK],"
MASK_PATTERN_END = ", lasting [MASK] [MASK]."

TIMEBANK_COLUMNS = (
    "sentence",
    "event_start",
    "event_end",
    "min_quantity",
    "min_unit",
    "max_quantity",
    "max_unit",
)


class MalformedRowError(ValueError):
    """Raised when an annotation row cannot be interpreted."""


class _TimeBankRowFields(NamedTuple):
    sentence: str
    event_span: tuple[int, int]
    min_duration: tuple[float, TemporalUnit]
    max_duration: tuple[float, TemporalUnit]
    # The two durations in seconds, computed once when the row is made.
    seconds: tuple[float, float]


class TimeBankRow(_TimeBankRowFields):
    """An annotated event row. It is refused when made (MalformedRowError)
    unless the event span lies in the sentence and ends where a word ends
    and the sentence holds no mask token, so that the masks inserted after
    the span come out as exactly the inserted tokens, and unless both
    quantities are positive and finite and both durations and their mean
    are finite in seconds, so that it has a label. It is a tuple, so it
    cannot be changed once made; `_replace` and copies make a new row
    through the same checks."""

    __slots__ = ()

    def __new__(cls, sentence: str, event_span: tuple[int, int],
                min_duration: tuple[float, TemporalUnit],
                max_duration: tuple[float, TemporalUnit]) -> TimeBankRow:
        start, end = event_span
        if not 0 <= start < end <= len(sentence):
            raise MalformedRowError(
                f"event span {event_span} outside sentence of length {len(sentence)}"
            )
        if MASK_TOKEN in sentence:
            raise MalformedRowError(f"sentence holds {MASK_TOKEN}")
        if sentence[end - 1].isspace() or starts_word(sentence[end:]):
            raise MalformedRowError(f"event span {event_span} does not end where a word ends")
        for quantity, _ in (min_duration, max_duration):
            if not 0 < quantity < math.inf:
                raise MalformedRowError(f"quantity {quantity!r} is not a positive finite number")
        seconds = (min_duration[0] * min_duration[1].seconds,
                   max_duration[0] * max_duration[1].seconds)
        if not math.isfinite((seconds[0] + seconds[1]) / 2.0):
            raise MalformedRowError("durations " + " and ".join(
                f"{q:g} {unit.word}" for q, unit in (min_duration, max_duration))
                + " or their mean overflow a float in seconds")
        return tuple.__new__(cls, (sentence, event_span, min_duration, max_duration, seconds))

    @classmethod
    def _make(cls, fields: Iterable) -> TimeBankRow:
        return cls(*tuple(fields)[:4])

    def __getnewargs__(self) -> tuple:
        return self[:4]


class _McTacoRowFields(NamedTuple):
    context: str
    question: str
    answer: str
    gold: bool


class McTacoRow(_McTacoRowFields):
    """A QA row. It is refused when made (MalformedRowError) unless its
    context, question and answer are str and its gold a bool (checked in
    that order) and neither context nor question holds a mask token. It
    is a tuple, so it cannot be changed once made; `_replace` and copies
    make a new row through the same checks."""

    __slots__ = ()

    def __new__(cls, context: str, question: str, answer: str, gold: bool) -> McTacoRow:
        # Written out: a loop over the fields cost several times as much.
        if not isinstance(context, str):
            raise MalformedRowError(f"QA field context is {context!r}, not a str")
        if not isinstance(question, str):
            raise MalformedRowError(f"QA field question is {question!r}, not a str")
        if not isinstance(answer, str):
            raise MalformedRowError(f"QA field answer is {answer!r}, not a str")
        if not isinstance(gold, bool):
            raise MalformedRowError(f"QA field gold is {gold!r}, not a bool")
        if MASK_TOKEN in context:
            raise MalformedRowError(f"QA field context holds {MASK_TOKEN}")
        if MASK_TOKEN in question:
            raise MalformedRowError(f"QA field question holds {MASK_TOKEN}")
        return tuple.__new__(cls, (context, question, answer, gold))

    @classmethod
    def _make(cls, fields: Iterable) -> McTacoRow:
        return cls(*fields)


@dataclass(slots=True)
class ModelInput:
    text: str
    mask_positions: tuple[int, ...]
    exact_label: float | None = None
    range_label: TemporalUnit | None = None


@dataclass(slots=True)
class McTacoQuestion:
    """One QA question: its input, the (log-second value, gold) of each
    answer that parses, and how many answers did not."""

    qid: str
    input: ModelInput
    answers: tuple[tuple[float, bool], ...]
    dropped: int


def timebank_label(row: TimeBankRow) -> float:
    """The row's exact label: the log of the arithmetic mean of its two
    durations taken in linear seconds."""
    return normalize((row.seconds[0] + row.seconds[1]) / 2.0, TemporalUnit.SECOND)


def timebank_to_input(row: TimeBankRow, inventory: UnitInventory = UNITS_8) -> ModelInput:
    """Insert the duration pattern after the event word and label the row
    with its exact label and that label's closest inventory unit."""
    end = row.event_span[1]
    text, positions = splice_masks(row.sentence[:end], MASK_PATTERN_MID, row.sentence[end:])
    exact = timebank_label(row)
    return ModelInput(text, positions, exact, closest_unit(exact, inventory))


_AUXILIARIES = (
    "did", "does", "do", "would", "will", "has", "have", "had",
    "is", "was", "are", "were",
)
_HOW_LONG_RE = re.compile(
    r"^\s*how\s+long\s+(?:(?:" + "|".join(_AUXILIARIES) + r")\s+)?", re.IGNORECASE
)


def question_to_statement(question: str) -> str:
    """Rewrite a duration question into statement order.

    Strips a leading "How long" plus auxiliary and the trailing question
    mark; no verb re-inflection is attempted. A question that does not
    convert passes through unchanged.
    """
    m = _HOW_LONG_RE.match(question)
    if m is None:
        return question
    statement = question[m.end():].strip().rstrip("?").rstrip()
    return statement or question


_NUMBER_WORDS = {
    "a": 1, "an": 1, "one": 1, "two": 2, "three": 3, "four": 4,
    "five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9,
    "ten": 10, "eleven": 11, "twelve": 12,
}
_UNIT_WORDS = "|".join(u.word for u in TemporalUnit)
_ANSWER_RE = re.compile(
    r"\b(?P<qty>\d+(?:\.\d+)?|" + "|".join(_NUMBER_WORDS) + r")\s+"
    r"(?P<unit>(?:" + _UNIT_WORDS + r"))s?\b",
    re.IGNORECASE,
)


# Each distinct answer text is parsed once. That pays only where answers
# repeat across questions ("2 hours"); a text not seen before costs a
# cache miss on top of its parse.
@lru_cache(maxsize=4096)
def parse_answer_value(answer: str) -> float | None:
    """Log-second value of an answer like "2 hours" or "an hour"; None when
    it holds no quantity-unit pair ("a few moments") or its first pair is
    no positive finite duration: a case-insensitive match takes "İ" for
    "i" and "ſ" for "s" ("2 mİnutes", "ſix hours"), and numerals overflow."""
    m = _ANSWER_RE.search(answer)
    if m is None:
        return None
    qty_text = m.group("qty").lower()
    try:
        value = normalize(float(_NUMBER_WORDS.get(qty_text, 0) or qty_text),
                          TemporalUnit.from_string(m.group("unit")))
    except ValueError:  # also InvalidQuantityError, for zero and inf
        return None
    return value if math.isfinite(value) else None


def mctaco_to_input(row: McTacoRow) -> ModelInput:
    """Build the masked input for a QA row; its answer is not read."""
    head = row.context.strip() + " " + question_to_statement(row.question)
    text, positions = splice_masks(head, MASK_PATTERN_END, "")
    return ModelInput(text, positions)


def group_mctaco_rows(rows: Iterable[McTacoRow]) -> list[tuple[str, list[McTacoRow]]]:
    """Group rows by (context, question), preserving first-seen order.

    The returned key is a stable question id "q<index>"."""
    groups: dict[tuple[str, str], list[McTacoRow]] = {}
    for row in rows:
        groups.setdefault((row.context, row.question), []).append(row)
    return [(f"q{i}", rows) for i, (_, rows) in enumerate(groups.items())]


def _quantity(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"quantity {text!r} is not a positive finite number")
    return value


def read_timebank_tsv(lines: Iterable[str]) -> list[TimeBankRow]:
    """Parse TSV rows with columns sentence, event_start, event_end,
    min_quantity, min_unit, max_quantity, max_unit. Blank rows are
    skipped, and so is a header: a first nonblank row whose first cell
    is "sentence". A row that csv cannot read, such as one with a cell
    over csv's field size limit, is a MalformedRowError."""
    out = []
    i, first = -1, True
    try:
        for i, record in enumerate(csv.reader(lines, delimiter="\t")):
            if not "".join(record).strip():
                continue
            header, first = first and record[0].strip().lower() == "sentence", False
            if header:
                continue
            if len(record) != len(TIMEBANK_COLUMNS):
                raise MalformedRowError(
                    f"row {i}: expected {len(TIMEBANK_COLUMNS)} columns, got {len(record)}"
                )
            sentence, start, end, min_q, min_u, max_q, max_u = record
            try:
                span = int(start), int(end)
                lo = _quantity(min_q), TemporalUnit.from_string(min_u)
                hi = _quantity(max_q), TemporalUnit.from_string(max_u)
                row = TimeBankRow(sentence, span, lo, hi)
                if row.seconds[0] > row.seconds[1]:
                    row = TimeBankRow(sentence, span, hi, lo)  # annotations occasionally swap the bounds
                out.append(row)
            except ValueError as exc:
                raise MalformedRowError(f"row {i}: {exc}") from exc
    except csv.Error as exc:  # raised while reading the row after row i
        raise MalformedRowError(f"row {i + 1}: {exc}") from exc
    return out


def write_tsv(rows: Iterable[Sequence[str]]) -> str:
    r"""Tab-separated lines ending in "\n", quoted by csv's minimal quoting.
    csv quotes a cell that holds "\n" but not one that holds a lone "\r",
    which a reader takes for a line end; a row with one is quoted whole."""
    buf = io.StringIO()
    plain, quoted = (csv.writer(buf, delimiter="\t", lineterminator="\n", quoting=quoting)
                     for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
    for row in rows:
        (quoted if "\r" in "".join(row) else plain).writerow(row)
    return buf.getvalue()


def write_timebank_tsv(rows: Sequence[TimeBankRow]) -> str:
    return write_tsv(chain([TIMEBANK_COLUMNS], ((
        row.sentence,
        str(row.event_span[0]),
        str(row.event_span[1]),
        _format_quantity(row.min_duration[0]),
        row.min_duration[1].word,
        _format_quantity(row.max_duration[0]),
        row.max_duration[1].word,
    ) for row in rows)))


def _format_quantity(q: float) -> str:
    return str(int(q)) if float(q).is_integer() else repr(q)


_raw_decode = json.JSONDecoder().raw_decode


def loads_stripped(line: str) -> Any:
    """json.loads(line) for a line without whitespace at either end, by
    raw_decode: the line has no JSON whitespace to skip, so raw_decode
    reads the same value. On a line it refuses or with text after the
    value, json.loads runs to raise its own error with its own message."""
    try:
        obj, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    return obj if end == len(line) else json.loads(line)


def read_jsonl(lines: Iterable[str], parse: Callable[[Any], T], what: str) -> list[T]:
    """`parse` of the JSON value of each nonblank line. A MalformedRowError
    from `parse` gets the 1-based line number in front; any other failure
    on a line (not JSON, a missing key, a value of the wrong kind) says the
    line is not `what` and quotes its start."""
    out = []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(parse(loads_stripped(line)))
        except MalformedRowError as exc:
            raise MalformedRowError(f"line {n}: {exc}") from exc
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise MalformedRowError(f"line {n}: not {what} ({exc!r}): {line[:80]}") from exc
    return out


def read_mctaco_jsonl(lines: Iterable[str]) -> list[McTacoRow]:
    """Parse JSONL rows with string fields context, question and answer
    and a JSON boolean gold."""
    return read_jsonl(lines, lambda obj: McTacoRow(obj["context"], obj["question"], obj["answer"],
                                                   obj["gold"]), "a QA row")


def read_mctaco_questions(lines: Iterable[str]) -> list[McTacoQuestion]:
    """Every question of a McTACO-style JSONL file, in first-seen order.

    A question's input gets an exact label when at least one correct
    answer parses: the mean of those answers' log-second values in row
    order (the geometric mean of the durations, which keeps one outlier
    answer from dominating).
    """
    questions = []
    for qid, group in group_mctaco_rows(read_mctaco_jsonl(lines)):
        parsed = [(parse_answer_value(row.answer), row.gold) for row in group]
        answers = tuple((v, gold) for v, gold in parsed if v is not None)
        model_input = mctaco_to_input(group[0])
        correct = [v for v, gold in answers if gold]
        if correct:
            model_input.exact_label = sum(correct) / len(correct)
        questions.append(McTacoQuestion(qid, model_input, answers, len(parsed) - len(answers)))
    return questions
