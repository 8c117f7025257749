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
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .text import MASK_TOKEN, splice_masks, starts_word
from .units import (
    UNITS_7,
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
    "timebank_to_input",
    "question_to_statement",
    "McTacoQuestion",
    "mctaco_to_input",
    "parse_answer_value",
    "group_mctaco_rows",
    "read_timebank_tsv",
    "read_timebank_inputs",
    "write_timebank_tsv",
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


def _seconds(duration: tuple[float, TemporalUnit]) -> float:
    return duration[0] * duration[1].seconds


@dataclass(frozen=True)
class TimeBankRow:
    """An annotated event row. It is refused when made (MalformedRowError)
    unless the event span lies in the sentence and ends where a word ends
    and the sentence holds no mask token, so that the masks inserted after
    the span come out as exactly the inserted tokens, and unless both
    quantities are positive and finite and both durations and their mean
    are finite in seconds, so that it has a label."""

    sentence: str
    event_span: tuple[int, int]
    min_duration: tuple[float, TemporalUnit]
    max_duration: tuple[float, TemporalUnit]

    def __post_init__(self) -> None:
        start, end = self.event_span
        if not 0 <= start < end <= len(self.sentence):
            raise MalformedRowError(
                f"event span {self.event_span} outside sentence of length {len(self.sentence)}"
            )
        if MASK_TOKEN in self.sentence:
            raise MalformedRowError(f"sentence holds {MASK_TOKEN}")
        if self.sentence[end - 1].isspace() or starts_word(self.sentence[end:]):
            raise MalformedRowError(f"event span {self.event_span} does not end where a word ends")
        for quantity, _ in (self.min_duration, self.max_duration):
            if not 0 < quantity < math.inf:
                raise MalformedRowError(f"quantity {quantity!r} is not a positive finite number")
        if not math.isfinite((_seconds(self.min_duration) + _seconds(self.max_duration)) / 2.0):
            raise MalformedRowError("durations " + " and ".join(
                f"{q:g} {unit.word}" for q, unit in (self.min_duration, self.max_duration))
                + " or their mean overflow a float in seconds")


_QA_FIELDS = {"context": str, "question": str, "answer": str, "gold": bool}


@dataclass(frozen=True)
class McTacoRow:
    """A QA row. It is refused when made (MalformedRowError) unless its
    fields have the types of `_QA_FIELDS` and neither `context` nor
    `question` holds a mask token."""

    context: str
    question: str
    answer: str
    gold: bool

    def __post_init__(self) -> None:
        for key, kind in _QA_FIELDS.items():
            value = getattr(self, key)
            if not isinstance(value, kind):
                raise MalformedRowError(f"QA field {key} is {value!r}, not a {kind.__name__}")
        for key in ("context", "question"):
            if MASK_TOKEN in getattr(self, key):
                raise MalformedRowError(f"QA field {key} holds {MASK_TOKEN}")


@dataclass(frozen=True)
class ModelInput:
    text: str
    mask_positions: tuple[int, ...]
    exact_label: float | None = None
    range_label: TemporalUnit | None = None


@dataclass(frozen=True)
class McTacoQuestion:
    """One QA question: its input, the (log-second value, gold) of each
    answer that parses, and how many answers did not."""

    qid: str
    input: ModelInput
    answers: tuple[tuple[float, bool], ...]
    dropped: int


def _mean_log_seconds(row: TimeBankRow) -> float:
    # Arithmetic mean of the two annotated durations, taken in linear
    # seconds before the log.
    return normalize((_seconds(row.min_duration) + _seconds(row.max_duration)) / 2.0,
                     TemporalUnit.SECOND)


def timebank_to_input(row: TimeBankRow, inventory: UnitInventory = UNITS_7) -> ModelInput:
    """Insert the duration pattern after the event word and label the row."""
    end = row.event_span[1]
    text, positions = splice_masks(row.sentence[:end], MASK_PATTERN_MID, row.sentence[end:])
    exact = _mean_log_seconds(row)
    return ModelInput(
        text=text,
        mask_positions=positions,
        exact_label=exact,
        range_label=closest_unit(exact, inventory),
    )


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
    return ModelInput(text=text, mask_positions=positions)


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
    min_quantity, min_unit, max_quantity, max_unit. A header row is
    recognized and skipped. A row that csv cannot read, such as one with
    a cell over csv's field size limit, is a MalformedRowError."""
    out = []
    i = -1
    try:
        for i, record in enumerate(csv.reader(lines, delimiter="\t")):
            if not record or all(not cell.strip() for cell in record):
                continue
            if i == 0 and record[0].strip().lower() == "sentence":
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
                if _seconds(lo) > _seconds(hi):
                    lo, hi = hi, lo  # annotations occasionally swap the bounds
                out.append(TimeBankRow(sentence, span, lo, hi))
            except ValueError as exc:
                raise MalformedRowError(f"row {i}: {exc}") from exc
    except csv.Error as exc:  # raised while reading the row after row i
        raise MalformedRowError(f"row {i + 1}: {exc}") from exc
    return out


def read_timebank_inputs(
    lines: Iterable[str], inventory: UnitInventory
) -> tuple[list[ModelInput], list[str]]:
    """Labelled inputs of a TimeBank-style TSV, and the event word of each row."""
    rows = read_timebank_tsv(lines)
    inputs = [timebank_to_input(row, inventory) for row in rows]
    return inputs, [row.sentence[row.event_span[0]:row.event_span[1]] for row in rows]


def write_timebank_tsv(rows: Sequence[TimeBankRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="\t", lineterminator="\n")
    writer.writerow(TIMEBANK_COLUMNS)
    for row in rows:
        writer.writerow([
            row.sentence,
            row.event_span[0],
            row.event_span[1],
            _format_quantity(row.min_duration[0]),
            row.min_duration[1].word,
            _format_quantity(row.max_duration[0]),
            row.max_duration[1].word,
        ])
    return buf.getvalue()


def _format_quantity(q: float) -> str:
    return str(int(q)) if float(q).is_integer() else repr(q)


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
            out.append(parse(json.loads(line)))
        except MalformedRowError as exc:
            raise MalformedRowError(f"line {n}: {exc}") from exc
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise MalformedRowError(f"line {n}: not {what} ({exc!r}): {line[:80]}") from exc
    return out


def read_mctaco_jsonl(lines: Iterable[str]) -> list[McTacoRow]:
    """Parse JSONL rows with string fields context, question and answer
    and a JSON boolean gold."""
    return read_jsonl(lines, lambda obj: McTacoRow(**{key: obj[key] for key in _QA_FIELDS}),
                      "a QA row")


def read_mctaco_questions(lines: Iterable[str], inventory: UnitInventory) -> list[McTacoQuestion]:
    """Every question of a McTACO-style JSONL file, in first-seen order.

    A question's input is labelled when at least one correct answer
    parses: with the mean of those answers' log-second values in row
    order (the geometric mean of the durations, which keeps one outlier
    answer from dominating) and its closest inventory unit.
    """
    questions = []
    for qid, group in group_mctaco_rows(read_mctaco_jsonl(lines)):
        parsed = [(parse_answer_value(row.answer), row.gold) for row in group]
        answers = tuple((v, gold) for v, gold in parsed if v is not None)
        model_input = mctaco_to_input(group[0])
        correct = [v for v, gold in answers if gold]
        if correct:
            mean = sum(correct) / len(correct)
            model_input = replace(model_input, exact_label=mean,
                                  range_label=closest_unit(mean, inventory))
        questions.append(McTacoQuestion(qid, model_input, answers, len(parsed) - len(answers)))
    return questions
