import csv
import io
import json
import math
import re

import pytest
from hypothesis import assume, given, strategies as st

from durpipe.adapters import (
    MASK_PATTERN_END,
    MASK_PATTERN_MID,
    TIMEBANK_COLUMNS,
    MalformedRowError,
    McTacoRow,
    TimeBankRow,
    group_mctaco_rows,
    mctaco_to_input,
    parse_answer_value,
    question_to_statement,
    read_mctaco_jsonl,
    read_mctaco_questions,
    read_timebank_tsv,
    timebank_label,
    timebank_to_input,
    write_timebank_tsv,
)
from durpipe.text import (
    MASK_TOKEN,
    MaskedTextError,
    find_mask_positions,
    is_mask_token,
    mask_string,
    splice_masks,
    tokenize,
)
from durpipe.units import UNITS_7, UNITS_8, TemporalUnit, closest_unit, format_duration, normalize

HOUR = TemporalUnit.HOUR
DAY = TemporalUnit.DAY
WEEK = TemporalUnit.WEEK


def _row(sentence, event, min_d=(1.0, HOUR), max_d=(1.0, HOUR)):
    start = sentence.index(event)
    return TimeBankRow(sentence, (start, start + len(event)), min_d, max_d)


def test_timebank_insertion_worked_example():
    row = _row("Philip Morris Cos, adopted a defense measure that wards off raiders.", "adopted")
    out = timebank_to_input(row)
    assert out.text.startswith(
        "Philip Morris Cos, adopted, lasting [MASK] [MASK], a defense measure"
    )
    tokens = tokenize(out.text)
    assert len(out.mask_positions) == 2
    assert all(is_mask_token(tokens[p]) for p in out.mask_positions)


def test_timebank_label_equal_bounds():
    out = timebank_to_input(_row("They adopted a measure.", "adopted"))
    assert out.exact_label == pytest.approx(math.log(3600))
    assert out.range_label is HOUR


def test_timebank_label_mean_in_linear_seconds():
    # mean of one day and one week: (86,400 + 604,800) / 2 = 345,600 s
    out = timebank_to_input(_row("They adopted a measure.", "adopted", (1.0, DAY), (1.0, WEEK)))
    assert out.exact_label == pytest.approx(12.753037315912037, abs=1e-9)


def test_timebank_label_symmetric_in_bounds():
    a = timebank_to_input(_row("They adopted a measure.", "adopted", (2.0, DAY), (3.0, WEEK)))
    b = timebank_to_input(_row("They adopted a measure.", "adopted", (3.0, WEEK), (2.0, DAY)))
    assert a.exact_label == b.exact_label


def test_timebank_inventory_parameter():
    row = _row("The dynasty endured somehow.", "dynasty", (23.0, TemporalUnit.YEAR), (23.0, TemporalUnit.YEAR))
    assert timebank_to_input(row, UNITS_7).range_label is TemporalUnit.YEAR
    assert timebank_to_input(row, UNITS_8).range_label is TemporalUnit.DECADE


_UNIT_AMOUNTS = st.tuples(st.floats(min_value=1e-3, max_value=1e3), st.sampled_from(list(TemporalUnit)))


@given(min_d=_UNIT_AMOUNTS, max_d=_UNIT_AMOUNTS)
def test_timebank_to_input_labels_are_the_exact_label_and_its_closest_unit(min_d, max_d):
    row = _row("They adopted a measure.", "adopted", min_d, max_d)
    for n in range(1, 9):
        out = timebank_to_input(row, UNITS_8[:n])
        assert out.exact_label == timebank_label(row)
        assert out.range_label is closest_unit(timebank_label(row), UNITS_8[:n]), n


def test_timebank_output_wraps_original_sentence():
    sentence = "The committee met again yesterday."
    row = _row(sentence, "met")
    out = timebank_to_input(row)
    end = row.event_span[1]
    inserted = ", lasting [MASK] [MASK],"
    assert out.text == sentence[:end] + inserted + sentence[end:]


def test_timebank_bad_span_raises():
    with pytest.raises(MalformedRowError, match=re.escape("event span (10, 14) outside sentence")):
        TimeBankRow("Short.", (10, 14), (1.0, HOUR), (1.0, HOUR))


@pytest.mark.parametrize(
    "question,expected",
    [
        ("How long would they run through the fields?", "they run through the fields"),
        ("How long did the meeting last?", "the meeting last"),
        ("How long is the movie?", "the movie"),
        ("How long has the festival gone on?", "the festival gone on"),
    ],
)
def test_question_to_statement(question, expected):
    assert question_to_statement(question) == expected


def test_question_to_statement_passthrough():
    assert question_to_statement("They ran.") == "They ran."
    assert question_to_statement("How long?") == "How long?"


def test_mctaco_input_worked_example():
    row = McTacoRow(
        context="They were playing all afternoon.",
        question="How long would they run through the fields?",
        answer="2 hours",
        gold=True,
    )
    model_input = mctaco_to_input(row)
    assert model_input.text == (
        "They were playing all afternoon. they run through the fields, lasting [MASK] [MASK]."
    )
    assert len(model_input.mask_positions) == 2
    assert parse_answer_value(row.answer) == pytest.approx(math.log(7200))


@pytest.mark.parametrize(
    "answer,expected",
    [
        ("2 hours", math.log(7200)),
        ("an hour", math.log(3600)),
        ("a minute", math.log(60)),
        ("seven minutes", math.log(7 * 60)),
        ("about 3 weeks", math.log(3 * 604800)),
        ("1.5 hours", math.log(1.5 * 3600)),
        ("Twelve years", math.log(12 * 31536000)),
    ],
)
def test_parse_answer_values(answer, expected):
    assert parse_answer_value(answer) == pytest.approx(expected)


# "all day" has no quantity in front, so it is not a duration expression.
# The pattern matches case-insensitively, so "\u0130" (dotted capital I)
# matches "i" and "\u017f" (long s) matches "s", but the words they are
# in then read back as no unit or number; a long numeral overflows.
@pytest.mark.parametrize("answer", [
    "a few moments", "never", "all day long", "0 hours",
    pytest.param("2 m\u0130nutes", id="dotted-capital-i-in-unit"),
    pytest.param("\u017fix hours", id="long-s-in-number-word"),
    pytest.param("f\u0130ve hours", id="dotted-capital-i-in-number-word"),
    pytest.param("1" * 400 + " hours", id="numeral-overflows-a-float"),
    pytest.param("1" * 305 + " years", id="duration-overflows-a-float"),
])
def test_parse_answer_unparseable(answer):
    assert parse_answer_value(answer) is None


def _training_label(rows):
    """The exact label read_mctaco_questions gives the one question of `rows`."""
    lines = [json.dumps({"context": r.context, "question": r.question, "answer": r.answer,
                         "gold": r.gold}) for r in rows]
    [question] = read_mctaco_questions(lines)
    return question.input.exact_label


def test_mctaco_training_label_mean_in_log_space():
    rows = [
        McTacoRow("c", "q", "1 hour", True),
        McTacoRow("c", "q", "2 hours", True),
        McTacoRow("c", "q", "9 weeks", False),  # wrong answers do not contribute
        McTacoRow("c", "q", "a few moments", True),  # unparseable, dropped
    ]
    expected = (math.log(3600) + math.log(7200)) / 2
    assert _training_label(rows) == pytest.approx(expected)


def test_mctaco_training_label_single_and_absent():
    assert _training_label([McTacoRow("c", "q", "2 hours", True)]) == pytest.approx(math.log(7200))
    assert _training_label([McTacoRow("c", "q", "soonish", True)]) is None
    assert _training_label([McTacoRow("c", "q", "2 hours", False)]) is None


def test_read_mctaco_questions_keeps_every_question_and_its_dropped_answers():
    rows = [("q1", "2 hours", True), ("q2", "soonish", True), ("q1", "a while", False),
            ("q1", "3 days", False), ("q2", "never", False)]
    lines = [json.dumps({"context": "c", "question": q, "answer": a, "gold": g}) for q, a, g in rows]
    first, second = read_mctaco_questions(lines)
    assert (first.qid, first.answers, first.dropped) == ("q0", ((math.log(7200), True),
                                                                (math.log(3 * 86400), False)), 1)
    # a question with no parseable answer is still returned, with its drops counted
    assert (second.qid, second.answers, second.dropped) == ("q1", (), 2)
    assert second.input.exact_label is None


def test_group_mctaco_rows_stable_order():
    rows = [
        McTacoRow("c1", "q1", "1 hour", True),
        McTacoRow("c2", "q2", "2 hours", False),
        McTacoRow("c1", "q1", "3 hours", False),
    ]
    groups = group_mctaco_rows(rows)
    assert [qid for qid, _ in groups] == ["q0", "q1"]
    assert len(groups[0][1]) == 2


@given(st.integers(1, 100), st.sampled_from(list(TemporalUnit)))
def test_parse_inverts_rendering(q, unit):
    text = format_duration(q, unit)
    assert parse_answer_value(text) == pytest.approx(normalize(q, unit))


def test_timebank_tsv_roundtrip():
    rows = [
        _row("The siege dragged on.", "siege", (3.0, DAY), (2.0, WEEK)),
        _row("A parade passed.", "parade", (45.0, TemporalUnit.MINUTE), (2.0, HOUR)),
    ]
    text = write_timebank_tsv(rows)
    back = read_timebank_tsv(io.StringIO(text))
    assert back == rows


def test_timebank_tsv_reorders_swapped_bounds():
    line = "The siege dragged on.\t4\t9\t2\tweek\t3\tday\n"
    rows = read_timebank_tsv(io.StringIO("sentence\t\t\t\t\t\t\n" + line))
    assert rows[0].min_duration == (3.0, DAY)
    assert rows[0].max_duration == (2.0, WEEK)


def test_timebank_tsv_header_is_the_first_nonblank_row():
    rows = [_row("The siege dragged on.", "siege", (3.0, DAY), (2.0, WEEK))]
    text = "\n\t\n" + write_timebank_tsv(rows)
    assert read_timebank_tsv(io.StringIO(text)) == rows
    # A header row after a data row, or after the header, is a data row.
    header = text.splitlines(keepends=True)[2]
    with pytest.raises(MalformedRowError, match="^row 4: "):
        read_timebank_tsv(io.StringIO(text + header))
    with pytest.raises(MalformedRowError, match="^row 3: "):
        read_timebank_tsv(io.StringIO("\n\n" + header + header))


def test_timebank_tsv_bad_column_count():
    with pytest.raises(MalformedRowError):
        read_timebank_tsv(io.StringIO("only\tthree\tcolumns\n"))


def test_mctaco_jsonl_reader():
    lines = [
        '{"context": "c", "question": "q", "answer": "2 hours", "gold": true}',
        '{"context": "c", "question": "q", "answer": "9 days", "gold": false}',
    ]
    rows = read_mctaco_jsonl(lines)
    assert rows[0].gold and not rows[1].gold
    with pytest.raises(MalformedRowError):
        read_mctaco_jsonl(['{"context": "c"}'])


@pytest.mark.parametrize("field,value", [("context", 5), ("question", None), ("answer", 2.0),
                                         ("gold", "false"), ("gold", 0), ("gold", None)])
def test_mctaco_jsonl_reader_rejects_wrong_field_types(field, value):
    good = {"context": "c", "question": "q", "answer": "2 hours", "gold": True}
    lines = [json.dumps(good), json.dumps({**good, field: value})]
    with pytest.raises(MalformedRowError, match=rf"^line 2: QA field {field} is "):
        read_mctaco_jsonl(lines)


def test_adapter_inputs_have_exactly_two_masks():
    row = _row("The voyage resumed at dawn.", "voyage", (1.0, WEEK), (1.0, WEEK))
    out = timebank_to_input(row)
    tokens = tokenize(out.text)
    mask_tokens = [i for i, t in enumerate(tokens) if is_mask_token(t)]
    assert list(out.mask_positions) == mask_tokens
    assert len(mask_tokens) == 2
    assert MASK_TOKEN in tokens[mask_tokens[0]]


# --- masks placed by construction ------------------------------------------

_INSERTS = st.sampled_from([MASK_PATTERN_MID, MASK_PATTERN_END, mask_string(1), mask_string(2)])
# Pieces that meet an insert: clinging punctuation, words, near-masks and
# Unicode whitespace, plus arbitrary characters.
_PIECES = ["(", ")", ",", ".", "'s", "\"", "x", "t.", "word", "3", "[MASK", "MASK]", "x[MASK]y",
           "[]", " ", "  ", "\t", "\n", "\x85", "\u2028", "\u3000"]
_source = st.lists(st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=12).map("".join)


@given(_source, _INSERTS, _source)
def test_spliced_positions_equal_a_rescan_when_the_insertion_is_whitespace_delimited(
        head, insert, tail):
    head, tail = head + " ", " " + tail
    assume(not find_mask_positions(head) and not find_mask_positions(tail))
    text = head + insert + tail
    assert splice_masks(head, insert, tail) == (text, tuple(find_mask_positions(text)))


@given(_source, _INSERTS, _source)
def test_spliced_positions_equal_a_rescan_or_the_splice_is_refused(head, insert, tail):
    # A mask may touch clinging punctuation ("(3 days)"); one that would
    # join anything else is refused, because it would be lost.
    assume(not find_mask_positions(head) and not find_mask_positions(tail))
    text = head + insert + tail
    try:
        got = splice_masks(head, insert, tail)
    except MaskedTextError:
        assert len(find_mask_positions(text)) < len(find_mask_positions(insert))
    else:
        assert got == (text, tuple(find_mask_positions(text)))


def test_timebank_span_before_clinging_punctuation_keeps_both_masks():
    out = timebank_to_input(TimeBankRow("They met.", (5, 8), (1.0, HOUR), (1.0, HOUR)))
    assert out.text == "They met, lasting [MASK] [MASK],."
    assert out.mask_positions == (3, 4)


@pytest.mark.parametrize("sentence,span,message", [
    ("The [MASK] met again.", (11, 14), "sentence holds [MASK]"),
    ("They[MASK] met.", (11, 14), "sentence holds [MASK]"),
    ("They met again.", (5, 9), "event span (5, 9) does not end where a word ends"),
    ("They met again.", (5, 7), "event span (5, 7) does not end where a word ends"),
    ("The met's end.", (4, 7), "event span (4, 7) does not end where a word ends"),
], ids=["mask-token", "mask-in-word", "span-ends-on-space", "span-ends-inside-word",
        "span-before-apostrophe"])
def test_timebank_row_whose_masks_would_not_come_out_is_refused(sentence, span, message):
    with pytest.raises(MalformedRowError, match=re.escape(message)):
        TimeBankRow(sentence, span, (1.0, HOUR), (1.0, HOUR))
    tsv = "\t".join(TIMEBANK_COLUMNS) + f"\n{sentence}\t{span[0]}\t{span[1]}\t1\thour\t1\thour\n"
    with pytest.raises(MalformedRowError, match=rf"^row 1: {re.escape(message)}$"):
        read_timebank_tsv(io.StringIO(tsv))


@pytest.mark.parametrize("quantity", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["min", "max"])
def test_timebank_row_with_a_quantity_that_is_not_positive_finite_is_refused(quantity, side):
    durations = {"min_duration": (1.0, HOUR), "max_duration": (2.0, HOUR)}
    durations[f"{side}_duration"] = (quantity, HOUR)
    with pytest.raises(MalformedRowError, match=rf"^quantity {re.escape(repr(quantity))} is not a "
                                                 "positive finite number$"):
        TimeBankRow("They met.", (5, 8), **durations)


@pytest.mark.parametrize("field", ["context", "question"])
def test_mctaco_row_holding_a_mask_is_refused(field):
    good = {"context": "They ran.", "question": "How long did they run?", "answer": "2 hours",
            "gold": True}
    bad = {**good, field: good[field].replace("ran", "[MASK]").replace("run", "[MASK]")}
    with pytest.raises(MalformedRowError, match=rf"QA field {field} holds \[MASK\]"):
        mctaco_to_input(McTacoRow(**bad))
    with pytest.raises(MalformedRowError, match=rf"^line 2: QA field {field} holds \[MASK\]$"):
        read_mctaco_jsonl([json.dumps(good), json.dumps(bad)])


# --- every row a reader accepts converts -----------------------------------
# The converters run no check of their own: they rely on the readers
# refusing every row whose inserted masks would not come out as exactly
# the inserted tokens.


_row_text = st.lists(st.one_of(st.sampled_from(_PIECES + [MASK_TOKEN]), st.characters()),
                     max_size=12).map("".join)


@st.composite
def _tsv_rows(draw):
    sentence = draw(_row_text)
    ends = [i for i in range(len(sentence) + 1) if i == len(sentence) or sentence[i].isspace()]
    end = draw(st.one_of(st.sampled_from(ends), st.integers(-1, len(sentence) + 1)))
    start = draw(st.integers(-1, max(end, 0)))
    return sentence, start, end


def _assert_masks_on_mask_tokens(model_input):
    tokens = tokenize(model_input.text)
    assert len(model_input.mask_positions) == 2
    assert all(0 <= p < len(tokens) and is_mask_token(tokens[p])
               for p in model_input.mask_positions)
    assert model_input.mask_positions == tuple(find_mask_positions(model_input.text))


@given(_tsv_rows())
def test_every_tsv_row_the_reader_accepts_converts_with_its_masks_on_mask_tokens(cells):
    buf = io.StringIO()
    csv.writer(buf, delimiter="\t", lineterminator="\n").writerow([*cells, 2, "hours", 1, "day"])
    try:
        # newline=None reads the lines as the CLI's text-mode open does
        rows = read_timebank_tsv(io.StringIO(buf.getvalue(), newline=None))
    except MalformedRowError:
        return
    for row in rows:
        _assert_masks_on_mask_tokens(timebank_to_input(row))


@given(_row_text, _row_text)
def test_every_qa_row_the_reader_accepts_converts_with_its_masks_on_mask_tokens(context, question):
    line = json.dumps({"context": context, "question": question, "answer": "2 hours", "gold": True})
    try:
        rows = read_mctaco_jsonl([line])
    except MalformedRowError:
        return
    _assert_masks_on_mask_tokens(mctaco_to_input(rows[0]))
