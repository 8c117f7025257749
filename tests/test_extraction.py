import io
import json
import math
import re

import pytest
from hypothesis import example, given, strategies as st

from durpipe.adapters import McTacoRow, MalformedRowError, read_mctaco_jsonl
from durpipe.extraction import (
    _DIGIT_RE,
    _ORDINAL_TIME_RE,
    _SECONDARY_RE,
    _TRIGGER_RE,
    _UNIT_OLD_RE,
    _WORD_FILTER_RE,
    _holds_digit,
    LabeledInstance,
    MaskedTextError,
    MatchResult,
    extract_corpus,
    failed_filters,
    label_sentence,
    match_sentence,
    read_documents,
    read_instances,
    segment_sentences,
    write_instances,
)
from durpipe.units import InvalidQuantityError, TemporalUnit

import oracles
from fixture_gen import generate_sentences


def test_match_figure_example():
    m = match_sentence("He was jailed for 23 years.")
    assert m is not None
    assert m.trigger == "for"
    assert m.quantity == 23
    assert m.unit is TemporalUnit.YEAR
    assert "He was jailed for 23 years."[slice(*m.span)] == "23 years"


def test_no_match_without_trigger_or_numeral():
    assert match_sentence("He smiled.") is None
    assert match_sentence("They take their work seriously.") is None
    assert match_sentence("Roughly 3 hours had passed.") is None


def test_leftmost_match_only():
    m = match_sentence("It took 3 hours, then 2 days.")
    assert m.trigger == "took"
    assert m.quantity == 3
    assert m.unit is TemporalUnit.HOUR


def test_greedy_gap_takes_furthest_value_in_clause():
    # mirrors the source pattern: the unpunctuated gap is greedy
    m = match_sentence("He ran for 2 hours and 3 days")
    assert m.quantity == 3
    assert m.unit is TemporalUnit.DAY


def test_clause_punctuation_blocks_the_gap():
    assert match_sentence("It was over, 3 hours they said.") is None


def test_unit_case_insensitive_trigger_case_sensitive():
    assert match_sentence("stayed for 2 Hours straight") is not None
    assert match_sentence("For 2 hours they trained") is None


def test_numeral_not_split_by_greedy_gap():
    m = match_sentence("jailed for 115 years total")
    assert m.quantity == 115


def test_trigger_substring_inside_word_matches():
    # "for" inside "performed" is a trigger occurrence under the raw pattern
    m = match_sentence("He performed 2 hours of surgery.")
    assert m is not None
    assert m.trigger == "for"
    assert m.quantity == 2


@pytest.mark.parametrize(
    "sentence,expected_filter",
    [
        ("It lasted for more than 10 years.", "word_blocklist"),
        ("They took breaks every 2 weeks on schedule.", "word_blocklist"),
        ("He took first time honors in 3 years.", "ordinal_time"),
        ("The council spent 4 years planning 12 secondary schools.", "numeric_secondary"),
        ("He looked over 23 years old.", "unit_old"),
    ],
)
def test_filters_reject_matched_sentences(sentence, expected_filter):
    m = match_sentence(sentence)
    assert m is not None, sentence
    assert expected_filter in failed_filters(m, sentence)


def test_clean_sentence_passes_all_filters():
    sentence = "He was jailed for 23 years."
    m = match_sentence(sentence)
    assert failed_filters(m, sentence) == []


def test_age_sentence_without_trigger_never_matches():
    # no trigger word at all, so the pipeline cannot emit it
    assert match_sentence("She is 23 years old.") is None
    instances, stats = extract_corpus([("d", "She is 23 years old.")])
    assert instances == []
    assert stats.matched == 0


def test_filter_words_are_whole_words():
    sentence = "The strike lasted 3 weeks later that year."
    m = match_sentence(sentence)
    assert m is not None
    # "later" contains "at" but must not trip the word filter
    assert failed_filters(m, sentence) == []


def test_label_sentence_masks_expression():
    sentence = "He was jailed for 23 years."
    inst = label_sentence(sentence, match_sentence(sentence), "doc#0")
    assert inst.masked_text == "He was jailed for [MASK] [MASK]."
    assert inst.mask_positions == (4, 5)
    assert inst.exact_label == pytest.approx(math.log(23 * 31_536_000))
    assert inst.range_label is TemporalUnit.DECADE


def test_label_sentence_one_hour():
    sentence = "It took 1 hour."
    inst = label_sentence(sentence, match_sentence(sentence), "doc#1")
    assert inst.masked_text == "It took [MASK] [MASK]."
    assert inst.exact_label == pytest.approx(math.log(3600))


def test_label_sentence_expression_at_start():
    # label_sentence only needs a consistent MatchResult, wherever it came from
    sentence = "3 days of work remained."
    m = MatchResult(trigger="", trigger_family="", quantity=3.0, unit=TemporalUnit.DAY,
                    span=(0, 6), matched_text="3 days")
    inst = label_sentence(sentence, m)
    assert inst.masked_text == "[MASK] [MASK] of work remained."
    assert inst.mask_positions == (0, 1)


def test_label_sentence_rejects_overflowing_numeral():
    sentence = f"They took {'9' * 400} years."
    m = match_sentence(sentence)
    assert m is not None
    with pytest.raises(InvalidQuantityError):
        label_sentence(sentence, m)


def test_label_sentence_rejects_zero_quantity():
    sentence = "It took 0 seconds exactly."
    m = match_sentence(sentence)
    with pytest.raises(InvalidQuantityError):
        label_sentence(sentence, m)


def test_label_sentence_rejects_a_sentence_holding_a_mask_token():
    sentence = "The [MASK] lasted for 3 days."
    with pytest.raises(MaskedTextError):
        label_sentence(sentence, match_sentence(sentence))
    instances, stats = extract_corpus([("d", f"{sentence} It took 2 days. Then [MASK], over 4 weeks.")])
    assert [i.source_id for i in instances] == ["d#1"]
    assert (stats.matched, stats.skipped_instances, stats.emitted) == (3, 2, 1)


def test_label_sentence_skips_an_expression_glued_to_a_word():
    # The first mask would join "x", and the instance would train on one window.
    sentence = "It took x3 days."
    with pytest.raises(MaskedTextError, match="would join 'x'"):
        label_sentence(sentence, match_sentence(sentence))
    instances, stats = extract_corpus([("d", f"{sentence} It took (3 days).")])
    assert [(i.source_id, i.masked_text, i.mask_positions) for i in instances] == [
        ("d#1", "It took ([MASK] [MASK]).", (2, 3))]
    assert (stats.matched, stats.skipped_instances, stats.emitted) == (2, 1, 1)


def test_unit_that_does_not_read_back_is_no_match():
    # "\u0130" matches "i" case-insensitively, but lowercases to "i" and a
    # combining dot, so the matched word names no unit; dotless "\u0131"
    # reads back as "minute".
    assert match_sentence("It took 3 m\u0130nutes.") is None
    instances, stats = extract_corpus([("d", "It took 3 m\u0130nutes. It took 3 m\u0131nutes.")])
    assert [(i.source_id, i.range_label) for i in instances] == [("d#1", TemporalUnit.MINUTE)]


def test_segment_sentences():
    text = "He ran. She walked! Did they rest? Yes."
    assert segment_sentences(text) == ["He ran.", "She walked!", "Did they rest?", "Yes."]
    assert segment_sentences("No terminal punctuation here") == ["No terminal punctuation here"]
    assert segment_sentences(" It ended.\x85\u3000 Then? \t") == [" It ended.", "Then?"]
    assert segment_sentences(". \u2003") == ["."]


def test_digits_of_other_scripts_match():
    for sentence, quantity in [("The strike lasted for \u0663 days.", 3),
                               ("Repairs took \uff12\uff14 hours.", 24)]:
        assert match_sentence(sentence).quantity == quantity
        instances, _ = extract_corpus([("d", sentence)])
        assert [i.source_id for i in instances] == ["d#0"]


# Text built from the pieces that segmentation, the digit gate, the unit
# lookup and the filter gates look at: ASCII and other digits, ASCII and
# Unicode whitespace, terminal and clause punctuation, triggers, units,
# filter words and ordinals, the characters that case-insensitive matching
# folds onto ASCII letters ("\u017f" s, "\u0130" and "\u0131" i, "\u212a"
# k), plus arbitrary characters.
_PIECES = ["took", "for", "lasting", "spent", "over", "period", "old", "more than", "every",
           "days", "Hours", "years", "week", "x", " ", " ", "  ", "\t", "\n", "\x85", "\xa0",
           "\u2003", "\u3000", ".", "!", "?", ",", ";", "[MASK]", "0", "3", "23", "\u0663",
           "\u0662\u0664", "\uff13", "\u09ea", " took 3 days", " for \u0663 weeks", " over 12 months",
           "time", "secondary", "first", "second", "third", "fourth", "fifth", "sixth", "seventh",
           "eighth", "ninth", "\u017f", "\u0130", "\u0131", "\u212a", " TIME", " \u017fecondary",
           " Old", " t\u0130me", " took 3 m\u0130nutes", " for 2 m\u0131nutes",
           " spent 4 \u017feconds", " over 5 wee\u212as"]
_texts = st.lists(st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=40).map("".join)


@given(_texts)
def test_segment_sentences_equals_the_lookbehind_split(text):
    assert segment_sentences(text) == [s for s in re.split(r"(?<=[.!?])\s+", text) if s.strip()]


@given(_texts.map(lambda text: text.replace("!", "").replace("?", "")))
def test_period_only_split_equals_the_lookbehind_split(text):
    # Every example takes the split on the period alone.
    assert segment_sentences(text) == [s for s in re.split(r"(?<=[.!?])\s+", text) if s.strip()]


@given(st.one_of(_texts, st.text(st.characters(max_codepoint=127))))
def test_digit_test_equals_the_digit_search(text):
    assert _holds_digit(text) == (_DIGIT_RE.search(text) is not None)


@given(_texts)
def test_gated_match_equals_the_ungated_search(text):
    # The reference reads the unit back with TemporalUnit.from_string, and
    # a unit word it cannot read is no match.
    m, want = match_sentence(text), _TRIGGER_RE.search(text)
    try:
        want = want and (want["trigger"], want.span("expr"), want[0],
                         TemporalUnit.from_string(want["unit"]))
    except ValueError:
        want = None
    assert (m and (m.trigger, m.span, m.matched_text, m.unit)) == want


def _ungated_filters(matched_text, sentence):
    rules = [("word_blocklist", _WORD_FILTER_RE, matched_text),
             ("ordinal_time", _ORDINAL_TIME_RE, matched_text),
             ("numeric_secondary", _SECONDARY_RE, sentence),
             ("unit_old", _UNIT_OLD_RE, sentence)]
    return [name for name, pattern, text in rules if pattern.search(text)]


@given(_texts, _texts)
def test_gated_filters_equal_the_ungated_patterns(matched_text, rest):
    # failed_filters reads only the matched text and the sentence, so any
    # text may stand in for either.
    m = MatchResult(trigger="", trigger_family="", quantity=1.0, unit=TemporalUnit.DAY,
                    span=(0, 0), matched_text=matched_text)
    for sentence in (matched_text + rest, rest):
        assert failed_filters(m, sentence) == _ungated_filters(matched_text, sentence)


def test_filter_gates_fold_case_as_their_patterns_do():
    sentence = "It took 3 days, said the FIRST T\u0130ME, 2 \u017fecondary and 4 years OLD."
    m = match_sentence(sentence)
    # the ordinal rule reads the matched text: let it span the sentence
    m = MatchResult(m.trigger, m.trigger_family, m.quantity, m.unit, m.span, sentence)
    assert failed_filters(m, sentence) == ["ordinal_time", "numeric_secondary", "unit_old"]


# Strings of what json escapes (quotes, backslashes, C0 controls, U+2028,
# non-ASCII letters, an astral character it writes as a surrogate pair)
# and of DEL, which it writes as is.
_json_strings = st.text(st.one_of(st.sampled_from(['"', "\\", "\u2028", "\x00", "\x1f", "\x7f",
                                                   "\u00e9", "\U0001f600", " "]),
                                  st.characters()))
_instances = st.builds(
    LabeledInstance,
    masked_text=_json_strings,
    mask_positions=st.lists(st.integers(0, 10 ** 6), max_size=4).map(tuple),
    exact_label=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([-0.0, 5e-324, -1e-300, 1.7976931348623157e308, 1e16])),
    range_label=st.sampled_from(list(TemporalUnit)),
    source_id=_json_strings,
)


@given(st.lists(_instances, max_size=5))
def test_write_instances_equals_json_dumps(instances):
    assert write_instances(instances) == "".join(
        json.dumps(inst.to_json(), sort_keys=True) + "\n" for inst in instances)


# Three documents, five clean planted matches, two filter traps.
FIXTURE_DOCS = [
    ("news-1",
     "The siege lasted for 23 years. It lasted for more than 10 years they claimed. "
     "Repairs took 3 hours."),
    ("news-2", "She spent 2 weeks at sea. The crew smiled."),
    ("news-3",
     "The inquiry ran for 6 months. He looked over 23 years old. "
     "Overnight the journey took 45 minutes."),
]


def test_extract_corpus_fixture_counts():
    # "at sea" follows the expression, so it is outside the matched
    # sub-sentence and the word filter stays quiet there
    instances, stats = extract_corpus(FIXTURE_DOCS)
    assert stats.documents == 3
    assert stats.sentences == 8
    assert stats.matched == len(instances) + stats.filtered
    assert stats.filtered == 2
    assert len(instances) == 5
    assert {i.source_id for i in instances} == {
        "news-1#0", "news-1#2", "news-2#0", "news-3#0", "news-3#2"
    }
    assert stats.by_filter == {"word_blocklist": 1, "unit_old": 1}


def test_extract_corpus_empty_stream():
    instances, stats = extract_corpus([])
    assert instances == []
    assert stats.documents == 0
    assert stats.emitted == 0


def test_extract_corpus_skips_undecodable():
    # anything that is not a str is skipped: None from an undecodable file
    # or a malformed record, and bytes, which are never decoded
    docs = [("bad", None), ("raw", b"It took 3 days."), ("good", "It took 2 days.")]
    instances, stats = extract_corpus(docs)
    assert stats.skipped_documents == 2
    assert stats.documents == 1
    assert [i.source_id for i in instances] == ["good#0"]


def test_extract_corpus_counts_skipped_quantities():
    docs = [("d", f"It took {'9' * 400} years. It took 0 days.")]
    instances, stats = extract_corpus(docs)
    assert instances == []
    assert stats.matched == 2
    assert stats.skipped_instances == 2


def test_instances_jsonl_roundtrip():
    instances, _ = extract_corpus(FIXTURE_DOCS)
    payload = write_instances(instances)
    assert read_instances(io.StringIO(payload)) == instances


def test_read_documents_jsonl():
    lines = ['{"id": "a", "text": "It took 2 days."}', "", '{"text": "He smiled."}',
             "not json", '{"id": "b"}', "[1]"]
    docs = list(read_documents(lines, "docs.jsonl"))
    # a malformed line yields its position with no text
    assert docs == [("a", "It took 2 days."), ("docs.jsonl:2", "He smiled."),
                    ("docs.jsonl:3", None), ("docs.jsonl:4", None), ("docs.jsonl:5", None)]
    _, stats = extract_corpus(docs)
    assert stats.documents == 2
    assert stats.skipped_documents == 3


def test_read_documents_gives_a_null_id_the_line_index():
    # Two null ids used to read as "None" and give both instances "None#0".
    lines = ['{"id": null, "text": "It took 2 days."}', '{"id": null, "text": "It took 3 days."}',
             '{"id": 0, "text": "It took 4 days."}']
    docs = list(read_documents(lines, "docs.jsonl"))
    assert [doc_id for doc_id, _ in docs] == ["docs.jsonl:0", "docs.jsonl:1", "0"]
    instances, _ = extract_corpus(docs)
    assert [inst.source_id for inst in instances] == ["docs.jsonl:0#0", "docs.jsonl:1#0", "0#0"]


def _json_loads_documents(lines, source):
    # read_documents as it was written on json.loads.
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            doc_id = obj.get("id")
            yield f"{source}:{i}" if doc_id is None else str(doc_id), obj["text"]
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
            yield f"{source}:{i}", None


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), _texts),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["id", "text", "x"]), inner, max_size=3)),
    max_leaves=6)
_records = st.one_of(
    st.fixed_dictionaries({"text": _texts}, optional={"id": _json_values}),
    st.fixed_dictionaries({}, optional={"id": _json_values, "text": _json_values, "body": _json_values}))
# What may stand around a value on a line: JSON whitespace, whitespace that
# str.strip takes and JSON does not (U+2028, U+0085), a byte-order mark,
# and trailing data.
_line_ends = st.sampled_from(["", " ", "\t", "\r", "\u2028", "\x85", "\xa0", "\ufeff", " x", "x",
                              "{}", "[]", "0", '"a"', "\u2028 {}"])


def _jsonl_lines(records):
    """Lines that hold one of `records` or another JSON value, in one of
    three layouts and between two of _line_ends, or arbitrary text."""
    return st.one_of(
        st.builds(lambda head, value, sep, ascii, tail:
                  head + json.dumps(value, separators=sep, ensure_ascii=ascii) + tail,
                  _line_ends, st.one_of(records, _json_values),
                  st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", " :\r\n ")]), st.booleans(),
                  _line_ends),
        _texts,
    )


_lines = _jsonl_lines(_records)


@given(st.lists(_lines, max_size=6))
@example(['{"id": null, "text": "a"}', '{"text": "b", "id": null}'])
def test_read_documents_equals_json_loads(lines):
    assert list(read_documents(lines, "c")) == list(_json_loads_documents(lines, "c"))


def test_read_documents_refuses_trailing_data():
    lines = ['{"text": "a"} x', '{"text": "a"}{}', '{"text": "a"}\u2028{}', '\ufeff{"text": "a"}',
             ' {"text": "a"}\x85', '{ "id" : 7 ,\t"text" : "b" }']
    assert list(read_documents(lines, "c")) == list(_json_loads_documents(lines, "c")) == [
        ("c:0", None), ("c:1", None), ("c:2", None), ("c:3", None), ("c:4", "a"), ("7", "b")]


def _json_loads_rows(lines, parse, what):
    # adapters.read_jsonl as it was written on json.loads.
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


def _rows_or_error(read, lines):
    try:
        return read(lines)
    except MalformedRowError as exc:
        return f"MalformedRowError: {exc}"


_qa_records = st.fixed_dictionaries(
    {}, optional={"context": st.one_of(_texts, _json_values), "question": _texts,
                  "answer": st.one_of(st.just("2 hours"), _json_values),
                  "gold": st.one_of(st.booleans(), _json_values)})
_instance_records = st.fixed_dictionaries(
    {}, optional={"masked_text": st.sampled_from(["It took [MASK] [MASK].", "[MASK]", "none", 3]),
                  "mask_positions": st.sampled_from([[2, 3], [0], [], [3, 2], [1.0], "2"]),
                  "exact_label": st.one_of(st.floats(), st.integers(), _json_values),
                  "range_label": st.sampled_from(["hour", "days", "aeon", None]),
                  "source_id": st.one_of(_texts, _json_values)})


@given(st.lists(_jsonl_lines(_qa_records), max_size=4),
       st.lists(_jsonl_lines(_instance_records), max_size=4))
def test_read_jsonl_equals_json_loads(qa_lines, instance_lines):
    # The same rows, or the same MalformedRowError text, as json.loads gives:
    # trailing data, non-object values and whitespace tails included.
    assert _rows_or_error(read_mctaco_jsonl, qa_lines) == _rows_or_error(
        lambda lines: _json_loads_rows(lines, lambda obj: McTacoRow(
            obj["context"], obj["question"], obj["answer"], obj["gold"]), "a QA row"), qa_lines)
    assert _rows_or_error(read_instances, instance_lines) == _rows_or_error(
        lambda lines: _json_loads_rows(lines, LabeledInstance.from_json, "an instance"),
        instance_lines)


def test_read_jsonl_quotes_json_loads_on_trailing_data():
    lines = ['{"context": "c", "question": "q", "answer": "2 hours", "gold": true} {}']
    with pytest.raises(MalformedRowError, match=re.escape("Extra data: line 1 column 70 (char 69)")):
        read_mctaco_jsonl(lines)
    with pytest.raises(MalformedRowError, match="Unexpected UTF-8 BOM"):
        read_mctaco_jsonl(['\ufeff{"context": "c"}'])


# --- agreement with the reference scanner ---------------------------------


def _assert_agreement(sentences):
    docs = [(f"s{i}", s) for i, s in enumerate(sentences)]
    instances, stats = extract_corpus(docs)
    # extract_corpus segments per document; fixtures are single sentences,
    # but source ids append the in-document sentence index
    got = [
        (i.masked_text, i.mask_positions, i.range_label.word, i.source_id.split("#")[0])
        for i in instances
    ]
    got_values = [i.exact_label for i in instances]

    want_inst, matched, filtered, skipped = oracles.scan_corpus(sentences)
    want = [
        (w["masked_text"], w["mask_positions"], w["range_label"], w["source_id"])
        for w in want_inst
    ]
    want_values = [w["exact_label"] for w in want_inst]

    assert got == want
    assert stats.matched == matched
    assert stats.filtered == filtered
    assert stats.skipped_instances == skipped
    for a, b in zip(got_values, want_values):
        assert math.isclose(a, b, rel_tol=1e-12)


def test_scanner_agreement_on_handpicked_sentences():
    _assert_agreement([
        "He was jailed for 23 years.",
        "It took 3 hours, then 2 days.",
        "He ran for 2 hours and 3 days straight",
        "The overall mission lasted 18 months as planned.",
        "He performed 2 hours of surgery.",
        "They met every 2 weeks on schedule.",
        "Set take mode x427 5 days.",
        "It spent 0 seconds exactly.",
        "For 2 hours they trained.",
        "A blast shook the mine for 3 seconds.",
        "The yearly audit took 2 weeks overall.",
    ])


def test_scanner_agreement_on_randomized_fixtures():
    _assert_agreement(generate_sentences(250, seed=91))


def test_emitted_instances_satisfy_contract():
    sentences = generate_sentences(250, seed=17)
    docs = [(f"s{i}", s) for i, s in enumerate(sentences)]
    instances, _ = extract_corpus(docs)
    assert instances, "fixture should plant some matches"
    for inst in instances:
        # labels are finite and nonnegative (integer numerals are >= 1)
        assert math.isfinite(inst.exact_label)
        assert inst.exact_label >= 0.0
        assert inst.mask_positions
        # un-masking with any expression re-matches the main pattern
        rebuilt = inst.masked_text.replace("[MASK] [MASK]", "7 weeks").replace("[MASK]", "7")
        assert match_sentence(rebuilt) is not None
        # the matched sub-sentence of the rebuilt sentence passes filters
        m = match_sentence(rebuilt)
        assert failed_filters(m, rebuilt) == []
