import csv
import io
import json
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from durpipe.adapters import TimeBankRow, timebank_to_input
from durpipe.evaluation import (
    EvalReport,
    ItemRecord,
    RangeRule,
    eval_coarse,
    eval_fine,
    eval_mctaco,
    f1_from_counts,
    majority_baseline,
    report_to_json,
)
from durpipe.units import (
    LESS_THAN_DAY,
    MORE_THAN_DAY,
    UNITS_7,
    UNITS_8,
    TemporalUnit,
    approx_match,
    closest_unit,
    normalize,
)

LT, GT = LESS_THAN_DAY, MORE_THAN_DAY
U = TemporalUnit


# --- coarse protocol -------------------------------------------------------


def test_coarse_all_correct():
    report = eval_coarse([LT, GT, LT], [LT, GT, LT])
    assert report.accuracy == 1.0
    assert report.f1_per_class == {LT: 1.0, GT: 1.0}


def test_coarse_accepts_values_and_units():
    preds = [normalize(1, U.HOUR), U.DAY, normalize(3, U.WEEK), U.MINUTE]
    golds = [LT, GT, GT, GT]
    report = eval_coarse(preds, golds)
    assert [r.prediction for r in report.items] == [LT, GT, GT, LT]
    assert report.accuracy == pytest.approx(3 / 4)


def test_coarse_hand_computed_confusion():
    # items: (pred, gold) = (<, <) hit, (>, <) miss, (<, >) miss, (>, >) hit
    report = eval_coarse([LT, GT, LT, GT], [LT, LT, GT, GT])
    assert report.accuracy == 0.5
    assert report.confusion[LT] == {"tp": 1, "fp": 1, "fn": 1}
    assert report.confusion[GT] == {"tp": 1, "fp": 1, "fn": 1}
    assert report.f1_per_class[LT] == pytest.approx(0.5)
    assert report.f1_per_class[GT] == pytest.approx(0.5)


def test_coarse_degenerate_majority_shape():
    # 62.47% ">day" golds, constant ">day" predictor: accuracy mirrors the
    # gold rate and the never-hit class goes to zero F1
    golds = [GT] * 6247 + [LT] * 3753
    report = eval_coarse([GT] * 10000, golds)
    assert report.accuracy == pytest.approx(0.6247)
    assert report.f1_per_class[LT] == 0.0
    assert report.f1_per_class[GT] == pytest.approx(2 * 6247 / (2 * 6247 + 3753))


def test_coarse_f1_absent_class_is_none():
    report = eval_coarse([GT, GT], [GT, GT])
    assert report.f1_per_class[LT] is None
    assert report.f1_per_class[GT] == 1.0


def test_coarse_length_mismatch_errors():
    with pytest.raises(ValueError):
        eval_coarse([LT], [LT, GT])
    with pytest.raises(ValueError):
        eval_coarse([], [])
    with pytest.raises(ValueError):
        eval_coarse([LT], ["sideways"])


# --- fine protocol ---------------------------------------------------------


def test_fine_adjacency():
    report = eval_fine([U.MINUTE, U.MINUTE], [U.SECOND, U.DAY], UNITS_7)
    assert [r.correct for r in report.items] == [True, False]
    assert report.accuracy == 0.5


def test_fine_constant_month_on_uniform_golds():
    golds = list(UNITS_7)
    report = eval_fine([U.MONTH] * 7, golds, UNITS_7)
    assert report.accuracy == pytest.approx(3 / 7)


def test_fine_identical_is_perfect():
    for inventory in (UNITS_7, UNITS_8):
        golds = list(inventory) * 3
        assert eval_fine(list(golds), list(golds), inventory).accuracy == 1.0


def test_fine_scores_a_value_as_its_closest_unit():
    values = [normalize(q, u) for u in UNITS_8 for q in (1, 2.5, 40)]
    for inventory in (UNITS_7, UNITS_8):
        golds = [closest_unit(v + 1.3, inventory) for v in values]
        by_value = eval_fine(values, golds, inventory)
        by_unit = eval_fine([closest_unit(v, inventory) for v in values], golds, inventory)
        assert by_value.to_json() == by_unit.to_json()


def test_protocols_read_the_range_heads_units():
    # The range head predicts a bare unit; a (unit, probabilities) pair
    # is no prediction.
    units = [U.MINUTE, U.DAY, U.YEAR]
    golds = [U.HOUR, U.DAY, U.MONTH]
    fine = eval_fine(units, golds, UNITS_8)
    assert [(rec.prediction, rec.correct) for rec in fine.items] == [
        (u.word, approx_match(u, g)) for u, g in zip(units, golds)]
    coarse = eval_coarse(units, [LT, LT, GT])
    assert [rec.prediction for rec in coarse.items] == [LT, GT, GT]
    answers = [("q0", normalize(2, U.HOUR), True), ("q0", normalize(2, U.WEEK), False)]
    mctaco = eval_mctaco({"q0": U.HOUR}, answers)
    assert [rec.prediction for rec in mctaco.items] == ["hour:correct", "hour:incorrect"]
    pair = (U.HOUR, [0.1] * 8)
    for score in (lambda: eval_fine([pair], [U.HOUR], UNITS_8), lambda: eval_coarse([pair], [LT]),
                  lambda: eval_mctaco({"q0": pair}, answers)):
        with pytest.raises(TypeError):
            score()


def test_fine_rejects_units_outside_inventory():
    with pytest.raises(ValueError):
        eval_fine([U.DECADE], [U.YEAR], UNITS_7)
    with pytest.raises(ValueError):
        eval_fine([U.YEAR], [U.DECADE], UNITS_7)


# --- QA protocol -----------------------------------------------------------


def test_mctaco_range_rule_hand_example():
    d = normalize(2, U.HOUR)
    answers = [("q0", normalize(1, U.HOUR), True)]
    report = eval_mctaco({"q0": d}, answers, RangeRule(3.0))
    # |ln 7200 - ln 3600| = ln 2, inside the band, so judged correct
    assert report.items[0].prediction.endswith(":correct")
    assert report.accuracy == 1.0


def test_mctaco_infinite_range_accepts_everything():
    answers = [("q0", 1.0, True), ("q0", 30.0, False), ("q1", 2.0, True)]
    report = eval_mctaco({"q0": 5.0, "q1": 2.0}, answers, RangeRule(math.inf))
    verdicts = [r.prediction.endswith(":correct") for r in report.items]
    assert verdicts == [True, True, True]
    # recall is 1; EM counts only the question with no gold-false answers
    assert report.exact_match == pytest.approx(0.5)


def test_mctaco_range_head_uses_approximate_agreement():
    answers = [("q0", normalize(30, U.MINUTE), True), ("q0", normalize(3, U.WEEK), False)]
    report = eval_mctaco({"q0": U.HOUR}, answers, RangeRule(3.0), UNITS_8)
    assert report.accuracy == 1.0  # minute~hour matches, week does not


def test_mctaco_em_definition():
    # one question, two answers, both verdicts match the golds
    answers = [("q0", 1.0, True), ("q0", 9.0, False)]
    report = eval_mctaco({"q0": 1.5}, answers, RangeRule(1.0))
    assert report.exact_match == 1.0
    assert report.accuracy == 1.0


def test_mctaco_report_does_not_depend_on_mapping_order():
    answers = [("a", 1.0, True), ("b", 9.0, True), ("a", 2.0, False)]
    reordered = eval_mctaco({"b": 9.0, "a": 1.0}, answers, RangeRule(0.5))
    mapped = eval_mctaco({"a": 1.0, "b": 9.0}, answers, RangeRule(0.5))
    assert reordered.to_json() == mapped.to_json()
    with pytest.raises(ValueError):
        eval_mctaco({"a": 1.0}, answers, RangeRule(0.5))


def test_mctaco_question_order_is_first_appearance():
    # questions count in order of first appearance, also when the answers
    # of questions are interleaved
    answers = [("q2", 5.0, True), ("q1", 1.0, True), ("q2", 5.5, True),
               ("q3", 9.0, True), ("q1", 1.2, True), ("q3", 9.1, True)]
    seq = eval_mctaco({"q2": 5.0, "q1": 1.0, "q3": 9.0}, answers, RangeRule(0.6))
    mapped = eval_mctaco({"q1": 1.0, "q2": 5.0, "q3": 9.0}, answers, RangeRule(0.6))
    assert seq.to_json() == mapped.to_json()
    assert seq.accuracy == 1.0 and seq.exact_match == 1.0


def test_mctaco_extra_predictions_are_diagnosed():
    answers = [("a", 1.0, True)]
    report = eval_mctaco({"a": 1.0, "ghost": 2.0}, answers, RangeRule(1.0))
    assert report.diagnostics["predictions_without_answers"] == 1


def test_range_rule_must_be_positive():
    with pytest.raises(ValueError):
        RangeRule(0.0)
    with pytest.raises(ValueError):
        RangeRule(-1.0)


# The 20-question fixture: 4 groups x 5 questions, 2 answers each.
# Offsets from the prediction and gold labels are chosen so the counts
# can be tallied by hand for range 0.5, 3.0 and infinity.
_GROUPS = [
    ((0.3, True), (4.0, False)),   # A
    ((2.0, True), (0.3, False)),   # B
    ((0.3, True), (2.0, True)),    # C
    ((4.0, False), (2.0, False)),  # D
]


def _mctaco_fixture():
    d = normalize(1, U.HOUR)
    preds = {}
    answers = []
    qi = 0
    for group in _GROUPS:
        for _ in range(5):
            qid = f"q{qi:02d}"
            preds[qid] = d
            for sign, (offset, gold) in zip((1, -1), group):
                answers.append((qid, d + sign * offset, gold))
            qi += 1
    return preds, answers


def test_mctaco_fixture_hand_computed_metrics():
    preds, answers = _mctaco_fixture()
    # range 0.5: tp=10 fp=5 fn=10 -> F1 = 4/7; EM: groups A and D
    r = eval_mctaco(preds, answers, RangeRule(0.5))
    assert r.f1_per_class["correct"] == pytest.approx(4 / 7)
    assert r.exact_match == pytest.approx(0.5)
    # range 3.0: tp=20 fp=10 fn=0 -> F1 = 0.8; EM: groups A and C
    r = eval_mctaco(preds, answers, RangeRule(3.0))
    assert r.f1_per_class["correct"] == pytest.approx(0.8)
    assert r.exact_match == pytest.approx(0.5)
    # infinite range: tp=20 fp=20 -> F1 = 2/3; EM: group C only
    r = eval_mctaco(preds, answers, RangeRule(math.inf))
    assert r.f1_per_class["correct"] == pytest.approx(2 / 3)
    assert r.exact_match == pytest.approx(0.25)


def test_mctaco_recall_monotone_in_range():
    preds, answers = _mctaco_fixture()
    recalls = []
    for width in [0.5 * k for k in range(1, 11)]:
        rep = eval_mctaco(preds, answers, RangeRule(width))
        c = rep.confusion["correct"]
        recalls.append(c["tp"] / (c["tp"] + c["fn"]))
    assert recalls == sorted(recalls)


# --- majority baseline -----------------------------------------------------


def test_majority_fine_uses_month():
    golds = list(UNITS_7)
    report = majority_baseline(golds, "fine", UNITS_7)
    assert report.accuracy == pytest.approx(3 / 7)
    assert all(r.prediction == "month" for r in report.items)


def test_majority_coarse_uses_majority_label():
    golds = [GT] * 6258 + [LT] * 3742
    report = majority_baseline(golds, "coarse")
    assert report.accuracy == pytest.approx(0.6258)
    golds = [LT] * 7 + [GT] * 3
    assert majority_baseline(golds, "coarse").accuracy == pytest.approx(0.7)


def test_majority_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        majority_baseline([], "fine")
    with pytest.raises(ValueError):
        majority_baseline([GT], "mctaco")


# --- report invariants -----------------------------------------------------


def test_accuracy_equals_mean_of_item_verdicts():
    rng = random.Random(5)
    preds = [rng.choice(list(UNITS_8)) for _ in range(50)]
    golds = [rng.choice(list(UNITS_8)) for _ in range(50)]
    report = eval_fine(preds, golds, UNITS_8)
    assert report.accuracy == pytest.approx(
        sum(r.correct for r in report.items) / len(report.items)
    )


@given(st.randoms(use_true_random=False))
def test_shuffling_pairs_preserves_metrics(rng):
    pairs = [(rng.choice(list(UNITS_7)), rng.choice(list(UNITS_7))) for _ in range(30)]
    report_a = eval_fine([p for p, _ in pairs], [g for _, g in pairs], UNITS_7)
    rng.shuffle(pairs)
    report_b = eval_fine([p for p, _ in pairs], [g for _, g in pairs], UNITS_7)
    assert report_a.accuracy == report_b.accuracy


def test_em_never_exceeds_answer_accuracy():
    rng = random.Random(9)
    for _ in range(20):
        answers = []
        preds = {}
        for q in range(rng.randint(1, 6)):
            qid = f"q{q}"
            preds[qid] = rng.uniform(0, 10)
            for _ in range(rng.randint(1, 4)):
                answers.append((qid, rng.uniform(0, 10), rng.random() < 0.5))
        report = eval_mctaco(preds, answers, RangeRule(2.0))
        assert report.exact_match <= report.accuracy + 1e-12


def test_f1_reproducible_from_stored_confusion():
    preds, answers = _mctaco_fixture()
    report = eval_mctaco(preds, answers, RangeRule(3.0))
    c = report.confusion["correct"]
    assert report.f1_per_class["correct"] == pytest.approx(
        f1_from_counts(c["tp"], c["fp"], c["fn"])
    )
    coarse = eval_coarse([LT, GT, LT, GT], [LT, LT, GT, GT])
    for label, counts in coarse.confusion.items():
        assert coarse.f1_per_class[label] == pytest.approx(
            f1_from_counts(counts["tp"], counts["fp"], counts["fn"])
        )


@pytest.mark.parametrize("keys", [["x"], ["x", "y", "z"], []], ids=["short", "long", "empty"])
def test_keys_of_another_length_than_the_predictions_are_refused(keys):
    with pytest.raises(ValueError):
        eval_fine([U.DAY, U.WEEK], [U.DAY, U.YEAR], UNITS_8, keys=keys)
    with pytest.raises(ValueError):
        eval_coarse([LT, GT], [LT, LT], keys=keys)


def test_library_defaults_take_the_eight_unit_inventory_as_the_cli_does():
    # Without an inventory, a decade row keeps its decade label and scores.
    decades = (2.0, U.DECADE)
    row = TimeBankRow("The dynasty endured.", (4, 11), decades, decades)
    assert timebank_to_input(row).range_label is U.DECADE
    assert eval_fine([U.DECADE], [U.DECADE]).accuracy == 1.0
    [item] = majority_baseline([U.DECADE], "fine").items
    assert (item.prediction, item.gold) == ("month", "decade")


def test_report_json_roundtrip():
    report = eval_fine([U.DAY, U.WEEK], [U.DAY, U.YEAR], UNITS_8, keys=["x", "y"])
    payload = json.loads(report_to_json(report))
    assert payload["protocol"] == "fine"
    assert payload["accuracy"] == report.accuracy
    assert payload["items"][0] == {
        "id": "0", "prediction": "day", "gold": "day", "correct": True, "key": "x"
    }
    assert report.to_item_tsv().splitlines()[1] == "0\tday\tday\t1\tx"


# Text with the characters json escapes: controls, quotes, backslashes,
# non-ASCII and astral ones.
_json_text = st.text(st.one_of(st.sampled_from('\x00\x1f\t\n"\\/\u00e9\u2028\U0001f600'),
                               st.characters()), max_size=8)
_ratio = st.floats(0.0, 1.0)
_reports = st.builds(
    EvalReport,
    protocol=st.sampled_from(["coarse", "fine", "mctaco"]),
    accuracy=_ratio,
    f1_per_class=st.dictionaries(_json_text, st.none() | _ratio, max_size=3),
    confusion=st.dictionaries(_json_text, st.fixed_dictionaries(
        {k: st.integers(0, 10**6) for k in ("tp", "fp", "fn")}), max_size=3),
    exact_match=st.none() | _ratio,
    items=st.lists(st.builds(ItemRecord, _json_text, _json_text, _json_text, st.booleans(),
                             _json_text), max_size=6),
    diagnostics=st.dictionaries(_json_text, st.integers(0, 10**6), max_size=2),
)


@given(_reports)
@example(EvalReport("mctaco", 0.5, {"\u00e9": None}, {}, None, [], {}))
@example(EvalReport("fine", 1.0, {}, {}, 0.25, [ItemRecord("q0#a0", "\x01:x", "\u2028", True, "\"")],
                    {"unparseable_answers": 2}))
def test_report_to_json_equals_the_indented_dump(report):
    assert report_to_json(report) == json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"


@given(_reports)
@example(EvalReport("fine", 1.0, items=[ItemRecord("0", "day", "day", True, "met\ragain"),
                                        ItemRecord("1", "day", "week", False, "\r\n\"")]))
def test_items_tsv_reads_back_as_the_items(report):
    rows = csv.reader(io.StringIO(report.to_item_tsv(), newline=""), delimiter="\t")
    assert list(rows) == [["id", "prediction", "gold", "correct", "key"]] + [
        [rec.item_id, rec.prediction, rec.gold, str(int(rec.correct)), rec.key]
        for rec in report.items]
