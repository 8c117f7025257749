"""Scoring protocols: coarse one-day split, fine-grained units with
approximate agreement, and QA correctness under the range rule.

Reports keep the raw confusion counts and one record per scored item so
that every aggregate can be recomputed from the report itself.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from .adapters import write_tsv
from .units import (
    LESS_THAN_DAY,
    MORE_THAN_DAY,
    UNITS_8,
    ConfigError,
    TemporalUnit,
    UnitInventory,
    approx_match,
    closest_unit,
    coarse_of_unit,
    coarse_of_value,
)

__all__ = [
    "RangeRule",
    "ItemRecord",
    "EvalReport",
    "eval_coarse",
    "eval_fine",
    "eval_mctaco",
    "majority_baseline",
    "f1_from_counts",
    "report_to_json",
]


@dataclass(frozen=True)
class RangeRule:
    """Acceptance band for the exact head on QA data: an answer counts as
    correct when it lies within `range_width` of the predicted value in
    log-second space. 3.0 is the dev-tuned default."""

    range_width: float = 3.0

    def __post_init__(self) -> None:
        if not self.range_width > 0:
            raise ConfigError(f"range must be > 0, got {self.range_width}")


@dataclass(slots=True)
class ItemRecord:
    item_id: str
    prediction: str
    gold: str
    correct: bool
    key: str = ""  # free-form grouping key (e.g. event word), written to items.tsv


@dataclass
class EvalReport:
    protocol: str
    accuracy: float
    f1_per_class: dict[str, float | None] = field(default_factory=dict)
    confusion: dict[str, dict[str, int]] = field(default_factory=dict)  # class -> tp/fp/fn
    exact_match: float | None = None
    items: list[ItemRecord] = field(default_factory=list)
    diagnostics: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "accuracy": self.accuracy,
            "f1_per_class": self.f1_per_class,
            "confusion": self.confusion,
            "exact_match": self.exact_match,
            "diagnostics": self.diagnostics,
            "items": [
                {
                    "id": rec.item_id,
                    "prediction": rec.prediction,
                    "gold": rec.gold,
                    "correct": rec.correct,
                    "key": rec.key,
                }
                for rec in self.items
            ],
        }

    def to_item_tsv(self) -> str:
        """One tab-separated line per item under a header, quoted as
        adapters.write_tsv quotes a cell."""
        return write_tsv(chain([("id", "prediction", "gold", "correct", "key")], (
            (rec.item_id, rec.prediction, rec.gold, "1" if rec.correct else "0", rec.key)
            for rec in self.items)))


def f1_from_counts(tp: int, fp: int, fn: int) -> float | None:
    """F1 from confusion counts; None when the class never occurs at all."""
    if tp == fp == fn == 0:
        return None
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


_COARSE = (LESS_THAN_DAY, MORE_THAN_DAY)


def _unit_or_value(pred: object) -> TemporalUnit | float:
    """A head's raw prediction as the protocols read it: the range head's
    unit or the exact head's log-second value."""
    return pred if isinstance(pred, TemporalUnit) else float(pred)


def _tally(
    protocol: str,
    items: list[ItemRecord],
    classes: tuple[str, ...] = (),
    pair_counts: Counter[tuple[str, str]] | None = None,
) -> EvalReport:
    """The report of scored items: accuracy over their `correct` flags,
    and tp/fp/fn and F1 of each of `classes` from the counts of
    (predicted label, gold label) pairs, by default the items' own
    prediction and gold."""
    if not items:
        raise ValueError(f"no {protocol} items to score")
    if pair_counts is None:
        pair_counts = Counter((rec.prediction, rec.gold) for rec in items)
    confusion = {
        label: {
            "tp": pair_counts[label, label],
            "fp": sum(n for (pred, gold), n in pair_counts.items() if pred == label != gold),
            "fn": sum(n for (pred, gold), n in pair_counts.items() if gold == label != pred),
        }
        for label in classes
    }
    return EvalReport(
        protocol=protocol,
        accuracy=sum(rec.correct for rec in items) / len(items),
        f1_per_class={label: f1_from_counts(**c) for label, c in confusion.items()},
        confusion=confusion,
        items=items,
    )


def eval_coarse(
    preds: Sequence[object],
    golds: Sequence[str],
    keys: Sequence[str] | None = None,
) -> EvalReport:
    """Binary less-than-a-day task. A prediction is a head's raw output
    (see `_unit_or_value`) or a coarse label. `preds`, `golds` and `keys`
    must be of one length."""
    keys = [""] * len(preds) if keys is None else keys
    items = []
    for i, (raw, gold, key) in enumerate(zip(preds, golds, keys, strict=True)):
        if gold not in _COARSE:
            raise ValueError(f"not a coarse gold label: {gold!r}")
        if isinstance(raw, str):
            if raw not in _COARSE:
                raise ValueError(f"not a coarse label: {raw!r}")
            pred = raw
        else:
            pred = _unit_or_value(raw)
            pred = coarse_of_unit(pred) if isinstance(pred, TemporalUnit) else coarse_of_value(pred)
        items.append(ItemRecord(str(i), pred, gold, pred == gold, key))
    return _tally("coarse", items, _COARSE)


def eval_fine(
    preds: Sequence[object],
    golds: Sequence[TemporalUnit],
    inventory: UnitInventory = UNITS_8,
    keys: Sequence[str] | None = None,
) -> EvalReport:
    """Fine-grained unit task under approximate agreement. A log-second
    prediction scores as its closest inventory unit. `preds`, `golds` and
    `keys` must be of one length."""
    inventory = tuple(inventory)
    keys = [""] * len(preds) if keys is None else keys
    # One lookup both checks that a unit is in the inventory and gives its word.
    word_of = {unit: unit.word for unit in inventory}
    items = []
    for i, (raw, gold, key) in enumerate(zip(preds, golds, keys, strict=True)):
        pred = _unit_or_value(raw)
        if not isinstance(pred, TemporalUnit):
            pred = closest_unit(pred, inventory)
        shown, gold_word = word_of.get(pred), word_of.get(gold)
        if shown is None:
            raise ValueError(f"prediction {pred.word} outside inventory")
        if gold_word is None:
            raise ValueError(f"gold {gold.word} outside inventory")
        items.append(ItemRecord(str(i), shown, gold_word, approx_match(pred, gold), key))
    return _tally("fine", items)


def eval_mctaco(
    preds: Mapping[str, object],
    answers: Sequence[tuple[str, float, bool]],
    rule: RangeRule = RangeRule(),
    inventory: UnitInventory = UNITS_8,
) -> EvalReport:
    """QA correctness: the model judges each candidate answer of a question
    against its one prediction for that question.

    `answers` holds (question_id, log-second answer value, gold) triples;
    unparseable answers are expected to be dropped upstream. `preds` maps
    each question id to its head's raw prediction. An exact-head
    prediction accepts answers within the rule's band; a range-head
    prediction accepts answers whose closest unit approximately matches.
    """
    question_order = list(dict.fromkeys(qid for qid, _, _ in answers))
    missing = [q for q in question_order if q not in preds]
    if missing:
        raise ValueError(f"missing predictions for questions: {missing[:5]}")
    known = set(question_order)
    extra = sum(1 for q in preds if q not in known)
    predicted = {q: _unit_or_value(preds[q]) for q in question_order}
    shown = {q: pred.word if isinstance(pred, TemporalUnit) else f"{pred:.6g}"
             for q, pred in predicted.items()}

    inventory = tuple(inventory)
    width = rule.range_width
    items = []
    pair_counts: Counter[tuple[str, str]] = Counter()
    per_question_ok: dict[str, bool] = {q: True for q in question_order}
    answer_index = dict.fromkeys(question_order, 0)
    for qid, value, gold in answers:
        pred = predicted[qid]
        if isinstance(pred, TemporalUnit):
            verdict = approx_match(pred, closest_unit(value, inventory))
        else:
            verdict = abs(value - pred) <= width
        correct = verdict == gold
        if not correct:
            per_question_ok[qid] = False
        idx = answer_index[qid]
        answer_index[qid] = idx + 1
        labels = ("correct" if verdict else "incorrect", "correct" if gold else "incorrect")
        pair_counts[labels] += 1
        items.append(ItemRecord(f"{qid}#a{idx}", f"{shown[qid]}:{labels[0]}", labels[1], correct, qid))
    report = _tally("mctaco", items, ("correct",), pair_counts)
    report.exact_match = sum(per_question_ok.values()) / len(question_order)
    if extra:
        report.diagnostics["predictions_without_answers"] = extra
    return report


def majority_baseline(
    golds: Sequence[object],
    protocol: str,
    inventory: UnitInventory = UNITS_8,
) -> EvalReport:
    """Constant predictor: "month" for the fine task (it approximately
    matches week, month and year), the majority label for the coarse task."""
    if protocol == "fine":
        return eval_fine([TemporalUnit.MONTH] * len(golds), golds, inventory)
    if protocol == "coarse":
        tally = Counter(golds)
        majority = MORE_THAN_DAY if tally[MORE_THAN_DAY] >= tally[LESS_THAN_DAY] else LESS_THAN_DAY
        return eval_coarse([majority] * len(golds), golds)
    raise ValueError(f"majority baseline not defined for protocol {protocol!r}")


# One item of the report's "items" list as json.dumps(..., sort_keys=True,
# indent=2) lays it out at that depth.
_ITEM_JSON = ('    {\n      "correct": %s,\n      "gold": %s,\n      "id": %s,\n'
              '      "key": %s,\n      "prediction": %s\n    }')


def report_to_json(report: EvalReport) -> str:
    """json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n".

    With `indent`, json encodes in pure Python, so only the header goes
    through json.dumps; the items are laid out from a fixed template,
    each string encoded by json's C string encoder."""
    text = json.dumps(replace(report, items=[]).to_json(), sort_keys=True, indent=2)
    if report.items:
        quote = encode_basestring_ascii
        items = ",\n".join([
            _ITEM_JSON % ("true" if rec.correct else "false", quote(rec.gold),
                          quote(rec.item_id), quote(rec.key), quote(rec.prediction))
            for rec in report.items
        ])
        # Only a top-level key sits at an indent of two spaces, and no
        # encoded string holds a raw newline, so this finds the items key.
        text = text.replace('\n  "items": []', '\n  "items": [\n' + items + '\n  ]', 1)
    return text + "\n"
