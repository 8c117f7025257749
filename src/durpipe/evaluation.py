"""Scoring protocols: coarse one-day split, fine-grained units with
approximate agreement, and QA correctness under the range rule.

Reports keep the raw confusion counts and one record per scored item so
that every aggregate can be recomputed from the report itself.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .model import ConfigError
from .units import (
    LESS_THAN_DAY,
    MORE_THAN_DAY,
    UNITS_7,
    UNITS_8,
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


@dataclass(frozen=True)
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
        lines = ["id\tprediction\tgold\tcorrect\tkey"]
        for rec in self.items:
            lines.append(
                f"{rec.item_id}\t{rec.prediction}\t{rec.gold}\t{int(rec.correct)}\t{rec.key}"
            )
        return "\n".join(lines) + "\n"


def f1_from_counts(tp: int, fp: int, fn: int) -> float | None:
    """F1 from confusion counts; None when the class never occurs at all."""
    if tp == fp == fn == 0:
        return None
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


_COARSE = (LESS_THAN_DAY, MORE_THAN_DAY)


def _unit_or_value(pred: object) -> TemporalUnit | float:
    """A head's raw prediction as the protocols read it: the range head's
    unit, bare or in predict_many's (unit, probabilities) pair, or the
    exact head's log-second value."""
    if isinstance(pred, tuple):
        pred = pred[0]
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
    (see `_unit_or_value`) or a coarse label."""
    items = []
    for i, (raw, gold) in enumerate(zip(preds, golds, strict=True)):
        if gold not in _COARSE:
            raise ValueError(f"not a coarse gold label: {gold!r}")
        if isinstance(raw, str):
            if raw not in _COARSE:
                raise ValueError(f"not a coarse label: {raw!r}")
            pred = raw
        else:
            pred = _unit_or_value(raw)
            pred = coarse_of_unit(pred) if isinstance(pred, TemporalUnit) else coarse_of_value(pred)
        items.append(ItemRecord(
            item_id=str(i),
            prediction=pred,
            gold=gold,
            correct=pred == gold,
            key=keys[i] if keys else "",
        ))
    return _tally("coarse", items, _COARSE)


def eval_fine(
    preds: Sequence[object],
    golds: Sequence[TemporalUnit],
    inventory: UnitInventory = UNITS_7,
    keys: Sequence[str] | None = None,
) -> EvalReport:
    """Fine-grained unit task under approximate agreement. A log-second
    prediction scores as its closest inventory unit."""
    inventory = tuple(inventory)
    items = []
    for i, (raw, gold) in enumerate(zip(preds, golds, strict=True)):
        pred = _unit_or_value(raw)
        if not isinstance(pred, TemporalUnit):
            pred = closest_unit(pred, inventory)
        if pred not in inventory:
            raise ValueError(f"prediction {pred.word} outside inventory")
        if gold not in inventory:
            raise ValueError(f"gold {gold.word} outside inventory")
        items.append(ItemRecord(
            item_id=str(i),
            prediction=pred.word,
            gold=gold.word,
            correct=approx_match(pred, gold),
            key=keys[i] if keys else "",
        ))
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

    inventory = tuple(inventory)
    items = []
    pair_counts: Counter[tuple[str, str]] = Counter()
    per_question_ok: dict[str, bool] = {q: True for q in question_order}
    answer_index: Counter[str] = Counter()
    for qid, value, gold in answers:
        pred = predicted[qid]
        if isinstance(pred, TemporalUnit):
            verdict = approx_match(pred, closest_unit(value, inventory))
            shown = pred.word
        else:
            verdict = abs(value - pred) <= rule.range_width
            shown = f"{pred:.6g}"
        correct = verdict == gold
        per_question_ok[qid] = per_question_ok[qid] and correct
        idx = answer_index[qid]
        answer_index[qid] += 1
        labels = ("correct" if verdict else "incorrect", "correct" if gold else "incorrect")
        pair_counts[labels] += 1
        items.append(ItemRecord(
            item_id=f"{qid}#a{idx}",
            prediction=f"{shown}:{labels[0]}",
            gold=labels[1],
            correct=correct,
            key=qid,
        ))
    report = _tally("mctaco", items, ("correct",), pair_counts)
    report.exact_match = sum(per_question_ok.values()) / len(question_order)
    if extra:
        report.diagnostics["predictions_without_answers"] = extra
    return report


def majority_baseline(
    golds: Sequence[object],
    protocol: str,
    inventory: UnitInventory = UNITS_7,
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


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
