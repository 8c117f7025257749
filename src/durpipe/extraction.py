"""Weakly supervised harvesting of duration sentences from raw text.

A sentence is kept when one of the trigger words is followed, within a
run of characters free of clause punctuation, by an integer and a
temporal unit ("... jailed for 23 years ..."). Four filter rules then
discard the common false positives (ages, rates, ordinals, "more than"
hedges). Surviving sentences are turned into training instances: the
duration expression is replaced by mask tokens and its normalized value
becomes the exact label, its closest unit the range label.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence

from .adapters import loads_stripped, read_jsonl
from .text import (
    MASK_TOKEN,
    MaskedTextError,
    find_mask_positions,
    is_mask_token,
    mask_string,
    splice_masks,
    tokenize,
)
from .units import UNITS_8, InvalidQuantityError, TemporalUnit, closest_unit, normalize

logger = logging.getLogger(__name__)

__all__ = [
    "TRIGGER_FAMILIES",
    "MatchResult",
    "LabeledInstance",
    "ExtractionStats",
    "MaskedTextError",
    "match_sentence",
    "failed_filters",
    "label_sentence",
    "extract_corpus",
    "segment_sentences",
    "read_documents",
    "write_instances",
    "read_instances",
]

# Seven trigger families; "last", "spend" and "take" carry inflected variants.
TRIGGER_FAMILIES: dict[str, tuple[str, ...]] = {
    "duration": ("duration",),
    "period": ("period",),
    "for": ("for",),
    "last": ("last", "lasting"),
    "spend": ("spend", "spent"),
    "over": ("over",),
    "take": ("take", "took", "taken"),
}

_FAMILY_OF_WORD = {w: fam for fam, words in TRIGGER_FAMILIES.items() for w in words}
_UNIT_OF_NAME = TemporalUnit.__members__

_UNIT_ALTERNATION = "|".join(u.word for u in UNITS_8)

# Longest trigger variants first so the reported trigger is the full word
# ("lasting", not its prefix "last"); the overall span is the same either
# way because the gap absorbs the remainder. Triggers are matched verbatim
# (no word boundary, no case folding) while the unit is case-insensitive
# with an optional plural "s". The gap is any run free of clause
# punctuation. The lookbehind keeps the greedy gap from splitting a
# numeral: the quantity is always the full digit run ("23 years", never
# "3 years" inside "23 years").
_TRIGGER_RE = re.compile(
    rf"(?P<trigger>{'|'.join(sorted(_FAMILY_OF_WORD, key=len, reverse=True))})[^,.!?;]*"
    rf"(?<!\d)(?P<expr>(?P<qty>\d+) (?i:(?P<unit>{_UNIT_ALTERNATION})s?)\b)"
)

_FILTER_WORDS = ("at", "age", "every", "next", "per")
_FILTER_PHRASE = "more than"
_ORDINALS = "first|second|third|fourth|fifth|sixth|seventh|eighth|ninth"

_WORD_FILTER_RE = re.compile(
    r"\b(?:" + "|".join(_FILTER_WORDS) + r"|" + _FILTER_PHRASE + r")\b", re.IGNORECASE
)
_ORDINAL_TIME_RE = re.compile(r"(?:" + _ORDINALS + r") time", re.IGNORECASE)
_SECONDARY_RE = re.compile(r"\d+ secondary", re.IGNORECASE)
_UNIT_OLD_RE = re.compile(r"(?:" + _UNIT_ALTERNATION + r")s? old", re.IGNORECASE)
# A literal that every match of the rule above holds, under the same case
# folding: a text without it cannot match, and it is far cheaper to find.
_ORDINAL_TIME_GATE = re.compile(" time", re.IGNORECASE)
_SECONDARY_GATE = re.compile(" secondary", re.IGNORECASE)
_UNIT_OLD_GATE = re.compile(" old", re.IGNORECASE)

# A sentence ends at terminal punctuation followed by whitespace.
_SENTENCE_END_RE = re.compile(r"([.!?])\s+")
_PERIOD_END_RE = re.compile(r"(\.)\s+")
# A sentence that the trigger pattern matches holds a character that \d
# matches; [0-9] would miss the digits of other scripts that it takes.
_DIGIT_RE = re.compile(r"\d")


@dataclass(slots=True)
class MatchResult:
    trigger: str
    trigger_family: str
    quantity: float
    unit: TemporalUnit
    span: tuple[int, int]  # [start, end) character offsets of the expression in the sentence
    matched_text: str  # sub-sentence from trigger start to expression end


class LabeledInstance(NamedTuple):
    """One training instance. It is a tuple, so it cannot be changed once
    made; `from_json` checks one read back from a file."""

    masked_text: str
    mask_positions: tuple[int, ...]
    exact_label: float  # log-seconds
    range_label: TemporalUnit
    source_id: str

    def to_json(self) -> dict:
        return {
            "masked_text": self.masked_text,
            "mask_positions": list(self.mask_positions),
            "exact_label": self.exact_label,
            "range_label": self.range_label.word,
            "source_id": self.source_id,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LabeledInstance":
        text, positions, exact = obj["masked_text"], obj["mask_positions"], obj["exact_label"]
        source_id = obj.get("source_id", "")
        if type(text) is not str:
            raise ValueError(f"masked_text {text!r} is not a string")
        if type(positions) is not list or any(type(p) is not int for p in positions):
            raise ValueError(f"mask_positions {positions!r} is not a list of integers")
        tokens = tokenize(text)
        if not positions or not all(0 <= p < len(tokens) and is_mask_token(tokens[p])
                                    for p in positions):
            raise ValueError(f"mask_positions {positions} are not a nonempty list of "
                             f"{MASK_TOKEN} token indices")
        # A repeated position would sum its window twice in training.
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ValueError(f"mask_positions {positions} are not strictly increasing")
        if type(exact) not in (int, float) or not math.isfinite(exact):
            raise ValueError(f"exact_label {exact!r} is not a finite number")
        if type(source_id) is not str:
            raise ValueError(f"source_id {source_id!r} is not a string")
        return cls(text, tuple(positions), float(exact),
                   TemporalUnit.from_string(obj["range_label"]), source_id)


@dataclass
class ExtractionStats:
    """Counters for one extraction run."""

    documents: int = 0
    skipped_documents: int = 0
    sentences: int = 0
    matched: int = 0
    filtered: int = 0
    skipped_instances: int = 0
    emitted: int = 0
    by_trigger: dict[str, int] = field(default_factory=dict)
    by_filter: dict[str, int] = field(default_factory=dict)


def _holds_digit(sentence: str) -> bool:
    """Whether `_DIGIT_RE` finds a digit. In ASCII text that is one of
    "0"-"9", and ten `in` tests, each a memchr, find it several times
    faster than the regex's per-character class test (or a loop or a set
    over the ten digits)."""
    if sentence.isascii():
        return ("0" in sentence or "1" in sentence or "2" in sentence or "3" in sentence
                or "4" in sentence or "5" in sentence or "6" in sentence or "7" in sentence
                or "8" in sentence or "9" in sentence)
    return _DIGIT_RE.search(sentence) is not None


def match_sentence(sentence: str) -> MatchResult | None:
    """Leftmost match of the trigger-gap-value pattern, or None.

    The gap is greedy, so when several values follow one trigger before a
    stop character the furthest one is taken, mirroring the source
    pattern's behavior. The quantity is a run of characters that `\\d`
    matches: ASCII digits and the decimal digits of other scripts ("٣",
    "３"), which float() reads at their value. A sentence holding no such
    character cannot match and is not searched; `_holds_digit` tests an
    ASCII sentence for "0"-"9" by substring search, which in ASCII text
    finds what `\\d` finds.
    """
    if not _holds_digit(sentence):
        return None
    m = _TRIGGER_RE.search(sentence)
    if m is None:
        return None
    trigger, qty, word = m.group("trigger", "qty", "unit")
    # As TemporalUnit.from_string reads the word (the group holds no plural
    # "s"). It matched case-insensitively, which takes "İ" for "i"; "mİnute"
    # then lowercases to a word that names no unit.
    unit = _UNIT_OF_NAME.get(word.lower().upper())
    if unit is None:
        return None
    # float() saturates huge numerals to inf; label_sentence rejects those.
    # Positional arguments: keywords cost about as much as the record.
    return MatchResult(trigger, _FAMILY_OF_WORD[trigger], float(qty), unit, m.span("expr"), m.group())


def failed_filters(m: MatchResult, sentence: str) -> list[str]:
    """Names of filter rules that fire on this match, in check order. Each
    rule but the word blocklist runs its pattern only where the literal
    that every match of it holds (" time", " secondary", " old") is found."""
    text = m.matched_text
    fired = []
    if _WORD_FILTER_RE.search(text):
        fired.append("word_blocklist")
    if _ORDINAL_TIME_GATE.search(text) and _ORDINAL_TIME_RE.search(text):
        fired.append("ordinal_time")
    if _SECONDARY_GATE.search(sentence) and _SECONDARY_RE.search(sentence):
        fired.append("numeric_secondary")
    if _UNIT_OLD_GATE.search(sentence) and _UNIT_OLD_RE.search(sentence):
        fired.append("unit_old")
    return fired


def label_sentence(sentence: str, m: MatchResult, source_id: str = "") -> LabeledInstance:
    """Mask the duration expression and attach both labels.

    One mask token is written per whitespace token of the expression, so
    "23 years" becomes "[MASK] [MASK]". Raises InvalidQuantityError for
    quantities that cannot be normalized (zero, or numerals too large for
    a float), and MaskedTextError for a sentence that already holds a
    mask token or whose expression is glued to a word ("x3 days"), which
    would merge a mask into that word; callers skip those sentences.
    """
    if MASK_TOKEN in sentence and find_mask_positions(sentence):
        raise MaskedTextError(f"sentence already holds a {MASK_TOKEN} token")
    start, end = m.span
    n_tokens = len(tokenize(sentence[start:end]))
    masked, positions = splice_masks(sentence[:start], mask_string(n_tokens), sentence[end:])
    exact = normalize(m.quantity, m.unit)
    return LabeledInstance(masked, positions, exact, closest_unit(exact, UNITS_8), source_id)


def segment_sentences(document: str) -> list[str]:
    """Split on terminal punctuation followed by whitespace; no
    abbreviation handling. A sentence keeps its punctuation and loses the
    whitespace after it, and a blank remainder is dropped: these are the
    nonblank pieces of a split on `(?<=[.!?])\\s+`, found by one split on
    `([.!?])\\s+` that joins each piece to the punctuation it captured.
    A document without "!" or "?" can capture only ".", so it is split on
    `(\\.)\\s+`, which sre finds by its fast literal-prefix scan."""
    end_re = _SENTENCE_END_RE if "!" in document or "?" in document else _PERIOD_END_RE
    parts = end_re.split(document)
    rest = parts.pop()
    pairs = iter(parts)
    sentences = [piece + end for piece, end in zip(pairs, pairs)]
    if rest.strip():
        sentences.append(rest)
    return sentences


def extract_corpus(
    documents: Iterable[tuple[str, str | None]],
) -> tuple[list[LabeledInstance], ExtractionStats]:
    """Run match/filter/label over a stream of (doc_id, text) pairs.

    A document whose text is not a str (None for a malformed record or
    an undecodable file) is skipped and counted; this is the one place
    skipped documents are counted. Filter counts can exceed the number
    of rejected sentences because several rules may fire on one match.
    """
    stats = ExtractionStats()
    instances: list[LabeledInstance] = []
    for doc_id, text in documents:
        if not isinstance(text, str):
            stats.skipped_documents += 1
            continue
        stats.documents += 1
        sentences = segment_sentences(text)
        stats.sentences += len(sentences)
        for idx, sentence in enumerate(sentences):
            m = match_sentence(sentence)
            if m is None:
                continue
            stats.matched += 1
            stats.by_trigger[m.trigger_family] = stats.by_trigger.get(m.trigger_family, 0) + 1
            fired = failed_filters(m, sentence)
            if fired:
                stats.filtered += 1
                for name in fired:
                    stats.by_filter[name] = stats.by_filter.get(name, 0) + 1
                continue
            try:
                instance = label_sentence(sentence, m, source_id=f"{doc_id}#{idx}")
            except (InvalidQuantityError, MaskedTextError) as exc:
                stats.skipped_instances += 1
                logger.debug("skipping %s#%d: %s", doc_id, idx, exc)
                continue
            instances.append(instance)
            stats.emitted += 1
    return instances, stats


def read_documents(lines: Iterable[str], source: str) -> Iterator[tuple[str, str | None]]:
    """Parse JSONL document records ({"id": ..., "text": ...}).

    A record without an id, or whose id is null, gets "<source>:<line
    index>". A malformed line yields that id with text None, which
    extract_corpus counts as skipped; each is logged at DEBUG, and one
    WARNING at the end gives their number and the first one's line index.
    """
    n_bad, first_bad = 0, None
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = loads_stripped(line)
            doc_id = obj.get("id")
            doc = f"{source}:{i}" if doc_id is None else str(doc_id), obj["text"]
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
            logger.debug("skipping malformed document %s:%d", source, i)
            n_bad += 1
            first_bad = i if first_bad is None else first_bad
            doc = f"{source}:{i}", None
        yield doc
    if n_bad:
        logger.warning("skipping malformed document lines in %s: %d lines, the first at index %d",
                       source, n_bad, first_bad)


# One instance as json.dumps(inst.to_json(), sort_keys=True) lays it out.
_INSTANCE_JSON = ('{"exact_label": %s, "mask_positions": [%s], "masked_text": %s, '
                  '"range_label": "%s", "source_id": %s}\n')


def write_instances(instances: Sequence[LabeledInstance]) -> str:
    """json.dumps(inst.to_json(), sort_keys=True) + "\\n" for each instance,
    laid out from a fixed template: strings through json's C encoder, the
    label through float.__repr__. This holds for what label_sentence and
    read_instances build: str text and id, int positions, a finite float."""
    quote = encode_basestring_ascii
    return "".join([
        _INSTANCE_JSON % (float.__repr__(inst.exact_label), ", ".join(map(str, inst.mask_positions)),
                          quote(inst.masked_text), inst.range_label.word, quote(inst.source_id))
        for inst in instances
    ])


def read_instances(lines: Iterable[str]) -> list[LabeledInstance]:
    return read_jsonl(lines, LabeledInstance.from_json, "an instance")
