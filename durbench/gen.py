"""Seeded input generators for the durpipe benchmark.

Each generator is a pure function of its seed. It returns the text of
the files it writes together with the counts it planted, so that the
benchmark can check the program's own reports against them. The
generators do not import durpipe: what they plant follows from the
extraction and answer-parsing rules as documented, restated here, and
the benchmark's tests check the two against each other.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

UNITS = ("second", "minute", "hour", "day", "week", "month", "year", "decade")

# Trigger forms as they appear in text, with the extraction family the
# leftmost trigger of the form belongs to.
TRIGGER_FORMS = (
    ("for", "for"),
    ("last", "lasted"),
    ("last", "lasting"),
    ("spend", "spent"),
    ("spend", "spend"),
    ("take", "took"),
    ("take", "taken"),
    ("over", "over"),
    ("period", "a period of"),
    ("duration", "a duration of"),
)
TRIGGER_WORDS = ("duration", "period", "for", "last", "lasting", "spend", "spent",
                 "over", "take", "took", "taken")

# Substrings no filler word may contain: a trigger, a unit, or a piece
# of a filter rule could otherwise make a filler sentence match or a
# planted sentence fire a second rule.
_BANNED_SUBSTRINGS = TRIGGER_WORDS + UNITS + (
    "old", "time", "first", "third", "fifth", "ninth", "more", "than", "secondary",
)
_BANNED_WORDS = ("at", "age", "every", "next", "per")

_FUNCTION_WORDS = (
    "the", "a", "of", "and", "to", "in", "with", "was", "had", "from", "on",
    "by", "as", "into", "after", "near", "under", "while", "their", "his",
    "her", "its", "that", "this", "some", "many", "new", "small", "large",
    "across", "among", "toward", "upon", "quite", "rather", "also", "again",
)

# About one filler word in three follows a function word.
_FUNCTION_SLOTS = _FUNCTION_WORDS + ("",) * (2 * len(_FUNCTION_WORDS))
_TOKEN_BATCH = 1 << 16

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "cr", "dr", "gr", "pl", "st", "tr", "sh",
           "ch", "th", "bl", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "io", "ee")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "nd", "st", "rk", "ng")

# Trigger words with no duration after them.
_TRIGGER_ONLY = ("waited for the", "took the", "spent the", "lasted until the",
                 "looked over the", "marked the period of", "noted the duration of",
                 "had taken the", "kept lasting through the")
_ORDINALS = ("first", "third", "fifth", "ninth")
_UNPARSEABLE_ANSWERS = (
    "a few moments", "forever", "quite a while", "the whole season",
    "all night long", "0 days", "several ages", "no time at all",
)
_NUMBER_WORDS = ("one", "two", "three", "four", "five", "six", "seven", "eight",
                 "nine", "ten", "eleven", "twelve")

# The synth cue words, each with the index of its canonical unit.
QA_CUES = (
    ("handshake", 0), ("briefing", 1), ("seminar", 2), ("festival", 3),
    ("voyage", 4), ("expedition", 5), ("apprenticeship", 6), ("dynasty", 7),
)
_QA_NAMES = ("Maria", "Devon", "Priya", "Ethan", "Lucia", "Noor", "Hana", "Felix",
             "Ingrid", "Mateo", "Sana", "Viktor", "Amara", "Jonas", "Keiko", "Ravi")
_QA_ADJECTIVES = ("quiet", "famous", "modest", "lively", "solemn", "crowded", "joyful",
                  "tiring", "splendid", "gloomy", "orderly", "chaotic", "peaceful",
                  "grand", "humble", "vivid")
_QA_PLACES = ("in the city", "near the coast", "at the school", "in the valley",
              "at the museum", "in the harbor")


def filler_word_ok(word: str) -> bool:
    return word not in _BANNED_WORDS and not any(s in word for s in _BANNED_SUBSTRINGS)


def _plural(n: int, unit: str) -> str:
    return f"{n} {unit}" if n == 1 else f"{n} {unit}s"


@dataclass
class Planted:
    """What a noisy corpus is known to contain, in the program's stat names."""

    documents: int = 0
    skipped_documents: int = 0
    sentences: int = 0
    matched: int = 0
    filtered: int = 0
    skipped_instances: int = 0
    emitted: int = 0
    by_trigger: dict[str, int] = field(default_factory=dict)
    by_filter: dict[str, int] = field(default_factory=dict)
    # Not in the program's stats: what each planted sentence was.
    kinds: dict[str, int] = field(default_factory=dict)

    def stats_json(self) -> dict:
        """The counts extract's stats.json must report."""
        return {
            "documents": self.documents,
            "skipped_documents": self.skipped_documents,
            "sentences": self.sentences,
            "matched": self.matched,
            "filtered": self.filtered,
            "skipped_instances": self.skipped_instances,
            "emitted": self.emitted,
            "by_trigger": dict(sorted(self.by_trigger.items())),
            "by_filter": dict(sorted(self.by_filter.items())),
        }


@dataclass
class NoisyCorpus:
    corpus_jsonl: str
    gold_tsv: str
    planted: Planted


class _Writer:
    """Draws filler words with a Zipf-like frequency, like running text.

    Words come from a stream drawn in large batches, a share of them
    preceded by a function word, because drawing them one by one made
    generation the slowest part of set-up.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        words: set[str] = set()
        while len(words) < LEXICON_SIZE:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(rng.choice((2, 2, 3)))
            )
            if filler_word_ok(word):
                words.add(word)
        self.lexicon = sorted(words)
        rng.shuffle(self.lexicon)
        self.cum_weights = list(itertools.accumulate(1.0 / (r + 10) for r in range(LEXICON_SIZE)))
        self._tokens: list[str] = []
        self._next = 0

    def words(self, k: int) -> list[str]:
        return self.rng.choices(self.lexicon, cum_weights=self.cum_weights, k=k)

    def phrase(self, lo: int, hi: int) -> str:
        """lo..hi filler words, about a third of them after a function word."""
        k = lo + int(self.rng.random() * (hi - lo + 1))
        if self._next + k > len(self._tokens):
            slots = self.rng.choices(_FUNCTION_SLOTS, k=_TOKEN_BATCH)
            self._tokens = [f"{s} {w}" if s else w
                            for s, w in zip(slots, self.words(_TOKEN_BATCH))]
            self._next = 0
        start = self._next
        self._next += k
        return " ".join(self._tokens[start:self._next])

    def subject(self) -> str:
        head = self.phrase(1, 3)
        return head[0].upper() + head[1:]


def _sentence(w: _Writer, kind: str, planted: Planted) -> str:
    """Render one sentence of `kind` and count what it plants."""
    rng = w.rng
    n = rng.randint(1, 60)
    unit = rng.choice(UNITS)
    family = None
    rule = None
    if kind == "filler":
        text = f"{w.subject()} {w.phrase(4, 12)}"
        if rng.random() < 0.3:
            text += f", {w.phrase(2, 6)}"
    elif kind == "real":
        family, form = rng.choice(TRIGGER_FORMS)
        gap = w.phrase(0, 2)
        gap = f" {gap}" if gap else ""
        text = f"{w.subject()} {form}{gap} {_plural(n, unit)} {w.phrase(1, 5)}"
    elif kind == "trigger_only":
        text = f"{w.subject()} {rng.choice(_TRIGGER_ONLY)} {w.phrase(1, 4)}"
    elif kind == "numeral_only":
        text = f"{w.subject()} counted {_plural(n, unit)} {w.phrase(1, 4)}"
    elif kind == "fp_age":
        family, rule = "take", "word_blocklist"
        text = f"{w.subject()} took up {w.phrase(1, 2)} at the age of {n} years"
    elif kind == "fp_more_than":
        family, rule = "last", "word_blocklist"
        text = f"{w.subject()} lasted more than {_plural(n, unit)}"
    elif kind == "fp_every":
        family, rule = "for", "word_blocklist"
        text = f"{w.subject()} left for the {w.phrase(1, 2)} every {_plural(n, unit)}"
    elif kind == "fp_per":
        family, rule = "for", "word_blocklist"
        text = f"{w.subject()} paid for {w.phrase(1, 2)} per {_plural(n, unit)} of {w.phrase(1, 2)}"
    elif kind == "fp_first_time":
        family, rule = "for", "ordinal_time"
        text = f"{w.subject()} played for the {rng.choice(_ORDINALS)} time in {_plural(n, unit)}"
    elif kind == "fp_secondary":
        family, rule = "spend", "numeric_secondary"
        text = (f"{w.subject()} spent {_plural(n, unit)} building "
                f"{rng.randint(2, 40)} secondary {w.phrase(1, 2)}")
    elif kind == "fp_years_old":
        family, rule = "spend", "unit_old"
        text = (f"{w.subject()} spent {_plural(n, unit)} with a "
                f"{rng.randint(2, 90)} years old {w.phrase(1, 2)}")
    elif kind == "overflow":
        family = "last"
        text = f"{w.subject()} lasted for {rng.randint(1, 9)}{'9' * 400} {unit}s"
    elif kind == "zero":
        family = "for"
        text = f"{w.subject()} went on for 0 {unit}s"
    else:
        raise ValueError(f"unknown sentence kind {kind!r}")

    planted.sentences += 1
    planted.kinds[kind] = planted.kinds.get(kind, 0) + 1
    if family is not None:
        planted.matched += 1
        planted.by_trigger[family] = planted.by_trigger.get(family, 0) + 1
        if rule is not None:
            planted.filtered += 1
            planted.by_filter[rule] = planted.by_filter.get(rule, 0) + 1
        elif kind in ("overflow", "zero"):
            planted.skipped_instances += 1
        else:
            planted.emitted += 1
    return text + "."


# Share of sentences of each kind; filler takes the rest.
_SENTENCE_MIX = (
    ("real", 0.05),
    ("trigger_only", 0.08),
    ("numeral_only", 0.03),
    ("fp_age", 0.0025),
    ("fp_more_than", 0.0025),
    ("fp_every", 0.002),
    ("fp_per", 0.002),
    ("fp_first_time", 0.0025),
    ("fp_secondary", 0.002),
    ("fp_years_old", 0.002),
    ("overflow", 0.0002),
    ("zero", 0.0002),
)
_MALFORMED_LINE_RATE = 0.002
LEXICON_SIZE = 18_000
GOLD_ROWS = 6_000


def noisy_corpus(seed: int, documents: int = 35_000) -> NoisyCorpus:
    """A JSONL corpus of multi-sentence documents plus a gold TSV.

    Sentences are mostly filler drawn from a made-up lexicon; the rest
    carry a real duration, a trigger with no duration, a numeral with no
    trigger, a false positive for one filter rule, or a numeral that
    overflows a float or is zero. A few JSONL lines are malformed. The
    gold TSV holds event sentences with one duration unit each, the
    units in equal shares.
    """
    rng = random.Random(seed)
    w = _Writer(rng)
    planted = Planted()
    kinds = [k for k, _ in _SENTENCE_MIX] + ["filler"]
    cum = list(itertools.accumulate(p for _, p in _SENTENCE_MIX))
    cum.append(1.0)
    lines = []
    for i in range(documents):
        doc_id = f"n{seed}-{i:06d}"
        if rng.random() < _MALFORMED_LINE_RATE:
            planted.skipped_documents += 1
            if rng.random() < 0.5:
                lines.append(json.dumps({"id": doc_id, "text": w.subject()})[:-7])
            else:
                lines.append(json.dumps({"id": doc_id, "body": w.subject() + "."}))
            continue
        picks = rng.choices(kinds, cum_weights=cum, k=rng.randint(3, 7))
        text = " ".join(_sentence(w, kind, planted) for kind in picks)
        planted.documents += 1
        lines.append(json.dumps({"id": doc_id, "text": text}, sort_keys=True))

    rows = ["sentence\tevent_start\tevent_end\tmin_quantity\tmin_unit\tmax_quantity\tmax_unit"]
    for i in range(GOLD_ROWS):
        event = w.words(1)[0]
        prefix = f"{w.subject()} watched the "
        sentence = f"{prefix}{event} {w.phrase(1, 4)}."
        unit = UNITS[i % len(UNITS)]
        rows.append(f"{sentence}\t{len(prefix)}\t{len(prefix) + len(event)}\t1\t{unit}\t1\t{unit}")
    return NoisyCorpus(
        corpus_jsonl="\n".join(lines) + "\n",
        gold_tsv="\n".join(rows) + "\n",
        planted=planted,
    )


@dataclass
class QaSet:
    jsonl: str
    questions: int
    answers: int
    unparseable: int

    @property
    def scored(self) -> int:
        """Answers the mctaco protocol scores: the parseable ones."""
        return self.answers - self.unparseable


def _answer(rng: random.Random, unit: int) -> str:
    word = UNITS[unit]
    form = rng.random()
    if form < 0.2:
        return ("an " if word == "hour" else "a ") + word
    if form < 0.5:
        return f"{rng.choice(_NUMBER_WORDS)} {word}s"
    return _plural(rng.randint(1, 12), word)


def qa_set(seed: int, questions: int = 3_000) -> QaSet:
    """McTACO-style rows: duration questions about the synth cue words,
    three to six candidate answers each, some of them unparseable."""
    rng = random.Random(seed)
    combos = list(itertools.product(_QA_NAMES, _QA_ADJECTIVES, range(len(QA_CUES)), _QA_PLACES))
    if questions > len(combos):
        raise ValueError(f"at most {len(combos)} distinct questions, asked for {questions}")
    lines = []
    answers = unparseable = 0
    for name, adj, cue_idx, place in rng.sample(combos, questions):
        cue, cue_unit = QA_CUES[cue_idx]
        context = f"{name} attended the {adj} {cue} {place}."
        question = f"How long did the {cue} last?"
        k = rng.randint(3, 6)
        bad = [rng.random() < 0.15 for _ in range(k)]
        if all(bad):
            bad[0] = False
        for is_bad in bad:
            if is_bad:
                answer, gold = rng.choice(_UNPARSEABLE_ANSWERS), False
                unparseable += 1
            else:
                unit = rng.randrange(len(UNITS))
                answer, gold = _answer(rng, unit), abs(unit - cue_unit) <= 1
            answers += 1
            lines.append(json.dumps({"context": context, "question": question,
                                     "answer": answer, "gold": gold}, sort_keys=True))
    return QaSet(jsonl="\n".join(lines) + "\n", questions=questions,
                 answers=answers, unparseable=unparseable)
