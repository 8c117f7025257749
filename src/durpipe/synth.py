"""Synthetic duration corpus for end-to-end pipeline checks.

Each cue word carries a canonical duration. Training sentences embed the
cue together with a written-out duration drawn log-normally around the
cue's canonical value, phrased so the extraction pattern fires and no
filter does. Held-out items are duration-free sentences around the same
cues, shipped in the event-annotation TSV format so the evaluation
adapters can consume them as gold data.

The two splits are deliberately surface-aligned: held-out frames reuse
the training templates' carcass words and match their token length once
the mask pattern is inserted. The window-averaged baseline encoder sums
whatever falls in its context window, so a benchmark meant to test the
cue-duration association (and not domain shift) must hold sentence
length and vocabulary composition steady across the splits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .adapters import TimeBankRow
from .model import ConfigError
from .units import TemporalUnit, closest_unit, format_duration, normalize

__all__ = ["SynthSpec", "SynthOutput", "DEFAULT_CUES", "generate"]

# One cue per unit. None contains a trigger or unit word as a substring,
# and none collides with a filter word.
DEFAULT_CUES: tuple[tuple[str, TemporalUnit], ...] = (
    ("handshake", TemporalUnit.SECOND),
    ("briefing", TemporalUnit.MINUTE),
    ("seminar", TemporalUnit.HOUR),
    ("festival", TemporalUnit.DAY),
    ("voyage", TemporalUnit.WEEK),
    ("expedition", TemporalUnit.MONTH),
    ("apprenticeship", TemporalUnit.YEAR),
    ("dynasty", TemporalUnit.DECADE),
)

_NAMES = (
    "Maria", "Devon", "Priya", "Ethan", "Lucia", "Noor", "Hana", "Felix",
    "Ingrid", "Mateo", "Sana", "Viktor", "Amara", "Jonas", "Keiko", "Ravi",
    "Elena", "Tariq", "Wendy", "Oscar", "Bianca", "Dmitri", "Farah", "Gustav",
    "Imani", "Joaquin", "Nadia", "Pavel", "Quinn", "Selma",
)
_ADJECTIVES = (
    "quiet", "famous", "modest", "lively", "solemn", "crowded", "joyful",
    "tiring", "splendid", "gloomy", "festive", "orderly", "chaotic",
    "peaceful", "grand", "humble", "vivid", "dreary", "spirited", "mellow",
    "polished", "rustic", "stately", "cozy", "brisk", "serene", "radiant",
    "somber", "jubilant", "tranquil",
)
_ADVERBS = (
    "smoothly", "quickly", "quietly", "gracefully", "slowly", "calmly",
    "abruptly", "steadily", "pleasantly", "awkwardly", "brilliantly",
    "gently", "noisily", "predictably", "serenely", "swiftly", "tediously",
    "vividly", "warmly", "wonderfully",
)

# Every training sentence masks to exactly eight whitespace tokens and
# covers one of five trigger families.
_TRAIN_TEMPLATES: tuple[str, ...] = (
    "{name} said the {cue} lasted for {dur}.",
    "The {adj} {cue} went on for {dur}.",
    "The {cue} took {dur} to finish {adv}.",
    "{name} spent {dur} on the {adj} {cue}.",
    "A {cue} lasting {dur} kept {name} busy.",
    "The {cue} continued for {dur} without pause.",
    "{name} says the {adj} {cue} took {dur}.",
    "The {cue} persisted over {dur} by design.",
)

# Duration-free frames built from the training carcass vocabulary; five
# tokens each, so the inserted ", lasting [MASK] [MASK]," yields eight.
_HOLDOUT_FRAMES: tuple[str, ...] = (
    "{name} said the {cue} lasted.",
    "The {cue} continued without pause.",
    "A {cue} kept {name} busy.",
    "The {adj} {cue} went on.",
)


@dataclass(frozen=True)
class SynthSpec:
    size: int = 2000
    holdout: int = 400
    seed: int = 17
    sigma: float = 0.25  # log-space jitter around each cue's canonical duration

    def __post_init__(self) -> None:
        for name in ("size", "holdout", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass
class SynthOutput:
    documents: list[dict] = field(default_factory=list)  # {"id", "text"} records
    holdout_rows: list[TimeBankRow] = field(default_factory=list)

    def corpus_jsonl(self) -> str:
        return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in self.documents)


def _render_duration(seconds: float) -> tuple[int, TemporalUnit]:
    """Express a raw duration as the closest unit with a rounded count."""
    unit = closest_unit(normalize(seconds, TemporalUnit.SECOND))
    quantity = max(1, round(seconds / unit.seconds))
    return quantity, unit


def generate(spec: SynthSpec) -> SynthOutput:
    """Deterministically generate training documents and held-out gold rows.

    Cues cycle round-robin so both splits stay balanced across units.
    """
    rng = np.random.default_rng(spec.seed)
    out = SynthOutput()

    def render(frames: tuple[str, ...], word: str, cue_unit: TemporalUnit):
        """A filled frame, and the (quantity, unit) drawn around the cue unit."""
        frame = frames[int(rng.integers(len(frames)))]
        slots = {
            "cue": word,
            "name": _NAMES[int(rng.integers(len(_NAMES)))],
            "adj": _ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))],
            "adv": _ADVERBS[int(rng.integers(len(_ADVERBS)))],
        }
        with np.errstate(over="ignore"):  # the range check below reports it
            seconds = cue_unit.seconds * float(np.exp(rng.normal(0.0, spec.sigma)))
        if not 0 < seconds < math.inf:
            raise ConfigError(f"sigma = {spec.sigma} drew a duration of {seconds} s")
        quantity, unit = _render_duration(seconds)
        return frame.format(dur=format_duration(quantity, unit), **slots), quantity, unit

    for i in range(spec.size):
        sentence, _, _ = render(_TRAIN_TEMPLATES, *DEFAULT_CUES[i % len(DEFAULT_CUES)])
        out.documents.append({"id": f"synth-{i:05d}", "text": sentence})

    for i in range(spec.holdout):
        word, cue_unit = DEFAULT_CUES[i % len(DEFAULT_CUES)]
        sentence, quantity, unit = render(_HOLDOUT_FRAMES, word, cue_unit)
        start = sentence.index(word)
        out.holdout_rows.append(
            TimeBankRow(
                sentence=sentence,
                event_span=(start, start + len(word)),
                min_duration=(float(quantity), unit),
                max_duration=(float(quantity), unit),
            )
        )
    return out
