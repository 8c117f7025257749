"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the published rules rather
than from the package code: literal second-value tables, boundary-based
unit bucketing, and a per-trigger-word scanner that applies the raw
extraction pattern and filter rules one at a time. The one exception is
`token_epoch`, training's block matrices built from every window token
of an epoch, which checks the build from each item's entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Literal canonical table (30-day month, 365-day year, 10-year decade).
ORACLE_SECONDS = {
    "second": 1,
    "minute": 60,
    "hour": 3600,
    "day": 86400,
    "week": 604800,
    "month": 2592000,
    "year": 31536000,
    "decade": 315360000,
}
UNIT_WORDS = list(ORACLE_SECONDS)

# Geometric-midpoint boundaries between adjacent units, in plain seconds.
# A value sitting exactly on a boundary belongs to the smaller unit.
_BOUNDARIES = [
    math.sqrt(ORACLE_SECONDS[a] * ORACLE_SECONDS[b])
    for a, b in zip(UNIT_WORDS, UNIT_WORDS[1:])
]


def bucket_unit(log_seconds: float, n_units: int = 8) -> str:
    """Closest unit via boundary lookup instead of distance minimization."""
    seconds = math.exp(log_seconds)
    for i in range(n_units - 1):
        if seconds <= _BOUNDARIES[i]:
            return UNIT_WORDS[i]
    return UNIT_WORDS[n_units - 1]


def scan_closest_unit(log_seconds: float, n_units: int = 8) -> str:
    """Closest unit by a scan from the smallest that keeps the earlier of
    two equal distances, as `closest_unit` was first written."""
    best = UNIT_WORDS[0]
    best_dist = abs(log_seconds - math.log(ORACLE_SECONDS[best]))
    for unit in UNIT_WORDS[1:n_units]:
        dist = abs(log_seconds - math.log(ORACLE_SECONDS[unit]))
        if dist < best_dist:
            best, best_dist = unit, dist
    return best


TRIGGER_WORDS = [
    "duration", "period", "for", "last", "lasting",
    "spend", "spent", "over", "take", "took", "taken",
]
STOP_CHARS = set(",.!?;")
FILTER_WORDS = ["at", "age", "every", "next", "per"]
ORDINALS = ["first", "second", "third", "fourth", "fifth",
            "sixth", "seventh", "eighth", "ninth"]


@dataclass
class OracleMatch:
    trigger: str
    trigger_start: int
    expr_start: int
    expr_end: int
    quantity_text: str
    unit_word: str


def _is_wordchar(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _complete_expression(region: str, j: int) -> tuple[int, str, str] | None:
    """Try to read `digits SPACE unit [s]` starting at region[j]; returns
    (end, digits, unit_word) or None. The caller guarantees region[j] is a
    digit not preceded by a digit."""
    k = j
    while k < len(region) and region[k].isdigit():
        k += 1
    digits = region[j:k]
    if k >= len(region) or region[k] != " ":
        return None
    k += 1
    rest = region[k:].lower()
    for unit in UNIT_WORDS:
        if rest.startswith(unit):
            end = k + len(unit)
            if end < len(region) and region[end].lower() == "s":
                end += 1
            if end < len(region) and _is_wordchar(region[end]):
                continue  # unit embedded in a longer word
            return end, digits, unit
    return None


def _scan_after_trigger(sentence: str, start: int) -> tuple[int, int, str, str] | None:
    """Last completing expression in the stop-free region after a trigger."""
    stop = len(sentence)
    for i in range(start, len(sentence)):
        if sentence[i] in STOP_CHARS:
            stop = i
            break
    region = sentence[start:stop]
    best = None
    j = 0
    while j < len(region):
        prev = sentence[start + j - 1] if start + j > 0 else ""
        if region[j].isdigit() and not prev.isdigit():
            got = _complete_expression(region, j)
            if got is not None:
                end, digits, unit = got
                best = (start + j, start + end, digits, unit)
            while j < len(region) and region[j].isdigit():
                j += 1
        else:
            j += 1
    return best


def scan_sentence(sentence: str) -> OracleMatch | None:
    """Leftmost successful trigger-plus-expression match, one trigger word
    at a time."""
    best: OracleMatch | None = None
    for word in TRIGGER_WORDS:
        pos = sentence.find(word)
        while pos != -1:
            got = _scan_after_trigger(sentence, pos + len(word))
            if got is not None:
                expr_start, expr_end, digits, unit = got
                cand = OracleMatch(word, pos, expr_start, expr_end, digits, unit)
                if (best is None or cand.trigger_start < best.trigger_start
                        or (cand.trigger_start == best.trigger_start
                            and len(cand.trigger) > len(best.trigger))):
                    best = cand
                break  # later occurrences of this word cannot be more leftmost
            pos = sentence.find(word, pos + 1)
    return best


def _contains_word(text: str, phrase: str) -> bool:
    n = len(phrase)
    for i in range(len(text) - n + 1):
        if text[i:i + n] == phrase:
            before_ok = i == 0 or not _is_wordchar(text[i - 1])
            after_ok = i + n == len(text) or not _is_wordchar(text[i + n])
            if before_ok and after_ok:
                return True
    return False


def _digits_then_secondary(text: str) -> bool:
    i = text.find(" secondary")
    while i != -1:
        if i > 0 and text[i - 1].isdigit():
            return True
        i = text.find(" secondary", i + 1)
    return False


def failing_filters(match: OracleMatch, sentence: str) -> list[str]:
    sub = sentence[match.trigger_start:match.expr_end].lower()
    sent = sentence.lower()
    fired = []
    if any(_contains_word(sub, w) for w in FILTER_WORDS) or _contains_word(sub, "more than"):
        fired.append("word_blocklist")
    if any(f"{o} time" in sub for o in ORDINALS):
        fired.append("ordinal_time")
    if _digits_then_secondary(sent):
        fired.append("numeric_secondary")
    if any(f"{u}{s} old" in sent for u in UNIT_WORDS for s in ("", "s")):
        fired.append("unit_old")
    return fired


CLING = ",.;:!?'\"()"


def label_instance(sentence: str, match: OracleMatch, source_id: str) -> dict | None:
    """Mask and label one match; None when the quantity is unusable or
    when the masked text does not hold one mask token per token of the
    expression (a numeral glued to a word, "x718 decades")."""
    quantity = float(match.quantity_text)
    if not (0.0 < quantity < math.inf):
        return None
    n_tokens = len(sentence[match.expr_start:match.expr_end].split())
    masked = (sentence[:match.expr_start]
              + " ".join(["[MASK]"] * n_tokens)
              + sentence[match.expr_end:])
    positions = tuple(
        i for i, tok in enumerate(masked.split()) if tok.strip(CLING) == "[MASK]"
    )
    if len(positions) != n_tokens:
        return None
    value = math.log(quantity) + math.log(ORACLE_SECONDS[match.unit_word])
    return {
        "masked_text": masked,
        "mask_positions": positions,
        "exact_label": value,
        "range_label": bucket_unit(value),
        "source_id": source_id,
    }


def scan_corpus(sentences: list[str]):
    """Full reference pipeline over pre-segmented sentences.

    Returns (instances, matched_count, filtered_count, skipped_count).
    """
    instances = []
    matched = filtered = skipped = 0
    for idx, sentence in enumerate(sentences):
        m = scan_sentence(sentence)
        if m is None:
            continue
        matched += 1
        if failing_filters(m, sentence):
            filtered += 1
            continue
        inst = label_instance(sentence, m, f"s{idx}")
        if inst is None:
            skipped += 1
            continue
        instances.append(inst)
    return instances, matched, filtered, skipped


def _ranges(starts, lengths):
    """The ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def token_epoch(rows, lengths, counts, labels, order, size, span, h, block_items):
    """An epoch's batches from the window tokens of its items: `rows` holds
    every window token's table row (below `span`), `lengths` the tokens per
    window and `counts` the windows per item. Returns one (labels, rows,
    blocks) triple per batch of `size` items in `order`; each batch is cut
    into blocks of `block_items` items, and a block is (matrix, cols, slots)
    as `durpipe.model._Batch` documents, with the head's `h` rows in front
    of each batch's rows. One weighted `np.bincount` over every token of
    the epoch, in token order, builds every matrix."""
    n = len(order)
    windows = _ranges((np.cumsum(counts) - counts)[order], counts[order])
    counts = counts[order]
    rows = rows[_ranges((np.cumsum(lengths) - lengths)[windows], lengths[windows])]
    lengths = lengths[windows]
    starts = np.flatnonzero(np.arange(n) % size % block_items == 0)
    items = np.diff(starts, append=n)
    block = np.repeat(np.arange(len(starts)), items)
    # A block's columns are its distinct rows, ascending; `cells` is each
    # token's column, then its entry.
    keys, cells = np.unique(np.repeat(np.repeat(block * span, counts), lengths) + rows,
                            return_inverse=True)
    cols = keys % span
    widths = np.bincount(keys // span, minlength=len(starts))
    sizes = items * widths
    col_ends, ends = np.cumsum(widths), np.cumsum(sizes)
    base = ((ends - sizes) - (col_ends - widths))[block] + (np.arange(n) - starts[block]) * widths[block]
    cells += np.repeat(np.repeat(base, counts), lengths)
    matrices = np.bincount(cells, weights=np.repeat(1.0 / lengths, lengths), minlength=ends[-1])
    # Each batch's distinct rows, ascending, and where each block's columns are in them.
    firsts = np.arange(0, n + size, size)
    batch = np.repeat(starts // size, widths)
    distinct, slots = np.unique(batch * span + cols, return_inverse=True)
    u = np.searchsorted(distinct, np.arange(len(firsts)) * span)
    slots -= u[batch]
    distinct %= span
    blocks = [(matrices[e - s:e].reshape(k, w), cols[c - w:c], slots[c - w:c] + h) for k, w, s, e, c
              in zip(items.tolist(), widths.tolist(), sizes.tolist(), ends.tolist(), col_ends.tolist())]
    labels = labels[order]
    b = np.searchsorted(starts, firsts.clip(max=n))
    return [(labels[i:i + size], np.concatenate((np.arange(h), distinct[u[j]:u[j + 1]] + h)),
             blocks[b[j]:b[j + 1]]) for j, i in enumerate(firsts[:-1].tolist())]
