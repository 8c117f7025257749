"""Whitespace tokenization and mask-token bookkeeping.

The whole pipeline shares one tokenization convention: split on
whitespace, treat "[MASK]" as a reserved literal token. Punctuation can
stay glued to a token ("years.", "[MASK],"), so helpers here strip a
small set of clinging punctuation marks when identifying tokens.
"""

from __future__ import annotations

from functools import lru_cache

MASK_TOKEN = "[MASK]"

# Punctuation that commonly clings to a whitespace token. Square brackets
# are deliberately absent so "[MASK]" survives stripping.
_CLINGING = ",.;:!?\"'()"


def tokenize(text: str) -> list[str]:
    return text.split()


def strip_clinging(token: str) -> str:
    return token.strip(_CLINGING)


def is_mask_token(token: str) -> bool:
    return strip_clinging(token) == MASK_TOKEN


def find_mask_positions(text: str) -> list[int]:
    """Indices of mask tokens under whitespace tokenization."""
    return [i for i, tok in enumerate(tokenize(text)) if is_mask_token(tok)]


def mask_string(n: int) -> str:
    """n mask tokens joined by single spaces."""
    return " ".join([MASK_TOKEN] * n)


class MaskedTextError(ValueError):
    """Masks placed in a text would not come out as exactly the placed
    mask tokens: the text already holds one, or a placed mask would join
    a word of the text."""


@lru_cache(maxsize=8)
def _masks_of(insert: str) -> tuple[tuple[int, ...], int]:
    """The mask token indices of an insert, and its number of tokens."""
    return tuple(find_mask_positions(insert)), len(tokenize(insert))


def starts_word(text: str) -> bool:
    """Whether a token right before `text` would join a word of it: `text`
    starts with a token that is more than clinging punctuation ("t." or
    "'s", not ")," or a space)."""
    return bool(text) and not text[0].isspace() and bool(strip_clinging(text.split(None, 1)[0]))


def splice_masks(head: str, insert: str, tail: str) -> tuple[str, tuple[int, ...]]:
    """head + insert + tail, and the token indices of the masks of `insert`
    in it, counted from the tokens of `head` instead of found by a rescan.

    `insert` starts and ends with a non-blank character and holds at least
    one mask; `head` and `tail` must hold no mask token, which the caller
    checks. An edge token of `insert` joins the token of `head` or `tail`
    that it touches; a mask may touch only clinging punctuation there
    ("([MASK]", "[MASK]),"), else MaskedTextError.
    """
    masks, n = _masks_of(insert)
    head_tokens = head.split()
    offset = len(head_tokens)
    if head and not head[-1].isspace():
        offset -= 1
        if masks[0] == 0 and strip_clinging(head_tokens[-1]):
            raise MaskedTextError(f"an inserted {MASK_TOKEN} would join {head_tokens[-1]!r}")
    if masks[-1] == n - 1 and starts_word(tail):
        raise MaskedTextError(f"an inserted {MASK_TOKEN} would join {tail.split(None, 1)[0]!r}")
    return head + insert + tail, tuple([offset + i for i in masks])
