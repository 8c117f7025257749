"""A hypothesis strategy that damages the bytes of a model checkpoint.

Each example is one kind of damage: a few bytes overwritten anywhere, a
cut with junk appended, one header field (or one field of an array
entry) replaced by any JSON value, deleted, or added under any name, or
one payload float replaced by any double, NaN and infinities included.
"""

from __future__ import annotations

import json
import struct

from hypothesis import strategies as st

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _split(blob: bytes) -> tuple[bytes, dict, bytes]:
    header_len = int.from_bytes(blob[12:16], "big")
    return blob[:12], json.loads(blob[16:16 + header_len]), blob[16 + header_len:]


def _join(prefix: bytes, header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return prefix + len(raw).to_bytes(4, "big") + raw + payload


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["bytes", "cut", "replace", "delete", "add", "value"]))
    if kind == "bytes":
        out = bytearray(blob)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    if kind == "cut":
        return blob[:draw(st.integers(0, len(blob)))] + draw(st.binary(max_size=16))
    prefix, header, payload = _split(blob)
    if kind != "value":
        target = draw(st.sampled_from([header, *header["arrays"]]))
        key = draw(st.text(max_size=6) if kind == "add" else st.sampled_from(sorted(target)))
        if kind == "delete":
            del target[key]
        else:
            target[key] = draw(_JSON)
        return _join(prefix, header, payload)
    at = 8 * draw(st.integers(0, len(payload) // 8 - 1))
    return _join(prefix, header, payload[:at] + struct.pack("<d", draw(st.floats())) + payload[at + 8:])
