"""One durpipe CLI stage, timed against a reference loop in its own process.

    python3 durbench/stage.py REFS_JSON SPANS_NPZ|- <durpipe arguments...>

It stands in for `python -m durpipe.cli`. The host the benchmark runs on
is shared: other tenants slow a process by up to a half, in spells of
seconds to minutes. So the stage runs a fixed reference loop before and
after the CLI, and briefly every SAMPLE_EVERY_S while it runs, in the
same thread and so on the same CPU as the stage's own work. It writes
each sample's size and time to REFS_JSON; the benchmark scales the
stage's time by them. Unless SPANS_NPZ is "-", the stage runs traced
(see tracer.py), without the samples during the run, so that span times
hold no reference loops.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# Steps of the reference loop before and after a stage, and in each
# sample taken while it runs.
END_STEPS, SAMPLE_STEPS = 4000, 1000
SAMPLE_EVERY_S = 0.5

_TABLE = np.random.default_rng(0).standard_normal((4096, 32))
_WORDS = [f"w{i}x".encode() for i in range(500)]


def reference_loop(steps: int) -> float:
    """Seconds taken by `steps` steps of fixed work shaped like
    durpipe's: hashing short strings, small numpy gathers and dot
    products. It runs no durpipe code, so no change to the program
    moves it."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(steps):
        digest = hashlib.blake2b(_WORDS[i % len(_WORDS)], digest_size=8).digest()
        b = int.from_bytes(digest, "big") % 4096
        rows = np.array([b, b * 7 % 4096, b * 13 % 4096], dtype=np.intp)
        acc += float(_TABLE[rows].mean(axis=0) @ _TABLE[b])
    return perf_counter() - t0


def main(argv: list[str]) -> int:
    refs_out, spans_out, *durpipe_args = argv
    samples = [(END_STEPS, reference_loop(END_STEPS))]
    from durpipe import cli

    entry, rec = cli.main, None
    if spans_out != "-":
        from tracer import Recorder, install

        rec = Recorder()
        install(rec)
        entry = rec.wrap(f"cli.{durpipe_args[0]}", cli.main)
    else:
        # The handler runs in the main thread, between two bytecodes of
        # the stage.
        signal.signal(signal.SIGALRM,
                      lambda *_: samples.append((SAMPLE_STEPS, reference_loop(SAMPLE_STEPS))))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        return entry(durpipe_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if rec is not None:
            rec.save(spans_out)
        samples.append((END_STEPS, reference_loop(END_STEPS)))
        Path(refs_out).write_text(json.dumps(samples), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
