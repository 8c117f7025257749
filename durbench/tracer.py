"""Span tracing for one durpipe stage, and the arithmetic over its spans.

`install` replaces the public functions of each layer with span
recorders, on the module and class objects through which `cli` and
`model.train` look them up; stage.py runs `cli.main` under a root span
`cli.<subcommand>` and writes the spans and counters to an .npz file at
the end. No code of the program is changed; spans stay in memory until
then.

`Spans` reads those files back: inclusive time per span name, self time
(a span's duration minus the part of it that its child spans cover) and
per-call durations.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from functools import cached_property
from time import perf_counter

import numpy as np


class Recorder:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def parent_name(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(self, name, fn, on_return=None, on_raise=None):
        """`fn` recording one span per call; the hooks see the result or
        the exception after the span has closed."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_ids, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        def spanned(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf_counter()
                stack.pop()
                if on_raise is not None:
                    on_raise(exc)
                raise
            ends[i] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return spanned

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counts=np.array(json.dumps(self.counts, sort_keys=True)),
        )


def install(rec: Recorder) -> None:
    """Replace each traced function of durpipe with a span recorder."""
    from durpipe import adapters, evaluation, extraction, model, synth

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), **hooks))

    patch(synth, "generate", "synth.generate")

    patch(extraction, "extract_corpus", "extraction.extract_corpus")
    patch(extraction, "segment_sentences", "extraction.segment_sentences",
          on_return=lambda r: rec.count("extraction.sentences", len(r)))
    patch(extraction, "match_sentence", "extraction.match_sentence",
          on_return=lambda r: r is not None and rec.count("extraction.matched"))
    patch(extraction, "failed_filters", "extraction.failed_filters",
          on_return=lambda r: r and rec.count("extraction.filtered"))
    patch(extraction, "label_sentence", "extraction.label_sentence",
          on_return=lambda r: rec.count("extraction.emitted"),
          on_raise=lambda e: rec.count("extraction.skipped"))
    patch(extraction, "read_instances", "extraction.read_instances")
    patch(extraction, "write_instances", "extraction.write_instances")

    def dropped(value):
        # mctaco_to_input also parses the first answer of each question;
        # only the parses cli makes per answer decide what is dropped.
        if value is None and rec.parent_name() != "adapters.mctaco_to_input":
            rec.count("adapters.dropped_answers")

    for attr in ("read_timebank_tsv", "timebank_to_input", "read_mctaco_jsonl", "mctaco_to_input"):
        patch(adapters, attr, f"adapters.{attr}")
    patch(adapters, "parse_answer_value", "adapters.parse_answer_value", on_return=dropped)

    patch(model, "loss_and_grads", "model.loss_and_grads")
    patch(model, "predict_exact", "model.predict")
    patch(model, "predict_range", "model.predict")
    patch(model, "load", "model.load")
    patch(model, "save", "model.save")
    patch(model.BaselineEncoder, "window_buckets", "model.encoder.window_buckets",
          on_return=lambda r: rec.count("model.encoder.bucket_calls", len(r)))

    spanned_train = rec.wrap("model.train", model.train)

    def train(mdl, data, cfg):
        # Rows of the embedding table the run changed, found by diffing
        # against a copy taken outside the span.
        before = mdl.encoder.embeddings.copy()
        out = spanned_train(mdl, data, cfg)
        after = out[0].encoder.embeddings
        rec.count("model.active_rows", int(np.any(after != before, axis=1).sum()))
        rec.count("model.buckets", after.shape[0])
        rec.count("model.train.calls")
        return out

    model.train = train

    for attr in ("eval_coarse", "eval_fine", "eval_mctaco", "majority_baseline"):
        patch(evaluation, attr, "evaluation.score")
    patch(evaluation, "report_to_json", "evaluation.report_to_json")


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


class Spans:
    """The spans and counters of one traced stage."""

    def __init__(self, names, name, parent, start, end, counts):
        self.names = [str(n) for n in names]
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int32)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.counts = dict(counts)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as f:
            return cls(f["names"], f["name"], f["parent"], f["start"], f["end"],
                       json.loads(str(f["counts"])))

    def __len__(self) -> int:
        return len(self.start)

    def indices(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def inclusive_s(self, name: str) -> float:
        """Time covered by spans of `name`; a span nested in another of
        the same name is not counted twice."""
        idx = self.indices(name)
        return union_length(zip(self.start[idx], self.end[idx]))

    def self_s(self, name: str) -> float:
        return float(self.self_times[self.indices(name)].sum())

    @cached_property
    def self_times(self) -> np.ndarray:
        return self_times(self.parent, self.start, self.end)

    def durations(self, name: str) -> np.ndarray:
        idx = self.indices(name)
        return self.end[idx] - self.start[idx]

    def step_durations(self) -> np.ndarray:
        """One training step runs from one loss_and_grads call to the
        next in the same train call; the last ends with the train span."""
        steps = []
        calls = self.indices("model.loss_and_grads")
        for t in self.indices("model.train"):
            starts = np.sort(self.start[calls[self.parent[calls] == t]])
            if len(starts):
                steps.append(np.diff(np.append(starts, self.end[t])))
        return np.concatenate(steps) if steps else np.zeros(0)


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return float(total)


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it its direct children cover."""
    own = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        own[p] -= union_length((max(start[k], lo), min(end[k], hi))
                               for k in kids if end[k] > lo and start[k] < hi)
    return own
