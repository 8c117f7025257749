"""Tests of the benchmark itself; they are not part of the program's suite.

    python3 -m pytest durbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import gen  # noqa: E402
import stage  # noqa: E402
from tracer import Spans, self_times, union_length  # noqa: E402

from durpipe import adapters, cli  # noqa: E402
from durpipe.units import UNITS_8  # noqa: E402


def test_generators_repeat_for_a_seed():
    a, b, c = (gen.noisy_corpus(seed, documents=300) for seed in (7, 7, 8))
    assert a.corpus_jsonl == b.corpus_jsonl and a.gold_tsv == b.gold_tsv
    assert a.planted == b.planted
    assert a.corpus_jsonl != c.corpus_jsonl
    assert gen.qa_set(7, questions=200) == gen.qa_set(7, questions=200)
    assert gen.qa_set(7, questions=200).jsonl != gen.qa_set(8, questions=200).jsonl


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_counts_equal_extract_stats(tmp_path, seed):
    data = gen.noisy_corpus(seed, documents=1500)
    kinds = data.planted.kinds
    assert all(kinds.get(k, 0) > 0 for k in ("real", "trigger_only", "fp_secondary", "overflow"))
    assert data.planted.skipped_documents > 0
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(data.corpus_jsonl, encoding="utf-8")
    assert cli.main(["extract", str(corpus), "--out", str(tmp_path / "out")]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text(encoding="utf-8"))
    assert stats == data.planted.stats_json()


def test_gold_rows_cover_every_unit_equally():
    data = gen.noisy_corpus(4, documents=10)
    rows = adapters.read_timebank_tsv(data.gold_tsv.splitlines())
    assert len(rows) == gen.GOLD_ROWS
    units = [adapters.timebank_to_input(r, UNITS_8).range_label.word for r in rows]
    share = gen.GOLD_ROWS // len(gen.UNITS)
    assert {u: units.count(u) for u in gen.UNITS} == {u: share for u in gen.UNITS}


def test_planted_unparseable_answers_match_the_parser():
    qa = gen.qa_set(5, questions=400)
    rows = adapters.read_mctaco_jsonl(qa.jsonl.splitlines())
    assert len(rows) == qa.answers
    assert sum(adapters.parse_answer_value(r.answer) is None for r in rows) == qa.unparseable
    groups = adapters.group_mctaco_rows(rows)
    assert len(groups) == qa.questions
    assert all(any(adapters.parse_answer_value(r.answer) is not None for r in g) for _, g in groups)


def test_filler_words_avoid_triggers_units_and_filter_words():
    assert all(gen.filler_word_ok(w) for w in gen._FUNCTION_WORDS)
    for word in ("format", "holiday", "oldest", "age", "every", "sometime"):
        assert not gen.filler_word_ok(word)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_only_what_children_cover():
    # 0: root [0, 10]; 1: child [1, 3]; 2: child [2, 5] overlaps 1;
    # 3: child [9, 12] runs past the root; 4: grandchild [1.5, 2.5] of 1.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    own = self_times(parent, start, end)
    assert own.tolist() == [10 - (4 + 1), 2 - 1, 3, 3, 1]


def test_spans_inclusive_time_counts_nested_same_name_once():
    # evaluation.score nests when majority_baseline calls eval_fine.
    spans = Spans(
        names=["cli.baseline", "evaluation.score"],
        name=[0, 1, 1, 1],
        parent=[-1, 0, 1, 0],
        start=[0.0, 1.0, 2.0, 6.0],
        end=[10.0, 4.0, 3.0, 7.0],
        counts={},
    )
    assert spans.inclusive_s("evaluation.score") == 4.0
    assert spans.self_s("evaluation.score") == 4.0
    assert spans.self_s("cli.baseline") == 6.0
    assert spans.inclusive_s("model.predict") == 0.0


def test_step_durations_run_from_call_to_call():
    spans = Spans(
        names=["model.train", "model.loss_and_grads"],
        name=[0, 1, 1, 1],
        parent=[-1, 0, 0, 0],
        start=[0.0, 1.0, 3.0, 4.0],
        end=[7.0, 2.0, 3.5, 4.5],
        counts={},
    )
    assert spans.step_durations().tolist() == [2.0, 1.0, 3.0]


def test_traced_extract_counts_agree_with_stats(tmp_path):
    data = gen.noisy_corpus(6, documents=400)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(data.corpus_jsonl, encoding="utf-8")
    spans_path, refs_path = tmp_path / "extract.spans.npz", tmp_path / "extract.refs.json"
    # A separate process, because tracing patches durpipe's modules.
    done = subprocess.run(
        [sys.executable, str(BENCH / "stage.py"), str(refs_path), str(spans_path),
         "extract", str(corpus), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = Spans.load(spans_path)
    planted = data.planted
    assert spans.counts["extraction.sentences"] == planted.sentences
    assert spans.counts["extraction.matched"] == planted.matched
    assert spans.counts["extraction.filtered"] == planted.filtered
    assert spans.counts["extraction.emitted"] == planted.emitted
    assert spans.counts.get("extraction.skipped", 0) == planted.skipped_instances
    assert len(spans.indices("extraction.match_sentence")) == planted.sentences
    assert spans.inclusive_s("cli.extract") >= spans.inclusive_s("extraction.extract_corpus") > 0
    assert np.all(spans.self_times >= 0)
    assert all(n > 0 and t > 0 for n, t in json.loads(refs_path.read_text(encoding="utf-8")))


def test_rates_use_the_median_time_of_each_stage():
    import run

    def repeat(*stages):
        return types.SimpleNamespace(stages=[run.Stage(name, kind, t, t, 0, 0, items)
                                             for name, kind, t, items in stages])

    probe = ("probe", "probe", 0.1, 0)
    phases = [repeat(probe, ("eval-a", "eval", 2.0, 100), ("eval-b", "eval", 1.0, 300)),
              repeat(("eval-a", "eval", 1.0, 100), ("eval-b", "eval", 3.0, 300)),
              repeat(("eval-a", "eval", 4.0, 100), ("eval-b", "eval", 2.0, 300))]
    stages = run.typical(phases)
    assert sorted((s.name, s.time_s) for s in stages) == [("eval-a", 2.0), ("eval-b", 2.0)]
    assert run.throughput(stages, "eval") == 100.0
    assert run.throughput(stages, "train") is None


def test_scaled_time_follows_the_reference_loop():
    import run

    step = run.REFERENCE_STEP_S
    assert run.scaled(3.0, [(100, 100 * step), (10, 10 * step)]) == pytest.approx(3.0)
    # A host running at half speed doubles the work and the loop alike;
    # each sample counts by its steps.
    assert run.scaled(6.0, [(100, 200 * step), (10, 20 * step)]) == pytest.approx(3.0)
    assert run.scaled(6.0, [(300, 300 * step), (100, 500 * step)]) == pytest.approx(6.0 * 400 / 800)


def test_sampled_stage_writes_what_the_plain_cli_writes(tmp_path):
    assert cli.main(["synth", "--size", "300", "--holdout", "10", "--seed", "3",
                     "--out", str(tmp_path / "synth")]) == 0
    assert cli.main(["extract", str(tmp_path / "synth" / "corpus.jsonl"),
                     "--out", str(tmp_path / "extract")]) == 0
    train = ["train", str(tmp_path / "extract" / "instances.jsonl"), "--head", "range",
             "--init", "fresh", "--epochs", "8", "--learning-rate", "0.05", "--seed", "3"]
    refs_path = tmp_path / "refs.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for cmd, out in (([str(BENCH / "stage.py"), str(refs_path), "-"], "sampled"),
                     (["-m", "durpipe.cli"], "plain")):
        done = subprocess.run([sys.executable, *cmd, *train, "--out", str(tmp_path / out)],
                              env=env, capture_output=True, check=False, timeout=120)
        assert done.returncode == 0, done.stderr
    ckpts = [(tmp_path / out / "model.ckpt").read_bytes() for out in ("sampled", "plain")]
    assert ckpts[0] == ckpts[1]
    samples = json.loads(refs_path.read_text(encoding="utf-8"))
    assert samples[0][0] == samples[-1][0] == stage.END_STEPS
    # Training 300 instances for 8 epochs takes longer than one sampling period.
    assert [n for n, _ in samples[1:-1]] and all(n == stage.SAMPLE_STEPS for n, _ in samples[1:-1])


def test_benchmark_json_lists_what_run_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
