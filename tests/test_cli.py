import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from checkpoint_fuzz import damaged
from intake_fuzz import damaged_cells, damaged_record
from hypothesis import HealthCheck, given, settings, strategies as st

from durpipe import cli, model
from durpipe.adapters import TIMEBANK_COLUMNS, TimeBankRow, read_timebank_tsv, write_timebank_tsv
from durpipe.synth import SynthOutput, SynthSpec, _draws_below, generate
from durpipe.text import tokenize
from durpipe.units import ConfigError, TemporalUnit, closest_unit


def run(*argv):
    return cli.main([str(a) for a in argv])


# --- synth ------------------------------------------------------------------


def test_synth_counts_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", out_a, "--size", 80, "--holdout", 16, "--seed", 5) == 0
    assert run("synth", "--out", out_b, "--size", 80, "--holdout", 16, "--seed", 5) == 0
    corpus = (out_a / "corpus.jsonl").read_bytes()
    assert corpus == (out_b / "corpus.jsonl").read_bytes()
    assert (out_a / "holdout.tsv").read_bytes() == (out_b / "holdout.tsv").read_bytes()
    assert len(corpus.decode().splitlines()) == 80
    rows = read_timebank_tsv((out_a / "holdout.tsv").read_text().splitlines())
    assert len(rows) == 16
    assert (out_a / "config.ini").exists()


def test_synth_generate_shapes():
    out = generate(SynthSpec(size=16, holdout=8, seed=2))
    assert len(out.documents) == 16
    units = {row.min_duration[1] for row in out.holdout_rows}
    assert len(units) == 8  # round-robin over all cues
    for row in out.holdout_rows:
        event = row.sentence[row.event_span[0]:row.event_span[1]]
        assert event in row.sentence
        assert row.min_duration == row.max_duration


# Strings with what json escapes: quotes, backslashes, control and
# non-ASCII characters, U+2028 and characters outside the BMP.
_json_strings = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é😀')))


@given(st.lists(st.tuples(_json_strings, _json_strings), max_size=5))
def test_corpus_jsonl_equals_json_dumps(records):
    out = SynthOutput(documents=[{"id": doc_id, "text": text} for doc_id, text in records])
    assert out.corpus_jsonl() == "".join(json.dumps(doc, sort_keys=True) + "\n"
                                         for doc in out.documents)


def test_synth_rejects_degenerate_spec():
    with pytest.raises(ValueError):
        SynthSpec(size=-1)


# A count or seed that is not an int (a bool included) used to fail inside
# generate, or to make one document for True; a sigma that is not a number
# used to fail in the range check, and an int sigma past the float range
# with an OverflowError inside generate.
@pytest.mark.parametrize("field,value", [
    ("size", 2.5), ("size", True), ("holdout", 3.0), ("holdout", False), ("seed", 1.5),
    ("seed", True), ("seed", "1"), ("sigma", "1"), ("sigma", None), ("sigma", True),
    ("sigma", 10**400),
])
def test_synth_spec_of_the_wrong_type_is_config_error_naming_it(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        SynthSpec(**{field: value})


def test_synth_spec_takes_an_int_or_float_sigma():
    assert generate(SynthSpec(size=3, holdout=2, sigma=2)).documents == generate(
        SynthSpec(size=3, holdout=2, sigma=2.0)).documents


# synth's bounded draws against numpy's own: bounds synth uses, bounds
# that reject often (3 * 2**30 about a quarter of the time, 2**31 + 1
# about half) and the largest 32-bit one. A normal after every third
# draw takes whole outputs, so a kept upper half is carried across it;
# the first draw keeps one and the first normal follows it at once.
_DRAW_BOUNDS = (4, 8, 20, 30, 3 * 2**30, 2**31 + 1, 2**32 - 1)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**63 + 5])
def test_draws_below_equal_generator_integers(seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    below = _draws_below(rng.bit_generator)
    for i in range(2100):
        n = _DRAW_BOUNDS[i % len(_DRAW_BOUNDS)]
        assert below(n) == int(twin.integers(n)), (i, n)
        if i % 3 == 0:
            assert rng.standard_normal() == twin.standard_normal(), i
    assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()


# sha256 of corpus.jsonl and holdout.tsv, recorded before synth drew from
# the raw stream: the README recipe, the claims recipe's two noisier
# synths and a run the size of durbench's qa-eval.
PINNED_SYNTH = {
    (2000, 400, 17, 0.25): ("328b79cdb6029d6c67cc1248e1d80bb5702c404e3c363bc1f683adb78dae8f7d",
                            "f84e190d02ee7af5fcf7b9f479aaaf6e7818ddd6a1e0dfeb6c8eeb395703a119"),
    (2000, 400, 17, 2.0): ("44b08f2a359221087473b898c1346c4a158ac3be90bd2b715962fb308930d565",
                           "3d5f780c13c8679b53c88d98bf21e716f7237283ed7150e3c988d405624151e4"),
    (10, 40, 18, 2.0): ("b1e52b28097d895060c8f72741de229f23edfa484fa2008d4948872545e7088c",
                        "0bb55d1cbfade77946e454d369f0969637536d02e28b3d53debbfb2ce4baef47"),
    (20000, 10000, 1, 0.25): ("f6c49182e667b387a9964b3ffb927e600e0c4922d8686a023dc7af176504d1fc",
                              "721947bb9ef2201e55a93d40795cff358127ac19c0a846529cff6e9fc3830dad"),
}


@pytest.mark.parametrize("size,holdout,seed,sigma", list(PINNED_SYNTH))
def test_synth_bytes_are_pinned(tmp_path, size, holdout, seed, sigma):
    assert run("synth", "--out", tmp_path, "--size", size, "--holdout", holdout,
               "--seed", seed, "--sigma", sigma) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("corpus.jsonl", "holdout.tsv"))
    assert digests == PINNED_SYNTH[size, holdout, seed, sigma]


# --- extract ----------------------------------------------------------------


@pytest.fixture()
def corpus_file(tmp_path):
    docs = [
        {"id": "a", "text": "The siege lasted for 23 years. He smiled."},
        {"id": "b", "text": "It lasted for more than 10 years."},
        {"id": "c", "text": "Repairs took 3 hours."},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    return path


def test_extract_cli(tmp_path, corpus_file):
    out = tmp_path / "ex"
    assert run("extract", corpus_file, "--out", out) == 0
    lines = (out / "instances.jsonl").read_text().splitlines()
    assert len(lines) == 2
    stats = json.loads((out / "stats.json").read_text())
    assert stats["matched"] == 3
    assert stats["filtered"] == 1
    assert stats["emitted"] == 2
    assert (out / "config.ini").exists()


def test_extract_cli_unknown_pattern_is_config_error(tmp_path, corpus_file, capsys):
    # every trigger family always runs, so no value of the old selector,
    # its default "all" included, is a setting
    for value in ("bogus", "all"):
        assert run("extract", corpus_file, "--out", tmp_path / "ex", "--patterns", value) == cli.EXIT_CONFIG
        assert value in capsys.readouterr().err
    assert not (tmp_path / "ex").exists()


def test_extract_cli_plain_text_and_directory(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "one.txt").write_text("The trial lasted for 2 weeks.", encoding="utf-8")
    (data / "two.txt").write_text("Nothing here.", encoding="utf-8")
    out = tmp_path / "ex"
    assert run("extract", data, "--out", out) == 0
    lines = (out / "instances.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["source_id"].startswith("one.txt")


def test_extract_cli_skips_a_directory_named_like_an_input(tmp_path):
    data = tmp_path / "data"
    (data / "notes.txt").mkdir(parents=True)
    (data / "x.jsonl").mkdir()
    (data / "one.txt").write_text("The trial lasted for 2 weeks.", encoding="utf-8")
    assert run("extract", data, "--out", tmp_path / "ex") == 0
    assert len((tmp_path / "ex" / "instances.jsonl").read_text().splitlines()) == 1
    # A broken symlink is still an input that cannot be read.
    (data / "gone.txt").symlink_to(tmp_path / "missing.txt")
    assert run("extract", data, "--out", tmp_path / "ex2") == cli.EXIT_IO


def test_extract_cli_empty_dir_warns_but_succeeds(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    out = tmp_path / "ex"
    assert run("extract", empty, "--out", out) == 0
    assert (out / "instances.jsonl").read_text() == ""


def test_extract_cli_counts_skipped_documents(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "bad.txt").write_bytes(b"It took \xff 3 days.")
    (data / "docs.jsonl").write_text(
        '{"id": "a", "text": "It took 2 days."}\nnot json\n[1]\n{"id": "b", "text": null}\n',
        encoding="utf-8")
    out = tmp_path / "ex"
    assert run("extract", data, "--out", out) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["documents"] == 1
    assert stats["skipped_documents"] == 4
    assert stats["emitted"] == 1


def test_extract_cli_splits_jsonl_at_newlines_only(tmp_path):
    # JSON allows U+2028 raw inside a string; it does not end the line.
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text(json.dumps({"id": "a", "text": "It took 2 days.\u2028Then 3 weeks."},
                                 ensure_ascii=False) + "\n", encoding="utf-8")
    assert "\u2028" in corpus.read_text(encoding="utf-8")
    assert run("extract", corpus, "--out", tmp_path / "ex") == 0
    stats = json.loads((tmp_path / "ex" / "stats.json").read_text())
    assert (stats["documents"], stats["skipped_documents"], stats["emitted"]) == (1, 0, 1)


def test_extract_cli_skips_a_unit_that_does_not_read_back(tmp_path):
    # "\u0130" matches "i" case-insensitively, and the word it is in then
    # names no unit: the sentence yields nothing, and extract goes on.
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text(json.dumps({"id": "a", "text": "It took 3 m\u0130nutes. It took 2 days."})
                      + "\n", encoding="utf-8")
    assert run("extract", corpus, "--out", tmp_path / "ex") == 0
    ids = [json.loads(line)["source_id"] for line in (tmp_path / "ex" / "instances.jsonl").open()]
    assert ids == ["a#1"]


# An extract corpus for the gates in extraction: documents without a
# digit (ASCII or not), digits of other scripts, Unicode whitespace after
# sentence ends, several matches in one sentence, filter traps and
# malformed lines; the .txt file holds its Unicode characters unescaped.
# It holds no literal mask token. The digests were recorded before the
# gates were added.
PINNED_EXTRACT_DOCS = [
    {"id": "plain", "text": "The siege lasted for 23 years. He smiled! Did it end? Yes."},
    {"id": "no-digit", "text": "Nothing was timed here. They waited for days."},
    {"id": "no-digit-unicode", "text": "Caf\u00e9 owners waited for weeks.\u2003Nobody knew why."},
    {"id": "arabic", "text": "The strike lasted for \u0663 days.\x85Talks took \u0662\u0664 hours."},
    {"id": "fullwidth", "text": "Repairs took \uff13 hours.\u00a0Then it rained \u2014 for \uff12 weeks."},
    {"id": "several", "text": "It took 3 hours, then 2 days and he ran for 4 weeks over 5 years!"},
    {"id": "traps", "text": "He looked over 23 years old. It lasted for more than 10 years. "
                            "We met every 2 weeks. It took 0 seconds."},
    {"id": "spaces", "text": "  It took 2 days.\t\n  Then 3 weeks passed.\u3000 She spent 6 months abroad.  "},
]
PINNED_EXTRACT_TXT = "The voyage took \uff17 weeks.\u2028It lasted for 2 months\x85over 3 years. End"
PINNED_EXTRACT = {
    "instances.jsonl": "9caadcd6cf2a5c51fed0eed9b9c957f43fad2e5cc7b76714191cfc4d56816b57",
    "stats.json": "e16ce3325c9156fe2c30e2e9fa215b4e86654371a0b6901b2541b7dfa77f866d",
}


def test_extract_bytes_are_pinned(tmp_path):
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in PINNED_EXTRACT_DOCS)
                      + 'not json\n{"id": "x", "body": "It took 2 days."}\n[1]\n', encoding="utf-8")
    (tmp_path / "raw.txt").write_text(PINNED_EXTRACT_TXT, encoding="utf-8")
    out = tmp_path / "ex"
    assert run("extract", corpus, tmp_path / "raw.txt", "--out", out) == 0
    ids = [json.loads(line)["source_id"] for line in (out / "instances.jsonl").read_text().splitlines()]
    assert {"arabic#0", "arabic#1", "fullwidth#0", "raw.txt#0"} <= set(ids)
    for name, digest in PINNED_EXTRACT.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_malformed_lines_give_one_warning_per_file(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "text": "It took 2 days."}\nnot json\n\n[1]\n{"id": "b"}\n',
                   encoding="utf-8")
    default = _run_child("extract", bad, "--out", tmp_path / "out")
    assert default.returncode == 0
    assert default.stderr.splitlines() == [
        "WARNING durpipe.extraction: skipping malformed document lines in bad.jsonl: "
        "3 lines, the first at index 1"]
    debug = _run_child("extract", bad, "--out", tmp_path / "out-debug", log_level="DEBUG")
    assert debug.stderr.count("DEBUG durpipe.extraction: skipping malformed document bad.jsonl:") == 3


def test_extract_cli_missing_path_is_io_error(tmp_path):
    assert run("extract", tmp_path / "nope.jsonl", "--out", tmp_path / "o") == cli.EXIT_IO


# --- train / eval / baseline -------------------------------------------------


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """synth -> extract -> train (both heads), shared across tests."""
    root = tmp_path_factory.mktemp("pipe")
    assert run("synth", "--out", root / "synth", "--size", 320, "--holdout", 64, "--seed", 11) == 0
    assert run("extract", root / "synth" / "corpus.jsonl", "--out", root / "ex") == 0
    common = ["--learning-rate", 0.05, "--epochs", 10, "--seed", 11, "--init", "fresh"]
    assert run("train", root / "ex" / "instances.jsonl", "--head", "exact",
               "--out", root / "te", *common) == 0
    assert run("train", root / "ex" / "instances.jsonl", "--head", "range",
               "--out", root / "tr", *common) == 0
    return root


def test_train_outputs(small_pipeline):
    out = small_pipeline / "te"
    assert (out / "model.ckpt").exists()
    curve = json.loads((out / "loss_curve.json").read_text())["loss"]
    assert len(curve) == 10 * (320 // 16)
    assert curve[-1] < curve[0]


def test_train_determinism(tmp_path, small_pipeline):
    instances = small_pipeline / "ex" / "instances.jsonl"
    args = ["--head", "exact", "--init", "fresh", "--learning-rate", 0.05,
            "--epochs", 2, "--seed", 3]
    assert run("train", instances, "--out", tmp_path / "t1", *args) == 0
    assert run("train", instances, "--out", tmp_path / "t2", *args) == 0
    assert (tmp_path / "t1" / "model.ckpt").read_bytes() == (tmp_path / "t2" / "model.ckpt").read_bytes()


# Checkpoint bytes of a small fixed recipe. A faster training path must
# reproduce them exactly; a deliberate change to training updates them
# and says why. The row-sparse optimizer step re-recorded them, the
# report pins that moved, and the 64-row pins below: a row without a
# gradient in a step keeps its value and moments.
PINNED_CHECKPOINTS = {
    "exact": "105d54c679706db96118e100af4d06a9c90cdbcc5cd2b93e168ae3ea3e9c320f",
    "range": "194113f8a821e268af0816320c53f5c1a0a99078acc359803124614ed76e11f3",
}
# Bytes of the fine-protocol report of each of those checkpoints on the
# recipe's 40 held-out rows, under the same rule.
PINNED_REPORTS = {
    "exact": "1d98c16eec73d936d675174993980f56a3dbff16308a75e9e8fe49f09934e535",
    "range": "c3b4f33cc38f5988cebbfdaa4d4b8636a0395386f5b8cd6b25c7ba60614e1a69",
}
# Bytes of the coarse report on the same rows and of the mctaco report on
# PINNED_QA (band 3.0) of each of those checkpoints.
PINNED_OTHER_REPORTS = {
    ("coarse", "exact"): "348bae3a1900254e285c7bf6f32c655afe5efb8e3ecb6d8e6b53b7d633b2493d",
    ("coarse", "range"): "ca816d3375b6953e5cfe7bdbe515b8e838e2c1c3d490c5cdc3a2b25e4544e5ac",
    ("mctaco", "exact"): "b7b2d13b0e613096a3e8b10cd77921da4c0ff37079ad5e01ea2ee59022ecf891",
    ("mctaco", "range"): "c959207196d16460a1c3a81fce813b3575c80776fe545e1a5acfbd9c1e8036cc",
}
# Questions with one to four answers; "a while" and "soonish" do not
# parse, so the last question has no answer left and is skipped.
PINNED_QA = [
    ("Maria worked on the report.", "How long did Maria work on the report?",
     [("3 hours", True), ("2 days", True), ("a while", False), ("5 years", False)]),
    ("The team held a meeting.", "How long did the meeting last?",
     [("45 minutes", True), ("1 week", False)]),
    ("The ship crossed the ocean.", "How long did the crossing take?",
     [("2 weeks", True), ("10 seconds", False), ("1 month", True)]),
    ("He waited at the station.", "How long did he wait?", [("20 minutes", True)]),
    ("The storm passed.", "How long did the storm last?", [("soonish", True)]),
]


# Bytes of the items.tsv of each eval pinned above, and of the report of
# `baseline` (coarse and fine, default inventory 8) on the recipe's 40
# held-out rows.
PINNED_ITEMS = {
    ("fine", "exact"): "150aff678220e0c8cf2cec9e7b636e9869cc7f900f6af306723c856782061cfd",
    ("coarse", "exact"): "c3a7780d6ff94cbea883cf86f52e7f920f143530010a418ebc7cfad2b018a996",
    ("mctaco", "exact"): "5525f891ffc69cdf06e07275d67d0e7f12330182478a53f05dae14c14f7a9898",
    ("fine", "range"): "71bf3ee1e8676277af467abcf72f0debaff88ff76c714e0ef90ff91a3ab5b169",
    ("coarse", "range"): "c71d0cc68f94a55a862c5046e5a5c06cf823ec2bd5ab5011c1c553b57da7661a",
    ("mctaco", "range"): "fc0781faad8a105040f5bdfa4fd7cd9caa592ad940b99bf180a4325d25ccbf30",
}
PINNED_BASELINE_REPORTS = {
    "coarse": "558328ecbf79c41dd48ef6dd90889a371ad7ac269ca414d31623949fe08cc52b",
    "fine": "dfeea16b283d6d2321d0b66680d9519e1aec286e40262e65d29c19adcaf73db3",
}


def test_train_checkpoint_bytes_are_pinned(tmp_path):
    # Every digest is taken before any is compared, so one assert names
    # every pin that moved: a checkpoint that differs (another BLAS kernel
    # rounds differently) does not hide the reports and items.
    assert run("synth", "--out", tmp_path / "synth", "--size", 200, "--holdout", 40, "--seed", 3) == 0
    assert run("extract", tmp_path / "synth" / "corpus.jsonl", "--out", tmp_path / "ex") == 0
    qa = tmp_path / "qa.jsonl"
    qa.write_text("".join(json.dumps({"context": c, "question": q, "answer": a, "gold": g}) + "\n"
                          for c, q, answers in PINNED_QA for a, g in answers), encoding="utf-8")
    data = {"coarse": tmp_path / "synth" / "holdout.tsv", "fine": tmp_path / "synth" / "holdout.tsv",
            "mctaco": qa}

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    want, got = {}, {}
    for head, checkpoint_digest in PINNED_CHECKPOINTS.items():
        out = tmp_path / f"train-{head}"
        assert run("train", tmp_path / "ex" / "instances.jsonl", "--head", head,
                   "--learning-rate", 0.05, "--epochs", 3, "--seed", 3, "--out", out) == 0
        want["checkpoint", head], got["checkpoint", head] = checkpoint_digest, digest(out / "model.ckpt")
        pins = {"fine": PINNED_REPORTS[head],
                **{p: d for (p, h), d in PINNED_OTHER_REPORTS.items() if h == head}}
        for protocol, report_digest in pins.items():
            report = tmp_path / f"eval-{protocol}-{head}"
            assert run("eval", out / "model.ckpt", data[protocol], "--protocol", protocol,
                       "--head", head, "--out", report) == 0
            want["report", protocol, head], got["report", protocol, head] = (
                report_digest, digest(report / "report.json"))
            want["items", protocol, head], got["items", protocol, head] = (
                PINNED_ITEMS[protocol, head], digest(report / "items.tsv"))
    for protocol, report_digest in PINNED_BASELINE_REPORTS.items():
        report = tmp_path / f"baseline-{protocol}"
        assert run("baseline", data[protocol], "--protocol", protocol, "--out", report) == 0
        want["baseline", protocol], got["baseline", protocol] = report_digest, digest(report / "report.json")
    assert got == want


# Checkpoint bytes of the same recipe on a 64-row table, where words
# share rows and more than half the rows move, while the recipe above
# leaves most of its 4,096 rows as they were.
PINNED_DENSE_STEP_CHECKPOINTS = {
    "exact": "f338d8814872f87d98ccaffb7411310baf690a02118eb1b4572f301bc37feb0e",
    "range": "6bd64b90f281a1da1b08b3d25938754274234824c0a05b2531a6ff1737dc347f",
}


def test_train_dense_step_checkpoint_bytes_are_pinned(tmp_path):
    assert run("synth", "--out", tmp_path / "synth", "--size", 200, "--holdout", 40, "--seed", 3) == 0
    assert run("extract", tmp_path / "synth" / "corpus.jsonl", "--out", tmp_path / "ex") == 0
    initial = model.DualHeadModel.create(seed=3, buckets=64).encoder.embeddings
    for head, digest in PINNED_DENSE_STEP_CHECKPOINTS.items():
        out = tmp_path / f"train-{head}"
        assert run("train", tmp_path / "ex" / "instances.jsonl", "--head", head, "--buckets", 64,
                   "--learning-rate", 0.05, "--epochs", 3, "--seed", 3, "--out", out) == 0
        blob = (out / "model.ckpt").read_bytes()
        changed = np.any(model.load(blob).encoder.embeddings != initial, axis=1)
        assert changed.mean() > 0.5, head
        assert hashlib.sha256(blob).hexdigest() == digest, head


# Fine accuracy of both heads on the README recipe with a noisier synth
# (`--sigma 2.0`; at the default 0.25 both heads score above 0.97), per
# training seed, recorded under the per-item float order that the
# batch-wide heads replaced. The seed alone moves exact fine accuracy
# from 0.81 to 0.92, so each seed keeps its own value, and training may
# lose at most 0.02.
QUALITY_FINE_ACCURACY = {
    ("exact", 17): 0.8100, ("exact", 18): 0.8800, ("exact", 19): 0.9200,
    ("range", 17): 0.8650, ("range", 18): 0.8525, ("range", 19): 0.8825,
}

# The same, after training on 40 task rows (the held-out rows of a
# seed-18 synth) from a fresh model or from the pre-trained checkpoint
# of the same head and seed, for 20 epochs at a learning rate, or with
# the TrainConfig.finetuning() defaults (rate None). These are the rows
# of the README's table of the paper's three claims.
QUALITY_TASK_FINE_ACCURACY = {
    ("fresh", 0.05): {
        ("exact", 17): 0.8100, ("exact", 18): 0.8050, ("exact", 19): 0.8225,
        ("range", 17): 0.8350, ("range", 18): 0.8250, ("range", 19): 0.8250},
    ("pretrained", 0.05): {
        ("exact", 17): 0.8875, ("exact", 18): 0.8850, ("exact", 19): 0.8775,
        ("range", 17): 0.8275, ("range", 18): 0.8375, ("range", 19): 0.8250},
    ("pretrained", 0.005): {
        ("exact", 17): 0.9250, ("exact", 18): 0.9100, ("exact", 19): 0.9125,
        ("range", 17): 0.8475, ("range", 18): 0.8300, ("range", 19): 0.8575},
    ("pretrained", None): {
        ("exact", 17): 0.8125, ("exact", 18): 0.8800, ("exact", 19): 0.9200,
        ("range", 17): 0.8650, ("range", 18): 0.8525, ("range", 19): 0.8825},
}


# Coarse accuracy of the same checkpoints on the same rows, recorded
# under the row-sparse optimizer step, with the same 0.02 rule.
QUALITY_COARSE_ACCURACY = {
    ("exact", 17): 0.9500, ("exact", 18): 0.9525, ("exact", 19): 0.9475,
    ("range", 17): 0.9050, ("range", 18): 0.9400, ("range", 19): 0.9325,
}

QUALITY_TASK_COARSE_ACCURACY = {
    ("fresh", 0.05): {
        ("exact", 17): 0.8475, ("exact", 18): 0.8750, ("exact", 19): 0.8525,
        ("range", 17): 0.9550, ("range", 18): 0.9500, ("range", 19): 0.9525},
    ("pretrained", 0.05): {
        ("exact", 17): 0.9050, ("exact", 18): 0.9225, ("exact", 19): 0.8975,
        ("range", 17): 0.9525, ("range", 18): 0.9525, ("range", 19): 0.9500},
    ("pretrained", 0.005): {
        ("exact", 17): 0.9425, ("exact", 18): 0.9300, ("exact", 19): 0.9050,
        ("range", 17): 0.9350, ("range", 18): 0.9450, ("range", 19): 0.9450},
    ("pretrained", None): {
        ("exact", 17): 0.9500, ("exact", 18): 0.9525, ("exact", 19): 0.9475,
        ("range", 17): 0.9050, ("range", 18): 0.9400, ("range", 19): 0.9325},
}


@pytest.fixture(scope="module")
def noisy_recipe(tmp_path_factory):
    """The sigma-2.0 recipe with each head pre-trained at each seed of
    QUALITY_FINE_ACCURACY into pre-<head>-<seed>, the task rows, and each
    task row of QUALITY_TASK_FINE_ACCURACY trained into
    <init>-<rate>-<head>-<seed>."""
    root = tmp_path_factory.mktemp("noisy-recipe")
    assert run("synth", "--out", root / "synth", "--size", 2000, "--holdout", 400,
               "--seed", 17, "--sigma", 2.0) == 0
    assert run("extract", root / "synth" / "corpus.jsonl", "--out", root / "ex") == 0
    assert run("synth", "--out", root / "task", "--size", 10, "--holdout", 40,
               "--seed", 18, "--sigma", 2.0) == 0
    for head, seed in QUALITY_FINE_ACCURACY:
        assert run("train", root / "ex" / "instances.jsonl", "--head", head,
                   "--learning-rate", 0.05, "--epochs", 20, "--seed", seed,
                   "--out", root / f"pre-{head}-{seed}") == 0
    for (init, rate), pins in QUALITY_TASK_FINE_ACCURACY.items():
        for head, seed in pins:
            start = root / f"pre-{head}-{seed}" / "model.ckpt" if init == "pretrained" else init
            rates = [] if rate is None else ["--learning-rate", rate, "--epochs", 20]
            assert run("train", root / "task" / "holdout.tsv", "--format", "timebank",
                       "--head", head, "--init", start, *rates, "--seed", seed,
                       "--out", root / f"{init}-{rate}-{head}-{seed}") == 0
    return root


def _accuracy(recipe, trained, head, protocol):
    """Accuracy under `protocol` of the checkpoint in `trained` on the
    recipe's holdout."""
    out = trained / f"eval-{protocol}"
    assert run("eval", trained / "model.ckpt", recipe / "synth" / "holdout.tsv",
               "--protocol", protocol, "--head", head, "--out", out) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["accuracy"]


def test_fine_accuracy_per_seed_holds_on_the_noisy_recipe(noisy_recipe):
    for (head, seed), floor in QUALITY_FINE_ACCURACY.items():
        accuracy = _accuracy(noisy_recipe, noisy_recipe / f"pre-{head}-{seed}", head, "fine")
        assert accuracy >= floor - 0.02, (head, seed)


def test_coarse_accuracy_per_seed_holds_on_the_noisy_recipe(noisy_recipe):
    for (head, seed), floor in QUALITY_COARSE_ACCURACY.items():
        accuracy = _accuracy(noisy_recipe, noisy_recipe / f"pre-{head}-{seed}", head, "coarse")
        assert accuracy >= floor - 0.02, (head, seed)


@pytest.mark.parametrize("init,rate", list(QUALITY_TASK_FINE_ACCURACY))
def test_fine_accuracy_per_seed_holds_after_task_rows(noisy_recipe, init, rate):
    for (head, seed), floor in QUALITY_TASK_FINE_ACCURACY[init, rate].items():
        trained = noisy_recipe / f"{init}-{rate}-{head}-{seed}"
        assert _accuracy(noisy_recipe, trained, head, "fine") >= floor - 0.02, (head, seed)


@pytest.mark.parametrize("init,rate", list(QUALITY_TASK_COARSE_ACCURACY))
def test_coarse_accuracy_per_seed_holds_after_task_rows(noisy_recipe, init, rate):
    for (head, seed), floor in QUALITY_TASK_COARSE_ACCURACY[init, rate].items():
        trained = noisy_recipe / f"{init}-{rate}-{head}-{seed}"
        assert _accuracy(noisy_recipe, trained, head, "coarse") >= floor - 0.02, (head, seed)


def test_train_rejects_out_of_range_mask_position(tmp_path):
    data = tmp_path / "instances.jsonl"
    row = {"masked_text": "It took [MASK] [MASK] today.", "mask_positions": [2, 20],
           "exact_label": 3.0, "range_label": "hours", "source_id": "x"}
    data.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert run("train", data, "--epochs", 1, "--out", tmp_path / "t") == cli.EXIT_DATA
    assert not (tmp_path / "t" / "model.ckpt").exists()


@pytest.fixture(scope="module")
def recipe_instances(tmp_path_factory):
    """The instances the README recipe extracts."""
    root = tmp_path_factory.mktemp("recipe")
    assert run("synth", "--out", root / "synth", "--size", 2000, "--holdout", 400, "--seed", 17) == 0
    assert run("extract", root / "synth" / "corpus.jsonl", "--out", root / "ex") == 0
    return root / "ex" / "instances.jsonl"


# At rate 1e6 the exact head's step loss passes the limit at step 2, at
# rate 10 during the first epoch; at rate 1 it peaks near 463 and recovers.
@pytest.mark.parametrize("rate,code", [(1e6, cli.EXIT_DATA), (10, cli.EXIT_DATA), (1, cli.EXIT_OK)])
def test_diverged_training_is_data_error(recipe_instances, tmp_path, capsys, rate, code):
    out = tmp_path / "t"
    assert run("train", recipe_instances, "--learning-rate", rate, "--epochs", 2, "--seed", 17,
               "--out", out) == code
    assert (out / "model.ckpt").exists() == (code == cli.EXIT_OK)
    if code == cli.EXIT_DATA:
        assert "diverged at step" in capsys.readouterr().err


@pytest.fixture(scope="module")
def noisy_instances(tmp_path_factory):
    """The instances of the noisier synth that the README's claims use."""
    root = tmp_path_factory.mktemp("noisy")
    assert run("synth", "--out", root / "synth", "--size", 2000, "--holdout", 4, "--seed", 17,
               "--sigma", 2.0) == 0
    assert run("extract", root / "synth" / "corpus.jsonl", "--out", root / "ex") == 0
    return root / "ex" / "instances.jsonl"


# The range head's clamped cross-entropy never passes the step bound. On
# the noisier synth its last epoch's mean loss is about 49 at rate 1, 402
# at rate 10 and 432 at rate 1e6; on the recipe it ends near 0 at rates
# 0.05 and 1e6 alike.
@pytest.mark.parametrize("corpus,epochs,rate,code", [
    ("noisy", 2, 1, cli.EXIT_OK), ("noisy", 2, 10, cli.EXIT_DATA), ("noisy", 2, 1e6, cli.EXIT_DATA),
    ("recipe", 20, 0.05, cli.EXIT_OK), ("recipe", 20, 1e6, cli.EXIT_OK),
])
def test_diverged_range_training_is_data_error(request, tmp_path, capsys, corpus, epochs, rate, code):
    out = tmp_path / "t"
    assert run("train", request.getfixturevalue(f"{corpus}_instances"), "--head", "range",
               "--learning-rate", rate, "--epochs", epochs, "--seed", 17, "--out", out) == code
    assert (out / "model.ckpt").exists() == (code == cli.EXIT_OK)
    if code == cli.EXIT_DATA:
        assert f"diverged in epoch {epochs}: mean loss" in capsys.readouterr().err


def test_eval_fine_and_coarse(small_pipeline, tmp_path, capsys):
    holdout = small_pipeline / "synth" / "holdout.tsv"
    for head, ckpt in [("exact", "te"), ("range", "tr")]:
        out = tmp_path / f"ev-{head}"
        code = run("eval", small_pipeline / ckpt / "model.ckpt", holdout,
                   "--protocol", "fine", "--head", head, "--inventory", 8, "--out", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["protocol"] == "fine"
        assert report["accuracy"] > 0.5
    out = tmp_path / "ev-coarse"
    assert run("eval", small_pipeline / "te" / "model.ckpt", holdout,
               "--protocol", "coarse", "--head", "exact", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["f1_per_class"]) == {"<day", ">day"}


def test_eval_mctaco_protocol(small_pipeline, tmp_path):
    rows = [
        {"context": "They hiked all morning.", "question": "How long did the hike last?",
         "answer": "4 hours", "gold": True},
        {"context": "They hiked all morning.", "question": "How long did the hike last?",
         "answer": "3 decades", "gold": False},
        {"context": "The nap was brief.", "question": "How long was the nap?",
         "answer": "20 minutes", "gold": True},
        {"context": "The nap was brief.", "question": "How long was the nap?",
         "answer": "mysteriously", "gold": False},
    ]
    data = tmp_path / "mctaco.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "ev"
    assert run("eval", small_pipeline / "te" / "model.ckpt", data,
               "--protocol", "mctaco", "--head", "exact", "--range", 3.0, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exact_match"] is not None
    assert report["diagnostics"]["unparseable_answers"] == 1
    assert len(report["items"]) == 3


def test_train_on_mctaco_format(small_pipeline, tmp_path):
    rows = [
        {"context": "Ctx.", "question": "How long did the drill last?", "answer": "2 minutes", "gold": True},
        {"context": "Ctx.", "question": "How long did the drill last?", "answer": "3 minutes", "gold": True},
        {"context": "Ctx2.", "question": "How long was lunch?", "answer": "unclear", "gold": True},
    ]
    data = tmp_path / "mctaco.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "ft"
    code = run("train", data, "--format", "mctaco", "--head", "exact",
               "--init", small_pipeline / "te" / "model.ckpt", "--epochs", 1, "--out", out)
    assert code == 0
    assert (out / "model.ckpt").exists()


def test_train_on_timebank_format(small_pipeline, tmp_path):
    out = tmp_path / "ft"
    code = run("train", small_pipeline / "synth" / "holdout.tsv", "--format", "timebank",
               "--head", "range", "--init", small_pipeline / "tr" / "model.ckpt",
               "--epochs", 1, "--out", out)
    assert code == 0


def test_range_training_labels_instances_by_the_inventory(small_pipeline, tmp_path):
    # The corpus has decade instances; under --inventory 7 they train as
    # year, and the range_label a file stores is not read.
    instances = small_pipeline / "ex" / "instances.jsonl"
    rows = [json.loads(line) for line in instances.read_text().splitlines()]
    assert any(row["range_label"] == "decade" for row in rows)
    relabeled = tmp_path / "relabeled.jsonl"
    relabeled.write_text("".join(json.dumps({**row, "range_label": "second"}) + "\n"
                                 for row in rows), encoding="utf-8")
    for inventory in (7, 8):
        args = ["--head", "range", "--inventory", inventory, "--epochs", 1, "--seed", 2]
        assert run("train", instances, "--out", tmp_path / f"a{inventory}", *args) == 0
        assert run("train", relabeled, "--out", tmp_path / f"b{inventory}", *args) == 0
        ckpt = (tmp_path / f"a{inventory}" / "model.ckpt").read_bytes()
        assert ckpt == (tmp_path / f"b{inventory}" / "model.ckpt").read_bytes()
        assert len(model.load(ckpt).inventory) == inventory


def test_baseline_cli(small_pipeline, tmp_path):
    out = tmp_path / "base"
    assert run("baseline", small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "fine", "--inventory", 8, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.2 < report["accuracy"] < 0.55
    out2 = tmp_path / "base2"
    assert run("baseline", small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "coarse", "--out", out2) == 0


def test_baseline_fine_gold_is_the_closest_unit_of_the_inventory(tmp_path):
    data = tmp_path / "decade.tsv"
    years = (23.0, TemporalUnit.YEAR)
    data.write_text(write_timebank_tsv([TimeBankRow("The dynasty endured.", (4, 11), years, years)]),
                    encoding="utf-8")
    for inventory, gold in ((7, "year"), (8, "decade")):
        out = tmp_path / f"base{inventory}"
        assert run("baseline", data, "--protocol", "fine", "--inventory", inventory,
                   "--out", out) == 0
        [item] = json.loads((out / "report.json").read_text(encoding="utf-8"))["items"]
        assert item["gold"] == gold, inventory


def test_baseline_defaults_to_the_inventory_that_train_defaults_to(small_pipeline, tmp_path):
    # A default `baseline --protocol fine` scores the golds of a default
    # `train` checkpoint's eval: the decade rows stay decade.
    holdout = small_pipeline / "synth" / "holdout.tsv"
    for name, inventory in (("default", ()), ("eight", ("--inventory", 8))):
        assert run("baseline", holdout, "--protocol", "fine", *inventory, "--out", tmp_path / name) == 0
    default, eight = ({f: (tmp_path / name / f).read_text(encoding="utf-8")
                       for f in ("items.tsv", "report.json")} for name in ("default", "eight"))
    assert "\tdecade\t" in eight["items.tsv"]
    assert default == eight


def test_seed_is_an_option_only_where_it_is_read(small_pipeline, tmp_path, corpus_file):
    # extract, eval and baseline draw nothing at random, so --seed there is
    # a usage error rather than a silently ignored setting
    holdout = small_pipeline / "synth" / "holdout.tsv"
    assert run("extract", corpus_file, "--out", tmp_path / "ex", "--seed", 3) == cli.EXIT_CONFIG
    assert run("eval", small_pipeline / "te" / "model.ckpt", holdout,
               "--out", tmp_path / "ev", "--seed", 3) == cli.EXIT_CONFIG
    assert run("baseline", holdout, "--out", tmp_path / "base", "--seed", 3) == cli.EXIT_CONFIG
    assert not (tmp_path / "ev").exists()


def test_baseline_rejects_mctaco_protocol(small_pipeline, tmp_path):
    code = run("baseline", small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "mctaco", "--out", tmp_path / "x")
    assert code == cli.EXIT_CONFIG


def test_eval_with_wrong_data_format_is_data_error(small_pipeline, tmp_path):
    garbage = tmp_path / "garbage.tsv"
    garbage.write_text("just one field\n", encoding="utf-8")
    code = run("eval", small_pipeline / "te" / "model.ckpt", garbage,
               "--protocol", "fine", "--head", "exact", "--out", tmp_path / "x")
    assert code == cli.EXIT_DATA


def test_eval_with_corrupt_checkpoint_is_data_error(small_pipeline, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"junk")
    code = run("eval", bad, small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "fine", "--head", "exact", "--out", tmp_path / "x")
    assert code == cli.EXIT_DATA


def test_eval_with_non_integer_header_radius_is_data_error(small_pipeline, tmp_path, capsys):
    blob = (small_pipeline / "te" / "model.ckpt").read_bytes()
    header_len = int.from_bytes(blob[12:16], "big")
    header = json.loads(blob[16:16 + header_len])
    header["radius"] = 2.5
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:12] + len(raw).to_bytes(4, "big") + raw + blob[16 + header_len:])
    code = run("eval", bad, small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "fine", "--head", "exact", "--out", tmp_path / "x")
    assert code == cli.EXIT_DATA
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("key, edit", [
    ("dtype", lambda header: header.update(dtype=">f8")),
    ("dtype", lambda header: header.update(dtype="int32")),
    ("dtype", lambda header: header.pop("dtype")),
    ("version", lambda header: header.update(version=7)),
    ("version", lambda header: header.pop("version")),
    ("trained_heads", lambda header: header.update(trained_heads=["exact"])),
    ("arrays", lambda header: header["arrays"][0].update(dtype="<f8")),
], ids=["big-endian", "int32", "no-dtype", "version-7", "no-version", "unknown-key",
        "array-entry-field"])
def test_eval_with_a_header_save_would_not_write_is_data_error(small_pipeline, tmp_path, capsys,
                                                                key, edit):
    blob = (small_pipeline / "te" / "model.ckpt").read_bytes()
    header_len = int.from_bytes(blob[12:16], "big")
    header = json.loads(blob[16:16 + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:12] + len(raw).to_bytes(4, "big") + raw + blob[16 + header_len:])
    code = run("eval", bad, small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "fine", "--head", "exact", "--out", tmp_path / "x")
    assert code == cli.EXIT_DATA
    assert f"differs from what save writes in {key}" in capsys.readouterr().err


def test_eval_with_non_finite_checkpoint_is_data_error(small_pipeline, tmp_path, capsys):
    # inf in the range head and NaN in an embedding row that no holdout token uses
    holdout = small_pipeline / "synth" / "holdout.tsv"
    trained = model.load((small_pipeline / "tr" / "model.ckpt").read_bytes())
    inputs = cli._timebank_golds(holdout, trained.inventory, "fine")[0]
    used = {trained.encoder.bucket(token) for mi in inputs for token in tokenize(mi.text)}
    trained.w_r[3, 0] = np.inf
    trained.encoder.embeddings[min(set(range(trained.encoder.buckets)) - used), 0] = np.nan
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(model.save(trained))
    code = run("eval", bad, holdout, "--protocol", "fine", "--head", "range", "--out", tmp_path / "x")
    assert code == cli.EXIT_DATA
    assert "array embeddings holds NaN" in capsys.readouterr().err
    assert not (tmp_path / "x" / "report.json").exists()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_with_damaged_checkpoint_exits_by_whether_it_loads(small_pipeline, tmp_path, data):
    blob = data.draw(damaged((small_pipeline / "te" / "model.ckpt").read_bytes()))
    try:
        model.load(blob)
        expected = cli.EXIT_OK
    except model.CheckpointError:
        expected = cli.EXIT_DATA
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    assert run("eval", bad, small_pipeline / "synth" / "holdout.tsv",
               "--protocol", "fine", "--head", "exact", "--out", tmp_path / "x") == expected


# Per input kind: a valid record, the strategy that damages it, the file
# it goes in after the valid records, and the commands that read that file.
_INTAKES = {
    "tsv-row": (["They met.", "5", "8", "1", "hour", "2", "hours"], damaged_cells, "data.tsv", [
        ["eval", "{te}", "{path}", "--protocol", "fine", "--head", "exact"],
        ["eval", "{tr}", "{path}", "--protocol", "coarse", "--head", "range"],
        ["baseline", "{path}", "--protocol", "fine"],
        ["train", "{path}", "--format", "timebank", "--init", "{te}", "--epochs", "1"]]),
    "qa-row": ({"context": "They met.", "question": "How long did they meet?", "answer": "2 hours",
                "gold": True}, damaged_record, "qa.jsonl", [
        ["eval", "{te}", "{path}", "--protocol", "mctaco", "--head", "exact"],
        ["train", "{path}", "--format", "mctaco", "--init", "{tr}", "--head", "range", "--epochs", "1"]]),
    "instance": (None, damaged_record, "instances.jsonl", [
        ["train", "{path}", "--head", "exact", "--epochs", "1"],
        ["train", "{path}", "--head", "range", "--epochs", "1"]]),
    "corpus-record": ({"id": "d1", "text": "Ravi spent 3 hours on the handshake."}, damaged_record,
                      "corpus.jsonl", [["extract", "{path}"]]),
}


@pytest.mark.parametrize("intake", sorted(_INTAKES))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_input_record_exits_with_a_documented_code(small_pipeline, tmp_path, intake, data):
    # A standing guard over every intake: whatever one damaged record
    # holds, the CLI ends with one of its documented exit codes.
    record, damage, name, commands = _INTAKES[intake]
    if intake == "tsv-row":
        valid = ["\t".join(TIMEBANK_COLUMNS), "\t".join(record)]
    elif intake == "instance":
        valid = (small_pipeline / "ex" / "instances.jsonl").read_text(encoding="utf-8").splitlines()[:16]
        record = json.loads(valid[0])
    else:
        valid = [json.dumps(record)]
    path = tmp_path / name
    path.write_text("\n".join([*valid, data.draw(damage(record))]) + "\n", encoding="utf-8")
    argv = [a.format(path=path, te=small_pipeline / "te" / "model.ckpt",
                     tr=small_pipeline / "tr" / "model.ckpt") for a in data.draw(st.sampled_from(commands))]
    assert run(*argv, "--out", tmp_path / "out") in {
        cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_DATA}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_tsv_row_ends_baseline_and_eval_alike(small_pipeline, tmp_path, capsys, data):
    # baseline labels the rows without placing masks in them, and eval
    # places them; both must accept and refuse the same files.
    path = tmp_path / "data.tsv"
    path.write_text("\n".join(["\t".join(TIMEBANK_COLUMNS), "They met.\t5\t8\t1\thour\t2\thours",
                               data.draw(damaged_cells(["They met.", "5", "8", "1", "hour", "2", "hours"]))])
                    + "\n", encoding="utf-8")
    ends = []
    for argv in (["baseline", path], ["eval", small_pipeline / "te" / "model.ckpt", path]):
        code = run(*argv, "--protocol", "fine", "--out", tmp_path / "out")
        ends.append((code, capsys.readouterr().err))
    assert ends[0] == ends[1]


def test_train_negative_dim_is_config_error(small_pipeline, tmp_path, capsys):
    for flag, value in [("--dim", -1), ("--dim", 0), ("--buckets", -2)]:
        code = run("train", small_pipeline / "ex" / "instances.jsonl", flag, value,
                   "--epochs", 1, "--out", tmp_path / "t")
        assert code == cli.EXIT_CONFIG, (flag, value)
        assert "dim and buckets" in capsys.readouterr().err
    assert not (tmp_path / "t" / "model.ckpt").exists()


# 10**15 x 32 float64 (227 PiB) is more than any 64-bit address space, so
# the allocation fails at once; 10**15 x 4096 overflows numpy's maximum size.
@pytest.mark.parametrize("flag", ["--buckets", "--dim"])
def test_train_table_too_large_is_config_error(small_pipeline, tmp_path, capsys, flag):
    code = run("train", small_pipeline / "ex" / "instances.jsonl", flag, 10**15,
               "--epochs", 1, "--out", tmp_path / "t")
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dim=" in err and "buckets=" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "t" / "model.ckpt").exists()


# Each bad setting names itself; before the settings became configuration
# errors these exited 4 (or 0, for an infinite band that accepts every answer).
@pytest.mark.parametrize("argv,name", [
    (["eval", "{te}", "{qa}", "--protocol", "mctaco", "--range", -1], "range"),
    (["eval", "{te}", "{qa}", "--protocol", "mctaco", "--range", "nan"], "range"),
    (["eval", "{te}", "{qa}", "--protocol", "mctaco", "--range", "inf"], "range"),
    (["synth", "--size", -1], "size"),
    (["synth", "--sigma", -1], "sigma"),
    (["synth", "--sigma", 1e300, "--size", 20], "sigma"),
    (["synth", "--seed", -1], "seed"),
    (["train", "{instances}", "--seed", -1], "seed"),
], ids=["range-negative", "range-nan", "range-inf", "size-negative", "sigma-negative",
        "sigma-overflows", "synth-seed-negative", "train-seed-negative"])
def test_bad_setting_is_config_error_naming_it(small_pipeline, tmp_path, capsys, argv, name):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(json.dumps({"context": "C.", "question": "How long?", "answer": "2 hours",
                              "gold": True}) + "\n", encoding="utf-8")
    paths = {"te": small_pipeline / "te" / "model.ckpt", "qa": qa,
             "instances": small_pipeline / "ex" / "instances.jsonl"}
    argv = [str(a).format(**paths) for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == cli.EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "config.ini").exists()


_QA_ROW = {"context": "C.", "question": "How long did it last?", "answer": "2 hours", "gold": True}
_INSTANCE = {"masked_text": "It took [MASK] [MASK] today.", "mask_positions": [2, 3],
             "exact_label": 3.0, "range_label": "hours", "source_id": "x"}


@pytest.mark.parametrize("argv,line", [
    (["train", "{data}"], "[1, 2]"),
    (["train", "{data}"], json.dumps({k: v for k, v in _INSTANCE.items() if k != "masked_text"})),
    (["train", "{data}", "--format", "mctaco"], "[1, 2]"),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], "[1, 2]"),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], json.dumps({"context": "C."})),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], json.dumps({**_QA_ROW, "context": 5})),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], json.dumps({**_QA_ROW, "answer": None})),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], json.dumps({**_QA_ROW, "gold": "false"})),
    (["train", "{data}", "--format", "mctaco"], json.dumps({**_QA_ROW, "question": ["q"]})),
    (["train", "{data}", "--format", "mctaco"], json.dumps({**_QA_ROW, "gold": 1})),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], json.dumps({**_QA_ROW, "context": "[MASK] ran."})),
    (["train", "{data}", "--format", "mctaco"],
     json.dumps({**_QA_ROW, "question": "How long did [MASK] last?"})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "exact_label": float("nan")})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "exact_label": float("inf")})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "exact_label": 10 ** 400})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "exact_label": "abc"})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "exact_label": True})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": "23"})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": [2.0, 3]})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": [True, 4]})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "masked_text": 7})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": []})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": [2, -1]})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": [0, 1]})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": [2, 2]})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "mask_positions": [3, 2]})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "source_id": 5})),
    (["train", "{data}"], json.dumps({**_INSTANCE, "source_id": None})),
    (["train", "{data}", "--head", "range"], json.dumps({**_INSTANCE, "range_label": "fortnight"})),
    (["train", "{data}"], '{"masked_text": "It took'),
    (["train", "{data}", "--format", "mctaco"], '{"context": "C.'),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], "not json"),
], ids=["instances-array", "instances-missing-field", "train-qa-array", "eval-qa-array",
        "eval-qa-missing-field", "eval-qa-context-int", "eval-qa-answer-null",
        "eval-qa-gold-string", "train-qa-question-list", "train-qa-gold-int",
        "eval-qa-context-mask", "train-qa-question-mask",
        "instances-label-nan", "instances-label-inf", "instances-label-huge-int",
        "instances-label-string", "instances-label-bool", "instances-positions-string",
        "instances-positions-float", "instances-positions-bool", "instances-text-int",
        "instances-positions-empty", "instances-positions-outside", "instances-positions-not-mask",
        "instances-positions-repeated", "instances-positions-backward",
        "instances-source-id-int", "instances-source-id-null",
        "instances-unknown-range-label",
        "instances-not-json", "train-qa-not-json", "eval-qa-not-json"])
def test_malformed_jsonl_line_is_data_error(small_pipeline, tmp_path, capsys, argv, line):
    # the bad line comes second, after a good one of the same kind
    good = _QA_ROW if "mctaco" in argv else _INSTANCE
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
    argv = [a.format(data=data, te=small_pipeline / "te" / "model.ckpt") for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == cli.EXIT_DATA
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.ckpt").exists()


_TSV_COMMANDS = pytest.mark.parametrize("argv", [
    ["train", "{data}", "--format", "timebank"],
    ["eval", "{te}", "{data}", "--protocol", "fine"],
    ["baseline", "{data}"],
], ids=["train", "eval", "baseline"])


def _run_on_tsv_with_bad_second_row(pipeline, tmp_path, argv, row):
    # the bad row comes second, after a good one; the header is row 0
    data = tmp_path / "data.tsv"
    data.write_text("sentence\tevent_start\tevent_end\tmin_quantity\tmin_unit\tmax_quantity\t"
                    f"max_unit\nThey met.\t5\t8\t1\thour\t1\thour\n{row}\n", encoding="utf-8")
    argv = [a.format(data=data, te=pipeline / "te" / "model.ckpt") for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == cli.EXIT_DATA
    assert not (tmp_path / "out" / "model.ckpt").exists()


@pytest.mark.parametrize("quantity", ["-1", "0", "nan", "inf", "1e400"])
@_TSV_COMMANDS
def test_timebank_quantity_not_positive_finite_is_data_error(
        small_pipeline, tmp_path, capsys, argv, quantity):
    _run_on_tsv_with_bad_second_row(small_pipeline, tmp_path, argv,
                                    f"They met.\t5\t8\t{quantity}\thour\t2\thours")
    err = capsys.readouterr().err
    assert "row 2" in err and repr(quantity) in err


@_TSV_COMMANDS
def test_timebank_event_span_outside_sentence_names_the_row(small_pipeline, tmp_path, capsys, argv):
    _run_on_tsv_with_bad_second_row(small_pipeline, tmp_path, argv,
                                    "They met.\t4\t40\t1\thour\t2\thours")
    assert "row 2: event span (4, 40) outside sentence of length 9" in capsys.readouterr().err


@pytest.mark.parametrize("row,message", [
    ("The [MASK] met.\t11\t14\t1\thour\t2\thours", "row 2: sentence holds [MASK]"),
    ("They met again.\t5\t9\t1\thour\t2\thours",
     "row 2: event span (5, 9) does not end where a word ends"),
    ("They met again.\t5\t7\t1\thour\t2\thours",
     "row 2: event span (5, 7) does not end where a word ends"),
], ids=["sentence-holds-mask", "span-ends-on-space", "span-ends-inside-word"])
@_TSV_COMMANDS
def test_timebank_row_whose_masks_would_not_come_out_names_the_row(
        small_pipeline, tmp_path, capsys, argv, row, message):
    _run_on_tsv_with_bad_second_row(small_pipeline, tmp_path, argv, row)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("row,message", [
    ("They met.\t5\t8\t1e301\tyear\t1e301\tyears",
     "row 2: durations 1e+301 year and 1e+301 year or their mean overflow a float in seconds"),
    ("They met.\t5\t8\t3e300\tyear\t5e300\tyears",
     "row 2: durations 3e+300 year and 5e+300 year or their mean overflow a float in seconds"),
    ("x" * 200_000 + "\t5\t8\t1\thour\t2\thours", "row 2: field larger than field limit"),
], ids=["bounds-overflow", "mean-overflows", "cell-over-csv-limit"])
@_TSV_COMMANDS
def test_timebank_row_that_cannot_be_read_names_the_row(
        small_pipeline, tmp_path, capsys, argv, row, message):
    _run_on_tsv_with_bad_second_row(small_pipeline, tmp_path, argv, row)
    assert message in capsys.readouterr().err


@_TSV_COMMANDS
def test_timebank_header_after_blank_lines_is_a_header(small_pipeline, tmp_path, argv):
    row = TimeBankRow("They met.", (5, 8), (1.0, TemporalUnit.HOUR), (2.0, TemporalUnit.HOUR))
    data = tmp_path / "data.tsv"
    data.write_text("\n\t\n" + write_timebank_tsv([row]), encoding="utf-8")
    argv = [a.format(data=data, te=small_pipeline / "te" / "model.ckpt") for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == 0


@pytest.mark.parametrize("line_end", ["\r", "\r\n"], ids=["cr", "crlf"])
@_TSV_COMMANDS
def test_timebank_sentence_with_a_line_end_reads_back(small_pipeline, tmp_path, argv, line_end):
    # the line end is quoted inside the cell; it reads back only when the
    # file is opened without newline translation
    sentence = f"They met.{line_end}It rained"
    start = sentence.index("rained")
    row = TimeBankRow(sentence, (start, start + 6), (1.0, TemporalUnit.HOUR),
                      (2.0, TemporalUnit.HOUR))
    data = tmp_path / "data.tsv"
    data.write_text(write_timebank_tsv([row]), encoding="utf-8")
    argv = [a.format(data=data, te=small_pipeline / "te" / "model.ckpt") for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == 0


def test_eval_mctaco_without_parseable_answer_names_the_file(small_pipeline, tmp_path, capsys):
    data = tmp_path / "qa.jsonl"
    data.write_text(json.dumps({**_QA_ROW, "answer": "a while"}) + "\n", encoding="utf-8")
    assert run("eval", small_pipeline / "te" / "model.ckpt", data, "--protocol", "mctaco",
               "--out", tmp_path / "out") == cli.EXIT_DATA
    assert f"no answer in {data} parses as a duration" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("fmt,text", [
    ("instances", ""),
    ("timebank", "sentence\tevent_start\tevent_end\tmin_quantity\tmin_unit\tmax_quantity\tmax_unit\n"),
    ("mctaco", "".join(json.dumps({**_QA_ROW, **change}) + "\n"
                       for change in ({"answer": "a while"}, {"gold": False}))),
], ids=["instances-empty", "timebank-header-only", "mctaco-no-parseable-correct-answer"])
def test_train_without_usable_items_is_data_error(tmp_path, capsys, fmt, text):
    data = tmp_path / f"data.{fmt}"
    data.write_text(text, encoding="utf-8")
    assert run("train", data, "--format", fmt, "--out", tmp_path / "out") == cli.EXIT_DATA
    assert data.name in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.ckpt").exists()


# The answer pattern matches case-insensitively, so "\u0130" (dotted
# capital I) matches "i" and "\u017f" (long s) matches "s", but the words
# they are in read back as no unit or number; a long numeral overflows.
@pytest.mark.parametrize("answer", ["2 m\u0130nutes", "\u017fix hours", "f\u0130ve hours",
                                    "1" * 400 + " hours"],
                         ids=["dotted-i-unit", "long-s-number", "dotted-i-number", "huge-numeral"])
def test_answer_that_does_not_read_back_is_dropped(small_pipeline, tmp_path, answer):
    data = tmp_path / "qa.jsonl"
    data.write_text("".join(json.dumps({**_QA_ROW, **change}) + "\n" for change in (
        {"answer": answer}, {}, {"answer": answer, "gold": False})), encoding="utf-8")
    checkpoint = small_pipeline / "te" / "model.ckpt"
    assert run("train", data, "--format", "mctaco", "--init", checkpoint, "--epochs", 1,
               "--out", tmp_path / "ft") == 0
    assert run("eval", checkpoint, data, "--protocol", "mctaco", "--out", tmp_path / "ev") == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["diagnostics"]["unparseable_answers"] == 2
    assert len(report["items"]) == 1


_BOM = b"\xef\xbb\xbf"
_QA_TEXT = "".join(json.dumps({**_QA_ROW, **change}) + "\n" for change in (
    {}, {"answer": "3 years", "gold": False}, {"context": "D.", "answer": "5 minutes"}))


# A leading UTF-8 byte order mark is not part of any input: a run on a
# file that starts with one writes what it writes on the file without it,
# and writes no mark of its own. A source holding "/" names a file of the
# shared pipeline; any other source is the file's text.
@pytest.mark.parametrize("argv,name,source,output", [
    (["extract", "{data}"], "corpus.jsonl", "synth/corpus.jsonl", "instances.jsonl"),
    (["extract", "{data}"], "doc.txt", "It took 4 hours. They waited for 2 days.", "instances.jsonl"),
    (["train", "{data}", "--epochs", "1"], "instances.jsonl", "ex/instances.jsonl", "model.ckpt"),
    (["train", "{data}", "--format", "timebank", "--epochs", "1"], "rows.tsv", "synth/holdout.tsv",
     "model.ckpt"),
    (["train", "{data}", "--format", "mctaco", "--epochs", "1"], "qa.jsonl", _QA_TEXT, "model.ckpt"),
    (["eval", "{te}", "{data}", "--protocol", "fine"], "rows.tsv", "synth/holdout.tsv",
     "report.json"),
    (["eval", "{te}", "{data}", "--protocol", "mctaco"], "qa.jsonl", _QA_TEXT, "report.json"),
    (["baseline", "{data}"], "rows.tsv", "synth/holdout.tsv", "report.json"),
], ids=["extract-jsonl", "extract-txt", "train-instances", "train-timebank", "train-mctaco",
        "eval-timebank", "eval-mctaco", "baseline"])
def test_input_with_a_byte_order_mark_reads_as_without_one(
        small_pipeline, tmp_path, argv, name, source, output):
    text = (small_pipeline / source).read_text(encoding="utf-8") if "/" in source else source
    outputs = []
    for tag, encoding in [("plain", "utf-8"), ("bom", "utf-8-sig")]:
        data = tmp_path / tag / name
        data.parent.mkdir()
        data.write_text(text, encoding=encoding)
        argv_run = [a.format(data=data, te=small_pipeline / "te" / "model.ckpt") for a in argv]
        assert run(*argv_run, "--out", tmp_path / tag / "out") == 0
        outputs.append((tmp_path / tag / "out" / output).read_bytes())
    assert (tmp_path / "bom" / name).read_bytes().startswith(_BOM)
    assert outputs[0] == outputs[1] and outputs[0]
    assert not outputs[1].startswith(_BOM)


def test_config_file_with_a_byte_order_mark_is_read(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[synth]\nsize = 5\n", encoding="utf-8-sig")
    out = tmp_path / "synth"
    assert run("synth", "--holdout", 2, "--config", config, "--out", out) == 0
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 5
    assert (out / "config.ini").read_bytes().startswith(b"[synth]")


@pytest.mark.parametrize("command,section,key,value", [
    ("train", "train", "head", "exatc"),
    ("train", "train", "format", "csv"),
    ("train", "train", "inventory", "9"),
    ("train", "common", "inventory", "6"),
    ("train", "train", "dim", "wide"),
    ("eval", "eval", "protocol", "finer"),
    ("eval", "eval", "head", "both"),
    ("eval", "eval", "inventory", "5"),
    ("baseline", "eval", "inventory", "9"),
])
def test_config_file_value_outside_choices_is_config_error(
        small_pipeline, tmp_path, capsys, command, section, key, value):
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    data = {"train": [small_pipeline / "ex" / "instances.jsonl"],
            "eval": [small_pipeline / "te" / "model.ckpt", small_pipeline / "synth" / "holdout.tsv"],
            "baseline": [small_pipeline / "synth" / "holdout.tsv"]}[command]
    out = tmp_path / "out"
    assert run(command, *data, "--config", config, "--out", out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and value in err
    assert not (out / "config.ini").exists()


def test_config_file_layering(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[common]\nseed = 3\nsize = 9\n[synth]\nsize = 5\n", encoding="utf-8")
    out = tmp_path / "synth"
    assert run("synth", "--holdout", 2, "--config", config, "--out", out) == 0
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 5
    assert "seed = 3" in (out / "config.ini").read_text()
    # a flag overrides the file value
    out2 = tmp_path / "synth2"
    assert run("synth", "--holdout", 2, "--config", config, "--out", out2, "--size", 7) == 0
    assert len((out2 / "corpus.jsonl").read_text().splitlines()) == 7


def test_effective_config_echoed(tmp_path):
    out = tmp_path / "synth"
    assert run("synth", "--size", 5, "--holdout", 2, "--out", out) == 0
    text = (out / "config.ini").read_text()
    assert "size = 5" in text


def test_readme_names_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    flags = {row.flag_name for command in cli.COMMANDS.values() for row in command.settings}
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme)) == []


def test_missing_config_file_is_io_error(tmp_path, corpus_file):
    code = run("extract", corpus_file, "--config", tmp_path / "no.ini", "--out", tmp_path / "o")
    assert code == cli.EXIT_IO


def test_rerun_from_echoed_config_reproduces_outputs(tmp_path):
    first = tmp_path / "first"
    assert run("synth", "--size", 5, "--holdout", 2, "--seed", 3, "--out", first) == 0
    again = tmp_path / "again"
    assert run("synth", "--config", first / "config.ini", "--out", again) == 0
    assert (first / "corpus.jsonl").read_bytes() == (again / "corpus.jsonl").read_bytes()
    assert (first / "holdout.tsv").read_bytes() == (again / "holdout.tsv").read_bytes()


def _run_child(*argv, log_level=""):
    """Run the CLI in a child process, which imports the durpipe that this
    test imported; an empty `log_level` leaves DURPIPE_LOG unset."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("DURPIPE_LOG", None)
    if log_level:
        env["DURPIPE_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "durpipe.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)


def test_traced_stage_counts_every_window_token(small_pipeline, tmp_path):
    # durbench/stage.py runs a stage under the tracer, which patches
    # durpipe's functions by name and counts what window_buckets returns;
    # a change to a patched name or return type fails here.
    stage = Path(__file__).parents[1] / "durbench" / "stage.py"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    lines = (small_pipeline / "ex" / "instances.jsonl").read_text(encoding="utf-8").splitlines()
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(line + "\n" for line in lines[:100]), encoding="utf-8")
    holdout, ckpt = small_pipeline / "synth" / "holdout.tsv", tmp_path / "train" / "model.ckpt"
    for name, argv in [("train", ["train", instances, "--epochs", 2, "--seed", 3]),
                       ("eval", ["eval", ckpt, holdout, "--protocol", "fine"])]:
        spans = tmp_path / f"{name}.npz"
        proc = subprocess.run([sys.executable, *map(str, [stage, tmp_path / f"{name}.json", spans,
                                                          *argv, "--out", tmp_path / name])],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trained = model.load(ckpt.read_bytes())
        inputs = (cli._read_training_inputs(instances, "instances", trained.inventory)
                  if name == "train" else cli._timebank_golds(holdout, trained.inventory, "fine")[0])
        lengths = model._compile(trained, inputs).lengths
        with np.load(spans) as traced:
            counts = json.loads(str(traced["counts"]))
            window_spans = traced["name"] == list(traced["names"]).index(
                "model.encoder.window_buckets")
        assert np.count_nonzero(window_spans) == len(lengths), name
        assert counts["model.encoder.bucket_calls"] == lengths.sum(), name


def test_traced_eval_spans_each_row_and_counts_each_dropped_answer(small_pipeline, tmp_path):
    # The tracer spans adapters.timebank_to_input once per TSV row, and
    # counts a dropped answer for each None that adapters.parse_answer_value
    # returns; eval must call both through the module, once per row and
    # per answer, for these to read true.
    stage = Path(__file__).parents[1] / "durbench" / "stage.py"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    holdout = small_pipeline / "synth" / "holdout.tsv"
    qa = tmp_path / "qa.jsonl"
    qa.write_text("".join(json.dumps({"context": f"They met {i}.", "question": "How long did they meet?",
                                      "answer": answer, "gold": gold}) + "\n"
                          for i in range(3) for answer, gold in [("2 hours", True), ("a while", False),
                                                                 ("3 days", False), ("a while", True)]),
                  encoding="utf-8")
    for protocol, data in [("fine", holdout), ("mctaco", qa)]:
        spans, out = tmp_path / f"{protocol}.npz", tmp_path / protocol
        proc = subprocess.run([sys.executable, *map(str, [
            stage, tmp_path / f"{protocol}.json", spans, "eval", small_pipeline / "te" / "model.ckpt",
            data, "--protocol", protocol, "--out", out])], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        with np.load(spans) as traced:
            names, counts = list(traced["names"]), json.loads(str(traced["counts"]))
            calls = {name: int(np.count_nonzero(traced["name"] == i)) for i, name in enumerate(names)}
        if protocol == "fine":
            assert calls["adapters.timebank_to_input"] == len(read_timebank_tsv(
                holdout.read_text(encoding="utf-8").splitlines())) == len(report["items"])
        else:
            assert calls["adapters.parse_answer_value"] == 12
            assert counts["adapters.dropped_answers"] == report["diagnostics"]["unparseable_answers"] == 6


def test_traced_extract_spans_each_document_and_each_sentence(tmp_path):
    # durbench traces one extraction.segment_sentences span per document
    # and one extraction.match_sentence span per sentence; extract must
    # make both calls through the module for every document and sentence,
    # whether or not a text takes the period-only split or the ASCII digit
    # test.
    stage = Path(__file__).parents[1] / "durbench" / "stage.py"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    texts = ["It took 3 days. Then it rained.",
             "Did it last for 2 weeks? Yes!  It did.",
             "The strike lasted for ٣ days. Café talk went on for 4 hours.",
             "No digits here. None at all",
             "Über 5 years?\u3000Quite.  ",
             "Nothing to split"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": text}, ensure_ascii=i % 2 == 0) + "\n"
                              for i, text in enumerate(texts)) + "not json\n", encoding="utf-8")
    spans, out = tmp_path / "extract.npz", tmp_path / "out"
    proc = subprocess.run([sys.executable, *map(str, [
        stage, tmp_path / "extract.json", spans, "extract", corpus, "--out", out])],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    with np.load(spans) as traced:
        names, counts = list(traced["names"]), json.loads(str(traced["counts"]))
        calls = {name: int(np.count_nonzero(traced["name"] == i)) for i, name in enumerate(names)}
    assert calls["extraction.segment_sentences"] == stats["documents"] == len(texts)
    assert calls["extraction.match_sentence"] == counts["extraction.sentences"] == stats["sentences"] == 12
    assert counts["extraction.matched"] == stats["matched"] == 4


def test_log_verbosity_env_var(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n", encoding="utf-8")
    default = _run_child("extract", bad, "--out", tmp_path / "out-")
    assert default.returncode == 0
    assert "skipping malformed document" in default.stderr
    quiet = _run_child("extract", bad, "--out", tmp_path / "out-ERROR", log_level="ERROR")
    assert quiet.returncode == 0
    assert "skipping malformed document" not in quiet.stderr


def test_unknown_log_level_is_config_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n", encoding="utf-8")
    for value in ("INFOO", "verbose"):
        child = _run_child("extract", bad, "--out", tmp_path / value, log_level=value)
        assert child.returncode == cli.EXIT_CONFIG, value
        assert child.stderr.splitlines() == [
            f"durpipe: configuration error: DURPIPE_LOG={value!r} is not a log level"]
        assert not (tmp_path / value).exists()
    for value, shown in [("warn", True), ("Fatal", False), ("critical", False)]:
        child = _run_child("extract", bad, "--out", tmp_path / value, log_level=value)
        assert child.returncode == 0, value
        assert ("skipping malformed document" in child.stderr) == shown, value


def test_train_logs_one_info_line_per_epoch(small_pipeline, tmp_path):
    # Both runs write to one directory, whose path config.ini records.
    out = tmp_path / "out"
    argv = ("train", small_pipeline / "ex" / "instances.jsonl", "--epochs", 3,
            "--learning-rate", 0.05, "--seed", 11, "--out", out)
    quiet = _run_child(*argv)
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    loud = _run_child(*argv, log_level="INFO")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    curve = json.loads(written["loss_curve.json"])["loss"]
    steps = len(curve) // 3
    assert [line for line in loud.stderr.splitlines() if "durpipe.model" in line] == [
        f"INFO durpipe.model: epoch {e}: {steps} steps, "
        f"mean loss {sum(curve[(e - 1) * steps:e * steps]) / steps:.6g}, learning rate 0.05"
        for e in (1, 2, 3)]


@pytest.mark.parametrize("head", ["exact", "range"])
def test_train_warns_when_it_ends_no_better_than_a_constant_prediction(small_pipeline, tmp_path,
                                                                       head):
    # At the default rate 5e-5, one epoch leaves the mean loss above that of
    # the best constant prediction; at rate 0.05 it falls far below it.
    instances = small_pipeline / "ex" / "instances.jsonl"
    labels = [json.loads(line)["exact_label"] for line in instances.read_text().splitlines()]
    if head == "exact":
        constant = float(np.var(labels))
    else:
        units = [closest_unit(label) for label in labels]
        p = np.array([units.count(u) for u in set(units)]) / len(units)
        constant = float(-(p * np.log(p)).sum())
    default = _run_child("train", instances, "--head", head, "--seed", 11,
                         "--out", tmp_path / "default")
    fast = _run_child("train", instances, "--head", head, "--learning-rate", 0.05,
                      "--epochs", 3, "--seed", 11, "--out", tmp_path / "fast")
    assert default.returncode == fast.returncode == 0
    assert fast.stderr == ""
    curve = json.loads((tmp_path / "default" / "loss_curve.json").read_text())["loss"]
    [line] = default.stderr.splitlines()
    found = re.fullmatch(r"WARNING durpipe\.model: training learned nothing: the last epoch's mean "
                         r"loss (\S+) is not below (\S+), that of a constant prediction, at "
                         r"learning rate 5e-05", line)
    assert found, line
    assert float(found[1]) == pytest.approx(sum(curve) / len(curve), rel=1e-5)
    assert float(found[2]) == pytest.approx(constant, rel=1e-5) and float(found[1]) >= constant


@pytest.fixture(scope="module")
def overflowing(tmp_path_factory):
    """Checkpoints of both heads after one step at rate 1e300. The step
    loss is finite, so training succeeds, but the parameters are so large
    that every prediction overflows."""
    root = tmp_path_factory.mktemp("overflowing")
    assert run("synth", "--out", root / "synth", "--size", 16, "--holdout", 8, "--seed", 3) == 0
    assert run("extract", root / "synth" / "corpus.jsonl", "--out", root / "ex") == 0
    for head in ("exact", "range"):
        assert run("train", root / "ex" / "instances.jsonl", "--head", head, "--epochs", 1,
                   "--batch-size", 16, "--learning-rate", 1e300, "--out", root / head) == 0
    return root


# A configuration or data error is one line on stderr: no log record
# repeats it, and no numpy warning about an overflowing draw or a
# diverging step comes ahead of it.
@pytest.mark.parametrize("argv,code,message", [
    (["synth", "--sigma", 1e300, "--size", 20], cli.EXIT_CONFIG, "configuration error: sigma"),
    (["synth", "--sigma", 800, "--size", 20], cli.EXIT_CONFIG, "configuration error: sigma"),
    (["train", "{instances}", "--head", "exact", "--learning-rate", 1e308], cli.EXIT_DATA,
     "data error: training diverged"),
    (["train", "{instances}", "--head", "range", "--learning-rate", 1e308], cli.EXIT_DATA,
     "data error: training diverged"),
    (["eval", "{overflowing}/exact/model.ckpt", "{overflowing}/synth/holdout.tsv", "--head", "exact"],
     cli.EXIT_DATA, "data error: item 0: the exact head's output is not finite"),
    (["eval", "{overflowing}/range/model.ckpt", "{overflowing}/synth/holdout.tsv", "--head", "range"],
     cli.EXIT_DATA, "data error: item 0: the range head's output is not finite"),
    (["eval", "{overflowing}/exact/model.ckpt", "{masked}", "--head", "exact"],
     cli.EXIT_DATA, "data error: row 0: sentence holds [MASK]"),
], ids=["sigma-1e300", "sigma-800", "train-exact-diverges", "train-range-diverges",
        "eval-exact-overflows", "eval-range-overflows", "eval-sentence-holds-mask"])
def test_error_is_one_line_on_stderr(small_pipeline, overflowing, tmp_path, argv, code, message):
    instances = small_pipeline / "ex" / "instances.jsonl"
    masked = tmp_path / "masked.tsv"
    masked.write_text("The [MASK] met.\t11\t14\t1\thour\t2\thours\n", encoding="utf-8")
    result = _run_child(*[str(a).format(instances=instances, overflowing=overflowing, masked=masked)
                          for a in argv], "--out", tmp_path / "out")
    assert result.returncode == code
    assert result.stderr.splitlines() == [result.stderr.strip()]
    assert result.stderr.startswith(f"durpipe: {message}")


# --- the paused collector ----------------------------------------------------

# Input sizes, in rows, of the garbage test: a reference cycle in a
# per-row object leaves ten times as many unreachable objects after a run
# on the larger.
_FEW, _MANY = 30, 300
_GARBAGE_ARGV = {
    "synth": lambda d, n, root: ["synth", "--size", n, "--holdout", n],
    "extract": lambda d, n, root: ["extract", d / "synth" / "corpus.jsonl"],
    "train": lambda d, n, root: ["train", d / "ex" / "instances.jsonl", "--epochs", 1],
    "eval-coarse": lambda d, n, root: ["eval", root / "ckpt" / "model.ckpt",
                                       d / "synth" / "holdout.tsv", "--protocol", "coarse"],
    "eval-fine": lambda d, n, root: ["eval", root / "ckpt" / "model.ckpt",
                                     d / "synth" / "holdout.tsv", "--protocol", "fine"],
    "eval-mctaco": lambda d, n, root: ["eval", root / "ckpt" / "model.ckpt", d / "qa.jsonl",
                                       "--protocol", "mctaco"],
    "baseline": lambda d, n, root: ["baseline", d / "synth" / "holdout.tsv"],
}


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    """Synth outputs, instances and QA rows at _FEW and at _MANY rows, in
    directories named by the size, and a checkpoint trained on the few."""
    root = tmp_path_factory.mktemp("sized")
    for n in (_FEW, _MANY):
        d = root / str(n)
        assert run("synth", "--out", d / "synth", "--size", n, "--holdout", n, "--seed", 3) == 0
        assert run("extract", d / "synth" / "corpus.jsonl", "--out", d / "ex") == 0
        (d / "qa.jsonl").write_text("".join(json.dumps({
            "context": f"Talk {i} began.", "question": "How long did the talk last?",
            "answer": f"{i % 5 + 1} hours", "gold": i % 3 != 0}) + "\n" for i in range(n)),
            encoding="utf-8")
    assert run("train", root / str(_FEW) / "ex" / "instances.jsonl", "--epochs", 1,
               "--out", root / "ckpt") == 0
    return root


def _cyclic_garbage(argv) -> int:
    """The objects that gc.collect() finds unreachable after one run of
    `argv`, made with the collector off."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        assert run(*argv) == cli.EXIT_OK
        return gc.collect()
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("command", list(_GARBAGE_ARGV))
def test_cyclic_garbage_does_not_grow_with_the_input(sized_inputs, tmp_path, command):
    # A run pauses the collector, so a reference cycle in a per-row object
    # would hold its memory until the run ends: memory would grow with the
    # input. argparse and configparser leave the same cycles in every run.
    def garbage(n, name):
        make_argv = _GARBAGE_ARGV[command]
        return _cyclic_garbage([*make_argv(sized_inputs / str(n), n, sized_inputs),
                                "--out", tmp_path / name])

    garbage(_FEW, "warm-up")  # first-run imports and caches
    few, many = garbage(_FEW, "few"), garbage(_MANY, "many")
    assert few == many, f"{command}: {few} unreachable objects after {_FEW} rows, {many} after {_MANY}"


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,code", [
    (["synth", "--size", 4, "--holdout", 2, "--out", "{tmp}/out"], cli.EXIT_OK),
    (["train", "{tmp}/corpus.jsonl", "--init", "{tmp}/model.ckpt", "--dim", 4,
      "--out", "{tmp}/out"], cli.EXIT_CONFIG),
    (["extract", "{tmp}/missing.jsonl", "--out", "{tmp}/out"], cli.EXIT_IO),
    (["train", "{tmp}/corpus.jsonl", "--out", "{tmp}/out"], cli.EXIT_DATA),
    (["synth", "--size", "many"], cli.EXIT_CONFIG),
], ids=["ok", "config-error", "io-error", "data-error", "usage-error"])
def test_main_gives_back_the_callers_collector_setting(tmp_path, argv, code, collecting):
    (tmp_path / "corpus.jsonl").write_text('{"text": "It lasted 3 hours."}\n', encoding="utf-8")
    gc.enable() if collecting else gc.disable()
    try:
        assert run(*[str(a).format(tmp=tmp_path) for a in argv]) == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
