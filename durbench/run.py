"""Benchmark of the durpipe pipeline, driven through its command line.

    python3 durbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the program from
`src/` there. One client runs the stages of a workload one after the
other, each in its own process, a stage starting only when the previous
one has finished (a closed loop). Every input is generated from the
seed. Set-up runs SETUP_REPEATS times and reports the median; the
measured phase repeats for --seconds, and at least as often as the
workload asks, and reports medians. Every time is scaled by host speed
(see `scaled`).

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 one measured iteration is
followed by a traced one (see tracer.py) and the object holds the
per-layer metrics, among them the tracing overhead. Each run also
writes a run record (environment, timings, checks and the sha256 of
every instances file, checkpoint and report) under .bench_build/durbench.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from stage import END_STEPS, reference_loop
from tracer import Spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STAGE = Path(__file__).resolve().parent / "stage.py"
# About the median time of one step of the reference loop on the host
# the bounds were set on (2 vCPUs of an Intel Xeon), so that scaled
# times read as seconds there.
REFERENCE_STEP_S = 12e-6
WORK = ROOT / ".bench_build" / "durbench"
SETUP_REPEATS = 3
# The whole run has to end within 180 s; no stage is started that could
# not finish inside this budget judging by the last iteration.
RUN_BUDGET_S = 165.0
HEADS = ("exact", "range")

RECIPE_SIZE, RECIPE_HOLDOUT, RECIPE_EPOCHS = 2000, 400, 20
# qa-eval extracts a corpus large enough that extraction, not process
# start-up, sets its extract rate, and trains on the first
# QA_TRAIN_SIZE instances.
QA_CORPUS, QA_TRAIN_SIZE, QA_HOLDOUT, QA_EPOCHS = 20_000, 1000, 10_000, 3
BATCH = 16  # the pre-training default that every workload trains with

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "train_items_per_s": "1/s",
    "extract_sentences_per_s": "1/s",
    "eval_items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "fine_acc": "ratio",
}

# Per-layer metrics: span names whose inclusive time is reported as
# "<name>_s", then the metrics computed otherwise, with their units.
SPAN_TIMES = (
    "synth.generate",
    "extraction.extract_corpus", "extraction.segment_sentences", "extraction.match_sentence",
    "extraction.failed_filters", "extraction.label_sentence",
    "extraction.read_instances", "extraction.write_instances",
    "adapters.read_timebank_tsv", "adapters.timebank_to_input", "adapters.read_mctaco_jsonl",
    "adapters.mctaco_to_input", "adapters.parse_answer_value",
    "model.train", "model.loss_and_grads", "model.encoder.window_buckets",
    "model.predict", "model.load", "model.save",
    "evaluation.score", "evaluation.report_to_json",
)
SUBCOMMANDS = ("synth", "extract", "train", "eval", "baseline")
PER_LAYER = {
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    "cli.self_s": "s",
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    "model.train.self_s": "s",
    "extraction.sentences": "count",
    "extraction.matched": "count",
    "extraction.filtered": "count",
    "extraction.emitted": "count",
    "extraction.skipped": "count",
    "extraction.yield": "ratio",
    "adapters.dropped_answers": "count",
    "model.active_rows": "count",
    "model.active_row_ratio": "ratio",
    "model.encoder.bucket_calls": "count",
    "model.loss_and_grads.calls": "count",
    "model.step_ms.p50": "ms",
    "model.step_ms.p99": "ms",
    "model.step_ms.samples": "count",
    "model.predict.calls": "count",
    "model.predict_us.p50": "us",
    "model.predict_us.p99": "us",
    "model.predict_us.samples": "count",
    "trace.overhead_s": "s",
}


class StageFailed(Exception):
    """A durpipe process exited non-zero or was stopped at the time limit."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scaled(seconds: float, samples: list[tuple[int, float]]) -> float:
    """`seconds` of work as it would take on a host that runs a step of
    the reference loop in REFERENCE_STEP_S, given (steps, seconds)
    samples of the loop taken around and during the work, on its CPU.

    Other tenants of a shared host slow the reference loop and the work
    alike, so the ratio holds still while the host's speed moves.
    """
    steps = sum(n for n, _ in samples)
    return seconds * REFERENCE_STEP_S * steps / sum(t for _, t in samples)


@dataclass
class Stage:
    name: str
    kind: str  # probe, synth, extract, train or eval
    wall_s: float  # as measured, less the reference loop samples
    time_s: float  # wall_s scaled to the reference host speed
    cpu_s: float
    rss_mb: float
    items: int = 0


class Bench:
    """Settings of one run, its clock, and the tally of checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Phase:
    """One set-up or one measured iteration: its stages and outputs."""

    def __init__(self, bench: Bench, directory: Path, traced: bool = False):
        self.bench = bench
        self.dir = directory
        self.dir.mkdir(parents=True)
        self.traced = traced
        self.stages: list[Stage] = []
        self.artifacts: dict[str, str] = {}
        self.span_files: list[Path] = []
        self.fine_acc: float | None = None
        self.time_s = 0.0  # scaled, over stages and work done in this process
        self.ckpts: dict[str, Path] = {}

    def run(self, kind: str, name: str, *args: str) -> Path:
        """Run one durpipe subcommand with output directory <dir>/<name>."""
        out = self.dir / name
        argv = [*args, "--out", str(out)] if kind != "probe" else list(args)
        refs = self.dir / f"{name}.refs.json"
        spans = "-"
        if self.traced and kind != "probe":
            spans = self.dir / f"{name}.spans.npz"
            self.span_files.append(spans)
        cmd = [sys.executable, str(STAGE), str(refs), str(spans), *argv]
        with open(self.dir / f"{name}.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.bench.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(self.bench.time_left(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.bench.attempted += 1
        if proc.returncode != 0:
            self.bench.failures.append(f"{name} exited {proc.returncode}")
            raise StageFailed(f"{' '.join(cmd)} exited {proc.returncode}; see {log.name}")
        samples = json.loads(refs.read_text(encoding="utf-8"))
        wall -= sum(t for _, t in samples)
        # ru_maxrss is in KiB on Linux.
        self.stages.append(Stage(name, kind, wall, scaled(wall, samples),
                                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0))
        self.time_s += self.stages[-1].time_s
        return out

    def local(self, work: Callable[[], object]) -> object:
        """Run set-up work in this process, timed like a stage."""
        before = reference_loop(END_STEPS)
        t0 = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - t0
        self.time_s += scaled(seconds, [(END_STEPS, before), (END_STEPS, reference_loop(END_STEPS))])
        return result

    def keep(self, path: Path) -> None:
        """Record the sha256 of an output, keyed by its path in the phase."""
        self.artifacts[path.relative_to(self.dir).as_posix()] = sha256(path)

    # The stages every workload is built from.

    def probe(self) -> None:
        """Start the program once, as every workload's set-up does."""
        self.run("probe", "probe", "--help")

    def extract(self, name: str, corpus: Path) -> tuple[dict, Path]:
        out = self.run("extract", name, "extract", str(corpus))
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        self.stages[-1].items = stats["sentences"]
        self.keep(out / "instances.jsonl")
        self.keep(out / "stats.json")
        return stats, out / "instances.jsonl"

    def train(self, name: str, instances: Path, head: str, n: int, epochs: int,
              *flags: str) -> None:
        """Train one head into self.ckpts[head]."""
        out = self.run("train", name, "train", str(instances), "--head", head,
                       "--init", "fresh", "--seed", str(self.bench.seed), *flags)
        self.stages[-1].items = n * epochs
        curve = json.loads((out / "loss_curve.json").read_text(encoding="utf-8"))["loss"]
        steps = math.ceil(n / BATCH) * epochs
        self.bench.check(f"{name}: {steps} steps", len(curve) == steps)
        self.keep(out / "model.ckpt")
        self.ckpts[head] = out / "model.ckpt"

    def score(self, name: str, *args: str, items: int) -> dict:
        """Run eval or baseline and check the report scored `items` items."""
        out = self.run("eval", name, *args)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        self.stages[-1].items = len(report["items"])
        self.bench.check(f"{name}: {items} items scored", len(report["items"]) == items)
        self.keep(out / "report.json")
        return report


# ---------------------------------------------------------------------------
# Workloads. Each has a set-up, run SETUP_REPEATS times, and an iteration,
# repeated for the measured time, which reads the first set-up's files
# and may read the first iteration's.
# ---------------------------------------------------------------------------


def recipe_setup(phase: Phase) -> None:
    phase.probe()


def recipe_iteration(phase: Phase, _setup, first: Phase | None) -> None:
    """The README synth recipe: synth, extract, both heads, eval, baseline.

    Training both heads takes about 30 s, so only the first iteration
    trains. Later ones run every other stage and score the first one's
    checkpoints: they sample the short stages again and check that
    their outputs repeat."""
    bench = phase.bench
    synth = phase.run("synth", "synth", "synth", "--size", str(RECIPE_SIZE),
                      "--holdout", str(RECIPE_HOLDOUT), "--seed", str(bench.seed))
    stats, instances = phase.extract("extract", synth / "corpus.jsonl")
    bench.check("extract: every synth sentence is an instance",
                stats["emitted"] == stats["sentences"] == RECIPE_SIZE)
    holdout = str(synth / "holdout.tsv")
    accs = []
    for head in HEADS:
        if first is None:
            phase.train(f"train-{head}", instances, head, stats["emitted"], RECIPE_EPOCHS,
                        "--learning-rate", "0.05", "--epochs", str(RECIPE_EPOCHS))
            ckpt = phase.ckpts[head]
        else:
            ckpt = first.ckpts[head]
        report = phase.score(f"eval-fine-{head}", "eval", str(ckpt), holdout, "--protocol", "fine",
                             "--head", head, "--inventory", "8", items=RECIPE_HOLDOUT)
        bench.check(f"{head} head fine accuracy >= 0.90", report["accuracy"] >= 0.90)
        accs.append(report["accuracy"])
    report = phase.score("baseline-fine", "baseline", holdout, "--protocol", "fine",
                         "--inventory", "8", items=RECIPE_HOLDOUT)
    bench.check("baseline fine accuracy <= 0.40", report["accuracy"] <= 0.40)
    phase.fine_acc = min(accs)


@dataclass
class NoisySetup:
    corpus: Path
    gold: Path
    data: gen.NoisyCorpus


def noisy_setup(phase: Phase) -> NoisySetup:
    phase.probe()
    corpus, gold = phase.dir / "corpus.jsonl", phase.dir / "gold.tsv"

    def generate() -> gen.NoisyCorpus:
        data = gen.noisy_corpus(phase.bench.seed)
        corpus.write_text(data.corpus_jsonl, encoding="utf-8")
        gold.write_text(data.gold_tsv, encoding="utf-8")
        return data

    data = phase.local(generate)
    phase.keep(corpus)
    phase.keep(gold)
    return NoisySetup(corpus, gold, data)


def noisy_iteration(phase: Phase, setup: NoisySetup, _first) -> None:
    """Extract the noisy corpus, pre-train the exact head with the
    published defaults, and score it on the gold sentences.

    The planted units carry no signal, and at the pre-training learning
    rate one epoch barely moves the head, so fine_acc here only has to
    repeat. It guards learning on recipe and qa-eval, not here."""
    stats, instances = phase.extract("extract", setup.corpus)
    planted = setup.data.planted.stats_json()
    for key, want in planted.items():
        phase.bench.check(f"stats.json {key} = planted {want}", stats.get(key) == want)
    phase.train("train-exact", instances, "exact", stats["emitted"], 1)
    report = phase.score("eval-fine-exact", "eval", str(phase.ckpts["exact"]), str(setup.gold),
                         "--protocol", "fine", "--head", "exact", "--inventory", "8",
                         items=gen.GOLD_ROWS)
    phase.fine_acc = report["accuracy"]


@dataclass
class QaSetup:
    holdout: Path
    qa_path: Path
    qa: gen.QaSet
    ckpts: dict[str, Path]


def qa_setup(phase: Phase) -> QaSetup:
    bench = phase.bench
    phase.probe()
    synth = phase.run("synth", "synth", "synth", "--size", str(QA_CORPUS),
                      "--holdout", str(QA_HOLDOUT), "--seed", str(bench.seed))
    stats, instances = phase.extract("extract", synth / "corpus.jsonl")
    bench.check("extract: every synth sentence is an instance",
                stats["emitted"] == stats["sentences"] == QA_CORPUS)
    train_set, qa_path = phase.dir / "train.jsonl", phase.dir / "qa.jsonl"

    def generate() -> gen.QaSet:
        with open(instances, encoding="utf-8") as f:
            train_set.write_text("".join(itertools.islice(f, QA_TRAIN_SIZE)), encoding="utf-8")
        qa = gen.qa_set(bench.seed)
        qa_path.write_text(qa.jsonl, encoding="utf-8")
        return qa

    setup = QaSetup(synth / "holdout.tsv", qa_path, phase.local(generate), phase.ckpts)
    phase.keep(qa_path)
    for head in HEADS:
        phase.train(f"train-{head}", train_set, head, QA_TRAIN_SIZE, QA_EPOCHS,
                    "--learning-rate", "0.05", "--epochs", str(QA_EPOCHS))
    return setup


def qa_iteration(phase: Phase, setup: QaSetup, _first) -> None:
    """Score both heads under all three protocols, and the baselines."""
    holdout = str(setup.holdout)
    accs = []
    for head in HEADS:
        ckpt = str(setup.ckpts[head])
        for protocol in ("coarse", "fine"):
            report = phase.score(f"eval-{protocol}-{head}", "eval", ckpt, holdout, "--protocol", protocol,
                                 "--head", head, "--inventory", "8", items=QA_HOLDOUT)
            if protocol == "fine":
                accs.append(report["accuracy"])
        report = phase.score(f"eval-mctaco-{head}", "eval", ckpt, str(setup.qa_path), "--protocol",
                             "mctaco", "--head", head, "--inventory", "8", items=setup.qa.scored)
        dropped = report["diagnostics"].get("unparseable_answers", 0)
        phase.bench.check(f"mctaco {head}: {setup.qa.unparseable} unparseable answers",
                          dropped == setup.qa.unparseable)
    for protocol in ("coarse", "fine"):
        phase.score(f"baseline-{protocol}", "baseline", holdout, "--protocol", protocol,
                    "--inventory", "8", items=QA_HOLDOUT)
    phase.fine_acc = min(accs)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Phase], object]
    iteration: Callable[[Phase, object, Phase | None], None]
    # Iterations a run makes at least, however short --seconds is. The
    # second and later ones check that the outputs repeat.
    min_iterations: int


WORKLOADS = {
    "recipe": Workload(recipe_setup, recipe_iteration, 3),
    "noisy-corpus": Workload(noisy_setup, noisy_iteration, 3),
    "qa-eval": Workload(qa_setup, qa_iteration, 2),
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def typical(phases: list[Phase]) -> list[Stage]:
    """Each stage, by name, with its median time over `phases`."""
    repeats: dict[str, list[Stage]] = {}
    for phase in phases:
        for stage in phase.stages:
            if stage.kind != "probe":
                repeats.setdefault(stage.name, []).append(stage)
    return [replace(same[0], time_s=statistics.median(s.time_s for s in same))
            for same in repeats.values()]


def throughput(stages: list[Stage], kind: str) -> float | None:
    """Items per second across the stages of `kind`."""
    chosen = [s for s in stages if s.kind == kind]
    return sum(s.items for s in chosen) / sum(s.time_s for s in chosen) if chosen else None


def end_to_end(setups: list[Phase], iterations: list[Phase]) -> dict[str, float]:
    """Times and rates from the median time of each stage, and the median
    set-up time. A stage kind the measured phase does not run (training
    on qa-eval) is taken from the set-up stages. ok_rate is added once
    every check has run."""
    stages, setup_stages = typical(iterations), typical(setups)

    def rate(kind):
        value = throughput(stages, kind)
        return value if value is not None else throughput(setup_stages, kind)

    return {
        "wall_s": sum(s.time_s for s in stages),
        "setup_s": statistics.median(p.time_s for p in setups),
        "train_items_per_s": rate("train"),
        "extract_sentences_per_s": rate("extract"),
        "eval_items_per_s": rate("eval"),
        "peak_rss_mb": max(s.rss_mb for p in iterations for s in p.stages if s.kind != "probe"),
        "fine_acc": statistics.median(p.fine_acc for p in iterations),
    }


def percentile(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def per_layer(phase: Phase) -> dict[str, float]:
    """Layer metrics of one traced iteration, summed over its stages."""
    spans = [Spans.load(path) for path in phase.span_files]
    m: dict[str, float] = {}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = sum(s.inclusive_s(f"cli.{sub}") for s in spans)
    m["cli.self_s"] = sum(s.self_s(f"cli.{sub}") for s in spans for sub in SUBCOMMANDS)
    for name in SPAN_TIMES:
        m[f"{name}_s"] = sum(s.inclusive_s(name) for s in spans)
    m["model.train.self_s"] = sum(s.self_s("model.train") for s in spans)

    counts: dict[str, int] = {}
    for s in spans:
        for key, n in s.counts.items():
            counts[key] = counts.get(key, 0) + n
    for key in ("sentences", "matched", "filtered", "emitted", "skipped"):
        m[f"extraction.{key}"] = counts.get(f"extraction.{key}", 0)
    m["extraction.yield"] = (counts.get("extraction.emitted", 0) / counts["extraction.sentences"]
                             if counts.get("extraction.sentences") else 0.0)
    m["adapters.dropped_answers"] = counts.get("adapters.dropped_answers", 0)
    calls = counts.get("model.train.calls", 0)
    m["model.active_rows"] = counts.get("model.active_rows", 0) / calls if calls else 0.0
    m["model.active_row_ratio"] = (counts.get("model.active_rows", 0) / counts["model.buckets"]
                                   if calls else 0.0)
    m["model.encoder.bucket_calls"] = counts.get("model.encoder.bucket_calls", 0)

    steps_ms = np.concatenate([s.step_durations() for s in spans]) * 1e3
    predict_us = np.concatenate([s.durations("model.predict") for s in spans]) * 1e6
    m["model.loss_and_grads.calls"] = sum(len(s.indices("model.loss_and_grads")) for s in spans)
    m["model.step_ms.p50"] = percentile(steps_ms, 50)
    m["model.step_ms.p99"] = percentile(steps_ms, 99)
    m["model.step_ms.samples"] = len(steps_ms)
    m["model.predict.calls"] = len(predict_us)
    m["model.predict_us.p50"] = percentile(predict_us, 50)
    m["model.predict_us.p99"] = percentile(predict_us, 99)
    m["model.predict_us.samples"] = len(predict_us)
    return m


# ---------------------------------------------------------------------------
# Run record and determinism across runs
# ---------------------------------------------------------------------------


def tree_sha256(directory: Path) -> str:
    """One hash over the Python files of a directory."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = done.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "source_sha256": tree_sha256(SRC / "durpipe"),
        "bench_sha256": tree_sha256(Path(__file__).resolve().parent),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def check_outputs_repeat(bench: Bench, phases: list[Phase], what: str) -> None:
    """Every output a later phase shares with the first has its bytes."""
    first = phases[0].artifacts
    for phase in phases[1:]:
        bench.check(f"{what} {phase.dir.name} outputs identical to {phases[0].dir.name}",
                    all(first.get(k) == v for k, v in phase.artifacts.items()))


def check_earlier_runs(bench: Bench, env: dict, artifacts: dict[str, str]) -> None:
    """Outputs must equal those of earlier runs of the same workload and
    seed, with the same program and benchmark sources, in this checkout."""
    for path in sorted((WORK / "records").glob(f"{bench.workload}-seed{bench.seed}-*.json")):
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if any(earlier["env"].get(k) != env[k] for k in ("source_sha256", "bench_sha256")):
            continue
        shared = artifacts.keys() & earlier["artifacts"].keys()
        bench.check(f"outputs identical to earlier run {path.name}",
                    all(artifacts[k] == earlier["artifacts"][k] for k in shared))


def write_record(bench: Bench, env: dict, setups: list[Phase], iterations: list[Phase],
                 artifacts: dict[str, str], metrics: dict) -> Path:
    def phase_record(p: Phase) -> dict:
        return {"dir": p.dir.name, "time_s": p.time_s,
                "stages": [vars(s) for s in p.stages]}

    record = {
        "workload": bench.workload,
        "seed": bench.seed,
        "trace": bench.trace,
        "env": env,
        "setups": [phase_record(p) for p in setups],
        "iterations": [phase_record(p) for p in iterations],
        "artifacts": artifacts,
        "checks": {"attempted": bench.attempted, "failed": bench.failures},
        "metrics": metrics,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{bench.workload}-seed{bench.seed}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run(bench: Bench, seconds: float) -> tuple[dict, dict[str, float], list[Phase], list[Phase]]:
    """Set up, then measure for `seconds`; returns the run's artifacts,
    its metrics, and the set-up and iteration phases."""
    workload = WORKLOADS[bench.workload]
    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)

    setups, setup_outs = [], []
    for k in range(1 if bench.trace else SETUP_REPEATS):
        phase = Phase(bench, run_dir / f"setup-{k}")
        setup_outs.append(workload.setup(phase))
        setups.append(phase)
    check_outputs_repeat(bench, setups, "set-up")

    iterations: list[Phase] = []
    if bench.trace:
        # One iteration, then the same traced: the per-layer metrics and
        # trace.overhead_s come from the pair.
        for name, traced in (("iter-0", False), ("trace-0", True)):
            phase = Phase(bench, run_dir / name, traced=traced)
            workload.iteration(phase, setup_outs[0], None)
            iterations.append(phase)
        metrics = per_layer(iterations[1])
        metrics["trace.overhead_s"] = iterations[1].time_s - iterations[0].time_s
    else:
        t0 = time.perf_counter()
        while True:
            phase = Phase(bench, run_dir / f"iter-{len(iterations)}")
            workload.iteration(phase, setup_outs[0], iterations[0] if iterations else None)
            iterations.append(phase)
            if bench.time_left() < 1.5 * sum(s.wall_s for s in phase.stages) + 5:
                break
            if (time.perf_counter() - t0 >= seconds
                    and len(iterations) >= workload.min_iterations):
                break
        bench.check(f"at least {workload.min_iterations} iterations",
                    len(iterations) >= workload.min_iterations)
        metrics = end_to_end(setups, iterations)
    check_outputs_repeat(bench, iterations, "iteration")

    artifacts = {f"setup/{k}": v for k, v in setups[0].artifacts.items()}
    artifacts.update({f"iteration/{k}": v for k, v in iterations[0].artifacts.items()})
    return artifacts, metrics, setups, iterations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "durpipe" / "cli.py").is_file():
        print(f"durbench: no durpipe sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, bool(args.trace))
    env = environment()
    try:
        artifacts, metrics, setups, iterations = run(bench, args.seconds)
    except StageFailed as exc:
        print(f"durbench: {exc}", file=sys.stderr)
        return 1
    check_earlier_runs(bench, env, artifacts)
    if not bench.trace:
        metrics["ok_rate"] = 1.0 - len(bench.failures) / bench.attempted
    path = write_record(bench, env, setups, iterations, artifacts, metrics)

    units = PER_LAYER if bench.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>14.6g} {unit}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
