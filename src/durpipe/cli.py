"""Command-line pipeline: synth, extract, train, eval, baseline.

One executable with subcommands. Settings come from an INI config file
(flat sections: common, extract, train, eval, synth) overridden by
flags; every run echoes its effective settings to <out>/config.ini so a
run can be reproduced from its output directory alone.

Exit codes: 0 success, 2 configuration errors, 3 I/O errors, 4 data
errors. DURPIPE_LOG controls log verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from pathlib import Path

from . import adapters, evaluation, extraction, model as model_lib, synth as synth_lib
from .adapters import MalformedRowError
from .model import CheckpointError, ConfigError, DualHeadModel, InvalidInputError, TrainConfig
from .units import (
    InvalidQuantityError,
    TemporalUnit,
    closest_unit,
    coarse_of_value,
    inventory_of_size,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4

_CONFIG_ERRORS = (ConfigError, configparser.Error)
_DATA_ERRORS = (
    MalformedRowError,
    CheckpointError,
    InvalidQuantityError,
    InvalidInputError,
    json.JSONDecodeError,
    ValueError,
)


# The values a setting may take, by section and key, whether it comes
# from a flag or from the config file; the flags take their choices here.
CHOICES = {
    ("train", "format"): ("instances", "timebank", "mctaco"),
    ("train", "head"): ("exact", "range"),
    ("train", "inventory"): (7, 8),
    ("eval", "protocol"): ("coarse", "fine", "mctaco"),
    ("eval", "head"): ("exact", "range"),
    ("eval", "inventory"): (7, 8),
}


class Settings:
    """Layered settings: flag value, then config file, then default.
    A value outside CHOICES, or one the cast rejects, is a ConfigError."""

    def __init__(self, config_path: str | None):
        self.parser = configparser.ConfigParser()
        if config_path:
            read = self.parser.read(config_path)
            if not read:
                raise FileNotFoundError(f"config file not found: {config_path}")
        self.effective: dict[str, dict[str, str]] = {}

    def get(self, section: str, key: str, flag_value, default, cast=str):
        if flag_value is not None:
            value = flag_value
        elif self.parser.has_option(section, key):
            value = self._read(section, key, cast)
        elif self.parser.has_option("common", key):
            value = self._read("common", key, cast)
        else:
            value = default
        choices = CHOICES.get((section, key))
        if choices and value is not None and value not in choices:
            raise ConfigError(f"[{section}] {key} = {value!r} is not one of "
                              f"{', '.join(map(str, choices))}")
        self.effective.setdefault(section, {})[key] = "" if value is None else str(value)
        return value

    def _read(self, section: str, key: str, cast):
        raw = self.parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    def write_effective(self, out_dir: Path) -> None:
        echo = configparser.ConfigParser()
        for section in sorted(self.effective):
            echo[section] = dict(sorted(self.effective[section].items()))
        with open(out_dir / "config.ini", "w", encoding="utf-8") as fh:
            echo.write(fh)


def _ensure_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup_logging() -> None:
    level_name = os.environ.get("DURPIPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def _iter_input_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.suffix in (".txt", ".jsonl")))
        elif p.exists():
            files.append(p)
        else:
            raise FileNotFoundError(f"input path does not exist: {p}")
    return files


def _iter_documents(files: list[Path]):
    for path in files:
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            logger.warning("skipping undecodable file %s", path)
            yield path.name, None
            continue
        if path.suffix == ".jsonl":
            yield from extraction.read_documents(text.splitlines(), path.name)
        else:
            yield path.name, text


def cmd_extract(args: argparse.Namespace) -> int:
    settings = Settings(args.config)
    patterns = settings.get("extract", "patterns", args.patterns, "all")
    out = _ensure_out(settings.get("extract", "out", args.out, "extract-out"))
    settings.effective.setdefault("extract", {})["inputs"] = " ".join(args.inputs)

    try:
        cfg = extraction.ExtractionConfig.from_selector(patterns)
    except ValueError as exc:
        raise ConfigError(f"patterns {patterns!r}: {exc}") from exc
    files = _iter_input_files(args.inputs)
    if not files:
        logger.warning("no input files found under %s", args.inputs)

    instances, stats = extraction.extract_corpus(_iter_documents(files), cfg)

    (out / "instances.jsonl").write_text(extraction.write_instances(instances), encoding="utf-8")
    (out / "stats.json").write_text(
        json.dumps(stats.to_json(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    settings.write_effective(out)
    print(f"extracted {stats.emitted} instances from {stats.documents} documents "
          f"({stats.filtered} filtered)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_training_data(path: Path, fmt: str, head: str, inventory) -> list[tuple[adapters.ModelInput, object]]:
    want_exact = head == "exact"
    data: list[tuple[adapters.ModelInput, object]] = []
    if fmt == "instances":
        with open(path, encoding="utf-8") as fh:
            for inst in extraction.read_instances(fh):
                model_input = adapters.ModelInput(
                    text=inst.masked_text, mask_positions=inst.mask_positions
                )
                label = inst.exact_label if want_exact else inst.range_label
                data.append((model_input, label))
    elif fmt == "timebank":
        with open(path, encoding="utf-8") as fh:
            rows = adapters.read_timebank_tsv(fh)
        for row in rows:
            model_input = adapters.timebank_to_input(row, inventory)
            label = model_input.exact_label if want_exact else model_input.range_label
            data.append((model_input, label))
    elif fmt == "mctaco":
        with open(path, encoding="utf-8") as fh:
            rows = adapters.read_mctaco_jsonl(fh)
        unlabeled = 0
        for _, group in adapters.group_mctaco_rows(rows):
            value = adapters.mctaco_training_label(group)
            if value is None:
                unlabeled += 1
                continue
            model_input = adapters.mctaco_to_input(group[0])
            label = value if want_exact else closest_unit(value, inventory)
            data.append((model_input, label))
        if unlabeled:
            logger.info("skipped %d questions with no parseable correct answer", unlabeled)
    else:
        raise ConfigError(f"unknown training format {fmt!r}")
    return data


def cmd_train(args: argparse.Namespace) -> int:
    settings = Settings(args.config)
    fmt = settings.get("train", "format", args.format, "instances")
    head = settings.get("train", "head", args.head, "exact")
    init = settings.get("train", "init", args.init, "fresh")
    seed = settings.get("train", "seed", args.seed, 0, int)
    inv_size = settings.get("train", "inventory", args.inventory, 8, int)
    dim = settings.get("train", "dim", args.dim, 32, int)
    buckets = settings.get("train", "buckets", args.buckets, 4096, int)
    radius = settings.get("train", "radius", args.radius, 5, int)
    finetune = init != "fresh"
    base = TrainConfig.finetuning() if finetune else TrainConfig()
    lr = settings.get("train", "learning_rate", args.learning_rate, base.learning_rate, float)
    batch = settings.get("train", "batch_size", args.batch_size, base.batch_size, int)
    warmup = settings.get("train", "warmup_proportion", args.warmup, base.warmup_proportion, float)
    epochs = settings.get("train", "epochs", args.epochs, base.epochs, int)
    out = _ensure_out(settings.get("train", "out", args.out, "train-out"))
    settings.effective.setdefault("train", {})["instances"] = args.instances

    inventory = inventory_of_size(inv_size)
    if init == "fresh":
        mdl = DualHeadModel.create(dim=dim, inventory=inventory, seed=seed,
                                   buckets=buckets, radius=radius)
    else:
        mdl = model_lib.load(Path(init).read_bytes())
        if len(inventory) != len(mdl.inventory):
            mdl = model_lib.with_inventory(mdl, inventory)

    cfg = TrainConfig(
        learning_rate=lr, batch_size=batch, warmup_proportion=warmup,
        epochs=epochs, seed=seed, loss="mse" if head == "exact" else "cross_entropy",
    )
    data = _load_training_data(Path(args.instances), fmt, head, inventory)
    mdl, curve = model_lib.train(mdl, data, cfg)

    (out / "model.ckpt").write_bytes(model_lib.save(mdl))
    (out / "loss_curve.json").write_text(
        json.dumps({"loss": curve}, sort_keys=True) + "\n", encoding="utf-8"
    )
    settings.write_effective(out)
    final = f"{curve[-1]:.6f}" if curve else "n/a"
    print(f"trained {head} head on {len(data)} instances, {len(curve)} steps, final loss {final}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / baseline
# ---------------------------------------------------------------------------


def _timebank_eval_frame(path: Path, inventory):
    with open(path, encoding="utf-8") as fh:
        rows = adapters.read_timebank_tsv(fh)
    if not rows:
        raise MalformedRowError(f"no rows in {path}")
    inputs = [adapters.timebank_to_input(row, inventory) for row in rows]
    keys = [row.sentence[row.event_span[0]:row.event_span[1]] for row in rows]
    return inputs, keys


def cmd_eval(args: argparse.Namespace) -> int:
    settings = Settings(args.config)
    protocol = settings.get("eval", "protocol", args.protocol, "fine")
    head = settings.get("eval", "head", args.head, "exact")
    inv_size = settings.get("eval", "inventory", args.inventory, None, int)
    range_width = settings.get("eval", "range", args.range, 3.0, float)
    out = _ensure_out(settings.get("eval", "out", args.out, "eval-out"))
    settings.effective.setdefault("eval", {}).update(
        {"checkpoint": args.checkpoint, "data": args.data}
    )

    mdl = model_lib.load(Path(args.checkpoint).read_bytes())
    if inv_size is not None and inv_size != len(mdl.inventory):
        mdl = model_lib.with_inventory(mdl, inventory_of_size(inv_size))
    inventory = mdl.inventory

    data_path = Path(args.data)
    if protocol == "mctaco":
        with open(data_path, encoding="utf-8") as fh:
            rows = adapters.read_mctaco_jsonl(fh)
        qids: list[str] = []
        inputs = []
        answers: list[tuple[str, float, bool]] = []
        dropped = 0
        for qid, group in adapters.group_mctaco_rows(rows):
            model_input = adapters.mctaco_to_input(group[0])
            parsed = []
            for row in group:
                value = adapters.parse_answer_value(row.answer)
                if value is None:
                    dropped += 1
                    continue
                parsed.append((qid, value, row.gold))
            if not parsed:
                logger.info("question %s has no parseable answers; skipped", qid)
                continue
            answers.extend(parsed)
            qids.append(qid)
            inputs.append(model_input)
    else:
        inputs, keys = _timebank_eval_frame(data_path, inventory)

    preds = model_lib.predict_many(mdl, inputs, head)
    if head == "range":
        preds = [unit for unit, _ in preds]
    if protocol == "coarse":
        golds = [coarse_of_value(mi.exact_label) for mi in inputs]
        report = evaluation.eval_coarse(preds, golds, keys=keys)
    elif protocol == "fine":
        golds = [mi.range_label for mi in inputs]
        units = [p if isinstance(p, TemporalUnit) else closest_unit(p, inventory) for p in preds]
        report = evaluation.eval_fine(units, golds, inventory, keys=keys)
    else:
        report = evaluation.eval_mctaco(
            dict(zip(qids, preds)), answers, evaluation.RangeRule(range_width), inventory
        )
        if dropped:
            report.diagnostics["unparseable_answers"] = dropped

    _write_report(out, settings, report)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    settings = Settings(args.config)
    protocol = settings.get("eval", "protocol", args.protocol, "fine")
    inv_size = settings.get("eval", "inventory", args.inventory, 7, int)
    out = _ensure_out(settings.get("eval", "out", args.out, "baseline-out"))
    settings.effective.setdefault("eval", {})["data"] = args.data

    if protocol not in ("coarse", "fine"):
        raise ConfigError(f"majority baseline supports coarse/fine, not {protocol!r}")
    inventory = inventory_of_size(inv_size)
    inputs, _ = _timebank_eval_frame(Path(args.data), inventory)
    if protocol == "fine":
        golds = [mi.range_label for mi in inputs]
    else:
        golds = [coarse_of_value(mi.exact_label) for mi in inputs]
    report = evaluation.majority_baseline(golds, protocol, inventory)

    _write_report(out, settings, report)
    return EXIT_OK


def _write_report(out: Path, settings: Settings, report: evaluation.EvalReport) -> None:
    (out / "report.json").write_text(evaluation.report_to_json(report), encoding="utf-8")
    (out / "items.tsv").write_text(report.to_item_tsv(), encoding="utf-8")
    settings.write_effective(out)
    headline = f"{report.protocol}: accuracy {report.accuracy:.4f}"
    for label, f1 in report.f1_per_class.items():
        headline += f", {label} F1 " + (f"{f1:.4f}" if f1 is not None else "-")
    if report.exact_match is not None:
        headline += f", EM {report.exact_match:.4f}"
    print(headline)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    settings = Settings(args.config)
    size = settings.get("synth", "size", args.size, 2000, int)
    holdout = settings.get("synth", "holdout", args.holdout, 400, int)
    seed = settings.get("synth", "seed", args.seed, 17, int)
    sigma = settings.get("synth", "sigma", args.sigma, 0.25, float)
    out = _ensure_out(settings.get("synth", "out", args.out, "synth-out"))

    spec = synth_lib.SynthSpec(size=size, holdout=holdout, seed=seed, sigma=sigma)
    result = synth_lib.generate(spec)
    (out / "corpus.jsonl").write_text(result.corpus_jsonl(), encoding="utf-8")
    (out / "holdout.tsv").write_text(
        adapters.write_timebank_tsv(result.holdout_rows), encoding="utf-8"
    )
    settings.write_effective(out)
    print(f"wrote {len(result.documents)} corpus sentences and "
          f"{len(result.holdout_rows)} held-out items")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="durpipe", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("extract", help="harvest labeled instances from raw text")
    common(p)
    p.add_argument("inputs", nargs="+", help="text/JSONL files or directories")
    p.add_argument("--patterns", help="'all', 'for-only', or comma-separated families")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one head on labeled instances")
    common(p)
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("instances", help="training data file")
    p.add_argument("--format", choices=CHOICES["train", "format"])
    p.add_argument("--head", choices=CHOICES["train", "head"])
    p.add_argument("--init", help="'fresh' or a checkpoint path")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--buckets", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--inventory", type=int, choices=CHOICES["train", "inventory"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint under one protocol")
    common(p)
    p.add_argument("checkpoint", help="model checkpoint path")
    p.add_argument("data", help="dataset path (TSV for coarse/fine, JSONL for mctaco)")
    p.add_argument("--protocol", choices=CHOICES["eval", "protocol"])
    p.add_argument("--head", choices=CHOICES["eval", "head"])
    p.add_argument("--range", type=float, help="acceptance band in log-seconds")
    p.add_argument("--inventory", type=int, choices=CHOICES["eval", "inventory"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="majority-class baseline on gold data")
    common(p)
    p.add_argument("data", help="dataset path (TSV)")
    p.add_argument("--protocol", choices=("coarse", "fine"))
    p.add_argument("--inventory", type=int, choices=CHOICES["eval", "inventory"])
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    common(p)
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--size", type=int, help="training corpus sentences")
    p.add_argument("--holdout", type=int, help="held-out gold items")
    p.add_argument("--sigma", type=float, help="log-space duration jitter")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors, matching EXIT_CONFIG
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        logger.error("configuration error: %s", exc)
        print(f"durpipe: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"durpipe: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _DATA_ERRORS as exc:
        print(f"durpipe: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
