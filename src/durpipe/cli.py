"""Command-line pipeline: synth, extract, train, eval, baseline.

One executable with subcommands. Each setting is one row of COMMANDS,
which gives its flag, type, default and allowed values, and, for some,
the setting it depends on: `--range` is read only under `--protocol
mctaco`, and `--dim`, `--buckets` and `--radius` only with `--init
fresh`. A setting takes its flag's value, else the value in the INI
config file's section of the subcommand (`baseline` reads `[eval]`),
else the one in `[common]`, else its default. A flag for a setting the
run does not read is a configuration error; a config-file value for it
is ignored. Every run echoes the settings it read to <out>/config.ini,
so a run can be reproduced from its output directory alone.

Exit codes: 0 success, 2 configuration errors, 3 I/O errors, 4 data
errors. DURPIPE_LOG names the log level (DEBUG/INFO/WARNING/ERROR).

A run pauses Python's cyclic garbage collector and gives the caller's
setting back when it ends. A stage builds tens of thousands of per-row
objects, which the collector would scan again and again as they pile
up; they hold no reference cycles, so reference counting frees them.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

from . import adapters, evaluation
from .adapters import MalformedRowError
from .units import ConfigError, closest_unit, coarse_of_value, inventory_of_size

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4

_CONFIG_ERRORS = (ConfigError, configparser.Error)
# Every data error durpipe raises (bad rows, checkpoints, quantities and
# inputs, and JSON that does not decode) is a ValueError.
_DATA_ERRORS = ValueError


def _setup_logging() -> None:
    """Log at the level DURPIPE_LOG names, in any case (WARNING when it is
    unset or empty); a name logging does not know is a ConfigError. Each
    run sets the level: basicConfig does only while the root has no handler."""
    value = os.environ.get("DURPIPE_LOG") or "WARNING"
    level = logging.getLevelName(value.upper())
    if not isinstance(level, int):
        raise ConfigError(f"DURPIPE_LOG={value!r} is not a log level")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def _iter_input_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir()
                                if q.suffix.lower() in (".txt", ".jsonl") and not q.is_dir()))
        elif p.exists():
            files.append(p)
        else:
            raise FileNotFoundError(f"input path does not exist: {p}")
    return files


def _iter_documents(files: list[Path]):
    from . import extraction
    for path in files:
        try:
            text = path.read_bytes().decode("utf-8-sig")
        except UnicodeDecodeError:
            logger.warning("skipping undecodable file %s", path)
            yield path.name, None
            continue
        if path.suffix.lower() == ".jsonl":
            # Only "\n" ends a JSONL line: splitlines() would also break at
            # U+2028, U+0085 and others, which JSON allows raw in a string.
            yield from extraction.read_documents(text.split("\n"), path.name)
        else:
            yield path.name, text


def cmd_extract(settings: dict, out: Path) -> None:
    from . import extraction
    files = _iter_input_files(settings["inputs"])
    if not files:
        logger.warning("no input files found under %s", settings["inputs"])

    instances, stats = extraction.extract_corpus(_iter_documents(files))

    (out / "instances.jsonl").write_text(extraction.write_instances(instances), encoding="utf-8")
    (out / "stats.json").write_text(
        json.dumps(asdict(stats), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"extracted {stats.emitted} instances from {stats.documents} documents "
          f"({stats.filtered} filtered)")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# Settings left unset take TrainConfig's defaults, for fresh and --init
# runs alike; the echo records the values used.
_OPTIMIZER_KEYS = ("learning_rate", "batch_size", "epochs")


def _read_training_inputs(path: Path, fmt: str, inventory) -> list[adapters.ModelInput]:
    # csv needs the file's own line ends, so that a quoted "\r" in a TSV
    # cell reads back; the JSONL readers strip each line.
    with open(path, encoding="utf-8-sig", newline="") as fh:
        if fmt == "instances":
            from . import extraction
            return [adapters.ModelInput(i.masked_text, i.mask_positions, i.exact_label)
                    for i in extraction.read_instances(fh)]
        if fmt == "timebank":
            return [adapters.timebank_to_input(row, inventory)
                    for row in adapters.read_timebank_tsv(fh)]
        return [q.input for q in adapters.read_mctaco_questions(fh)
                if q.input.exact_label is not None]


def cmd_train(settings: dict, out: Path) -> None:
    from . import model as model_lib
    head, init, seed = settings["head"], settings["init"], settings["seed"]
    given = {key: settings[key] for key in _OPTIMIZER_KEYS if settings[key] is not None}
    cfg = model_lib.TrainConfig(**given, seed=seed, loss="mse" if head == "exact" else "cross_entropy")
    settings.update({key: getattr(cfg, key) for key in _OPTIMIZER_KEYS})

    inventory = inventory_of_size(settings["inventory"])
    if init == "fresh":
        mdl = model_lib.DualHeadModel.create(dim=settings["dim"], inventory=inventory, seed=seed,
                                             buckets=settings["buckets"], radius=settings["radius"])
    else:
        mdl = model_lib.with_inventory(model_lib.load(Path(init).read_bytes()), inventory)

    path = Path(settings["instances"])
    inputs = _read_training_inputs(path, settings["format"], inventory)
    if not inputs:
        raise MalformedRowError(f"no usable {settings['format']} training items in {path}")
    # The range head learns the exact label's closest unit of the inventory.
    data = [(mi, mi.exact_label if head == "exact" else closest_unit(mi.exact_label, inventory))
            for mi in inputs]
    mdl, curve = model_lib.train(mdl, data, cfg)

    (out / "model.ckpt").write_bytes(model_lib.save(mdl))
    (out / "loss_curve.json").write_text(
        json.dumps({"loss": curve}, sort_keys=True) + "\n", encoding="utf-8"
    )
    final = f"{curve[-1]:.6f}" if curve else "n/a"
    print(f"trained {head} head on {len(data)} instances, {len(curve)} steps, final loss {final}")


# ---------------------------------------------------------------------------
# eval / baseline
# ---------------------------------------------------------------------------


def _timebank_rows(path: Path) -> list[adapters.TimeBankRow]:
    """The rows of a TSV data file; a file with no rows is a data error."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = adapters.read_timebank_tsv(fh)
    if not rows:
        raise MalformedRowError(f"no rows in {path}")
    return rows


def _golds(protocol: str, exacts: Iterable[float], units: Iterable) -> list:
    """The gold labels under the coarse or fine protocol of rows with these
    exact and range labels; only the labels the protocol reads are read."""
    if protocol == "fine":
        return list(units)
    return [coarse_of_value(exact) for exact in exacts]


def _timebank_golds(path: Path, inventory, protocol: str):
    """Inputs, gold labels under the coarse or fine protocol and event
    words of a TSV data file."""
    rows = _timebank_rows(path)
    inputs = [adapters.timebank_to_input(row, inventory) for row in rows]
    golds = _golds(protocol, (mi.exact_label for mi in inputs), (mi.range_label for mi in inputs))
    return inputs, golds, [row.sentence[row.event_span[0]:row.event_span[1]] for row in rows]


def cmd_eval(settings: dict, out: Path) -> None:
    from . import model as model_lib
    protocol, head = settings["protocol"], settings["head"]
    if protocol == "mctaco":
        rule = evaluation.RangeRule(settings["range"])
    mdl = model_lib.load(Path(settings["checkpoint"]).read_bytes())
    if settings["inventory"] is not None:
        mdl = model_lib.with_inventory(mdl, inventory_of_size(settings["inventory"]))
    inventory = mdl.inventory

    data_path = Path(settings["data"])
    if protocol == "mctaco":
        with open(data_path, encoding="utf-8-sig") as fh:
            questions = adapters.read_mctaco_questions(fh)
        answered = [q for q in questions if q.answers]
        if not answered:
            raise MalformedRowError(f"no answer in {data_path} parses as a duration")
        for q in questions:
            if not q.answers:
                logger.info("question %s has no parseable answers; skipped", q.qid)
        inputs = [q.input for q in answered]
    else:
        inputs, golds, keys = _timebank_golds(data_path, inventory, protocol)

    preds = model_lib.predict_many(mdl, inputs, head)
    if protocol == "coarse":
        report = evaluation.eval_coarse(preds, golds, keys=keys)
    elif protocol == "fine":
        report = evaluation.eval_fine(preds, golds, inventory, keys=keys)
    else:
        answers = [(q.qid, value, gold) for q in answered for value, gold in q.answers]
        report = evaluation.eval_mctaco(
            dict(zip((q.qid for q in answered), preds)), answers, rule, inventory
        )
        dropped = sum(q.dropped for q in questions)
        if dropped:
            report.diagnostics["unparseable_answers"] = dropped

    _write_report(out, report)


def cmd_baseline(settings: dict, out: Path) -> None:
    # The baseline predicts nothing, so it labels the rows without
    # placing masks in them.
    protocol = settings["protocol"]
    inventory = inventory_of_size(settings["inventory"])
    exacts = [adapters.timebank_label(row) for row in _timebank_rows(Path(settings["data"]))]
    golds = _golds(protocol, exacts, (closest_unit(exact, inventory) for exact in exacts))
    _write_report(out, evaluation.majority_baseline(golds, protocol, inventory))


def _write_report(out: Path, report: evaluation.EvalReport) -> None:
    (out / "report.json").write_text(evaluation.report_to_json(report), encoding="utf-8")
    (out / "items.tsv").write_text(report.to_item_tsv(), encoding="utf-8")
    headline = f"{report.protocol}: accuracy {report.accuracy:.4f}"
    for label, f1 in report.f1_per_class.items():
        headline += f", {label} F1 " + (f"{f1:.4f}" if f1 is not None else "-")
    if report.exact_match is not None:
        headline += f", EM {report.exact_match:.4f}"
    print(headline)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(settings: dict, out: Path) -> None:
    from . import synth as synth_lib
    spec = synth_lib.SynthSpec(size=settings["size"], holdout=settings["holdout"],
                               seed=settings["seed"], sigma=settings["sigma"])
    result = synth_lib.generate(spec)
    (out / "corpus.jsonl").write_text(result.corpus_jsonl(), encoding="utf-8")
    (out / "holdout.tsv").write_text(
        adapters.write_timebank_tsv(result.holdout_rows), encoding="utf-8"
    )
    print(f"wrote {len(result.documents)} corpus sentences and "
          f"{len(result.holdout_rows)} held-out items")


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Setting:
    """One setting of a subcommand. `when` = (key, value): the setting is
    read only when the setting `key`, resolved before it, equals `value`."""

    key: str
    cast: Callable = str
    default: object = None
    choices: tuple = ()
    when: tuple[str, str] | None = None
    help: str | None = None

    @property
    def flag_name(self) -> str:
        return "--" + self.key.replace("_", "-")


@dataclass(frozen=True)
class Command:
    section: str
    run: Callable[[dict, Path], None]
    help: str
    positionals: tuple[tuple[str, str, str | None], ...]  # (name, help, nargs)
    settings: tuple[Setting, ...]


_INVENTORY = (7, 8)
_HEADS = ("exact", "range")
_OUT = "output directory"

COMMANDS = {
    "extract": Command("extract", cmd_extract, "harvest labeled instances from raw text",
                       (("inputs", "text/JSONL files or directories", "+"),), (
        Setting("out", default="extract-out", help=_OUT),
    )),
    "train": Command("train", cmd_train, "train one head on labeled instances",
                     (("instances", "training data file", None),), (
        Setting("format", default="instances", choices=("instances", "timebank", "mctaco")),
        Setting("head", default="exact", choices=_HEADS),
        Setting("init", default="fresh", help="'fresh' or a checkpoint path"),
        Setting("seed", int, 0, help="run seed"),
        Setting("inventory", int, 8, _INVENTORY),
        Setting("dim", int, 32, when=("init", "fresh")),
        Setting("buckets", int, 4096, when=("init", "fresh")),
        Setting("radius", int, 5, when=("init", "fresh")),
        Setting("learning_rate", finite_float),
        Setting("batch_size", int),
        Setting("epochs", int),
        Setting("out", default="train-out", help=_OUT),
    )),
    "eval": Command("eval", cmd_eval, "score a checkpoint under one protocol",
                    (("checkpoint", "model checkpoint path", None),
                     ("data", "dataset path (TSV for coarse/fine, JSONL for mctaco)", None)), (
        Setting("protocol", default="fine", choices=("coarse", "fine", "mctaco")),
        Setting("head", default="exact", choices=_HEADS),
        Setting("inventory", int, None, _INVENTORY),
        Setting("range", finite_float, 3.0, when=("protocol", "mctaco"),
                help="acceptance band in log-seconds"),
        Setting("out", default="eval-out", help=_OUT),
    )),
    "baseline": Command("eval", cmd_baseline, "majority-class baseline on gold data",
                        (("data", "dataset path (TSV)", None),), (
        Setting("protocol", default="fine", choices=("coarse", "fine")),
        Setting("inventory", int, 8, _INVENTORY),
        Setting("out", default="baseline-out", help=_OUT),
    )),
    "synth": Command("synth", cmd_synth, "generate the synthetic benchmark", (), (
        Setting("size", int, 2000, help="training corpus sentences"),
        Setting("holdout", int, 400, help="held-out gold items"),
        Setting("seed", int, 17, help="run seed"),
        Setting("sigma", finite_float, 0.25, help="log-space duration jitter"),
        Setting("out", default="synth-out", help=_OUT),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="durpipe", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="INI config file")
        for positional, help_text, nargs in command.positionals:
            p.add_argument(positional, nargs=nargs, help=help_text)
        for row in command.settings:
            p.add_argument(row.flag_name, dest=row.key, type=row.cast,
                           choices=row.choices or None, help=row.help)
    return parser


def resolve(args: argparse.Namespace) -> dict:
    """The settings a run reads, with its positionals. Each row whose
    `when` holds takes its flag (argparse checks its cast and choices),
    else its value in the command's config section, else in [common],
    else its default. A flag for a row not read is a ConfigError."""
    command = COMMANDS[args.command]
    config = configparser.ConfigParser(interpolation=None)
    if args.config and not config.read(args.config, encoding="utf-8-sig"):
        raise FileNotFoundError(f"config file not found: {args.config}")
    settings: dict = {}
    for row in command.settings:
        value = getattr(args, row.key)
        if row.when and settings[row.when[0]] != row.when[1]:
            if value is not None:
                raise ConfigError(f"{row.flag_name} is read only when {row.when[0]} = "
                                  f"{row.when[1]}, and this run has {row.when[0]} = "
                                  f"{settings[row.when[0]]}")
            continue
        if value is None:
            section = next((s for s in (command.section, "common") if config.has_option(s, row.key)), None)
            value = _config_value(config, section, row) if section else row.default
        settings[row.key] = value
    for positional, _, _ in command.positionals:
        settings[positional] = getattr(args, positional)
    return settings


def _config_value(config: configparser.ConfigParser, section: str, row: Setting):
    raw = config.get(section, row.key)
    if raw == "" and row.default is None:
        return None  # how config.ini records an unset setting
    try:
        value = row.cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {row.key} = {raw!r}: {exc}") from exc
    if row.choices and value not in row.choices:
        raise ConfigError(f"[{section}] {row.key} = {value!r} is not one of "
                          f"{', '.join(map(str, row.choices))}")
    return value


def _write_config(path: Path, section: str, settings: dict) -> None:
    echo = configparser.ConfigParser(interpolation=None)
    echo[section] = {key: " ".join(value) if isinstance(value, list) else
                     "" if value is None else str(value) for key, value in sorted(settings.items())}
    with open(path, "w", encoding="utf-8") as fh:
        echo.write(fh)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors, matching EXIT_CONFIG
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    # tests/test_cli.py checks that the cyclic garbage a run leaves does
    # not grow with its input.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _setup_logging()
        settings = resolve(args)
        out = Path(settings["out"])
        out.mkdir(parents=True, exist_ok=True)
        command.run(settings, out)
        _write_config(out / "config.ini", command.section, settings)
        return EXIT_OK
    except _CONFIG_ERRORS as exc:
        print(f"durpipe: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"durpipe: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _DATA_ERRORS as exc:
        print(f"durpipe: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
