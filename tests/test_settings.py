"""The settings table of the CLI: reruns from an echoed config.ini,
settings a run does not read, fuzzed config values, and the README's
commands."""

import configparser
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from durpipe import cli, model

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return cli.main([str(a) for a in argv])


def outputs(out: Path) -> dict[str, bytes]:
    """Every file a run wrote, with config.ini read back without its `out`."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "config.ini"}
    echo = configparser.ConfigParser(interpolation=None)
    echo.read(out / "config.ini", encoding="utf-8")
    files["config.ini"] = {s: {k: v for k, v in echo[s].items() if k != "out"} for s in echo.sections()}
    return files


def echoed(out: Path) -> dict[str, str]:
    echo = configparser.ConfigParser(interpolation=None)
    echo.read(out / "config.ini", encoding="utf-8")
    [section] = echo.sections()
    return dict(echo[section])


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    root = tmp_path_factory.mktemp("settings")
    assert run("synth", "--out", root / "synth", "--size", 96, "--holdout", 24, "--seed", 4) == 0
    assert run("extract", root / "synth" / "corpus.jsonl", "--out", root / "ex") == 0
    assert run("train", root / "ex" / "instances.jsonl", "--learning-rate", 0.05, "--epochs", 2,
               "--seed", 4, "--dim", 8, "--buckets", 256, "--out", root / "te") == 0
    qa = root / "qa.jsonl"
    qa.write_text("".join(json.dumps({"context": "The festival ran.", "question": q,
                                      "answer": a, "gold": g}) + "\n"
                          for q, a, g in [("How long did it run?", "3 days", True),
                                          ("How long did it run?", "a while", True),
                                          ("How long did it run?", "2 years", False),
                                          ("How long was the wait?", "10 minutes", True)]),
                  encoding="utf-8")
    return root


# Each run, as the positionals and flags of its first run; the rerun gives
# the same positionals, the first run's config.ini and a new --out.
RERUNS = {
    "synth": (["synth"], ["--size", 40, "--holdout", 8, "--seed", 9, "--sigma", 0.5]),
    "train-fresh": (["train", "{ex}/instances.jsonl"],
                    ["--head", "range", "--epochs", 1, "--seed", 2, "--dim", 6, "--radius", 2]),
    "train-init": (["train", "{synth}/holdout.tsv"],
                   ["--format", "timebank", "--init", "{te}/model.ckpt", "--epochs", 2,
                    "--inventory", 7]),
    "eval-fine": (["eval", "{te}/model.ckpt", "{synth}/holdout.tsv"],
                  ["--protocol", "fine", "--inventory", 7]),
    "eval-mctaco": (["eval", "{te}/model.ckpt", "{qa}"], ["--protocol", "mctaco", "--range", 1.5]),
    "baseline": (["baseline", "{synth}/holdout.tsv"], ["--protocol", "coarse"]),
}


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_rerun_from_echoed_config_reproduces_outputs(pipe, tmp_path, name):
    paths = {"ex": pipe / "ex", "synth": pipe / "synth", "te": pipe / "te", "qa": pipe / "qa.jsonl"}
    positionals, flags = ([str(a).format(**paths) for a in argv] for argv in RERUNS[name])
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(*positionals, *flags, "--out", first) == 0
    assert run(*positionals, "--config", first / "config.ini", "--out", again) == 0
    assert outputs(first) == outputs(again)


def test_config_value_the_run_does_not_read_is_ignored(pipe, tmp_path):
    config = tmp_path / "shared.ini"
    config.write_text("[common]\ndim = 64\nbuckets = 7\n[eval]\nrange = 5\n", encoding="utf-8")
    out = tmp_path / "ev"
    assert run("eval", pipe / "te" / "model.ckpt", pipe / "synth" / "holdout.tsv",
               "--protocol", "fine", "--config", config, "--out", out) == 0
    assert "range" not in echoed(out)
    out = tmp_path / "ft"
    assert run("train", pipe / "synth" / "holdout.tsv", "--format", "timebank", "--epochs", 1,
               "--init", pipe / "te" / "model.ckpt", "--config", config, "--out", out) == 0
    assert not {"dim", "buckets", "radius"} & echoed(out).keys()
    trained = model.load((out / "model.ckpt").read_bytes())
    assert trained.encoder.embeddings.shape == (256, 8)
    # the same values are read where the run uses them
    out = tmp_path / "fresh"
    assert run("train", pipe / "ex" / "instances.jsonl", "--epochs", 0, "--config", config,
               "--out", out) == 0
    assert echoed(out)["dim"] == "64"
    assert model.load((out / "model.ckpt").read_bytes()).encoder.embeddings.shape == (7, 64)


def test_fresh_and_init_runs_take_the_same_optimizer_defaults(pipe, tmp_path):
    runs = {"fresh": [pipe / "ex" / "instances.jsonl", "--init", "fresh"],
            "init": [pipe / "synth" / "holdout.tsv", "--format", "timebank",
                     "--init", pipe / "te" / "model.ckpt"]}
    defaults = {"learning_rate": "5e-05", "batch_size": "16", "warmup_proportion": "0.1",
                "epochs": "1"}
    for name, argv in runs.items():
        assert run("train", *argv, "--out", tmp_path / name) == 0
        echo = echoed(tmp_path / name)
        assert {key: echo[key] for key in defaults} == defaults, name


@pytest.mark.parametrize("argv,flag,rule", [
    (["eval", "{te}/model.ckpt", "{synth}/holdout.tsv", "--protocol", "fine", "--range", 5],
     "--range", "protocol = mctaco"),
    (["train", "{synth}/holdout.tsv", "--format", "timebank", "--init", "{te}/model.ckpt",
      "--dim", 64], "--dim", "init = fresh"),
])
def test_flag_the_run_does_not_read_is_config_error(pipe, tmp_path, capsys, argv, flag, rule):
    argv = [str(a).format(te=pipe / "te", synth=pipe / "synth") for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert flag in err and rule in err
    assert not (tmp_path / "out" / "config.ini").exists()


# --- fuzzed config values ---------------------------------------------------

ROWS = [(name, row) for name, command in cli.COMMANDS.items() for row in command.settings]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12)
_VALUES = st.one_of(_TEXT, st.integers().map(str), st.floats().map(repr))


@pytest.mark.parametrize("name,row", ROWS, ids=[f"{n}-{r.key}" for n, r in ROWS])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_VALUES)
def test_any_config_value_resolves_or_is_config_error(tmp_path, name, row, value):
    command = cli.COMMANDS[name]
    lines = [f"[{command.section}]", f"{row.key} = {value}"]
    if row.when:
        lines.append(f"{row.when[0]} = {row.when[1]}")
    config = tmp_path / "fuzz.ini"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    positionals = ["x"] * len(command.positionals)
    args = cli.build_parser().parse_args([name, *positionals, "--config", str(config)])
    try:
        resolved = cli.resolve(args)
    except model.ConfigError:
        return
    assert row.key in resolved


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sigma=_VALUES, seed=_VALUES, size=st.integers(-5, 50), holdout=st.integers(-5, 50))
def test_synth_with_any_config_values_succeeds_or_is_config_error(tmp_path, sigma, seed, size, holdout):
    config = tmp_path / "synth.ini"
    config.write_text(f"[synth]\nsigma = {sigma}\nseed = {seed}\nsize = {size}\nholdout = {holdout}\n",
                      encoding="utf-8")
    assert run("synth", "--config", config, "--out", tmp_path / "out") in (cli.EXIT_OK, cli.EXIT_CONFIG)


# --- the README's commands ----------------------------------------------------


def readme_commands() -> list[list[str]]:
    walkthrough = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", walkthrough, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("durpipe ")]


def test_readme_walkthrough_commands_parse_and_resolve():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: durpipe {' '.join(argv)}")
        cli.resolve(args)
