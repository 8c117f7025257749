import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import durpipe


def test_every_module_imports_and_its_exports_resolve():
    names = sorted(m.name for m in pkgutil.iter_modules(durpipe.__path__))
    assert {"cli", "extraction", "model"} <= set(names)
    for module in [durpipe] + [importlib.import_module(f"durpipe.{name}") for name in names]:
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"


def test_benchmark_tracer_finds_every_name_it_wraps():
    # The benchmark's tracer wraps public functions by name; a deleted or
    # renamed one would otherwise only show in a traced benchmark run.
    durbench = Path(__file__).resolve().parents[1] / "durbench"
    src = Path(durpipe.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(durbench)!r}, {str(src)!r}]\n"
        "import tracer\n"
        "tracer.install(tracer.Recorder())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_per_row_records_have_no_instance_dict_and_checked_rows_cannot_change():
    import numpy as np

    from durpipe.adapters import McTacoQuestion, McTacoRow, ModelInput, TimeBankRow
    from durpipe.extraction import LabeledInstance, MatchResult
    from durpipe.model import _Entries, _Windows
    from durpipe.units import TemporalUnit

    day = TemporalUnit.DAY
    model_input = ModelInput("It took [MASK] .", (2,))
    timebank = TimeBankRow("They met.", (5, 8), (1.0, day), (2.0, day))
    qa = McTacoRow("c", "q", "2 days", True)
    instance = LabeledInstance("It took [MASK] [MASK].", (2, 3), 1.0, day, "s")
    records = [model_input, McTacoQuestion("q0", model_input, ((1.0, True),), 0), timebank, qa,
               MatchResult("took", "take", 3.0, day, (8, 14), "took 3 days"), instance,
               _Windows(*(np.zeros(1, dtype=np.intp) for _ in range(4))),
               _Entries(*(np.zeros(1, dtype=np.intp) for _ in range(4)))]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
    for row, field, value in ((timebank, "sentence", "They ate."), (qa, "gold", False),
                              (instance, "exact_label", 2.0)):
        with pytest.raises(AttributeError):
            setattr(row, field, value)
        with pytest.raises(AttributeError):
            row.extra = value
    # A checked row is remade through its checks.
    assert timebank._replace(max_duration=(3.0, day)).seconds == (86400.0, 259200.0)
    with pytest.raises(ValueError, match="holds"):
        qa._replace(context="[MASK]")
    assert copy.deepcopy(timebank) == timebank and pickle.loads(pickle.dumps(qa)) == qa


def test_importing_the_command_line_and_the_model_starts_no_thread():
    code = (
        "import threading\n"
        "import durpipe.cli, durpipe.model\n"
        "print(threading.active_count())\n"
    )
    src = str(Path(durpipe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


def test_python_dash_m_runs_the_command_line():
    src = str(Path(durpipe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "durpipe", "--help"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "synth" in done.stdout and "baseline" in done.stdout


def test_extract_and_baseline_run_without_numpy(tmp_path):
    # Only the model and synth stages use numpy; extract and baseline
    # must not pay its import.
    from durpipe.adapters import TimeBankRow, write_timebank_tsv
    from durpipe.units import TemporalUnit

    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "Repairs took 3 hours."}\n', encoding="utf-8")
    tsv = tmp_path / "gold.tsv"
    tsv.write_text(write_timebank_tsv([
        TimeBankRow("They met.", (5, 8), (1.0, TemporalUnit.HOUR), (2.0, TemporalUnit.HOUR)),
        TimeBankRow("It rained.", (3, 9), (3.0, TemporalUnit.DAY), (4.0, TemporalUnit.DAY)),
    ]), encoding="utf-8")
    code = (
        "import sys\n"
        "from durpipe import cli\n"
        "assert 'numpy' not in sys.modules, 'import durpipe.cli loads numpy'\n"
        f"assert cli.main(['extract', {str(corpus)!r}, '--out', {str(tmp_path / 'ex')!r}]) == 0\n"
        f"assert cli.main(['baseline', {str(tsv)!r}, '--out', {str(tmp_path / 'base')!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'extract or baseline loads numpy'\n"
    )
    src = str(Path(durpipe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "ex" / "instances.jsonl").read_text().count("\n") == 1
    assert (tmp_path / "base" / "report.json").exists()


def test_synth_runs_without_the_model_or_extraction_module(tmp_path):
    # synth's start-up is part of every recipe; it needs numpy for its
    # draws, but neither the model nor the extraction module.
    code = (
        "import sys\n"
        "from durpipe import cli\n"
        f"assert cli.main(['synth', '--size', '8', '--holdout', '8', '--out', {str(tmp_path)!r}]) == 0\n"
        "loaded = {'durpipe.model', 'durpipe.extraction'} & set(sys.modules)\n"
        "assert not loaded, f'synth loads {sorted(loaded)}'\n"
    )
    src = str(Path(durpipe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "holdout.tsv").read_text().count("\n") == 9


def test_eval_and_baseline_run_without_the_extraction_module(tmp_path):
    # Only extract and the training intake of extracted instances read
    # with the extraction module; eval and baseline must not load it.
    from durpipe import model
    from durpipe.adapters import TimeBankRow, write_timebank_tsv
    from durpipe.units import TemporalUnit

    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(model.save(model.DualHeadModel.create(dim=4, seed=0, buckets=16, radius=2)))
    tsv = tmp_path / "gold.tsv"
    tsv.write_text(write_timebank_tsv([
        TimeBankRow("They met.", (5, 8), (1.0, TemporalUnit.HOUR), (2.0, TemporalUnit.HOUR)),
    ]), encoding="utf-8")
    qa = tmp_path / "qa.jsonl"
    qa.write_text('{"context": "They met.", "question": "How long did they meet?", '
                  '"answer": "2 hours", "gold": true}\n', encoding="utf-8")
    runs = [["eval", ckpt, tsv, "--protocol", protocol] for protocol in ("coarse", "fine")]
    runs += [["eval", ckpt, qa, "--protocol", "mctaco"], ["baseline", tsv]]
    code = "import sys\nfrom durpipe import cli\n" + "".join(
        f"assert cli.main({[*map(str, argv), '--out', str(tmp_path / str(i))]!r}) == 0\n"
        for i, argv in enumerate(runs)
    ) + "assert 'durpipe.extraction' not in sys.modules, 'eval or baseline loads extraction'\n"
    src = str(Path(durpipe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert all((tmp_path / str(i) / "report.json").exists() for i in range(len(runs)))
