import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_python_dash_m_runs_the_command_line():
    src = str(Path(durpipe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "durpipe", "--help"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "synth" in done.stdout and "baseline" in done.stdout
