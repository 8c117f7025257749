import os
import sys
from pathlib import Path

import pytest

# Make the test-local helper modules (oracles, fixture_gen) importable.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def split_every_step(monkeypatch):
    """Every optimizer step runs as two row ranges on two threads, whatever
    the prefix size and the CPUs of the host, with the interpreter lock
    handed between threads as often as it allows."""
    from durpipe import model

    monkeypatch.setattr(model, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
