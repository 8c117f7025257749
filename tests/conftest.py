import sys
from pathlib import Path

# Make the test-local helper modules (oracles, fixture_gen) importable.
sys.path.insert(0, str(Path(__file__).parent))

