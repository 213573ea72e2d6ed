import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
# The benchmark imports the package from this checkout's source tree.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


@pytest.fixture(scope="session")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
