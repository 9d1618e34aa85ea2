"""Put the benchmark modules, the package sources and the tests/ oracles on
sys.path. Run from the repository root with `python -m pytest perfbench/tests`."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "tests", ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
