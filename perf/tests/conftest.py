"""Make the benchmark's modules and the library importable.

Run from the repository root::

    PYTHONPATH=src python -m pytest perf/tests -q
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent

for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
