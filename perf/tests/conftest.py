import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent.parent
for path in (PERF_DIR.parent / "src", PERF_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
