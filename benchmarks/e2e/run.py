"""Script entry point: ``python3 benchmarks/e2e/run.py --workload W --seed N ...``.

Puts the repository root and ``src/`` on ``sys.path`` so the benchmark runs
from a plain checkout with no ``PYTHONPATH``.  The ``__main__`` guard
matters: ``execution="processes"`` spawns workers that re-import this file.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/e2e needs the system under test at {ROOT / 'src' / 'repro'}")
    from benchmarks.e2e.cli import main

    sys.exit(main())
