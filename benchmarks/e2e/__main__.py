"""``python -m benchmarks.e2e``: the same entry point as ``run.py``."""

import runpy
from pathlib import Path

if __name__ == "__main__":
    runpy.run_path(str(Path(__file__).with_name("run.py")), run_name="__main__")
