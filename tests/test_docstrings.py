"""Tier-1 enforcement of the public-API docstring contract.

``tools/check_docstrings.py`` is the CI gate; running it under pytest too
means a plain ``pytest -x -q`` catches an undocumented public def before
the workflow does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docstrings.py"


def test_public_api_docstrings_complete():
    result = subprocess.run(
        [sys.executable, str(CHECKER)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, (
        "public defs without docstrings:\n" + result.stdout + result.stderr
    )


def test_runtime_pipeline_layer_documented_too():
    # BatchSource / EpochDriver are part of the documented
    # public surface (docs/architecture.md) even though the CI default
    # scope is core/rdbms/serving.
    result = subprocess.run(
        [sys.executable, str(CHECKER), "--packages", "runtime"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_hw_layer_documented_too():
    # The simulated accelerator is documented surface too (docs/architecture.md).
    result = subprocess.run(
        [sys.executable, str(CHECKER), "--packages", "hw"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_translator_layer_documented_too():
    # The hDFG and the generated tape are documented surface too
    # (docs/architecture.md, "Execution paths").
    result = subprocess.run(
        [sys.executable, str(CHECKER), "--packages", "translator"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_cluster_layer_documented_too():
    # The segment fan-out is documented surface too (docs/parallelism.md).
    result = subprocess.run(
        [sys.executable, str(CHECKER), "--packages", "cluster"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
