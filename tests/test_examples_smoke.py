"""Smoke tests: the fastest example scripts must run end-to-end.

Each example is executed in a subprocess with a hard timeout; the slower
examples (larger graphs) are exercised by the documentation workflow
instead.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "recommendation_pinsage.py",
    "custom_nau_model.py",
    "dynamic_graphs.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    path = os.path.join(EXAMPLES_DIR, script)
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
