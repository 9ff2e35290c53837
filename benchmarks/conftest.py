"""Shared benchmark infrastructure.

Each benchmark regenerates one of the paper's tables or figures and
registers the rendered table through the ``report`` fixture; tables are
written to ``benchmarks/results/`` and echoed in the terminal summary so
``pytest benchmarks/ --benchmark-only`` leaves a readable record.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_TABLES: dict[str, str] = {}


@pytest.fixture
def report():
    """Save a rendered experiment table: ``report(name, text)``.

    ``report(name, text, to_file=False)`` only echoes the table in the
    terminal summary — for wall-clock readings an oracle must not write
    into a committed results file.
    """

    def save(name: str, text: str, to_file: bool = True) -> None:
        _TABLES[name] = text
        if not to_file:
            return
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
            f.write(text + "\n")

    return save


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name in sorted(_TABLES):
        terminalreporter.write_sep("=", name)
        for line in _TABLES[name].splitlines():
            terminalreporter.write_line(line)
