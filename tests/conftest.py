import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


@pytest.fixture
def run_cli():
    """Run `python -m satqlink ...` with the package importable."""

    def _run(*args, cwd=None, timeout=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "satqlink", *map(str, args)],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
            timeout=timeout,
        )

    return _run


_RECORDED = []  # (quantity, deviation, row) that each test call recorded, in run order


def pytest_runtest_logreport(report):
    if report.when == "call":
        row = report.nodeid.partition("[")[2][:-1]
        _RECORDED.extend((name, value, row) for name, value in report.user_properties)


def pytest_terminal_summary(terminalreporter):
    """The worst deviation that ``test_command_table_row`` recorded for each
    quantity, and the first row in run order that reached it; a worst of 0
    names no row."""
    worst = {}
    for name, value, row in _RECORDED:
        if name not in worst or value > worst[name][0]:
            worst[name] = (value, row)
    for name, (value, row) in worst.items():
        terminalreporter.write_line(f"worst {name} deviation: {value:.3g} ({row if value else 'every row'})")
