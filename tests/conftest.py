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


def pytest_terminal_summary(terminalreporter):
    """The worst deviation that ``test_command_table_row`` recorded for each quantity."""
    worst = {}
    for report in (r for reports in terminalreporter.stats.values() for r in reports):
        for name, value in getattr(report, "user_properties", ()):
            worst[name] = max(worst.get(name, (value, "")), (value, report.nodeid.partition("[")[2][:-1]))
    for name, (value, line) in worst.items():
        terminalreporter.write_line(f"worst {name} deviation: {value:.3g} ({line})")
