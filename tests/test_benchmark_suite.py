"""The benchmark's own tests, which read parts of the package's API."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    # in a child process: tests/ and perfbench/ each have a conftest.py that
    # imports as `conftest`, so the two suites cannot share one process
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "perfbench"], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
