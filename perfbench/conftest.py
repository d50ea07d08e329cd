"""Puts the source tree and the benchmark's modules on the import path for
the benchmark's own tests: `python3 -m pytest perfbench`."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
