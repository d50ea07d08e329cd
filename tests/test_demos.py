"""Every demo runs to completion against the library in `src/`, and the
README's python examples import only names that exist."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_python_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL)
    assert blocks
    for block in blocks:
        imports = [node for node in ast.parse(block).body
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert imports
        exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
