import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aldous"


def _imported(source: str) -> set[str]:
    """Top-level names of the absolute imports in the source; a relative
    import counts as the package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("aldous" if node.level else node.module.split(".")[0])
    return found


def test_imports_are_stdlib_declared_dependencies_or_the_package():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text("utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["project"]["dependencies"]}
    allowed = set(sys.stdlib_module_names) | declared | {"aldous"}
    assert _imported("import scipy.linalg\nfrom scipy import sparse") == {"scipy"}
    assert _imported("from . import cli\nfrom .order import scan") == {"aldous"}
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _imported(path.read_text("utf-8")) - allowed:
            found.setdefault(name, []).append(path.name)
    assert found == {}


def test_importing_the_package_does_not_load_networkx(tmp_path):
    # networkx is imported lazily by the one function that needs it,
    # graphs.support_matching_number; loading it at import time would add
    # about as much as the whole start-up costs. Drawing a Hasse diagram
    # needs no graph library either
    ledger, dot = tmp_path / "ledger.json", tmp_path / "order.dot"
    ledger.write_text('{"n": 4, "entries": [{"sigma": "4", "tau": "3,1", '
                      '"status": "proved", "tag": "main"}]}', encoding="utf-8")
    code = ("import sys, aldous, aldous.cli\n"
            "assert 'networkx' not in sys.modules, 'networkx loaded by import'\n"
            "assert aldous.cli.main(['hasse', '--in', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "assert 'networkx' not in sys.modules, 'networkx loaded by hasse'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(ledger), str(dot)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"4" -> "3,1";' in dot.read_text(encoding="utf-8")
