"""The runtime stays numpy-only: every module of the package imports only the
standard library, numpy and the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nrst

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nrst"}


def top_level_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_stdlib_and_numpy():
    sources = sorted(Path(nrst.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{line} imports {module}"
             for path in sources for line, module in top_level_imports(path)
             if module not in ALLOWED]
    assert found == []


def test_the_scan_sees_a_third_party_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path\nfrom . import model\n"
                    "def f():\n    from scipy import stats\n")
    assert list(top_level_imports(path)) == [(1, "os"), (4, "scipy")]


def test_import_leaves_the_process_pool_unloaded():
    # Only a run with more than one worker needs multiprocessing.
    code = ("import sys, nrst; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(nrst.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
