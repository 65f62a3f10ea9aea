"""The runtime package imports only the Python standard library.

Every absolute import in `src/tiltwall/*.py` must name a top-level module in
`sys.stdlib_module_names`; relative imports stay inside the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "tiltwall").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = [n for n in absolute_imports(path) if n not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports non-stdlib modules: {outside}"


def test_detects_a_third_party_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nfrom hypothesis import given\nfrom . import chern\n")
    assert absolute_imports(src) == ["os", "hypothesis"]
    assert "hypothesis" not in sys.stdlib_module_names


def test_cli_import_skips_heavy_modules():
    """`import tiltwall.cli` runs before every command, so it loads none of the
    modules that code generation or typing would pull in."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing"]
    probe = f"import sys, tiltwall.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
