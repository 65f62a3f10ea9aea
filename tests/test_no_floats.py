"""No float enters the runtime package outside the CLI's display helpers.

Every verdict is exact, so `src/tiltwall/*.py` may hold no float literal, no
`float(...)` call and no `math.sqrt` except inside `cli._approx` (the
`--approx` decimal suffix) and `cli.emit_svg` (SVG coordinates), helpers
nested in them included.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tiltwall").glob("*.py"))

ALLOWED = {("cli.py", "_approx"), ("cli.py", "emit_svg")}


def float_uses(path: Path, allowed=ALLOWED) -> list[str]:
    """'line: what' for each float literal, float(...) call or math.sqrt in
    one source file outside the allowed top-level functions."""
    found = []

    def visit(node, exempt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or (path.name, node.name) in allowed
        if not exempt:
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{node.lineno}: float literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{node.lineno}: float(...) call")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "sqrt"
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
            ):
                found.append(f"{node.lineno}: math.sqrt")
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_outside_display(path):
    assert float_uses(path) == [], f"{path.name} uses floats: {float_uses(path)}"


def test_detects_each_kind(tmp_path):
    src = tmp_path / "cli.py"
    src.write_text(
        "import math\n"
        "def exact(q):\n"
        "    return q * 0.5\n"
        "def convert(q):\n"
        "    return float(q)\n"
        "def root(q):\n"
        "    return math.sqrt(q)\n"
        "def emit_svg(q):\n"
        "    def sx(x):\n"
        "        return math.sqrt(float(x)) * 1.5\n"
        "    return sx(q)\n"
        "def _approx(q):\n"
        "    return float(q)\n"
        "x = 2.0\n"
    )
    assert float_uses(src) == [
        "3: float literal 0.5",
        "5: float(...) call",
        "7: math.sqrt",
        "14: float literal 2.0",
    ]
    other = tmp_path / "chern.py"
    other.write_text("def emit_svg(q):\n    return float(q)\n")
    assert float_uses(other) == ["2: float(...) call"]
