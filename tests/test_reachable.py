"""Every public definition in the runtime package is reached by something a
user runs.

The walk starts from `cli.main`, `selftest.run_selftest`, the Python block of
README.md and `scripts/*.py` (their code and the names they import from
tiltwall), plus the module-level code of every source file, which runs on
import. From a reached body, a bare name reaches the top-level function or
class of that name, and an attribute access `.name` reaches the methods of
that name; a method is never reached through a bare name, so the local
variable `scale` in `cli.emit_svg` reaches no method `scale`. A reached class
brings its decorators, bases, class-level statements and dunder methods.
A public method is reported only when its class is reached, since an
unreached class is reported itself.

The same walk collects every call in reached code. A defaulted parameter of
a reached public top-level function or method (or `__init__`) that no such
call passes, by position or by keyword, is a knob nobody turns and is
reported too. Calls are matched by name as above; calling a class calls its
`__init__`, and a call with `*args` or `**kwargs` passes every parameter.
Nested functions are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tiltwall").glob("*.py"))
ROOTS = ("cli.main", "selftest.run_selftest")

ALLOWED = {
    "chern.f_ch2_twisted",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
    "inequalities.prop42_chi_bounds",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
    "inequalities.liu_abcd",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
    "stability.heart_sign_constraints",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
    "stability.HeartReport",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
    "support.verify_support",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
    "support.SupportWitness",  # read by bench/algebra_workload.py; ROADMAP item 6(a) releases it
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_public(qualname: str) -> bool:
    return not qualname.rsplit(".", 1)[-1].startswith("_")


def user_code() -> list[ast.Module]:
    """The README's Python block and the scripts, parsed."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    return [ast.parse(code) for code in blocks] + [ast.parse(p.read_text()) for p in scripts]


def walk(sources: list[Path], roots: tuple[str, ...], extra: list[ast.Module]):
    """(functions, methods, owner, seen, calls): the top-level definitions by
    bare name, the methods by attribute name with their classes, the
    qualified names reached from `roots`, the module-level code of `sources`
    or the code and tiltwall imports of `extra`, and the calls in reached code."""
    functions: dict[str, list[tuple[str, ast.AST]]] = {}  # by bare name
    methods: dict[str, list[tuple[str, ast.AST]]] = {}  # by attribute name
    owner: dict[str, str] = {}  # method -> its class
    todo: list[ast.AST] = []
    for path in sources:
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo.append(node)
                continue
            qual = f"{module}.{node.name}"
            functions.setdefault(node.name, []).append((qual, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.setdefault(item.name, []).append((f"{qual}.{item.name}", item))
                        owner[f"{qual}.{item.name}"] = qual
    seen: set[str] = set()
    calls: list[ast.Call] = []

    def reach(qual: str, node: ast.AST) -> None:
        if qual in seen:
            return
        seen.add(qual)
        if not isinstance(node, ast.ClassDef):
            todo.append(node)
            return
        todo.extend(node.decorator_list + node.bases)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                todo.append(item)
            elif _is_dunder(item.name):
                reach(f"{qual}.{item.name}", item)

    for qual, node in (d for defs in functions.values() for d in defs):
        if qual in roots:
            reach(qual, node)
    for tree in extra:
        todo.append(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tiltwall"):
                for alias in node.names:
                    for qual, d in functions.get(alias.name, []):
                        reach(qual, d)
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Call):
                calls.append(node)
            if isinstance(node, ast.Name):
                targets = functions.get(node.id, [])
            elif isinstance(node, ast.Attribute):
                targets = methods.get(node.attr, [])
            else:
                continue
            for qual, d in targets:
                reach(qual, d)
    return functions, methods, owner, seen, calls


def unreached(sources: list[Path], roots: tuple[str, ...], extra: list[ast.Module]) -> list[str]:
    """Qualified names (module.name or module.Class.method) of the public
    definitions in `sources` that nothing reaches from `roots`, the
    module-level code of `sources`, or the code and tiltwall imports of `extra`."""
    functions, methods, owner, seen, _ = walk(sources, roots, extra)
    defined = [q for defs in functions.values() for q, _ in defs]
    defined += [q for defs in methods.values() for q, _ in defs if owner[q] in seen]
    return sorted(q for q in defined if _is_public(q) and q not in seen)


def unpassed_defaults(
    sources: list[Path], roots: tuple[str, ...], extra: list[ast.Module]
) -> list[str]:
    """`qualname(p, ...)` for each reached public function or method (or
    `__init__`) whose defaulted parameters p no call in reached code passes."""
    functions, methods, owner, seen, calls = walk(sources, roots, extra)
    defs: dict[str, tuple[ast.FunctionDef, int]] = {}  # qualname -> (def, positional offset)
    by_name: dict[str, list[str]] = {}  # call name -> qualnames; a class call is its __init__'s
    for name, found in functions.items():
        for qual, node in found:
            offset = 0
            if isinstance(node, ast.ClassDef):
                inits = [i for i in node.body if getattr(i, "name", None) == "__init__"]
                if not inits:
                    continue
                qual, node, offset = f"{qual}.__init__", inits[0], 1
            defs[qual] = (node, offset)
            by_name.setdefault(name, []).append(qual)
    for name, found in methods.items():
        for qual, node in found:
            defs[qual] = (node, 1)
            by_name.setdefault(name, []).append(qual)
    passed: dict[str, set[str]] = {}
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        )
        for qual in by_name.get(name, []):
            node, offset = defs[qual]
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            got = passed.setdefault(qual, set())
            if spread:
                got.update(params, (a.arg for a in node.args.kwonlyargs))
            else:
                got.update(params[offset:offset + len(call.args)], (k.arg for k in call.keywords))
    report = []
    for qual, (node, _) in sorted(defs.items()):
        public = _is_public(qual) or qual.endswith(".__init__")
        if qual not in seen or not public or not _is_public(owner.get(qual, qual)):
            continue
        params = node.args.posonlyargs + node.args.args
        defaulted = [a.arg for a in params[len(params) - len(node.args.defaults):]]
        defaulted += [a.arg for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
        unpassed = [p for p in defaulted if p not in passed.get(qual, ())]
        if unpassed:
            report.append(f"{qual}({', '.join(unpassed)})")
    return report


def test_sources_found():
    assert len(SOURCES) >= 10 and len(user_code()) >= 3


def test_every_public_definition_is_reached():
    missing = [q for q in unreached(SOURCES, ROOTS, user_code()) if q not in ALLOWED]
    assert missing == [], f"defined but reached by no command, README example or script: {missing}"


def test_allowlist_is_still_needed():
    # a name that becomes reached, or is deleted, leaves the allowlist
    assert sorted(ALLOWED) == [q for q in unreached(SOURCES, ROOTS, user_code()) if q in ALLOWED]


def test_every_default_is_passed_by_some_call():
    unpassed = unpassed_defaults(SOURCES, ROOTS, user_code())
    assert unpassed == [], f"defaults no command, README example or script overrides: {unpassed}"


def test_detects_an_unreached_definition(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "LIMIT = helper_at_import()\n"
        "def helper_at_import(): return 1\n"
        "def main():\n"
        "    scale = 2\n"
        "    return Box().size() * scale + helper()\n"
        "def helper(): return 1\n"
        "def orphan(): return 1\n"
        "def _private(): return 1\n"
        "class Box:\n"
        "    def __init__(self): self.n = 1\n"
        "    def size(self): return self.n\n"
        "    def scale(self): return 2\n"
        "class Unused:\n"
        "    def method(self): return 1\n"
    )
    user = [ast.parse("from tiltwall.mod import Unused\n")]
    assert unreached([src], ("mod.main",), []) == ["mod.Box.scale", "mod.Unused", "mod.orphan"]
    assert unreached([src], ("mod.main",), user) == ["mod.Box.scale", "mod.Unused.method", "mod.orphan"]


def test_detects_an_unpassed_default(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def main(xs, opts):\n"
        "    Box(1).size(2)\n"
        "    spread(*xs)\n"
        "    spread_kw(1, **opts)\n"
        "    return used(1, 2) + used(1, flag=True) + helper(1)\n"
        "def used(x, mode=0, flag=False, other=None): return x\n"
        "def helper(x, knob=3):\n"
        "    def inner(y, r=x): return y\n"
        "    return inner(x)\n"
        "def spread(a, b=1): return a\n"
        "def spread_kw(a, b=1): return a\n"
        "def _private(a, b=1): return a\n"
        "class Box:\n"
        "    def __init__(self, n, m=0): self.n = n\n"
        "    def size(self, k=1, j=2): return self.n\n"
    )
    assert unpassed_defaults([src], ("mod.main",), []) == [
        "mod.Box.__init__(m)", "mod.Box.size(j)", "mod.helper(knob)", "mod.used(other)"
    ]
