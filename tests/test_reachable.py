"""Every line of function code in the runtime package runs under some
command a user gives.

`cli_corpus.COMMANDS` is the tests' own list of what users run: one command
of each subcommand kind and option, a config file, and the CLI's error
paths. The `executed` fixture imports tiltwall afresh and then runs, in this
process and under a `sys.settrace` line tracer, that list, every
command-line example of README.md (read by `cli_corpus.readme_examples`),
the README's Python block, both scripts and `python -m tiltwall`. So
"reached" means "executed".

Only lines inside function code objects count: functions, methods, lambdas
and comprehensions. Module and class bodies run at import, whatever the
command. Each code object is mapped to its definition in the AST by (file,
first line, name), which gives its qualified name (`co_qualname` needs
Python 3.11). A function none of whose lines ran is reported by its `def`
line; an unexecuted line of a function that ran is reported by its own
text. `ALLOWED` excuses a report by (qualified name, line text), never by
line number, with a one-line reason, and an entry that no report needs
fails the test.

The same run decides which defaults count. A defaulted parameter of an
executed public function or method (or `__init__`) that no call passes, by
position or by keyword, is a knob nobody turns. Calls are read from the
executed functions (with what they nest), the module and class bodies, the
README block and the scripts, and matched by name; calling a class calls its
`__init__`, and a call with `*args` or `**kwargs` passes every parameter.
Nested functions are not checked.
"""

import ast
import contextlib
import dis
import importlib
import io
import os
import re
import runpy
import shlex
import sys
import types
from pathlib import Path

import pytest

from cli_corpus import CH, COMMANDS, CONFIGS, X, readme_examples

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tiltwall").glob("*.py"))
SCRIPTS = {
    "chi_table.py": ["--range", "1"],
    "wall_survey.py": ["--rank-bounds", "1,2", "--svg-dir", "svg"],
}

BENCH = "read by bench/algebra_workload.py; ROADMAP item 6(a) releases it"
QUAD_EQ = "tests compare beta_bar values; ROADMAP item 7(b) makes equality part-wise"
REPR = "for reading values in a session; no command prints a repr"

# (qualified name, line text) -> why no command needs to run it. A function
# that never runs is keyed by its def line.
ALLOWED = {
    ("chern.f_ch2_twisted",
     "def f_ch2_twisted(ch: CharVector, b: QuadRat | Rat | int) -> QuadRat:"): BENCH,
    ("inequalities.liu_abcd",
     "def liu_abcd(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> tuple[Rat, Rat, Rat, Rat]:"):
        BENCH,
    ("inequalities.prop42_chi_bounds",
     "def prop42_chi_bounds(ch: CharVector, X: RuledThreefold) -> tuple[Rat, Rat]:"): BENCH,
    ("stability.heart_sign_constraints",
     "def heart_sign_constraints(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> HeartReport:"):
        BENCH,
    ("support.verify_support", "def verify_support("): BENCH,
    ("exactnum.QuadRat._key", "def _key(self) -> tuple[Rat, Rat]:"): QUAD_EQ,
    ("exactnum.QuadRat.__eq__", "def __eq__(self, other):"): QUAD_EQ,
    ("exactnum.QuadRat.__hash__", "def __hash__(self):"): QUAD_EQ,
    ("exactnum.Record.__repr__", "def __repr__(self):"): REPR,
    ("exactnum.ExtRat.__repr__", "def __repr__(self):"): REPR,
    ("exactnum.QuadRat.__repr__", "def __repr__(self):"): REPR,
    ("walls._EverywhereType.__repr__", "def __repr__(self):"): REPR,
    ("exactnum.as_rat", 'raise TypeError(f"exact rational expected, got float {x!r}")'):
        "guard: the CLI passes only parsed rationals, never a float",
    ("exactnum.Record.__init__",
     "raise TypeError(f\"{type(self).__name__} takes the fields {', '.join(names)}\")"):
        "guard: every caller in the package passes each field once",
    ("exactnum.Record.__setattr__", "def __setattr__(self, *_):"):
        "guard: nothing in the package assigns to a field",
    ("exactnum.QuadRat.__setattr__", "def __setattr__(self, *_):"):
        "guard: nothing in the package assigns to a part",
    ("exactnum.QuadRat.__init__", 'raise ValueError("radicand must be nonnegative")'):
        "guard: beta_bar rejects a negative discriminant first",
    ("exactnum.ExtRat.value", 'raise ValueError("infinite value has no rational part")'):
        "guard: the CLI reads .value of finite slopes only",
    ("exactnum.ExtRat.__eq__", "return NotImplemented"):
        "guard: the package compares a slope only with a slope",
    ("geometry.RuledThreefold._check", 'raise ValueError(f"{name} must be an integer")'):
        "guard: the CLI parses genus and degree as ints",
    ("walls.SemicircleWall._check", 'raise ValueError("semicircle needs positive squared radius")'):
        "guard: numerical_wall builds a semicircle only for a positive radius",
    ("walls._check_scan_args",
     'raise ValueError("u must be a lattice class (integer r, c and half-integer d)")'):
        "guard: the CLI rejects a class off the lattice when it parses it",
    ("support.null_kernel_vector",
     'raise ArithmeticError(f"the null-line certificate fails at v = {v}")'):
        "guard: the certificate lemma holds for every charge, so only a faulty kernel fails it",
}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
CODE_NAMES = {ast.Lambda: "<lambda>", ast.ListComp: "<listcomp>", ast.SetComp: "<setcomp>",
              ast.DictComp: "<dictcomp>", ast.GeneratorExp: "<genexpr>"}


def _is_public(qualname: str) -> bool:
    return not qualname.rsplit(".", 1)[-1].startswith("_")


def definitions(path: Path) -> dict[tuple[int, str], tuple[str, ast.AST]]:
    """(first line, code name) -> (qualified name, node) for every function,
    lambda, comprehension and class of `path`. The code of a decorated
    definition starts at its first decorator."""
    found: dict[tuple[int, str], tuple[str, ast.AST]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, SCOPES):
                visit(child, prefix)
                continue
            name = getattr(child, "name", None) or CODE_NAMES[type(child)]
            first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
            found.setdefault((first, name), (f"{prefix}.{name}", child))
            visit(child, f"{prefix}.{name}")

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return found


def _body_lines(code) -> set[int]:
    """Lines of `code` that a line event can report: what follows the RESUME
    (or GEN_START) that ends the prologue, which sits on the first line."""
    ops = dis.get_instructions(code)
    start = next((i.offset + 2 for i in ops if i.opname in ("RESUME", "GEN_START")), 0)
    return {line for _, end, line in code.co_lines() if line is not None and end > start}


def function_code(path: Path) -> dict[tuple[int, str], tuple[str, int, set[int]]]:
    """(first line, code name) -> (qualified name, def line, executable lines)
    for each function, method, lambda and comprehension of `path`; module and
    class bodies are left out."""
    defs = definitions(path)
    found: dict[tuple[int, str], tuple[str, int, set[int]]] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        consts = [c for c in code.co_consts if isinstance(c, types.CodeType)]
        todo.extend(consts)
        for c in consts:
            key = c.co_firstlineno, c.co_name
            qual, node = defs[key]
            if not isinstance(node, ast.ClassDef):
                found.setdefault(key, (qual, node.lineno, set()))[2].update(_body_lines(c))
    return found


@contextlib.contextmanager
def line_tracer(paths):
    """Yield a set that, on exit, holds (file, first line, code name, line)
    for every body line (see `_body_lines`) that ran in a code object from
    `paths`. A code object stops being traced once all its body lines have
    run, so later calls of it cost the trace nothing but the call event. The
    trace function in place before is restored."""
    wanted = {os.path.realpath(p) for p in paths}
    relevant: dict[str, bool] = {}
    unseen: dict[types.CodeType, set[int]] = {}  # body lines that have not run yet
    tracers: dict[types.CodeType, object] = {}  # None once a code needs no more events

    def tracer(code):
        lines = unseen[code]

        def local(frame, event, arg):
            if event == "line":
                lines.discard(frame.f_lineno)
                if not lines:
                    tracers[code] = frame.f_trace = None
                    return None
            return local

        return local

    def start(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            name = code.co_filename
            if name not in relevant:
                relevant[name] = os.path.realpath(name) in wanted
            if relevant[name]:
                unseen[code] = _body_lines(code)
            tracers[code] = tracer(code) if unseen.get(code) else None
        return tracers[code]

    previous = sys.gettrace()
    hits: set[tuple[str, int, str, int]] = set()
    sys.settrace(start)
    try:
        yield hits
    finally:
        sys.settrace(previous)
        hits.update(
            (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name, line)
            for c, lines in unseen.items() for line in _body_lines(c) - lines
        )


def _ran(hits) -> dict[tuple[str, int, str], set[int]]:
    """(file, first line, code name) -> the lines that ran."""
    ran: dict[tuple[str, int, str], set[int]] = {}
    for path, first, name, line in hits:
        ran.setdefault((path, first, name), set()).add(line)
    return ran


def unexecuted(paths, hits) -> list[tuple[str, str]]:
    """(qualified name, line text) for each function of `paths` that never
    ran, by its def line, and each unexecuted line of a function that ran.
    A function nested in one that never ran is not reported again."""
    ran = _ran(hits)
    report: dict[tuple[str, str], None] = {}
    for path in map(Path, paths):
        text = path.read_text(encoding="utf-8").splitlines()
        real = os.path.realpath(path)
        code = function_code(path)
        idle = {qual for key, (qual, _, _) in code.items() if (real, *key) not in ran}
        for key in sorted(code, key=lambda k: code[k][1]):
            qual, def_line, lines = code[key]
            if qual.rsplit(".", 1)[0] in idle:
                continue
            done = ran.get((real, *key), set())
            missed = sorted(lines - done) if done else [def_line]
            report.update(((qual, text[line - 1].strip()), None) for line in missed)
    return list(report)


def executed_functions(paths, hits) -> set[str]:
    """Qualified names of the functions of `paths` of which some line ran."""
    ran = _ran(hits)
    return {
        qual
        for path in map(Path, paths)
        for key, (qual, _, _) in function_code(path).items()
        if (os.path.realpath(path), *key) in ran
    }


def unpassed_defaults(paths, executed: set[str], extra: list[ast.Module]) -> list[str]:
    """`qualname(p, ...)` for each executed public function or method (or
    `__init__`) whose defaulted parameters p no call in code that ran passes."""
    defs: dict[str, tuple[ast.FunctionDef, int]] = {}  # qualname -> (def, positional offset)
    by_name: dict[str, list[str]] = {}  # call name -> qualnames; a class call is its __init__'s
    calls = [n for tree in extra for n in ast.walk(tree) if isinstance(n, ast.Call)]
    for path in paths:
        module = Path(path).stem
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        live: list[ast.AST] = []  # module and class bodies, and executed functions
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                qual = f"{module}.{node.name}"
                defs[qual] = (node, 0)
                by_name.setdefault(node.name, []).append(qual)
                live.extend([node] if qual in executed else node.decorator_list)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        live.append(item)
                        continue
                    qual = f"{module}.{node.name}.{item.name}"
                    defs[qual] = (item, 1)
                    by_name.setdefault(item.name, []).append(qual)
                    if item.name == "__init__":
                        by_name.setdefault(node.name, []).append(qual)
                    live.extend([item] if qual in executed else item.decorator_list)
            else:
                live.append(node)
        calls += [n for root in live for n in ast.walk(root) if isinstance(n, ast.Call)]
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
        if qual not in executed or not public or not _is_public(qual.rsplit(".", 1)[0]):
            continue
        params = node.args.posonlyargs + node.args.args
        defaulted = [a.arg for a in params[len(params) - len(node.args.defaults):]]
        defaulted += [a.arg for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
        unpassed = [p for p in defaulted if p not in passed.get(qual, ())]
        if unpassed:
            report.append(f"{qual}({', '.join(unpassed)})")
    return report


def readme_python() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def user_code() -> list[ast.Module]:
    """The README's Python block and the scripts, parsed."""
    scripts = [(ROOT / "scripts" / name).read_text(encoding="utf-8") for name in SCRIPTS]
    return [ast.parse(code) for code in readme_python() + scripts]


def _captured(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return fn(*args)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def executed(tmp_path_factory):
    """The trace of a fresh `import tiltwall.cli` and of every listed command."""
    work = tmp_path_factory.mktemp("commands")
    for name, text in CONFIGS.items():
        (work / name).write_text(text, encoding="latin-1")
    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "tiltwall"}
    for name in saved:
        del sys.modules[name]
    cwd, argv = os.getcwd(), sys.argv
    codes = []
    try:
        os.chdir(work)
        with line_tracer(SOURCES) as hits:
            cli = importlib.import_module("tiltwall.cli")
            for args, _ in COMMANDS:
                codes.append(_captured(cli.run, args))
            for cmd, _ in readme_examples():
                _captured(cli.run, shlex.split(cmd, comments=True)[1:])
            for block in readme_python():
                exec(compile(block, "README.md", "exec"), {})
            for name, args in SCRIPTS.items():
                sys.argv = [name, *args]
                _captured(runpy.run_path, str(ROOT / "scripts" / name), None, "__main__")
            sys.argv = ["tiltwall", "chi", "--char", CH, *X]
            module_code = _captured(runpy.run_module, "tiltwall", None, "__main__", True)
    finally:
        sys.argv = argv
        os.chdir(cwd)
        for name in [n for n in sys.modules if n.split(".")[0] == "tiltwall"]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert [code for _, code in COMMANDS] == codes
    assert module_code == 0
    return hits


def test_sources_found():
    assert len(SOURCES) >= 10 and len(user_code()) == 3


def test_every_public_definition_is_reached(executed):
    # and every other line of function code, private or not
    missing = [r for r in unexecuted(SOURCES, executed) if r not in ALLOWED]
    assert missing == [], "function code that no listed command executes:\n" + "\n".join(
        f"{qual}: {text}" for qual, text in missing
    )


def test_allowlist_is_still_needed(executed):
    # an entry whose line runs, or is deleted, leaves the allowlist
    reported = set(unexecuted(SOURCES, executed))
    assert [key for key in ALLOWED if key not in reported] == []


def test_bench_excuses_name_what_bench_reads():
    # a BENCH entry's last name is an attribute that the algebra workload
    # reads; the file is parsed as text, since tests never import bench/
    text = (ROOT / "bench" / "algebra_workload.py").read_text(encoding="utf-8")
    read = {node.attr for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Attribute)}
    unread = [qual for (qual, _), why in ALLOWED.items()
              if why == BENCH and qual.rsplit(".", 1)[-1] not in read]
    assert unread == []


def test_every_default_is_passed_by_some_call(executed):
    unpassed = unpassed_defaults(SOURCES, executed_functions(SOURCES, executed), user_code())
    assert unpassed == [], f"defaults no command, README example or script overrides: {unpassed}"


TOY = '''\
def main(flag, xs, opts):
    Box(1).size(2)
    spread(*xs)
    spread_kw(1, **opts)
    if flag:
        return used(1, 2) + used(1, flag=True) + helper(1)
    return 0
def used(x, mode=0, flag=False, other=None): return x
def helper(x, knob=3):
    def inner(y, r=x): return y
    return inner(x)
def spread(a, b=1): return a
def spread_kw(a, b=1): return a
def orphan(a, b=1):
    return [a for _ in range(b)]
def _private(a, b=1): return a
class Box:
    def __init__(self, n, m=0): self.n = n
    @property
    def area(self):
        return self.n
    def size(self, k=1, j=2):
        return sum(self.n
                   for _ in range(k))
LATE = lambda: 1
'''


def _run_toy(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(TOY)
    module = runpy.run_path(str(src))
    previous = sys.gettrace()
    with line_tracer([src]) as hits:
        assert module["main"](True, [1], {}) == 3
    assert sys.gettrace() is previous
    return src, hits


def test_detects_an_unreached_definition(tmp_path):
    # a function that never ran (not what it nests), and an unexecuted
    # branch of one that did
    src, hits = _run_toy(tmp_path)
    assert unexecuted([src], hits) == [
        ("mod.main", "return 0"),
        ("mod.orphan", "def orphan(a, b=1):"),
        ("mod._private", "def _private(a, b=1): return a"),
        ("mod.Box.area", "def area(self):"),
        ("mod.<lambda>", "LATE = lambda: 1"),
    ]
    assert executed_functions([src], hits) == {
        "mod.main", "mod.used", "mod.helper", "mod.helper.inner", "mod.spread", "mod.spread_kw",
        "mod.Box.__init__", "mod.Box.size", "mod.Box.size.<genexpr>",
    }


def test_detects_an_unpassed_default(tmp_path):
    src, hits = _run_toy(tmp_path)
    assert unpassed_defaults([src], executed_functions([src], hits), []) == [
        "mod.Box.__init__(m)", "mod.Box.size(j)", "mod.helper(knob)", "mod.used(other)"
    ]
