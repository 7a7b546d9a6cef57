"""Source hygiene checks that need no linter: stdlib `ast` scans of the
package source, and a run of the README's library example against the
package's exports."""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dsmlab"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. A name counts as read when it
    appears as an identifier anywhere else in the module, annotations
    included, or inside a string annotation."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value)) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_scan_finds_unused_imports():
    src = "from typing import Optional, Union\nimport os\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == ["line 1: Union"]
    assert unused_imports("from a import B\ndef f() -> 'B': pass\n") == []


def test_package_modules_have_no_unused_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {
        p.name: unused
        for p in modules
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert not found, f"unused imports: {found}"


def _private(node: ast.AST) -> bool:
    return (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    )


def _names(node: ast.AST) -> Counter:
    """Identifiers read or written in node: names and attribute names."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_private_defs(sources: dict[str, str]) -> tuple[int, list[str]]:
    """(private definitions scanned, those never referenced): a private
    function, method or class counts as referenced when its name appears as
    a name or an attribute in any of the modules, outside its own body."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    defs = [(m, node) for m, tree in trees.items() for node in ast.walk(tree) if _private(node)]
    unused = [
        f"{m}: {node.name}" for m, node in defs if used[node.name] == _names(node)[node.name]
    ]
    return len(defs), unused


def test_scan_finds_unreferenced_private_definitions():
    a = (
        "class _Run:\n"
        "    def run(self):\n        return self._drain()\n"
        "    def _drain(self):\n        return 0\n"
        "    def _invoke(self):\n        return self._invoke()\n"  # only itself
        "def _helper():\n    pass\n"
    )
    b = "from a import _Run, _helper\n_helper(_Run().run())\n"
    assert unreferenced_private_defs({"a": a, "b": b}) == (4, ["a: _invoke"])
    scanned, unused = unreferenced_private_defs({"a": a})
    assert scanned == 4 and sorted(unused) == ["a: _Run", "a: _helper", "a: _invoke"]


def test_package_has_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    scanned, unused = unreferenced_private_defs(sources)
    assert scanned > 0
    assert not unused, f"private definitions that src/ never uses: {unused}"


def _reads(node: ast.AST) -> Counter:
    """Identifiers node reads: loaded names and attributes, names imported
    from a module, and strings that spell an identifier (getattr, patch)."""
    reads: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            reads.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            reads[n.value] += 1
    return reads


def _module_level_defs(tree: ast.Module):
    """(name, defining statement) for each function, class and assigned
    name at a module's top level; dunders are read by the interpreter."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names if not name.startswith("__"))


def unread_module_names(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Module-level names of the `defining` modules that no module of
    `readers` reads outside the statement that defines them. Reads match by
    identifier, as in unreferenced_private_defs: a same-named local also
    counts, so the scan can miss a dead name."""
    used = sum((_reads(ast.parse(src)) for src in readers.values()), Counter())
    return [
        f"{m}: {name}"
        for m, src in defining.items()
        for name, stmt in _module_level_defs(ast.parse(src))
        if used[name] == _reads(stmt)[name]
    ]


def test_scan_finds_unread_module_names():
    a = (
        "LIMIT = 3\nAlias = list\nA, B = 1, 2\n__all__ = []\n"
        "def f(x):\n    return f(x - 1) if x else LIMIT\n"
        "def g():\n    pass\n"
        "class C:\n    pass\n"
    )
    b = "from a import f\nimport a\nf(a.A)\nsetattr(a, 'g', None)\n"
    sources = {"a": a, "b": b}
    assert unread_module_names({"a": a}, sources) == ["a: Alias", "a: B", "a: C"]
    alone = unread_module_names({"a": a}, {"a": a})
    assert alone == ["a: Alias", "a: A", "a: B", "a: f", "a: g", "a: C"]


def _class_members(tree: ast.Module):
    """(class name, member name, defining statement) for each method,
    property and annotated field (of a dataclass or a NamedTuple alike) of
    each class; dunders are called by the interpreter."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not name.startswith("__"):
                    yield cls.name, name, stmt


def unread_class_members(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Methods, properties and annotated fields of the `defining` modules'
    classes that no module of `readers` reads outside their own definition.
    Reads match by identifier, as in unread_module_names: building a class
    by keyword or by position reads none of its fields."""
    used = sum((_reads(ast.parse(src)) for src in readers.values()), Counter())
    return [
        f"{m}: {cls}.{name}"
        for m, src in defining.items()
        for cls, name, stmt in _class_members(ast.parse(src))
        if used[name] == _reads(stmt)[name]
    ]


def test_scan_finds_unread_class_members():
    a = (
        "class C:\n"
        "    def __init__(self):\n        self.n = self.size\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def again(self):\n        return self.again()\n"  # only itself
        "    def hook(self):\n        pass\n"
        "class D(C):\n    def run(self):\n        return 0\n"
        "@dataclass\nclass E:\n    kept: int\n    built: int = 0\n    plain = 1\n"
        "class F(NamedTuple):\n    x: int\n    y: int\n"
    )
    b = (
        "from a import D, E, F\nD().run()\ngetattr(D(), 'hook')\n"
        "e = E(kept=1, built=2)\nprint(e.kept, F(1, 2).x)\n"
    )
    with_b = ["a: C.again", "a: E.built", "a: F.y"]  # keywords and positions read no field
    assert unread_class_members({"a": a}, {"a": a, "b": b}) == with_b
    assert unread_class_members({"a": a}, {"a": a}) == [
        "a: C.again", "a: C.hook", "a: D.run", "a: E.kept", "a: E.built", "a: F.x", "a: F.y"
    ]


def _package_names_unread_by(*dirs: str, scan=unread_module_names) -> list[str]:
    """scan (unread_module_names by default) of src/ with the modules of
    `dirs` as readers; __init__.py only re-exports, but still reads what it
    imports."""
    readers = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for d in dirs
        for p in sorted((ROOT / d).glob("*.py"))
    }
    defining = {
        k: v for k, v in readers.items() if k.startswith("src/") and not k.endswith("__init__.py")
    }
    assert len(defining) >= 7
    return scan(defining, readers)


def test_package_module_names_are_all_read():
    unread = _package_names_unread_by("src/dsmlab", "tests", "perfbench")
    assert not unread, f"module-level names that nothing reads: {unread}"


def test_package_module_names_are_read_outside_the_tests():
    # a name of src/ that only tests/ reads is an export kept for the tests alone
    unread = _package_names_unread_by("src/dsmlab", "perfbench")
    assert not unread, f"module-level names that only the tests read: {unread}"


def test_package_methods_and_properties_are_read_outside_the_tests():
    # methods, properties and fields are the blind spot of the module-level scan
    unread = _package_names_unread_by("src/dsmlab", "perfbench", scan=unread_class_members)
    assert not unread, f"methods, properties and fields that only the tests read: {unread}"


REFUSALS = frozenset({"ConfigError", "ParseError", "HistoryError"})


def refusals_caught_outside(source: str, home: str) -> list[str]:
    """Functions other than `home` with an except clause that names one of
    REFUSALS, alone or in a tuple."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == home:
            continue
        for handler in ast.walk(fn):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                found += [f"{fn.name}: except {name}" for name in sorted(names & REFUSALS)]
    return found


def test_scan_finds_refusals_caught_outside_main():
    src = (
        "def main():\n    try:\n        f()\n    except ParseError:\n        pass\n"
        "def cmd():\n    try:\n        f()\n    except (OSError, HistoryError):\n        pass\n"
        "    except OracleCapError:\n        pass\n"
    )
    assert refusals_caught_outside(src, "main") == ["cmd: except HistoryError"]


def test_cli_maps_refusals_to_exit_codes_only_in_main():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert refusals_caught_outside(source, "main") == []


GC_POLICY = frozenset({"disable", "enable", "set_threshold", "freeze"})


def gc_policy_calls(source: str) -> list[str]:
    """Calls that change the cyclic collector's policy: `gc.NAME(...)` for a
    NAME in GC_POLICY, under any alias of the gc module, or such a NAME
    imported from gc."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "gc"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"line {node.lineno}: from gc import {a.name}"
                      for a in node.names if a.name in GC_POLICY]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases
              and node.func.attr in GC_POLICY):
            found.append(f"line {node.lineno}: gc.{node.func.attr}")
    return found


def test_scan_finds_gc_policy_calls():
    src = (
        "import gc\nimport gc as g\nfrom gc import freeze, collect\n"
        "gc.disable()\ngc.isenabled()\ng.set_threshold(0)\ngc.collect()\n"
    )
    assert gc_policy_calls(src) == [
        "line 3: from gc import freeze", "line 4: gc.disable", "line 6: gc.set_threshold"
    ]
    assert gc_policy_calls("disable()\nx.gc.enable()\n") == []


def test_collector_policy_lives_only_in_acyclic():
    """Every collector policy call of src/ sits in one function,
    simnet.acyclic, the pause shared by cli.main, run_simulation and
    run_campaign: a call found elsewhere, even at module level, fails."""
    homes = {}
    for p in sorted(SRC.glob("*.py")):
        source = p.read_text(encoding="utf-8")
        tops = ast.parse(source).body
        for call in gc_policy_calls(source):
            line = int(call.split(":")[0].removeprefix("line "))
            home = next((f"{p.name}: {t.name}" for t in tops
                         if isinstance(t, ast.FunctionDef) and t.lineno <= line <= t.end_lineno),
                        f"{p.name}: module")
            homes.setdefault(home, []).append(call.split(": ")[1])
    assert homes.keys() == {"simnet.py: acyclic"}, f"collector policy set outside acyclic: {homes}"
    assert sorted(homes["simnet.py: acyclic"]) == ["gc.disable", "gc.enable"]


def well_formedness_checks(module: str, source: str) -> list[str]:
    """Where a module reads the name is_well_formed, a call or any other
    read (an alias passes the pass along): module.function, dotted through
    enclosing classes and functions, or the module alone at top level.
    Imports and the definition itself do not count."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name == "is_well_formed" and isinstance(getattr(child, "ctx", None), ast.Load):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_scan_finds_well_formedness_checks():
    src = (
        "from .core import is_well_formed\nimport dsmlab.core as core\n"
        "OK = is_well_formed([])\n"
        "def f(h):\n    return core.is_well_formed(h)\n"
        "class C:\n    def m(self, h):\n        check = is_well_formed\n        return check(h)\n"
        "def g(h):\n    def inner():\n        return is_well_formed(h)\n    return inner()\n"
        "def is_well_formed(h):\n    is_well_formed = None\n    return True\n"
    )
    assert well_formedness_checks("m", src) == ["m", "m.f", "m.C.m", "m.g.inner"]


def test_histories_are_validated_only_where_they_enter_a_check():
    # complete_history and _complete_op_table hand on a table that every
    # later check takes as it is; stats makes no table
    found = sorted(
        where
        for p in sorted(SRC.glob("*.py"))
        for where in well_formedness_checks(p.stem, p.read_text(encoding="utf-8"))
    )
    assert found == ["checker._complete_op_table", "checker.complete_history", "cli.cmd_stats"]


def tuple_arity_faults(source: str, namespace: dict) -> tuple[int, list[str]]:
    """(calls checked, faults) for the `_new(Name, (...))` calls of a module,
    `_new` being `tuple.__new__`, whose tuple literal has no starred item:
    the literal must have one item per field of the class that Name names in
    `namespace`. tuple.__new__ checks no count itself."""
    checked, faults = 0, []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_new" and len(node.args) == 2
                and isinstance(node.args[1], ast.Tuple)
                and not any(isinstance(e, ast.Starred) for e in node.args[1].elts)):
            continue
        checked += 1
        cls, items = node.args[0], len(node.args[1].elts)
        fields = getattr(namespace.get(getattr(cls, "id", None)), "_fields", None)
        if fields is None:
            faults.append(f"line {node.lineno}: {ast.unparse(cls)} is no named tuple class")
        elif items != len(fields):
            faults.append(f"line {node.lineno}: {cls.id} given {items} of {len(fields)} fields")
    return checked, faults


def test_scan_finds_tuple_arity_faults():
    src = (
        "_new = tuple.__new__\n"
        "a = _new(P, (1, 2))\nb = _new(P, (1,))\nc = _new(P, (1, 2, 3))\n"
        "d = _new(P, (1, *rest))\ne = _new(kind, (1, 2))\nf = _new(P, values)\n"
        "g = P(1, 2)\nh = _new(Q, ())\n"
    )
    namespace = {"P": namedtuple("P", "x y"), "Q": namedtuple("Q", "")}
    assert tuple_arity_faults(src, namespace) == (5, [
        "line 3: P given 1 of 2 fields",
        "line 4: P given 3 of 2 fields",
        "line 6: kind is no named tuple class",
    ])


def test_tuples_built_without_the_class_call_have_every_field():
    checked = {}
    for p in sorted(SRC.glob("*.py")):
        if p.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module("dsmlab" if p.stem == "__init__" else f"dsmlab.{p.stem}")
        count, faults = tuple_arity_faults(p.read_text(encoding="utf-8"), vars(module))
        assert not faults, f"{p.name}: {faults}"
        checked[p.stem] = count
    assert checked["protocol"] >= 20 and checked["simnet"] == 2


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert "from dsmlab import" in code
    exec(compile(code, "README.md", "exec"), {})
