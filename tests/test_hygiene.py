"""Source hygiene checks that need no linter: stdlib `ast` scans of the
package source, and a run of the README's library example against the
package's exports."""

from __future__ import annotations

import ast
import re
from collections import Counter
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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert "from dsmlab import" in code
    exec(compile(code, "README.md", "exec"), {})
