"""Source hygiene checks that need no linter: stdlib `ast` scans of the
package source."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsmlab"


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
