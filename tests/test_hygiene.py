"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/plotkin_pke", "tests", "scripts")


def _exported(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "parse")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
