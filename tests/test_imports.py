"""Every imported name is used: a stdlib ``ast`` scan of the package, tests and scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/aansim", "tests", "scripts")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that the module never reads.

    A name counts as read when it appears as an identifier, as the root of
    a string annotation, or in ``__all__``.  ``__future__`` imports are
    directives, not bindings.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("geometry.CameraIntrinsics") and __all__ entries.
            head = node.value.split(".")[0].split("[")[0]
            if head.isidentifier():
                used.add(head)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_is_caught():
    source = "import math\nimport numpy as np\n\nx = np.zeros(3)\n"
    assert unused_imports(source) == [(1, "math")]


def test_no_unused_imports():
    problems = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert problems == []
