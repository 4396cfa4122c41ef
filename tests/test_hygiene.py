"""Source hygiene: every top-level import of a library module is used there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperf"


def test_top_level_imports_are_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.setdefault(path.name, []).append(name)
    assert unused == {}
