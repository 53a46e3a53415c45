import ast
import sys
from pathlib import Path

import smanet

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "smanet"}


def test_package_imports_only_stdlib_and_numpy():
    root = Path(smanet.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not bad


def test_every_import_is_used():
    """The project's unused-import check (it declares no linter).
    `__init__.py` re-exports names, so its imports are exempt."""
    root = Path(smanet.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "annotations" and bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert not unused
