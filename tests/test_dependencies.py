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
