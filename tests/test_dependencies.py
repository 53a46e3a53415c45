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


def _calls(tree, attr):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == attr]


def test_no_slow_selects():
    """On numpy 2.x `np.where` on a data-dependent mask mispredicts its
    branches, and `argmax` over a non-last axis first copies the array
    into last-axis order: each costs several times an elementwise pass.
    So: no `np.where` in `tensor.py`, nor in a `losses.py` function that
    calls `apply_op`, and every `argmax`/`argmin` in the package passes
    `axis=-1`."""
    root = Path(smanet.__file__).parent
    slow = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _calls(tree, "argmax") + _calls(tree, "argmin"):
            axis = [k.value for k in node.keywords if k.arg == "axis"]
            if not axis or ast.unparse(axis[0]) != "-1":
                slow.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        scopes = [tree] if path.name == "tensor.py" else []
        if path.name == "losses.py":
            scopes = [f for f in tree.body
                      if isinstance(f, ast.FunctionDef) and _calls(f, "apply_op")]
        for scope in scopes:
            slow += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                     for node in _calls(scope, "where")]
    assert not slow


def test_windowed_ops_share_one_grid_builder():
    """`conv2d`, `depthwise_conv2d` and `max_pool2d` pad their inputs
    through one layout, `_phase_grid`; no second padding path
    (`np.pad`, `sliding_window_view`) exists beside it."""
    path = Path(smanet.__file__).parent / "tensor.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    # Names, attributes and imported names alike.
    names = {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
             for node in ast.walk(tree)}
    assert "sliding_window_view" not in names and "pad" not in names
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for op in ("conv2d", "depthwise_conv2d", "max_pool2d"):
        assert _calls(functions[op], "_phase_grid"), op
