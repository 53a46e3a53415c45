import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import smanet
from smanet import attention, backbone, nn
from smanet.attention import SmaConfig
from smanet.backbone import BackboneConfig

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
    """The project's unused-import check (it declares no linter)."""
    root = Path(smanet.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
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


def test_no_vjp_keeps_a_phase_grid():
    """A vjp keeps an input's own array and rebuilds its phase grid from
    it: no function nested in a `tensor.py` op reads a name that the op
    bound to a `_phase_grid(...)` grid, so no grid, a padded copy of an
    input, lives in the graph until the backward.  The layout tuple is
    read freely."""
    path = Path(smanet.__file__).parent / "tensor.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    gridded, captured = set(), []
    for op in (f for f in tree.body if isinstance(f, ast.FunctionDef)):
        inner = [f for f in ast.walk(op) if isinstance(f, ast.FunctionDef) and f is not op]
        in_inner = {id(n) for f in inner for n in ast.walk(f)}
        grids = set()
        for node in ast.walk(op):
            if isinstance(node, ast.Assign) and id(node) not in in_inner \
                    and _calls(node.value, "_phase_grid"):
                # `flat, layout = _phase_grid(...)`: the first name is the grid.
                for target in node.targets:
                    grid = target.elts[0] if isinstance(target, ast.Tuple) else target
                    grids |= {n.id for n in ast.walk(grid) if isinstance(n, ast.Name)}
        if grids:
            gridded.add(op.name)
        for f in inner:
            names = [n for n in ast.walk(f) if isinstance(n, ast.Name)]
            local = {n.id for n in names if isinstance(n.ctx, ast.Store)}
            local |= {a.arg for a in ast.walk(f.args) if isinstance(a, ast.arg)}
            captured += [f"{op.name}.{f.name}: {n.id}" for n in names
                         if isinstance(n.ctx, ast.Load) and n.id in grids - local]
    assert gridded == {"conv2d", "depthwise_conv2d", "max_pool2d"}
    assert not captured


def test_one_function_decides_whether_a_graph_is_recorded():
    """Only `tensor.recording` reads grad mode, and only `no_grad` sets
    it: every op, `apply_op` included, asks `recording`."""
    root = Path(smanet.__file__).parent
    touching = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, ast.FunctionDef) and any(
                    getattr(node, "id", None) == "_grad_enabled"
                    or getattr(node, "attr", None) == "_grad_enabled"
                    or (isinstance(node, ast.Global) and "_grad_enabled" in node.names)
                    for node in ast.walk(scope)):
                touching.add(f"{path.name}:{scope.name}")
    assert touching == {"tensor.py:recording", "tensor.py:no_grad"}


def test_task_has_one_spelling():
    """The task is `au` or `fer` everywhere: no string constant in the
    package, docstrings included, spells it `multi_label` or
    `multi_class`."""
    root = Path(smanet.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "multi_label" in node.value or "multi_class" in node.value:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_attention_settings_live_in_sma_config_only():
    """`BackboneConfig` holds the attention variant as one `SmaConfig`
    and copies none of its fields."""
    backbone = {f.name for f in dataclasses.fields(BackboneConfig)}
    assert not backbone & {f.name for f in dataclasses.fields(SmaConfig)}


def test_layers_take_shapes_not_settings():
    """No layer constructor takes a dtype: layers are built in float64 and
    `TrainState` casts the model once.  The input channel count and the
    blocks per stage are constants, not `BackboneConfig` fields."""
    with_dtype = [f"{mod.__name__}.{name}"
                  for mod in (nn, attention, backbone)
                  for name, cls in vars(mod).items()
                  if inspect.isclass(cls) and cls.__module__ == mod.__name__
                  and "dtype" in inspect.signature(cls.__init__).parameters]
    assert not with_dtype
    fields = {f.name for f in dataclasses.fields(BackboneConfig)}
    assert not fields & {"in_channels", "blocks_per_stage"}
    assert BackboneConfig(num_outputs=2).blocks_per_stage == 2
