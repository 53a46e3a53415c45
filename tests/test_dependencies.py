import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import smanet
from smanet import attention, backbone, losses, nn, tensor
from smanet.attention import SmaConfig
from smanet.backbone import BackboneConfig
from smanet.data import SyntheticSpec
from smanet.losses import LossConfig

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "smanet"}


def absolute_imports() -> list[tuple[str, str]]:
    """(file name, top-level module) for every absolute import in the package."""
    root = Path(smanet.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n.split(".")[0]) for n in names]
    return found


def test_package_imports_only_stdlib_and_numpy():
    assert not [f"{file}: {module}" for file, module in absolute_imports()
                if module not in ALLOWED]


def test_only_the_cli_sets_the_allocator():
    """`ctypes` reaches glibc's allocator; only `cli.py` imports it, so
    one module alone holds the process's allocator policy."""
    assert {file for file, module in absolute_imports() if module == "ctypes"} == {"cli.py"}


def test_only_the_cli_sets_the_ufunc_buffer():
    """numpy's ufunc buffer size is process state; only `cli.py` calls
    `setbufsize`, so one module owns it."""
    root = Path(smanet.__file__).parent
    assert {path.name for path in root.rglob("*.py")
            if _calls(ast.parse(path.read_text(), filename=str(path)), "setbufsize")} == {"cli.py"}


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


def _op_defs(tree):
    """The top-level functions of `tree` that call `apply_op`."""
    return [f for f in tree.body if isinstance(f, ast.FunctionDef) and _calls(f, "apply_op")]


# Ops named otherwise than their function: after the `Tensor` methods.
_OP_OF_FUNCTION = {"tensor_sum": "sum", "tensor_mean": "mean"}


def op_functions() -> dict:
    """{op name: (module, function name)} of every op: each function of
    `tensor.py` and `losses.py` that records its vjp through `apply_op`.
    The gradient-check suite names its op checks by the op names."""
    return {_OP_OF_FUNCTION.get(f.name, f.name): (module, f.name) for module in (tensor, losses)
            for f in _op_defs(ast.parse(Path(module.__file__).read_text()))}


def _op_scopes(path, tree):
    """The code that runs in an op: all of `tensor.py`, and each function
    of `losses.py` that calls `apply_op` (its vjp included)."""
    if path.name == "tensor.py":
        return [tree]
    if path.name == "losses.py":
        return _op_defs(tree)
    return []


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
        for scope in _op_scopes(path, tree):
            slow += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                     for node in _calls(scope, "where")]
    assert not slow


# numpy functions written in Python around a C entry point (see `tensor`).
PYTHON_WRAPPERS = {"prod", "stack", "broadcast_to", "expand_dims", "full", "full_like",
                   "zeros_like", "ones_like", "repeat"}


def test_ops_call_numpy_c_entry_points():
    """The `.mean`, `.max` and `.min` methods and the numpy functions in
    `PYTHON_WRAPPERS` run Python code of numpy's before they reach C; on
    the small arrays of most ops that fixed cost is a large share of the
    call.  No op scope (`_op_scopes`) calls one: reductions call the
    ufunc's ``reduce``, and arrays are made by ``empty``, ``zeros`` or
    ``array``.  The builtin ``max`` is no array method and stays."""
    root = Path(smanet.__file__).parent
    slow = []
    for path in (root / "tensor.py", root / "losses.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in _op_scopes(path, tree):
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                name, owner = node.func.attr, node.func.value
                if name in ("mean", "max", "min") or (
                        isinstance(owner, ast.Name) and owner.id == "np" and name in PYTHON_WRAPPERS):
                    slow.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not slow


# Where a setting or an input enters, and so where it may be refused.
ENTRY_CHECK_FILES = {"config.py", "cli.py", "checkpoint.py", "ppm.py"}
ENTRY_CHECK_FUNCTIONS = {
    "attention.py:SmaConfig.__post_init__", "nn.py:Module.load_state_arrays",
    "data.py:load_dataset", "data.py:make_folds",
    "train.py:subject_pools", "train.py:make_out_dir",
    "backbone.py:SGD.__init__", "backbone.py:SGD.step",
}


def _defs(tree):
    """(name, node) of each top-level function and each method of a
    top-level class, as `function` or `Class.method`."""
    out = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    out += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef)]
    return out


def test_settings_and_inputs_are_checked_where_they_enter():
    """Only the entry points raise `ConfigError` or `DataError`: the
    config, the CLI, the checkpoint and PPM readers, and the functions in
    `ENTRY_CHECK_FUNCTIONS`.  Code past them trusts what they let
    through, so a second check of a setting or a label fails here
    instead of coming back unnoticed."""
    root = Path(smanet.__file__).parent
    extra = []
    for path in sorted(root.rglob("*.py")):
        if path.name in ENTRY_CHECK_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for name, f in _defs(tree)
                   if f"{path.name}:{name}" in ENTRY_CHECK_FUNCTIONS for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or id(node) in allowed:
                continue
            exc = getattr(node.exc, "func", node.exc)  # `raise E(...)` or `raise E`
            if getattr(exc, "attr", getattr(exc, "id", None)) in ("ConfigError", "DataError"):
                extra.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not extra


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
    assert BackboneConfig.blocks_per_stage == 2


def test_build_plans_declare_no_defaults():
    """A setting's default is written once, in `RunConfig`: the build plans
    made from it (by `config.backbone_config`, `config.loss_config` and
    `train.synthetic_spec`) declare no field defaults, so a changed
    default reaches every plan the program builds, the gradient checks'
    included."""
    with_default = [f"{cls.__name__}.{f.name}"
                    for cls in (SmaConfig, BackboneConfig, LossConfig, SyntheticSpec)
                    for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING]
    assert not with_default
