"""Per-layer tracing of one verb call, installed from outside the package.

The tracer wraps, for the length of a traced call:

- every public differentiable op of `smanet.tensor` and the two loss
  primitives of `smanet.losses` (forward self time and call count),
- `tensor.apply_op`, so each recorded vjp is timed (backward time),
- `Tensor.backward` (engine time is its duration minus the vjp time),
- the `_kernels` functions, while the module exists,
- `Module.__call__`, `MultiChannelAttention.f2a` / `channel_weights` and
  `attention.combine` / `refine`, which give each op its module group and
  attention part,
- the three loss terms, the data functions, `save_checkpoint`,
  `evaluate_model`, `SGD.step` / `zero_grad` and the gradcheck suite.

Op time is recorded while a training step runs (from SGD construction to
the validation pass) or, for gradcheck, during the whole suite.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

from hooks import TRACE_TAG, Patches, tag

NAMED_OPS = ("conv2d", "depthwise_conv2d", "batch_norm2d", "max_pool2d",
             "exclusive_channel_max", "masked_avg_pool", "linear", "softmax")
# Every other op of the graph is reported in the `elementwise` bucket.
OTHER_OPS = ("add", "mul", "neg", "hinge_sub", "relu", "sigmoid", "exp", "log",
             "tensor_sum", "tensor_mean", "avg_pool", "reduce_max", "reshape",
             "narrow", "concat", "stack")
LOSS_OPS = ("weighted_bce_logits", "cross_entropy")
OP_BUCKETS = NAMED_OPS + ("elementwise",)
KERNELS = ("im2col", "col2im", "depthwise_forward", "depthwise_dx", "depthwise_dw")
GROUPS = (("backbone.stem",)
          + tuple(f"backbone.stage{s}.{part}" for s in range(4) for part in ("conv", "attention"))
          + ("backbone.head",))
PARTS = ("mapping", "masks", "aaa", "fuse")
LOSSES = (("task", "task_loss"), ("diversity", "diversity_loss"),
          ("multi_attention", "multi_attention_loss"))
TRAIN_SPLIT = ("data", "forward", "loss", "backward", "optimizer")


class Tracer:
    """Accumulates per-layer totals over the traced calls of one run."""

    def __init__(self, smanet):
        self.sm = smanet
        self.active = False
        self.fwd = defaultdict(float)        # (kind, name) -> seconds
        self.bwd = defaultdict(float)
        self.calls = Counter()               # op bucket -> calls
        self.sums = defaultdict(float)       # other seconds and counts
        self.steps = 0
        self.step_seconds = 0.0
        self.vjp_seconds = 0.0
        self._op_stack: list[list] = []      # [bucket, child seconds]
        self._loss_stack: list[str] = []
        self._mod_stack: list[tuple] = []    # (path or None, module type name)
        self._part_stack: list[str] = []
        self._registry: dict[int, tuple] = {}
        self._blocks_done = 0
        self._blocks_per_stage = 2
        self._step_start = 0.0
        self._mark = 0.0

    # -- attribution ---------------------------------------------------------

    def _context(self) -> tuple[str, str | None]:
        """(group, attention part) of the op about to run."""
        part = self._part_stack[-1] if self._part_stack else None
        if part == "masks" and self._mod_stack and self._mod_stack[-1][1] == "Conv2d":
            part = "mapping"
        if self._loss_stack:
            return "losses." + self._loss_stack[0], None
        path = next((p for p, _ in reversed(self._mod_stack) if p is not None), None)
        if path is None:
            return "other", part
        if path == "":
            return ("backbone.stem" if self._blocks_done == 0 else "backbone.head"), part
        head = path.split(".")
        if head[0].startswith("stem"):
            return "backbone.stem", part
        if head[0] == "blocks":
            stage = int(head[1]) // self._blocks_per_stage
            kind = "attention" if "attention" in head else "conv"
            return f"backbone.stage{stage}.{kind}", part
        return "backbone.head", part

    def _register(self, backbone) -> None:
        self._registry = {}

        def walk(mod, prefix):
            self._registry[id(mod)] = (mod, prefix)
            for name, sub in mod._modules.items():
                walk(sub, f"{prefix}.{name}" if prefix else name)

        walk(backbone, "")
        self._blocks_per_stage = backbone.cfg.blocks_per_stage

    # -- wrappers ------------------------------------------------------------

    def _op(self, bucket: str):
        tracer = self

        def make(fn):
            def op(*args, **kwargs):
                frame = [bucket, 0.0]
                tracer._op_stack.append(frame)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    tracer._op_stack.pop()
                    if tracer._op_stack:
                        tracer._op_stack[-1][1] += dt
                    if tracer.active:
                        own = dt - frame[1]
                        group, part = tracer._context()
                        tracer.fwd["op", bucket] += own
                        tracer.fwd["group", group] += own
                        if part:
                            tracer.fwd["part", part] += own
                        tracer.calls[bucket] += 1
            return tag(op, TRACE_TAG)
        return make

    def _apply_op(self, orig):
        tracer = self

        def apply_op(data, parents, vjp):
            if tracer.active:
                tracer.sums["apply_op.calls"] += 1
            bucket = tracer._op_stack[-1][0] if tracer._op_stack else "elementwise"
            group, part = tracer._context()

            def timed_vjp(g):
                t0 = time.perf_counter()
                grads = vjp(g)
                dt = time.perf_counter() - t0
                if tracer.active:
                    tracer.vjp_seconds += dt
                    tracer.bwd["op", bucket] += dt
                    tracer.bwd["group", group] += dt
                    if part:
                        tracer.bwd["part", part] += dt
                return grads

            return orig(data, parents, timed_vjp)
        return tag(apply_op, TRACE_TAG)

    def _timed(self, key: str, always: bool = False, after=None):
        """Wrapper adding each call's seconds to `sums[key]`: during steps
        only, or on every call with `always`; `after(args)` runs last."""
        tracer = self

        def make(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if tracer.active or always:
                        tracer.sums[key] += time.perf_counter() - t0
                        if after is not None:
                            after(args)
            return tag(timed, TRACE_TAG)
        return make

    def _context_push(self, stack: list, value: str):
        def make(fn):
            def pushed(*args, **kwargs):
                stack.append(value)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return tag(pushed, TRACE_TAG)
        return make

    def install(self, patches: Patches) -> None:
        sm = self.sm
        tracer = self
        for module, names in ((sm.tensor, NAMED_OPS + OTHER_OPS), (sm.losses, LOSS_OPS)):
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    patches.wrap(fn, self._op(name if name in NAMED_OPS else "elementwise"))
        patches.wrap(sm.tensor.apply_op, self._apply_op)
        kernels = getattr(sm, "_kernels", None)
        for name in KERNELS:
            fn = getattr(kernels, name, None)
            if fn is not None:
                patches.wrap(fn, self._timed(f"kernel.{name}"))

        def backward(orig):
            def wrapped(t):
                vjp_before = tracer.vjp_seconds
                t0 = time.perf_counter()
                orig(t)
                t1 = time.perf_counter()
                if tracer.active:
                    tracer.sums["split.loss"] += t0 - tracer._mark
                    tracer.sums["split.backward"] += t1 - t0
                    tracer.sums["engine"] += (t1 - t0) - (tracer.vjp_seconds - vjp_before)
                tracer._mark = t1
            return tag(wrapped, TRACE_TAG)

        def module_call(orig):
            def __call__(mod, *args, **kwargs):
                top = isinstance(mod, sm.backbone.Backbone)
                if top:
                    if tracer._registry.get(id(mod), (None,))[0] is not mod:
                        tracer._register(mod)
                    tracer._blocks_done = 0
                    t0 = time.perf_counter()
                    if tracer.active:
                        tracer.sums["split.data"] += t0 - tracer._mark
                entry = tracer._registry.get(id(mod))
                path = entry[1] if entry is not None and entry[0] is mod else None
                tracer._mod_stack.append((path, type(mod).__name__))
                try:
                    return orig(mod, *args, **kwargs)
                finally:
                    tracer._mod_stack.pop()
                    if path is not None and path.count(".") == 1 and path.startswith("blocks."):
                        tracer._blocks_done += 1
                    if top:
                        tracer._mark = time.perf_counter()
                        if tracer.active:
                            tracer.sums["split.forward"] += tracer._mark - t0
            return tag(__call__, TRACE_TAG)

        def sgd_init(orig):
            def __init__(sgd, *args, **kwargs):
                orig(sgd, *args, **kwargs)
                tracer.active = True
                tracer._step_start = tracer._mark = time.perf_counter()
            return tag(__init__, TRACE_TAG)

        def sgd_step(orig):
            def step(sgd, lr):
                t0 = time.perf_counter()
                orig(sgd, lr)
                t1 = time.perf_counter()
                if tracer.active:
                    tracer.sums["sgd_step"] += t1 - t0
                    tracer.sums["split.optimizer"] += t1 - t0
                    tracer.steps += 1
                    tracer.step_seconds += t1 - tracer._step_start
                tracer._step_start = tracer._mark = t1
            return tag(step, TRACE_TAG)

        def zero_grad(orig):
            def wrapped(sgd):
                t0 = time.perf_counter()
                orig(sgd)
                tracer._mark = time.perf_counter()
                if tracer.active:
                    tracer.sums["split.optimizer"] += tracer._mark - t0
            return tag(wrapped, TRACE_TAG)

        def evaluate(orig):
            def evaluate_model(*args, **kwargs):
                was, tracer.active = tracer.active, False
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.sums["eval"] += time.perf_counter() - t0
                    tracer.active = was
            return tag(evaluate_model, TRACE_TAG)

        def save_bytes(args):
            tracer.sums["checkpoint.bytes"] += os.path.getsize(args[0])

        def suite(orig):
            def build_suite(*args, **kwargs):
                tracer.active = True
                return [(name, tracer._check(name, thunk)) for name, thunk in orig(*args, **kwargs)]
            return tag(build_suite, TRACE_TAG)

        def many(orig):
            def grad_check_many(forward, *args, **kwargs):
                def counted():
                    tracer.sums["gradcheck.forwards"] += 1
                    return forward()
                return orig(counted, *args, **kwargs)
            return tag(grad_check_many, TRACE_TAG)

        patches.method(sm.tensor.Tensor, "backward", backward)
        patches.method(sm.nn.Module, "__call__", module_call)
        attn = sm.attention.MultiChannelAttention
        patches.method(attn, "f2a", self._context_push(self._part_stack, "masks"))
        patches.method(attn, "channel_weights", self._context_push(self._part_stack, "aaa"))
        patches.wrap(sm.attention.combine, self._context_push(self._part_stack, "fuse"))
        patches.wrap(sm.attention.refine, self._context_push(self._part_stack, "fuse"))
        for short, name in LOSSES:
            # Ops of a loss nested in another loss count for the outer one.
            patches.wrap(getattr(sm.losses, name), self._context_push(self._loss_stack, short))
        sgd = sm.backbone.SGD
        patches.method(sgd, "__init__", sgd_init)
        patches.method(sgd, "step", sgd_step)
        patches.method(sgd, "zero_grad", zero_grad)
        patches.wrap(sm.train.augment, self._timed("data.augment"))
        patches.wrap(sm.train.generate_synthetic, self._timed("data.generate", always=True))
        patches.wrap(sm.train.selective_oversample, self._timed("data.oversample", always=True))
        patches.wrap(sm.train.save_checkpoint,
                     self._timed("checkpoint.save", always=True, after=save_bytes))
        patches.wrap(sm.train.evaluate_model, evaluate)
        patches.wrap(sm.gradcheck.build_suite, suite)
        patches.wrap(sm.gradcheck.grad_check_many, many)

    def _check(self, name: str, thunk):
        tracer = self

        def check():
            t0 = time.perf_counter()
            try:
                return thunk()
            finally:
                tracer.sums["check." + name] += time.perf_counter() - t0
        return check

    def stop(self) -> None:
        """End of a traced call: nothing after it is a step."""
        self.active = False
        self._op_stack.clear()
        self._loss_stack.clear()
        self._mod_stack.clear()
        self._part_stack.clear()
        self._registry = {}

    # -- report --------------------------------------------------------------

    def metrics(self, per_step: bool, calls: int) -> dict[str, float]:
        """Per-layer metrics: op, module, loss and split figures per training
        step (train) or per suite run (gradcheck); set-up, eval and
        checkpoint figures per verb call."""
        unit = max(self.steps, 1) if per_step else max(calls, 1)
        ms = 1000.0 / unit
        s = self.sums
        out: dict[str, float] = {}
        for b in OP_BUCKETS:
            out[f"tensor.{b}.fwd_ms"] = self.fwd["op", b] * ms
            out[f"tensor.{b}.bwd_ms"] = self.bwd["op", b] * ms
            out[f"tensor.{b}.calls"] = self.calls[b] / unit
        out["tensor.apply_op.calls"] = s["apply_op.calls"] / unit
        out["tensor.backward.engine_ms"] = s["engine"] * ms
        for k in KERNELS:
            out[f"kernels.{k}_ms"] = s[f"kernel.{k}"] * ms
        for g in GROUPS:
            out[f"{g}.fwd_ms"] = self.fwd["group", g] * ms
            out[f"{g}.bwd_ms"] = self.bwd["group", g] * ms
        for p in PARTS:
            out[f"attention.{p}.fwd_ms"] = self.fwd["part", p] * ms
            out[f"attention.{p}.bwd_ms"] = self.bwd["part", p] * ms
        out["backbone.sgd_step_ms"] = s["sgd_step"] * ms
        for short, _ in LOSSES:
            out[f"losses.{short}.fwd_ms"] = self.fwd["group", "losses." + short] * ms
            out[f"losses.{short}.bwd_ms"] = self.bwd["group", "losses." + short] * ms
        out["data.augment_ms"] = s["data.augment"] * ms
        per_call = 1.0 / max(calls, 1)
        out["data.generate_s"] = s["data.generate"] * per_call
        out["data.oversample_s"] = s["data.oversample"] * per_call
        out["checkpoint.save_ms"] = s["checkpoint.save"] * 1000.0 * per_call
        out["checkpoint.bytes"] = s["checkpoint.bytes"] * per_call
        for part in TRAIN_SPLIT:
            out[f"train.{part}_ms"] = s["split." + part] * ms if per_step else 0.0
        out["train.eval_ms"] = s["eval"] * 1000.0 * per_call
        out["gradcheck.total_objective_s"] = s["check.total_objective"] * per_call
        out["gradcheck.forwards"] = s["gradcheck.forwards"] * per_call
        return out

    def attribution(self) -> dict[str, float]:
        """Shares for the sanity checks: how much of the traced step time the
        per-op, engine, data and optimizer figures explain, and how much of
        the model forward the module groups' op time covers."""
        s = self.sums
        op_fwd = sum(self.fwd["op", b] for b in OP_BUCKETS)
        explained = op_fwd + self.vjp_seconds + s["engine"] + s["split.data"] + s["split.optimizer"]
        groups = sum(self.fwd["group", g] for g in GROUPS)
        return {
            "step_coverage": explained / self.step_seconds if self.step_seconds else 0.0,
            "module_coverage": groups / s["split.forward"] if s["split.forward"] else 0.0,
            "step_ms": 1000.0 * self.step_seconds / max(self.steps, 1),
        }
