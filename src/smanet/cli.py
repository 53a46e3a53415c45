"""Command-line harness.

Verbs: synth, train, eval, sweep-n, gradcheck, params, export-attention.
Every verb consumes one flat config (file via --config, overridden by
flags).  Each config key has one string flag, and `--key value` is
parsed exactly like the file line `key = value`, by `config.load_config`.
`--checked`, on every verb, traps the first NaN or Inf an op outputs
(exit 3, one line); it changes no number, so it is no config key.
Every verb runs with numpy's floating-point warnings silenced, so a
diverging run also ends in one line: exit 3 at its non-finite loss.
The SMANET_OUTPUT_DIR environment variable overrides output_dir and
nothing else.  Exit codes: 0 ok, 2 config/input error (a command line
argparse rejects, and an artifact that cannot be written, included),
3 numeric failure, 4 threshold violation.

Determinism: the same config gives the same artifact bytes, and this
holds as measured, on a 2-core x86-64 host with numpy 2.4 on OpenBLAS
0.3.31 (its SkylakeX kernels) and numpy's AVX-512 loops:
- it holds across BLAS thread counts (a small au run trains to the
  same bytes at `OPENBLAS_NUM_THREADS` 1 and 2, which a test checks)
  and across ufunc buffer sizes (see `UFUNC_BUFSIZE`);
- it does not hold across numpy SIMD targets (with the AVX-512 loops
  off, a `train_log.csv` loss moves in its last printed digit) nor
  across OpenBLAS core types (`OPENBLAS_CORETYPE=Haswell` moves
  `checkpoint.bin`), so the sha256 pins hold only on a host like that;
- an image's eval logits depend on the composition of its batch:
  `tensor.linear` runs BLAS's matrix-vector routine for a one-row batch,
  which sums in another order than its matrix product.

The parser is built on the first `main` call and shared by every later
call in the process, so nothing may mutate it.  Each verb's `cmd_*`
function is bound into it when it is built: patch the globals those
functions call, not `cli.cmd_*` itself.

The first `main` call also keeps the heap's freed top mapped for the
rest of the process (`keep_heap_top`, glibc only).  A training step
frees its whole graph at its end; glibc would trim the heap top it
leaves and unmap it, and the next forward would fault every page in
again: 400 to 1,400 minor faults per toy batch-2 step.  Each verb also
runs at a ufunc buffer of `UFUNC_BUFSIZE` elements, and `main` restores
the caller's size when it returns.  Only this process's allocator and
numpy's buffer size are set; no number, and no artifact, changes.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import channel_masks
from .backbone import backbone_param_count
from .checkpoint import load_checkpoint
from .config import (RunConfig, _cast, backbone_config, config_digest, config_keys,
                     input_size, load_config, np_dtype)
from .data import make_folds, write_dataset
from .errors import ConfigError, DataError, NumericError
from .gradcheck import SUITE_TOLERANCE, build_suite
from .metrics import (accuracy, binarize, confusion_matrix, confusion_report,
                      count_binary, metrics_report)
from .ppm import encode_heatmap, read_color_image
from .train import (TrainState, batch_tensor, build_split, build_splits, evaluate_model,
                    make_out_dir, run_training)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_THRESHOLD = 4

# numpy's ufunc buffer, in elements, while a verb runs.  numpy copies a
# broadcast [C,1,1] or [B,1,H,W] operand, or a window of a phase grid,
# through its buffer: `x * v[:, None, None]` on float32 [2,8,64,64] took
# 31.4 us at numpy's 8,192 and 10.2 us at 1,024.  Fastest toy float32
# training step, two rounds, at 8,192 / 2,048 / 1,024 / 256 elements:
# 32.8-33.3 / 31.1-31.2 / 31.3-31.4 / 31.0 ms at batch 2, and 236-244 /
# 220-225 / 225-226 / 231-233 ms at batch 16, where a smaller buffer slows
# the float-times-bool passes.  No bit depends on the size (see `tensor`).
UFUNC_BUFSIZE = 1024

# glibc's mallopt parameters (<malloc.h>) and the heap top kept mapped.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_TOP_PAD = 64 << 20


@functools.cache
def keep_heap_top() -> None:
    """Keep up to 64 MiB of freed heap top mapped (glibc's M_TOP_PAD), so
    a loop of training steps reuses its pages instead of faulting them in.

    Setting any mallopt parameter freezes glibc's mmap threshold, which
    otherwise rises to the largest block freed: frozen where it stands at
    start-up (1 to 2 MiB), every batch-16 activation would be mmapped and
    faulted in afresh.  So the threshold is set first, to the ceiling that
    rule climbs to (4 MiB per byte of a C long: 32 MiB on 64-bit), and the
    pad only if that call succeeds.  Once per process; without glibc, or
    where a call fails, nothing changes."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, (4 << 20) * ctypes.sizeof(ctypes.c_long)):
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def _config_from_args(args) -> RunConfig:
    overrides = {key: raw for key in config_keys() if (raw := getattr(args, key)) is not None}
    env_out = os.environ.get("SMANET_OUTPUT_DIR")
    if env_out:
        overrides["output_dir"] = env_out
    return load_config(args.config, overrides)


def _load_state(cfg: RunConfig, checkpoint: str) -> TrainState:
    digest, arrays = load_checkpoint(checkpoint)
    want = config_digest(cfg)
    if digest != want:
        raise ConfigError(
            f"checkpoint digest {digest[:12]}... does not match config {want[:12]}..."
        )
    state = TrainState(cfg)
    state.load_state_arrays(arrays)
    return state


def cmd_synth(cfg: RunConfig, args) -> int:
    if cfg.data_dir:
        raise ConfigError("synth generates data; do not pass data_dir")
    digest = config_digest(cfg)
    train, val = build_splits(cfg)
    out = make_out_dir(cfg.output_dir)
    write_dataset(out / "train", train, digest)
    write_dataset(out / "val", val, digest)
    print(f"wrote {len(train)} train / {len(val)} val samples under {out}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    result = run_training(cfg, build_splits(cfg), log=print)
    print(f"best val metric {result.best_val:.6f} at epoch {result.best_epoch}")
    print(f"log: {result.log_path}  checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    digest = config_digest(cfg)
    state = _load_state(cfg, args.checkpoint)
    val = build_split(cfg, "val")
    fold_sets = make_folds(val.subjects, args.folds, seed=cfg.seed) if args.folds else None
    out = make_out_dir(cfg.output_dir)
    lines = [f"# config_digest={digest}"]
    if fold_sets is not None:
        lines.append("fold,metric")
        metrics = []
        for i, idxs in enumerate(fold_sets):
            res = evaluate_model(state, val.take(idxs), cfg)
            metrics.append(res["metric"])
            lines.append(f"fold_{i},{res['metric']:.6f}")
        lines.append(f"mean,{float(np.mean(metrics)):.6f}")
        report = "\n".join(lines) + "\n"
    else:
        res = evaluate_model(state, val, cfg)
        if cfg.task == "au":
            counts = count_binary(binarize(res["logits"]), res["labels"].astype(bool))
            report = lines[0] + "\n" + metrics_report(counts)
        else:
            preds = res["logits"].argmax(axis=-1)
            acc = accuracy(preds, res["labels"])
            report = lines[0] + "\n" + f"accuracy,{acc:.6f}\n"
            conf = confusion_matrix(preds, res["labels"], cfg.num_classes)
            (out / "confusion.txt").write_text(confusion_report(conf))
        print(f"metric {res['metric']:.6f}")
    (out / "eval_report.csv").write_text(report)
    print(report, end="")
    return EXIT_OK


def cmd_sweep_n(cfg: RunConfig, args) -> int:
    # Each count is read exactly as an `n_channels` value.
    n_values = [_cast("n_channels", v)[1] for v in args.n_values.split(",") if v.strip()]
    if not n_values:
        raise ConfigError("sweep-n needs at least one channel count")
    # Each count trains into its own n<count>/ directory and csv row.
    repeated = [n for n in n_values if n_values.count(n) > 1]
    if repeated:
        raise ConfigError(f"n-values repeats the channel count {repeated[0]}")
    # Every swept config is checked before the first run writes anything.
    subs = [dataclasses.replace(cfg, n_channels=n,
                                output_dir=str(Path(cfg.output_dir) / f"n{n}")).validate()
            for n in n_values]
    # The splits do not depend on n_channels: build them once for every run.
    splits = build_splits(cfg)
    rows = ["n_channels,best_val_metric"]
    for sub in subs:
        result = run_training(sub, splits)
        rows.append(f"{sub.n_channels},{result.best_val:.6f}")
        print(rows[-1])
    (make_out_dir(cfg.output_dir) / "sweep.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    out = make_out_dir(cfg.output_dir)
    lines = [f"# config_digest={config_digest(cfg)}", "check,max_rel_error,status"]
    failures = 0
    for name, check in build_suite(cfg.seed):
        err = float(check())
        ok = err < SUITE_TOLERANCE  # a nan error fails
        failures += not ok
        lines.append(f"{name},{err:.3e},{'ok' if ok else 'FAIL'}")
        print(lines[-1])
    (out / "gradcheck.txt").write_text("\n".join(lines) + "\n")
    if failures:
        print(f"{failures} checks at or above {SUITE_TOLERANCE:g}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_params(cfg: RunConfig, args) -> int:
    out = make_out_dir(cfg.output_dir)
    state = TrainState(cfg)
    twin = dataclasses.replace(cfg, ablation="baseline")
    twin_state = TrainState(twin)
    model_total = state.model.param_total()
    twin_total = twin_state.model.param_total()
    closed = backbone_param_count(backbone_config(cfg))
    closed_twin = backbone_param_count(backbone_config(twin))
    head_total = state.heads.param_total()
    overhead = model_total / twin_total - 1.0
    lines = [
        f"# config_digest={config_digest(cfg)}",
        f"model_params,{model_total}",
        f"closed_form_params,{closed}",
        f"plain_twin_params,{twin_total}",
        f"closed_form_twin,{closed_twin}",
        f"attention_overhead,{overhead:.6f}",
        f"bypass_head_params,{head_total}",
    ]
    report = "\n".join(lines) + "\n"
    (out / "params.txt").write_text(report)
    print(report, end="")
    if model_total != closed or twin_total != closed_twin:
        print("closed-form parameter count mismatch", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_export_attention(cfg: RunConfig, args) -> int:
    digest = config_digest(cfg)
    state = _load_state(cfg, args.checkpoint)
    state.model.eval()
    size = input_size(cfg)
    images = {}
    for path in args.images:
        stem = Path(path).stem
        if stem in images:
            raise ConfigError(f"two images share the stem {stem!r}, so their maps would "
                              "overwrite each other")
        images[stem] = read_color_image(path, size)
    out = make_out_dir(cfg.output_dir)
    for stem, img in images.items():
        x = batch_tensor([img], np_dtype(cfg))
        with T.no_grad():
            _, inters = state.model(x)
        for bi, inter in enumerate(inters):
            fused = inter.fused.data[0, 0]
            (out / f"{stem}_block{bi}_fused.pgm").write_bytes(
                encode_heatmap(fused, comment=f"config_digest={digest}")
            )
            masks = channel_masks(inter).data[0]
            for n in range(masks.shape[0]):
                (out / f"{stem}_block{bi}_mask{n}.pgm").write_bytes(
                    encode_heatmap(masks[n], comment=f"config_digest={digest}")
                )
            weights = inter.weights.data[0]
            row = " ".join(f"{w:.6f}" for w in weights)
            (out / f"{stem}_block{bi}_weights.txt").write_text(
                f"# config_digest={digest}\n{row}\n"
            )
        print(f"{stem}: exported {len(inters)} attention blocks")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Turns a command line argparse rejects into a ConfigError (exit 2,
    one line) instead of the usage text and SystemExit(2)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call (the first
    `main` call) and shared for the rest of it: nothing may mutate it.
    Each verb's `cmd_*` function is bound here, at build time.

    The options every verb takes (`--config`, `--checked` and one flag per
    config key) are defined once, on a parent parser each verb copies."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--checked", action="store_true",
                        help="stop with exit 3 at the first non-finite op output")
    for key in config_keys():
        common.add_argument("--" + key.replace("_", "-"), dest=key, help=f"override {key}")
    parser = _Parser(
        prog="smanet",
        description="Multi-channel spatial attention: synthetic data, training, "
                    "evaluation, and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("synth", cmd_synth, "generate a synthetic dataset to disk"),
        ("train", cmd_train, "train a model, writing log + best checkpoint"),
        ("eval", cmd_eval, "evaluate a checkpoint"),
        ("sweep-n", cmd_sweep_n, "train once per channel count and tabulate"),
        ("gradcheck", cmd_gradcheck, "check every gradient rule against central differences "
                                     f"(exit 4 at a relative error of {SUITE_TOLERANCE:g} or more)"),
        ("params", cmd_params, "parameter audit against the attention-free twin"),
        ("export-attention", cmd_export_attention, "dump fused maps, channel masks, and weights"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(run=run)
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--folds", type=int, default=0)
        elif name == "sweep-n":
            p.add_argument("--n-values", required=True,
                           help="comma-separated channel counts, e.g. 1,3,5,7")
        elif name == "export-attention":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("images", nargs="+", help="P6 images sized to the model input")
    return parser


def main(argv=None) -> int:
    keep_heap_top()
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        was_checked = T.checked_enabled()
        T.set_checked(was_checked or args.checked)
        try:
            # A non-finite value ends a run as a NumericError (a non-finite
            # loss, or the --checked trap), so numpy's own floating-point
            # warnings would only repeat it on stderr.
            with np.errstate(all="ignore"):
                bufsize = np.setbufsize(UFUNC_BUFSIZE)
                try:
                    return args.run(cfg, args)
                finally:
                    # numpy 1.x's errstate restores only the error modes.
                    np.setbufsize(bufsize)
        finally:
            T.set_checked(was_checked)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        # An artifact that cannot be written (its path is a directory, the
        # disk is full, ...) is an input error of the run, not a crash.
        paths = [str(p) for p in (exc.filename, exc.filename2) if p is not None]
        where = ": " + " -> ".join(paths) if paths else ""
        print(f"error: {exc.strerror or type(exc).__name__}{where}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
