"""Benchmark of the smanet CLI verbs, driven in-process from outside the package.

    python3 perfbench/run.py --workload toy_au_train --seed 0 --seconds 30 --trace 0

Run it from the repository root.  `--trace 0` times the verb calls with
step-boundary probes only and prints the end-to-end metrics; `--trace 1`
runs one untraced call, then traced calls, and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See README.md beside this
file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hooks import PROBE_TAG, Patches, SetupReached, StepProbe, installed_tags
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 41         # set-ups measured per run, full calls included
L_ALL_RTOL = 1e-3          # epoch loss against the reference, relative
# A traced step must be explained by op, engine, data and optimizer time to
# within this share, and the module groups must hold at least 1 - share of
# the model forward.
ATTRIBUTION_SHARE = 0.15


@dataclass(frozen=True)
class Workload:
    verb: str
    flags: tuple = ()
    partial_last: bool = False   # oversampling may leave a partial last batch
    metric_atol: float = 0.0     # epoch metrics against the reference

    @property
    def min_calls(self) -> int:
        """A second train call checks that the artifacts repeat byte for byte."""
        return 2 if self.verb == "train" else 1


# A neighbour's load on the shared host slows whole stretches of seconds,
# and the larger the arrays, the more: only short samples over small arrays
# find the quiet stretches between.  Hence batch 2, not 16: at batch 16 the
# fastest toy step moved by up to 25 % between runs of the same code, at
# batch 2 its quartile spread over ten runs was 0.06-0.10.  The paper
# profile (256 px, full widths) moved by 17-22 % even at batch 1, so it has
# no workload here.
WORKLOADS = {
    "toy_au_train": Workload(
        "train",
        ("--profile", "toy", "--task", "au", "--ablation", "full", "--n-channels", "7",
         "--batch-size", "2", "--dtype", "float32", "--augment", "true", "--epochs", "1",
         "--n-train", "40", "--n-val", "16", "--resample-p", "0.05"),
        partial_last=True, metric_atol=0.1),
    "gradcheck": Workload("gradcheck"),
}


# -- environment -------------------------------------------------------------


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; must precede numpy's import.  On a shared host
    a product split over two cores waits for whichever one a neighbour slows:
    on a 2-vCPU VM the paper-profile step time spread by 17 % between runs
    with two threads, and by 4 % with one."""
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads: int, seed: int) -> dict:
    import importlib.util

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


# -- one verb call -----------------------------------------------------------


@dataclass
class Call:
    run_s: float
    setup_s: float | None
    probe: StepProbe
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    row: dict = field(default_factory=dict)


class Runner:
    def __init__(self, name: str, seed: int, scratch: Path):
        import smanet.cli
        import smanet.gradcheck
        import smanet.train  # noqa: F401  (modules the probes patch)

        self.sm = sys.modules["smanet"]
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.count = 0
        self.reference = json.loads(REFERENCE.read_text()).get(name, {}) if REFERENCE.exists() else {}
        self.classes = (self.sm.backbone.SGD, self.sm.nn.Module, self.sm.tensor.Tensor,
                        self.sm.attention.MultiChannelAttention)

    def call(self, tracer: Tracer | None = None, setup_only: bool = False) -> Call:
        self.count += 1
        out = self.scratch / f"call{self.count}"
        # gradcheck runs at the verb's default seed.  At some other seeds the
        # suite's composed-objective check fails: its finite-difference step
        # crosses a near-tie of a max, while the analytic gradient is right
        # (see README).
        seed = ("--seed", str(self.seed)) if self.wl.verb == "train" else ()
        argv = [self.wl.verb, *self.wl.flags, *seed, "--output-dir", str(out)]
        patches = Patches()
        probe = StepProbe(stop_after_setup=setup_only)
        probe.install(patches, self.sm)
        if tracer is not None:
            tracer.install(patches)
        problems = []
        tags = installed_tags(self.classes)
        if tracer is None and tags != {PROBE_TAG}:
            problems.append(f"untraced call has wrappers installed: {sorted(tags)}")
        gc.collect()
        sink = io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.sm.cli.main(argv)
        except SetupReached:
            pass
        except Exception:  # the verb crashed: count it as a failed operation
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        finally:
            run_s = time.perf_counter() - t0
            patches.undo()
            if tracer is not None:
                tracer.stop()
        setup_s = probe.setup_end - t0 if probe.setup_end is not None else None
        result = Call(run_s, setup_s, probe, problems=problems)
        if not setup_only:
            if rc not in (0, 4):
                problems.append(f"exit code {rc}: {sink.getvalue().strip()[-300:]}")
            if self.wl.verb == "train":
                self._check_train(out, result)
            else:
                self._check_gradcheck(out, result)
            if problems:
                result.failed = max(result.failed, 1)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check_train(self, out: Path, call: Call) -> None:
        log, ckpt = out / "train_log.csv", out / "checkpoint.bin"
        if not (log.is_file() and ckpt.is_file()):
            call.problems.append("train_log.csv or checkpoint.bin missing")
            return
        lines = log.read_text().splitlines()
        digest = lines[0].partition("config_digest=")[2]
        header = lines[1].split(",")
        row = dict(zip(header, (float(v) for v in lines[-1].split(","))))
        call.row = {k: row.get(k, math.nan) for k in ("l_all", "train_metric", "val_metric")}
        if len(lines) != 3 or not all(math.isfinite(v) for v in call.row.values()):
            call.problems.append(f"epoch row missing or not finite: {lines[1:]}")
        if not digest or digest.encode() not in ckpt.read_bytes()[:256]:
            call.problems.append("checkpoint digest does not match the log")
        call.problems += self._against_reference(call.row)
        call.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (log, ckpt)}

    def _against_reference(self, row: dict) -> list[str]:
        if not self.reference:
            return ["no reference for this workload"]
        ref = self.reference["seeds"].get(str(self.seed))
        if ref is None:
            lo, hi = self.reference["l_all_band"]
            ok = lo <= row["l_all"] <= hi and all(0.0 <= row[k] <= 1.0
                                                  for k in ("train_metric", "val_metric"))
            return [] if ok else [f"epoch row {row} outside the reference band"]
        bad = abs(row["l_all"] - ref["l_all"]) > L_ALL_RTOL * abs(ref["l_all"])
        bad |= any(abs(row[k] - ref[k]) > self.wl.metric_atol for k in ("train_metric", "val_metric"))
        return [f"epoch row {row} differs from reference {ref}"] if bad else []

    def _check_gradcheck(self, out: Path, call: Call) -> None:
        report = out / "gradcheck.txt"
        if not report.is_file():
            call.problems.append("gradcheck.txt missing")
            return
        lines = report.read_text().splitlines()
        rows = [line.split(",") for line in lines[lines.index("check,max_rel_error,status") + 1:]]
        call.attempted = len(rows)
        call.failed = sum(1 for r in rows if r[-1] != "ok")
        if call.failed:
            call.problems.append(f"{call.failed} checks failed")
        call.digests = {report.name: hashlib.sha256(report.read_bytes()).hexdigest()}


# -- metrics -----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else math.nan


def tail(values) -> str:
    """The median, and the highest percentile with at least ten samples beyond it."""
    if len(values) < 2:
        return ""
    text = f" p50 {median(values):.6g}"
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return text + f" p{p} {q:.6g}"
    return text


def end_to_end(wl: Workload, calls: list[Call], setups: list[Call]) -> tuple[dict, dict]:
    """Metric values, and the samples behind each.

    Neighbours on the shared host slow whole stretches of seconds by up to
    1.7x, in CPU time as in wall time, so medians move by 20-50 % between
    runs of the same code.  The slowdowns only add time, so the fastest of
    many short samples reads the program's own cost most steadily."""
    setup = [c.setup_s for c in calls + setups if c.setup_s is not None]
    if wl.verb == "train":
        steps = []
        for c in calls:
            bounds = [c.probe.setup_end] + c.probe.step_ends
            # Drop the first step (warm-up) and a partial last batch.
            times = [b - a for a, b in zip(bounds, bounds[1:])][1:]
            steps += times[:-1] if wl.partial_last else times
        evals = [e for c in calls for e in c.probe.evals]
    else:
        # gradcheck: a step, and an eval batch, is one evaluation of the
        # composed training objective, a no-grad pass of the toy model.
        steps = evals = [t for c in calls for name, t in c.probe.forwards
                         if name == "total_objective"]
    details = {
        "setup_s": setup,
        "step_ms_min": [1000.0 * t for t in steps],
        "eval_ms_min": [1000.0 * t for t in evals],
        "run_s": [c.run_s for c in calls],
    }
    values = {
        "setup_s": median(setup),
        "step_ms_min": min(details["step_ms_min"], default=math.nan),
        "eval_ms_min": min(details["eval_ms_min"], default=math.nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"details": details}


# -- runs --------------------------------------------------------------------


def more_calls(start: float, seconds: float, calls: list[Call], least: int) -> bool:
    """Call again unless that would end over half a call past the deadline."""
    if len(calls) < least:
        return True
    return time.perf_counter() - start + 0.5 * calls[-1].run_s < seconds


def untraced_run(runner: Runner, seconds: float):
    calls = []
    start = time.perf_counter()
    while more_calls(start, seconds, calls, runner.wl.min_calls):
        calls.append(runner.call())
        if calls[-1].problems and not calls[-1].digests:
            break
    setups = [runner.call(setup_only=True) for _ in range(max(0, SETUP_SAMPLES - len(calls)))]
    problems = determinism(calls)
    values, extra = end_to_end(runner.wl, calls, setups)
    if not all(extra["details"].values()):
        problems.append("no complete set-up, step or eval to time")
    return calls, problems, values, extra


def traced_run(runner: Runner, seconds: float):
    """Untraced and traced calls in turn, so both sides see the same warm-up
    and host load; the untraced calls give the reference artifact bytes."""
    start = time.perf_counter()
    tracer = Tracer(runner.sm)
    calls, plain, traced = [], [], []
    while more_calls(start, seconds, calls, 2):
        side = traced if len(calls) % 2 else plain
        calls.append(runner.call(tracer=tracer if side is traced else None))
        side.append(calls[-1])
    problems = determinism(calls)
    train = runner.wl.verb == "train"
    values = tracer.metrics(per_step=train, calls=len(traced))
    shares = tracer.attribution()
    values["trace.overhead_s"] = median([c.run_s for c in traced]) - median([c.run_s for c in plain])
    values["trace.step_coverage"] = shares["step_coverage"]
    values["trace.module_coverage"] = shares["module_coverage"]
    if train:
        if abs(shares["step_coverage"] - 1.0) > ATTRIBUTION_SHARE:
            problems.append(f"op + engine + data + optimizer time explain "
                            f"{shares['step_coverage']:.3f} of the traced step time")
        if shares["module_coverage"] < 1.0 - ATTRIBUTION_SHARE:
            problems.append(f"module groups hold {shares['module_coverage']:.3f} "
                            "of the model forward time")
    extra = {"traced_step_ms": shares["step_ms"], "untraced_run_s": [c.run_s for c in plain],
             "traced_run_s": [c.run_s for c in traced]}
    return calls, problems, values, extra


def determinism(calls: list[Call]) -> list[str]:
    """Every call of a run has the same config, so its artifacts must match."""
    first = next((c.digests for c in calls if c.digests), None)
    return [f"artifact bytes differ between calls: {c.digests} vs {first}"
            for c in calls if c.digests and c.digests != first]


def record_reference(seeds: int, scratch: Path) -> None:
    """Write reference.json: the epoch row of one call per seed and workload."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name, wl in WORKLOADS.items():
        if wl.verb != "train":
            continue
        rows = {}
        for seed in range(seeds):
            runner = Runner(name, seed, scratch)
            runner.reference = {}
            call = runner.call()
            if any(p != "no reference for this workload" for p in call.problems):
                raise SystemExit(f"{name} seed {seed}: {call.problems}")
            rows[str(seed)] = call.row
            print(name, seed, call.row, flush=True)
        losses = [r["l_all"] for r in rows.values()]
        pad = max(losses) - min(losses)
        data[name] = {"l_all_band": [min(losses) - pad, max(losses) + pad], "seeds": rows}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    parser.add_argument("--record-reference", type=int, metavar="SEEDS",
                        help="rewrite reference.json from seeds 0..SEEDS-1 and exit")
    args = parser.parse_args(argv)

    if not (SRC / "smanet" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no smanet sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload is None and args.record_reference is None:
        parser.error("--workload is required")
    threads = pin_blas_threads()
    os.environ.pop("SMANET_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference is not None:
            record_reference(args.record_reference, scratch)
            return 0
        return report(args, threads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(args, threads: int, scratch: Path) -> int:
    declared = declared_metrics(bool(args.trace))
    env = environment(threads, args.seed)
    runner = Runner(args.workload, args.seed, scratch)
    run = traced_run if args.trace else untraced_run
    calls, problems, values, extra = run(runner, args.seconds)

    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    for c in calls:
        problems += c.problems
    if problems and not failed:
        failed = 1
    missing = sorted(set(declared) - set(values))
    if missing:
        problems.append(f"metrics not produced: {missing}")
    metrics = {name: {"value": values.get(name, math.nan), "unit": unit}
               for name, unit in declared.items()}
    correct = not problems and all(math.isfinite(m["value"]) for m in metrics.values())

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    details = extra.get("details", {})
    for name, m in metrics.items():
        count = f"  n={len(details[name])}{tail(details[name])}" if name in details else ""
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}{count}")
    if "run_s" in details:
        run = details["run_s"]
        print(f"{'run_s (whole call, not a metric)':40s} {median(run):14.6g} s  n={len(run)}")
    print(f"fail_ratio {failed}/{attempted}")
    for p in problems:
        print(f"problem: {p}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace, "env": env,
                                        "correct": correct, "attempted": attempted,
                                        "failed": failed, "metrics": metrics, "extra": extra,
                                        "problems": problems}, indent=1) + "\n")
    complete = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"] if math.isfinite(v["value"]) else None,
                                      "unit": v["unit"]} for k, v in metrics.items()}}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
