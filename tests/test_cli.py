import argparse
import ast
import contextlib
import ctypes
import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import same_bits
from plans import synth_spec
from test_dependencies import op_functions
from smanet import checkpoint, cli, losses
from smanet import tensor as T
from smanet.attention import MultiChannelAttention, channel_masks
from smanet.backbone import SGD, lr_schedule
from smanet.checkpoint import load_checkpoint, save_checkpoint
from smanet.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_THRESHOLD, main
from smanet.config import (ABLATIONS, RunConfig, config_digest, load_config, loss_config,
                           np_dtype, to_text)
from smanet.errors import ConfigError, DataError, NumericError
from smanet.gradcheck import _objective as gradcheck_objective
from smanet.ppm import encode_color, encode_heatmap
from smanet.losses import objective
from smanet.train import TrainState, batch_tensor, build_split, build_splits, evaluate_model

TINY = [
    "--task", "au", "--profile", "toy", "--seed", "3",
    "--epochs", "2", "--batch-size", "8",
    "--n-train", "24", "--n-val", "8", "--n-subjects", "10",
    "--n-channels", "2", "--num-labels", "4",
]


def tiny_cfg(**over):
    base = dict(task="au", profile="toy", seed=3, epochs=2, batch_size=8,
                n_train=24, n_val=8, n_subjects=10, n_channels=2, num_labels=4)
    base.update(over)
    return RunConfig(**base).validate()


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


def read_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfigFile:
    def test_roundtrip_through_file(self, tmp_path):
        cfg = tiny_cfg(alpha=0.25, lam=0.05)
        path = tmp_path / "run.cfg"
        path.write_text(to_text(cfg))
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("schema_version = 1\nwarp_speed = 9\n")
        rc = main(["train", "--config", str(path)])
        assert rc == EXIT_CONFIG

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\n")
        rc = main(["train", "--config", str(path)])
        assert rc == EXIT_CONFIG

    def test_bad_enum_value(self, tmp_path, capsys):
        kernels = [[flag, k] for flag in ("--attn-kernel", "--mapping-kernel")
                   for k in ("-1", "4", "0")]
        for flags in (["--task", "speech"], ["--lr", "-1"], ["--lr", "0"], ["--momentum", "5"],
                      ["--momentum", "1"], ["--momentum", "-0.1"], ["--weight-decay", "-1"],
                      ["--seed", "x"], ["--augment", "maybe"], ["--lambda", "big"],
                      ["--alpha", "nan"], ["--lambda", "nan"], ["--alpha", "inf"], ["--lr", "inf"],
                      ["--weight-decay", "inf"], ["--seed", "-1"], ["--n-train", "0"],
                      ["--n-val", "0"], ["--resample-p", "1.5"], ["--resample-p", "-0.1"],
                      ["--resample-max-duplication", "0"], *kernels):
            rc = main(["train", *flags, "--output-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG, flags
            err = one_line_error(capsys)
            if flags == ["--seed", "-1"]:
                assert "seed must be >= 0" in err

    @pytest.mark.parametrize("case", ["repeated", "repeated_schema", "lam", "lam_after_lambda"])
    def test_each_key_once_in_its_one_spelling(self, tmp_path, capsys, case):
        # A repeated key, or `lam` for `lambda`, would silently override an
        # earlier line; both are refused with the line number.
        body, lineno = {
            "repeated": ("n_channels = 2\nn_channels = 3\n", 3),
            "repeated_schema": ("seed = 1\nschema_version = 1\n", 3),
            "lam": ("lam = 0.3\n", 2),
            "lam_after_lambda": ("lambda = 0.2\nlam = 0.3\n", 3),
        }[case]
        path = tmp_path / "run.cfg"
        path.write_text("schema_version = 1\n" + body)
        with pytest.raises(ConfigError, match=f"^line {lineno}: "):
            load_config(path)
        rc = main(["params", *TINY, "--config", str(path), "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_flags_override_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("schema_version = 1\nn_channels = 3\nlambda = 0.2\n")
        assert (load_config(path).n_channels, load_config(path).lam) == (3, 0.2)
        cfg = load_config(path, {"n_channels": "5", "lambda": "0.4"})
        assert (cfg.n_channels, cfg.lam) == (5, 0.4)
        with pytest.raises(ConfigError, match="unknown config key 'lam'"):
            load_config(path, {"lam": "0.4"})

    def test_every_verb_takes_checked(self):
        required = {"eval": ["--checkpoint", "c"], "sweep-n": ["--n-values", "1"],
                    "export-attention": ["--checkpoint", "c", "i.ppm"]}
        parser = cli.build_parser()
        for verb in ("synth", "train", "eval", "sweep-n", "gradcheck", "params", "export-attention"):
            assert parser.parse_args([verb, *required.get(verb, [])]).checked is False
            assert parser.parse_args([verb, "--checked", *required.get(verb, [])]).checked is True

    def test_command_line_errors_exit_2(self, tmp_path, capsys):
        for argv in (["train", "--warp-speed", "9"], ["eval", *TINY],
                     ["eval", "--checkpoint", "x", "--folds", "two"], ["bogus"], []):
            assert main(argv) == EXIT_CONFIG, argv
            one_line_error(capsys)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0

    def test_rejects_bad_delta(self, tmp_path):
        for delta in ("1.0", "-0.1"):
            rc = main(["train", *TINY, "--delta", delta, "--output-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG, delta

    def test_flags_parse_like_file_lines(self, tmp_path):
        def digest(*flags, config=None):
            out = tmp_path / "o"
            extra = ["--config", str(config)] if config else []
            assert main(["params", *TINY, *flags, *extra, "--output-dir", str(out)]) == EXIT_OK
            return (out / "params.txt").read_text().splitlines()[0]

        path = tmp_path / "yes.cfg"
        path.write_text("schema_version = 1\naugment = yes\n")
        assert digest("--augment", "yes") == digest("--augment", "true") == digest(config=path)
        assert digest("--augment", "no") != digest("--augment", "true")

    @pytest.mark.parametrize("case", ["directory", "missing", "schema"])
    def test_unreadable_config_file(self, tmp_path, capsys, case):
        path = tmp_path / "run.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "schema":
            path.write_text("schema_version = x\n")
        rc = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        one_line_error(capsys)

    def test_env_var_overrides_output_dir_only(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("SMANET_OUTPUT_DIR", str(env_dir))
        rc = main(["synth", *TINY, "--output-dir", str(tmp_path / "ignored")])
        assert rc == EXIT_OK
        assert (env_dir / "train" / "manifest.tsv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_digest_ignores_output_dir(self):
        a = tiny_cfg(output_dir="runs/a")
        b = tiny_cfg(output_dir="runs/b")
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(tiny_cfg(seed=4))


class TestSharedParser:
    """`main` builds the parser on its first call and shares it for the
    rest of the process; no call may leave state behind for the next."""

    def test_built_once(self, tmp_path, monkeypatch):
        added, add_argument = [], argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        added.clear()
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "b")]) == EXIT_OK
        assert added == []

    def test_first_main_call_builds_it(self, tmp_path):
        # In a fresh process: the import builds no parser, the first call
        # builds it and the second builds none.
        script = (
            "import argparse, sys\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from smanet.cli import main\n"
            "counts = [len(built)]\n"
            "for out in sys.argv[1:]:\n"
            f"    assert main(['params', *{TINY!r}, '--output-dir', out]) == 0\n"
            "    counts.append(len(built))\n"
            "print(counts, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a"),
                               str(tmp_path / "b")],
                              env=env, capture_output=True, text=True, check=True)
        import_count, first, second = ast.literal_eval(done.stderr)
        assert import_count == 0 and first > 0 and second == first

    def test_checked_does_not_leak_into_the_next_call(self, tmp_path, monkeypatch):
        seen, trapping = [], []
        config_from_args, make_out_dir = cli._config_from_args, cli.make_out_dir
        monkeypatch.setattr(cli, "_config_from_args",
                            lambda args: seen.append(args.checked) or config_from_args(args))
        monkeypatch.setattr(cli, "make_out_dir",
                            lambda d: trapping.append(T.checked_enabled()) or make_out_dir(d))
        assert main(["params", *TINY, "--checked", "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        assert not T.checked_enabled()
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "b")]) == EXIT_OK
        assert seen == [True, False] and trapping == [True, False]

    def test_env_output_dir_read_on_each_call(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SMANET_OUTPUT_DIR", raising=False)
        argv = ["params", *TINY, "--output-dir", str(tmp_path / "flag")]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "flag" / "params.txt").exists()
        monkeypatch.setenv("SMANET_OUTPUT_DIR", str(tmp_path / "env"))
        (tmp_path / "flag" / "params.txt").unlink()
        assert main(argv) == EXIT_OK
        assert (tmp_path / "env" / "params.txt").exists()
        assert not (tmp_path / "flag" / "params.txt").exists()

    def test_rejection_then_valid_call(self, tmp_path, capsys):
        for argv in (["train", "--warp-speed", "9"], ["eval", "--checkpoint", "x", "--folds", "two"],
                     ["eval", *TINY]):
            assert main(argv) == EXIT_CONFIG, argv
            one_line_error(capsys)
            assert main(["params", *TINY, "--output-dir", str(tmp_path)]) == EXIT_OK

    # sha256 of each `--help` text at COLUMNS=100, recorded (Python 3.11
    # argparse) while every verb still added its shared options itself.
    HELP_SHA256 = {
        (): "04d7da4f64f480a93af2a4ff6cd81cefe77893cc966c5e552947ef1e4c67072d",
        ("synth",): "69c13b04c7a29e1301a566701336705b5ef4215cebfb4d69e78d2292fdc1ac5e",
        ("train",): "c94d3b066a845db31539a6ffb25e324affe6f17a2d5742615ec0162963799cbe",
        ("eval",): "54aa3943f320e96632a1ea99cbe6d42c0da1be8316c73eb477819f7c554c6a21",
        ("sweep-n",): "e0a76e927691e491fd1299b375cd7da9904fef716f8314d57baf84c26713fb33",
        ("gradcheck",): "ab4af4d1b47a6f6fe7959de59c202bf0f71eea606f36d5a1a4ee1cf44400e596",
        ("params",): "2ee190d115ff58acff3525b3b263d6911c84e0dfbfa17b76bbe5821c82f500e3",
        ("export-attention",): "132cd78b90a114612d39bae4ba9de817ecbe0ef48fc23cd94add6e4f41404436",
    }

    def test_help_text_unchanged(self, capsys, monkeypatch):
        # Every `--help` after the first is served by the cached parser.
        monkeypatch.setenv("COLUMNS", "100")
        got = {}
        for verb in self.HELP_SHA256:
            with pytest.raises(SystemExit) as exc:
                main([*verb, "--help"])
            assert exc.value.code == 0
            got[verb] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == self.HELP_SHA256


def has_glibc() -> bool:
    try:
        return sys.platform == "linux" and bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# glibc's ceiling for its mmap threshold: 32 MiB on 64-bit.
MMAP_CEILING = (4 << 20) * ctypes.sizeof(ctypes.c_long)


class FakeLibc:
    """A C library whose mallopt records its calls and answers `result`."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):  # a function, so it takes argtypes
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


class TestHeapTop:
    """The first `main` call keeps the freed heap top mapped (glibc only),
    once per process; where that cannot be done, nothing else changes."""

    @pytest.fixture(autouse=True)
    def unset(self):
        # Each test sees a process whose first `main` call is still ahead,
        # and leaves one behind whose next call sets the real allocator.
        cli.keep_heap_top.cache_clear()
        yield
        cli.keep_heap_top.cache_clear()

    @pytest.mark.skipif(not has_glibc(), reason="glibc's allocator only")
    def test_training_steps_fault_in_no_heap(self):
        """Ten toy float32 batch-2 steps in this process: the last five
        fault in at most 50 pages each (median).  With glibc's default
        trim of the heap top they faulted in 400 to 1,400."""
        cli.keep_heap_top()
        cfg = RunConfig(task="au", profile="toy", seed=7, epochs=1, batch_size=2, n_train=8,
                        n_val=8, n_subjects=10, n_channels=7, dtype="float32").validate()
        train = build_split(cfg, "train")
        state = TrainState(cfg)
        opt = SGD([p for _, p in state.named_parameters()], cfg.momentum, cfg.weight_decay)
        lcfg = loss_config(cfg, losses.compute_pos_weights(train.labels))
        heads = list(state.heads)
        faults = []
        for _ in range(10):
            before = minor_faults()
            logits, inters = state.model(batch_tensor(train.images[:2], np.float32))
            objective(logits, inters, train.labels[:2], heads, lcfg)[3].backward()
            opt.step(0.01)
            opt.zero_grad()
            del logits, inters
            faults.append(minor_faults() - before)
        assert statistics.median(faults[5:]) <= 50, faults

    @pytest.mark.skipif(not has_glibc(), reason="glibc's allocator only")
    def test_batch16_activations_stay_on_the_heap(self):
        """Setting the pad freezes glibc's mmap threshold, and in a fresh
        process it stands at 1 to 2 MiB, below a toy batch-16 activation
        ([16, 8, 64, 64] float32, 2 MiB).  With the threshold pinned at
        32 MiB, a 2 MiB array made and freed again faults in nothing; with
        the pad alone each one was a fresh mmap of 513 pages."""
        script = (
            "import resource, numpy as np\n"
            "from smanet.cli import keep_heap_top\n"
            "keep_heap_top()\n"
            "faults = []\n"
            "for _ in range(6):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    np.ones(1 << 18)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(faults)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        faults = ast.literal_eval(done.stdout)
        assert max(faults[2:]) <= 50, faults

    @pytest.mark.skipif(not has_glibc(), reason="glibc's allocator only")
    def test_set_on_the_first_main_call_only(self, tmp_path, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        first = list(libc.calls)
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "b")]) == EXIT_OK
        assert libc.calls == first == [(cli._M_MMAP_THRESHOLD, MMAP_CEILING),
                                       (cli._M_TOP_PAD, 64 << 20)]

    @pytest.mark.parametrize("missing", ["glibc", "library", "mallopt", "call"])
    def test_runs_unchanged_without_it(self, tmp_path, monkeypatch, capsys, missing):
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "a")]) == EXIT_OK
        expected = capsys.readouterr()
        cli.keep_heap_top.cache_clear()

        def refuse(*args):
            raise {"glibc": ValueError, "library": OSError}[missing]("unavailable")

        libc = object() if missing == "mallopt" else FakeLibc(result=0)
        if missing == "glibc":
            monkeypatch.setattr(cli.os, "confstr", refuse)
        elif missing == "library":
            monkeypatch.setattr(cli.ctypes, "CDLL", refuse)
        else:
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert main(["params", *TINY, "--output-dir", str(tmp_path / "b")]) == EXIT_OK
        assert capsys.readouterr() == expected
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
        if missing == "call" and has_glibc():
            # A refused threshold sets no pad: alone it would freeze the
            # threshold where it stands.
            assert libc.calls == [(cli._M_MMAP_THRESHOLD, MMAP_CEILING)]


@contextlib.contextmanager
def ufunc_buffer(size):
    before = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(before)


def one_tiny_step(dtype) -> list[np.ndarray]:
    """l_all, every SGD gradient entry and the eval logits after the
    update, of one TINY training step on two images."""
    cfg = tiny_cfg(dtype=dtype)
    train, val = build_splits(cfg)
    state = TrainState(cfg)
    opt = SGD([p for _, p in state.named_parameters()], cfg.momentum, cfg.weight_decay)
    lcfg = loss_config(cfg, losses.compute_pos_weights(train.labels))
    logits, inters = state.model(batch_tensor(train.images[:2], np_dtype(cfg)))
    l_all = objective(logits, inters, train.labels[:2], list(state.heads), lcfg)[-1]
    l_all.backward()
    grad = opt.grad.copy()
    opt.step(0.01)
    return [l_all.data, grad, evaluate_model(state, val, cfg)["logits"]]


class TestUfuncBuffer:
    """Each verb runs at a 1,024-element ufunc buffer (`cli.UFUNC_BUFSIZE`),
    and no number depends on the buffer's size."""

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "error_exit"])
    def test_verb_runs_at_it_and_the_callers_size_comes_back(self, tmp_path, monkeypatch, fail):
        seen, count = [], cli.backbone_param_count

        def recorded(bcfg):
            seen.append(np.getbufsize())
            if fail:
                raise ConfigError("refused")
            return count(bcfg)

        monkeypatch.setattr(cli, "backbone_param_count", recorded)
        with ufunc_buffer(4096):  # the caller's own size, not numpy's default
            rc = main(["params", *TINY, "--output-dir", str(tmp_path)])
            after = np.getbufsize()
        assert rc == (EXIT_CONFIG if fail else EXIT_OK)
        assert seen == [1024] * (1 if fail else 2)
        assert after == 4096

    def test_no_number_depends_on_its_size(self):
        """At numpy's default 8,192, at 1,024 and at 16 elements.  The
        elementwise loops compute each element on its own, and every float
        reduction reads a contiguous same-dtype array, which numpy never
        buffers; a reduction over a strided view would fail here."""
        runs = []
        for size in (8192, 1024, 16):
            with ufunc_buffer(size):
                values = one_tiny_step("float32") + one_tiny_step("float64")
                forward, _ = gradcheck_objective(0, np.random.default_rng(50))
                with T.no_grad():
                    values.append(forward().data)
            runs.append(values)
        for values in runs[1:]:
            assert len(values) == len(runs[0]) == 7
            assert all(same_bits(got, want) for got, want in zip(values, runs[0]))


@pytest.mark.parametrize("verb", ["synth", "train", "gradcheck", "sweep-n"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_output_dir_that_is_a_file_refused(tmp_path, capsys, verb, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x" if under else blocker
    extra = ["--n-values", "1"] if verb == "sweep-n" else []
    rc = main([verb, *TINY, *extra, "--output-dir", str(out)])
    assert rc == EXIT_CONFIG
    assert str(out) in one_line_error(capsys)


@pytest.mark.parametrize("case", ["synth", "eval", "export-attention", "train",
                                  "sweep-n-0", "sweep-n-1,0", "sweep-n-2,2", "sweep-n-2,02"])
def test_refused_call_leaves_no_output_dir(tmp_path, capsys, case):
    # Inputs are checked before --output-dir is created: synth refuses a
    # data_dir, eval a missing checkpoint, export-attention a missing image,
    # train a bad manifest, and sweep-n a channel count of 0, also one that
    # follows a good count, and a repeated count, also one spelt twice.
    absent = tmp_path / "absent"
    cfg = tiny_cfg()
    ckpt = tmp_path / "m.bin"
    save_checkpoint(ckpt, config_digest(cfg), TrainState(cfg).state_arrays())
    bad = tmp_path / "bad"
    (bad / "train").mkdir(parents=True)
    (bad / "train" / "manifest.tsv").write_text("only-one-field\n")
    verb, *argv = {
        "synth": ["synth", "--data-dir", str(tmp_path)],
        "eval": ["eval", "--checkpoint", str(absent)],
        "export-attention": ["export-attention", "--checkpoint", str(ckpt), str(absent)],
        "train": ["train", "--data-dir", str(bad)],
        "sweep-n-0": ["sweep-n", "--n-values", "0"],
        "sweep-n-1,0": ["sweep-n", "--n-values", "1,0"],
        "sweep-n-2,2": ["sweep-n", "--n-values", "2,2"],
        "sweep-n-2,02": ["sweep-n", "--n-values", "2,02"],
    }[case]
    out = tmp_path / "new"
    assert main([verb, *TINY, *argv, "--output-dir", str(out)]) == EXIT_CONFIG
    one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("verb, artifact", [("train", "train_log.csv"),
                                            ("train", "checkpoint.bin"),
                                            ("gradcheck", "gradcheck.txt"),
                                            ("synth", "train/manifest.tsv")])
def test_artifact_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, verb, artifact):
    # A directory where the verb writes an artifact: one line naming it.
    (tmp_path / artifact).mkdir(parents=True)
    suite = cli.build_suite
    monkeypatch.setattr(cli, "build_suite", lambda seed: [c for c in suite(seed) if c[0] == "add"])
    assert main([verb, *TINY, "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert str(tmp_path / artifact) in one_line_error(capsys)
    assert not list(tmp_path.rglob("*.tmp"))


class TestSynth:
    def test_writes_manifest_and_images(self, tmp_path):
        rc = main(["synth", *TINY, "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest = (tmp_path / "train" / "manifest.tsv").read_text()
        assert manifest.startswith("# config_digest=")
        assert len([l for l in manifest.splitlines() if not l.startswith("#")]) == 24

    def test_rerun_is_byte_identical(self, tmp_path):
        main(["synth", *TINY, "--output-dir", str(tmp_path)])
        first = read_tree(tmp_path)
        main(["synth", *TINY, "--output-dir", str(tmp_path)])
        assert read_tree(tmp_path) == first


class TestTrain:
    @pytest.mark.parametrize("case", ["label_count", "subject", "not_utf8", "directory",
                                      "wrong_size", "grayscale"])
    def test_bad_dataset_ends_in_config_error(self, tmp_path, capsys, case):
        main(["synth", *TINY, "--num-labels", "3", "--output-dir", str(tmp_path / "data")])
        flags = ["--num-labels", "12"]
        manifest = tmp_path / "data" / "train" / "manifest.tsv"
        if case in ("wrong_size", "grayscale"):
            image = manifest.parent / manifest.read_text().splitlines()[3].split("\t")[0]
            image.write_bytes(encode_color(np.zeros((32, 32, 3), np.uint8))
                              if case == "wrong_size" else encode_heatmap(np.zeros((64, 64))))
            flags = ["--num-labels", "3"]
        elif case == "subject":
            lines = manifest.read_text().splitlines()
            rel, lab, _ = lines[3].split("\t")
            lines[3] = "\t".join((rel, lab, "x7"))
            manifest.write_text("\n".join(lines) + "\n")
            flags = ["--num-labels", "3"]
        elif case == "not_utf8":
            manifest.write_bytes(manifest.read_bytes() + b"images/\xff.ppm\t1,0,0\t1\n")
            flags = ["--num-labels", "3"]
        elif case == "directory":
            manifest.unlink()
            manifest.mkdir()
            flags = ["--num-labels", "3"]
        capsys.readouterr()
        rc = main(["train", *TINY, *flags, "--data-dir", str(tmp_path / "data"),
                   "--output-dir", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "manifest.tsv:" in err

    def test_validation_needs_its_own_subjects(self, tmp_path, capsys):
        rc = main(["train", *TINY, "--epochs", "1", "--n-subjects", "4",
                   "--output-dir", str(tmp_path / "four")])
        assert rc == EXIT_CONFIG
        assert "n_subjects" in one_line_error(capsys)
        rc = main(["train", *TINY, "--epochs", "1", "--n-subjects", "5",
                   "--output-dir", str(tmp_path / "five")])
        assert rc == EXIT_OK

    def test_unknown_placement_refused(self, tmp_path, capsys):
        rc = main(["train", *TINY, "--sma-placement", "everywhere",
                   "--output-dir", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "everywhere" in one_line_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_writes_log_and_checkpoint(self, tmp_path):
        rc = main(["train", *TINY, "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        log = (tmp_path / "train_log.csv").read_text()
        lines = log.splitlines()
        assert lines[0] == f"# config_digest={config_digest(tiny_cfg(output_dir=str(tmp_path)))}"
        assert lines[1] == "epoch,lr,l_cla,l_div,l_ma,l_all,train_metric,val_metric"
        assert len(lines) == 2 + 2
        digest, arrays = load_checkpoint(tmp_path / "checkpoint.bin")
        assert digest == config_digest(tiny_cfg())
        assert any(k.startswith("model.") for k in arrays)

    def test_rerun_byte_identical(self, tmp_path):
        main(["train", *TINY, "--output-dir", str(tmp_path)])
        first = read_tree(tmp_path)
        main(["train", *TINY, "--output-dir", str(tmp_path)])
        assert read_tree(tmp_path) == first

    def test_synth_output_trains_like_the_generated_data(self, tmp_path):
        # Only the digest line differs: the data's bytes are part of the
        # config digest.
        main(["synth", *TINY, "--output-dir", str(tmp_path / "data")])
        runs = tmp_path / "memory", tmp_path / "disk"
        assert main(["train", *TINY, "--output-dir", str(runs[0])]) == EXIT_OK
        assert main(["train", *TINY, "--data-dir", str(tmp_path / "data"),
                     "--output-dir", str(runs[1])]) == EXIT_OK
        rows = [[l for l in (r / "train_log.csv").read_text().splitlines()
                 if not l.startswith("#")] for r in runs]
        assert rows[0] == rows[1] and len(rows[0]) == 1 + 2
        (_, memory), (_, disk) = (load_checkpoint(r / "checkpoint.bin") for r in runs)
        assert list(memory) == list(disk)
        for k in memory:
            assert memory[k].shape == disk[k].shape and np.array_equal(memory[k], disk[k]), k

    def test_alpha_zero_matches_detached_twin(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["train", *TINY, "--ablation", "full", "--alpha", "0",
              "--output-dir", str(a_dir)])
        main(["train", *TINY, "--ablation", "f2a_aaa_lma",
              "--output-dir", str(b_dir)])
        _, arrays_a = load_checkpoint(a_dir / "checkpoint.bin")
        _, arrays_b = load_checkpoint(b_dir / "checkpoint.bin")
        assert arrays_a.keys() == arrays_b.keys()
        for k in arrays_a:
            assert np.array_equal(arrays_a[k], arrays_b[k]), k
        rows = lambda p: [l for l in (p / "train_log.csv").read_text().splitlines()
                          if not l.startswith("#")]
        assert rows(a_dir) == rows(b_dir)

    def test_nonfinite_loss_aborts_with_numeric_code(self, tmp_path, capsys):
        rc = main(["train", *TINY, "--lr", "1e9", "--output-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert "non-finite loss" in one_line_error(capsys)

    def test_nonfinite_second_epoch_keeps_the_first_epochs_row(self, tmp_path, capsys,
                                                                monkeypatch, tiny_run):
        # A NaN learning rate in epoch 1 makes its second step's loss NaN.
        monkeypatch.setattr("smanet.train.lr_schedule", lambda epoch, task, base:
                            float("nan") if epoch == 1 else lr_schedule(epoch, task, base=base))
        assert main(["train", *TINY, "--output-dir", str(tmp_path)]) == EXIT_NUMERIC
        assert "non-finite loss" in one_line_error(capsys)
        full = (tiny_run / "train_log.csv").read_text().splitlines()
        assert (tmp_path / "train_log.csv").read_text().splitlines() == full[:3]
        assert not list(tmp_path.glob("*.tmp"))

    def test_checked_run_writes_the_same_bytes(self, tmp_path):
        main(["train", *TINY, "--output-dir", str(tmp_path / "plain")])
        assert main(["train", *TINY, "--checked", "--output-dir", str(tmp_path / "checked")]) == EXIT_OK
        assert not T.checked_enabled()
        for name in ("train_log.csv", "checkpoint.bin"):
            assert (tmp_path / "checked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_checked_traps_the_first_nonfinite_op_output(self, tmp_path, capsys):
        # Without --checked this run ends at the non-finite loss instead.
        rc = main(["train", *TINY, "--lr", "1e9", "--checked", "--output-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert "checked mode" in one_line_error(capsys)
        assert not T.checked_enabled()

    def test_baseline_checkpoint_has_no_attention_records(self, tmp_path):
        main(["train", *TINY, "--ablation", "baseline", "--output-dir", str(tmp_path)])
        _, arrays = load_checkpoint(tmp_path / "checkpoint.bin")
        assert not any("attention" in k for k in arrays)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory) -> Path:
    """One TINY training run, shared: tests read it and write elsewhere."""
    train_dir = tmp_path_factory.mktemp("tiny_run")
    assert main(["train", *TINY, "--output-dir", str(train_dir)]) == EXIT_OK
    return train_dir


class TestTrainBytes:
    # sha256 of the TINY train_log.csv and checkpoint.bin.  The checkpoint
    # was re-recorded when the backward began to run nodes in decreasing
    # depth: a fan-in node now adds its incoming gradients in depth order,
    # which moves the weights by rounding only.  The log's printed losses
    # kept their bytes.  It was re-recorded again at checkpoint version 2,
    # which holds each block's bypass heads as one weight and one bias
    # record: the records were regrouped, and every value stayed the same.
    TINY_TRAIN_SHA256 = {
        "train_log.csv": "b391e536727977f41ed8380cfd158230d58ce5ac7868e78d9cf541cd9bf01033",
        "checkpoint.bin": "aaf8e0329ab8d12f640ae06acaf5df4544a953b27420659d07e7b3ac5c667320",
    }

    def test_artifacts_match_the_recorded_bytes(self, tiny_run):
        got = {name: hashlib.sha256((tiny_run / name).read_bytes()).hexdigest()
               for name in self.TINY_TRAIN_SHA256}
        assert got == self.TINY_TRAIN_SHA256

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blas_thread_count_changes_no_byte(self, tmp_path, threads):
        # OpenBLAS reads its thread count when it loads: a fresh process each.
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("SMANET_OUTPUT_DIR", None)
        subprocess.run([sys.executable, "-m", "smanet.cli", "train", *TINY,
                        "--output-dir", str(tmp_path)], env=env, capture_output=True, check=True)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.TINY_TRAIN_SHA256}
        assert got == self.TINY_TRAIN_SHA256


@pytest.fixture(scope="module")
def synth_tiny_run(tmp_path_factory) -> Path:
    """TINY data written by `synth` under data/, and one TINY run trained
    on it under run/, shared: tests read them and write elsewhere."""
    root = tmp_path_factory.mktemp("synth_tiny_run")
    assert main(["synth", *TINY, "--output-dir", str(root / "data")]) == EXIT_OK
    assert main(["train", *TINY, "--data-dir", str(root / "data"),
                 "--output-dir", str(root / "run")]) == EXIT_OK
    return root


class TestDataDigest:
    """A data_dir enters the config digest as what it holds: the bytes of
    its manifests and of the images they list, not its path."""

    def eval_copy(self, synth_tiny_run, tmp_path) -> tuple[Path, list]:
        """A copy of the run's data, and the eval command line on it."""
        copy = tmp_path / "copy"
        shutil.copytree(synth_tiny_run / "data", copy)
        return copy, ["eval", *TINY, "--data-dir", str(copy), "--checkpoint",
                      str(synth_tiny_run / "run" / "checkpoint.bin"),
                      "--output-dir", str(tmp_path / "eval")]

    def test_a_copy_of_the_data_evaluates_the_checkpoint(self, synth_tiny_run, tmp_path):
        copy, argv = self.eval_copy(synth_tiny_run, tmp_path)
        digest = config_digest(tiny_cfg(data_dir=str(copy)))
        assert digest == config_digest(tiny_cfg(data_dir=str(synth_tiny_run / "data")))
        log = (synth_tiny_run / "run" / "train_log.csv").read_text()
        assert log.splitlines()[0] == f"# config_digest={digest}"
        assert main(argv) == EXIT_OK
        assert (tmp_path / "eval" / "eval_report.csv").read_text().startswith(
            f"# config_digest={digest}\n")

    def test_a_label_rewritten_in_place_refuses_the_checkpoint(self, synth_tiny_run, tmp_path,
                                                               capsys):
        copy, argv = self.eval_copy(synth_tiny_run, tmp_path)
        assert main(argv) == EXIT_OK
        manifest = copy / "val" / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        rel, lab, subject = lines[1].split("\t")
        lines[1] = "\t".join((rel, ("1" if lab[0] == "0" else "0") + lab[1:], subject))
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert "does not match config" in one_line_error(capsys)


class TestEval:
    def test_matches_training_validation_exactly(self, tmp_path, tiny_run):
        log_rows = [l for l in (tiny_run / "train_log.csv").read_text().splitlines()[2:]]
        best_val = max(float(r.split(",")[-1]) for r in log_rows)
        eval_dir = tmp_path / "eval"
        rc = main(["eval", *TINY, "--checkpoint", str(tiny_run / "checkpoint.bin"),
                   "--output-dir", str(eval_dir)])
        assert rc == EXIT_OK
        report = (eval_dir / "eval_report.csv").read_text()
        macro = float(report.splitlines()[-1].split(",")[-1])
        assert macro == pytest.approx(best_val, abs=5e-7)

    # sha256 of the TINY eval_report.csv, recorded while eval still built
    # the training split too: building the validation split alone must
    # leave the report as it was.
    TINY_REPORT_SHA256 = "7456bed6cf187bae509e48c6e61b07912c6053e47a3375b485373560c8766090"

    def test_builds_only_the_validation_split(self, tmp_path, monkeypatch, tiny_run):
        from smanet import train
        calls, generate = [], train.generate_synthetic

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return generate(*args, **kwargs)

        monkeypatch.setattr(train, "generate_synthetic", counted)
        eval_dir = tmp_path / "eval"
        rc = main(["eval", *TINY, "--checkpoint", str(tiny_run / "checkpoint.bin"),
                   "--output-dir", str(eval_dir)])
        assert rc == EXIT_OK
        cfg = tiny_cfg()
        assert calls == [(cfg.seed * 2 + train.STREAM_DATA_VAL, cfg.n_val)]
        report = (eval_dir / "eval_report.csv").read_bytes()
        assert hashlib.sha256(report).hexdigest() == self.TINY_REPORT_SHA256

    def test_eval_peak_memory_does_not_grow_with_batches(self):
        """Each batch's features and maps are freed before the next
        forward: only the logits are kept."""
        cfg = tiny_cfg()
        state = TrainState(cfg)
        val = build_split(cfg, "val")
        four = val.take(np.arange(4 * cfg.batch_size) % len(val))

        def peak(data) -> int:
            tracemalloc.start()
            try:
                evaluate_model(state, data, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        evaluate_model(state, val, cfg)  # warm-up
        one_batch, four_batches = peak(val), peak(four)
        assert four_batches <= 1.25 * one_batch, (one_batch, four_batches)

    def test_digest_mismatch_refused(self, tmp_path, tiny_run):
        rc = main(["eval", *TINY, "--seed", "99",
                   "--checkpoint", str(tiny_run / "checkpoint.bin"),
                   "--output-dir", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("damage", ["drop", "reshape", "extra"])
    def test_damaged_checkpoint_record_refused(self, tmp_path, capsys, damage):
        cfg = tiny_cfg()
        arrays = dict(TrainState(cfg).state_arrays())
        name = next(k for k in arrays if "attention" in k)
        if damage == "drop":
            del arrays[name]
        elif damage == "reshape":
            arrays[name] = arrays[name].reshape(-1)[:-1]
        else:  # a record the model does not have
            name = "bogus.record"
            arrays[name] = np.zeros(3)
        ckpt = tmp_path / "damaged.bin"
        save_checkpoint(ckpt, config_digest(cfg), arrays.items())
        rc = main(["eval", *TINY, "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_checkpoint_record_refused(self, tmp_path, capsys, value):
        cfg = tiny_cfg()
        arrays = dict(TrainState(cfg).state_arrays())
        name = next(k for k in arrays if k.endswith("weight"))
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
        ckpt = tmp_path / "nonfinite.bin"
        save_checkpoint(ckpt, config_digest(cfg), arrays.items())
        rc = main(["eval", *TINY, "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG
        assert name in one_line_error(capsys)

    @pytest.mark.parametrize("field,byte", [("digest", 0xFF), ("name", 0xFF), ("ndim", 200)])
    def test_damaged_checkpoint_bytes_refused(self, tmp_path, capsys, field, byte):
        cfg = tiny_cfg()
        digest = config_digest(cfg)
        ckpt = tmp_path / "flipped.bin"
        save_checkpoint(ckpt, digest, TrainState(cfg).state_arrays())
        blob = bytearray(ckpt.read_bytes())
        digest_at = 10                               # magic, version, digest length
        name_at = digest_at + len(digest) + 4 + 2    # record count, name length
        nlen = int.from_bytes(blob[name_at - 2 : name_at], "little")
        blob[{"digest": digest_at, "name": name_at, "ndim": name_at + nlen}[field]] = byte
        ckpt.write_bytes(bytes(blob))
        rc = main(["eval", *TINY, "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG
        assert str(ckpt) in one_line_error(capsys)

    def test_record_with_too_many_dims_refused(self, tmp_path):
        ckpt = tmp_path / "deep.bin"
        save_checkpoint(ckpt, "d", [("w", np.zeros(1))])
        blob = ckpt.read_bytes()   # ends in: ndim byte 1, dim 1, one float64
        ckpt.write_bytes(blob[:-13] + bytes([65]) + (1).to_bytes(4, "little") * 65 + blob[-8:])
        with pytest.raises(DataError, match="65 dims"):
            load_checkpoint(ckpt)

    def test_version_1_checkpoint_refused(self, tmp_path, capsys, monkeypatch):
        # Version 1 held one weight and one bias record per bypass head.
        cfg = tiny_cfg()
        arrays = []
        for name, arr in TrainState(cfg).state_arrays():
            if not name.startswith("heads."):
                arrays.append((name, arr))
                continue
            block, kind = name.split(".")[1:]
            for n, head in enumerate(np.split(arr, cfg.n_channels)):
                arrays.append((f"heads.{block}.{n}.{kind}", head))
        ckpt = tmp_path / "v1.bin"
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "VERSION", 1)
            save_checkpoint(ckpt, config_digest(cfg), arrays)
        rc = main(["eval", *TINY, "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG
        assert "checkpoint version 1" in one_line_error(capsys)

    def test_missing_checkpoint_refused(self, tmp_path, capsys):
        ckpt = tmp_path / "absent.bin"
        rc = main(["eval", *TINY, "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG
        assert str(ckpt) in one_line_error(capsys)

    def test_fold_mode_emits_per_fold_and_mean(self, tmp_path, tiny_run):
        eval_dir = tmp_path / "folds"
        rc = main(["eval", *TINY, "--checkpoint", str(tiny_run / "checkpoint.bin"),
                   "--folds", "2", "--output-dir", str(eval_dir)])
        assert rc == EXIT_OK
        lines = (eval_dir / "eval_report.csv").read_text().splitlines()
        assert lines[1] == "fold,metric"
        assert [l.split(",")[0] for l in lines[2:]] == ["fold_0", "fold_1", "mean"]

    def test_fer_eval_writes_confusion(self, tmp_path):
        args = ["--task", "fer", "--profile", "toy", "--seed", "5", "--epochs", "1",
                "--batch-size", "8", "--n-train", "16", "--n-val", "8",
                "--n-subjects", "10", "--n-channels", "2", "--num-classes", "3"]
        train_dir = tmp_path / "run"
        main(["train", *args, "--output-dir", str(train_dir)])
        eval_dir = tmp_path / "eval"
        rc = main(["eval", *args, "--checkpoint", str(train_dir / "checkpoint.bin"),
                   "--output-dir", str(eval_dir)])
        assert rc == EXIT_OK
        assert (eval_dir / "confusion.txt").exists()
        grid = np.array([[int(v) for v in row.split()] for row in
                         (eval_dir / "confusion.txt").read_text().splitlines()])
        assert grid.shape == (3, 3) and grid.sum() == 8


def record_sigmoid_inputs(monkeypatch) -> list:
    """The input shape of every `tensor.sigmoid` call from now on."""
    shapes, sigmoid = [], T.sigmoid
    monkeypatch.setattr(T, "sigmoid", lambda a: shapes.append(a.shape) or sigmoid(a))
    return shapes


def record_loss_masks(monkeypatch) -> list:
    """The masks read by every L_div and L_ma term from now on."""
    seen, div, bypass = [], losses.diversity_loss, losses.bypass_logits
    monkeypatch.setattr(losses, "diversity_loss", lambda m, d: seen.append(m) or div(m, d))
    monkeypatch.setattr(losses, "bypass_logits",
                        lambda f, m, w, b: seen.append(m) or bypass(f, m, w, b))
    return seen


def tiny_step(cfg, state):
    """A recorded forward of two training images: (logits, inters, labels)."""
    train = build_splits(cfg)[0]
    return (*state.model(batch_tensor(train.images[:2], np.float32)), train.labels[:2])


def au_loss(cfg, labels):
    """The objective's settings of an au run on `labels`."""
    return loss_config(cfg, losses.compute_pos_weights(labels))


class TestMaskSigmoids:
    """The N channel masks feed only the losses (and the combine_on=masks
    fusion), so each is built once per block, and only where it is read."""

    def test_eval_runs_only_the_fused_map_sigmoid(self, monkeypatch):
        cfg = tiny_cfg()
        state = TrainState(cfg)
        val = build_splits(cfg)[1]
        shapes = record_sigmoid_inputs(monkeypatch)
        evaluate_model(state, val, cfg)
        batches = -(-len(val) // cfg.batch_size)
        assert len(state.model.blocks) == 8 and batches == 1
        assert len(shapes) == 8 * batches
        assert all(shape[1] == 1 for shape in shapes)

    @pytest.mark.parametrize("combine_on,ablation", [("logits", "full"), ("masks", "full"),
                                                     ("logits", "f2a_aaa_lma")])
    def test_training_step_records_each_mask_sigmoid_once(self, monkeypatch, combine_on,
                                                          ablation):
        cfg = tiny_cfg(combine_on=combine_on, ablation=ablation)
        state = TrainState(cfg)
        shapes = record_sigmoid_inputs(monkeypatch)
        seen = record_loss_masks(monkeypatch)
        logits, inters, labels = tiny_step(cfg, state)
        l_all = objective(logits, inters, labels, list(state.heads), au_loss(cfg, labels))[-1]
        assert len(inters) == 8
        assert sum(shape[1] == cfg.n_channels for shape in shapes) == 8
        assert len(shapes) == 2 * 8
        # Both terms read one recorded tensor per block, even where L_div
        # (weight 0 for f2a_aaa_lma) reads it under no_grad.
        assert len(seen) == 2 * 8
        assert all(a is b and a.requires_grad for a, b in zip(seen[:8], seen[8:]))
        l_all.backward()
        assert len(shapes) == 2 * 8

    def test_combine_on_masks_objective_reuses_the_forward_masks(self, monkeypatch):
        cfg = tiny_cfg(combine_on="masks")
        state = TrainState(cfg)
        logits, inters, labels = tiny_step(cfg, state)
        seen = record_loss_masks(monkeypatch)
        objective(logits, inters, labels, list(state.heads), au_loss(cfg, labels))
        assert len(seen) == 2 * len(inters) == 2 * 8
        assert all(m is it.masks and m.requires_grad for m, it in zip(seen, inters + inters))

    def test_masks_read_under_no_grad_leave_the_objective_gradients_unchanged(self):
        # export-attention reads the masks under no_grad; on a recorded
        # forward that read must change nothing the objective trains.
        cfg = tiny_cfg()
        grads = []
        for read_first in (False, True):
            state = TrainState(cfg)
            logits, inters, labels = tiny_step(cfg, state)
            if read_first:
                with T.no_grad():
                    assert not any(channel_masks(it).requires_grad for it in inters)
            objective(logits, inters, labels, list(state.heads), au_loss(cfg, labels))[-1].backward()
            grads.append([p.grad.tobytes() for _, p in state.named_parameters()])
        assert len(grads[0]) > 0 and grads[0] == grads[1]


class TestSweep:
    def test_one_row_per_channel_count(self, tmp_path):
        rc = main(["sweep-n", *TINY, "--epochs", "1", "--n-values", "1,2",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == f"# config_digest={config_digest(tiny_cfg(epochs=1))}"
        assert lines[1] == "n_channels,best_val_metric"
        assert [l.split(",")[0] for l in lines[2:]] == ["1", "2"]

    def test_a_failing_run_keeps_the_rows_before_it(self, tmp_path, capsys, monkeypatch):
        runs, run_training = [], cli.run_training

        def second_fails(cfg, splits):
            runs.append(cfg.n_channels)
            if len(runs) == 2:
                raise NumericError("non-finite loss")
            return run_training(cfg, splits)

        monkeypatch.setattr(cli, "run_training", second_fails)
        rc = main(["sweep-n", *TINY, "--epochs", "1", "--n-values", "1,2",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        one_line_error(capsys)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1:-1] == ["n_channels,best_val_metric"] and lines[-1].startswith("1,")
        assert not (tmp_path / "sweep.csv.tmp").exists()

    def test_builds_the_splits_once(self, tmp_path, monkeypatch):
        from smanet import train
        calls = []
        generate = train.generate_synthetic

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return generate(*args, **kwargs)

        monkeypatch.setattr(train, "generate_synthetic", counted)
        rc = main(["sweep-n", *TINY, "--epochs", "1", "--n-train", "8", "--n-values", "1,3,5",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert len(calls) == 2  # one train and one val split for all three runs

    def test_single_value_degenerates(self, tmp_path):
        rc = main(["sweep-n", *TINY, "--epochs", "1", "--n-values", "1",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK

    def test_empty_values_rejected(self, tmp_path):
        rc = main(["sweep-n", *TINY, "--n-values", ",", "--output-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("values", ["x,2", "1.5", "0"])
    def test_bad_values_rejected(self, tmp_path, capsys, values):
        rc = main(["sweep-n", *TINY, "--epochs", "1", "--n-values", values,
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        one_line_error(capsys)


class TestGradcheckCommand:
    def test_report_covers_every_primitive(self, tmp_path):
        rc = main(["gradcheck", *TINY, "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = (tmp_path / "gradcheck.txt").read_text()
        names = {line.split(",")[0] for line in report.splitlines()[2:]}
        missing = set(op_functions()) - names
        assert not missing
        for extra in ("sma_block", "total_objective"):
            assert extra in names

    def test_corrupted_gradient_rule_detected(self, tmp_path, monkeypatch):
        from smanet import tensor as tensor_mod
        from smanet.tensor import apply_op

        orig = tensor_mod.conv2d

        def broken_conv(x, weight, bias=None, stride=1, padding=0):
            out = orig(x, weight, bias, stride=stride, padding=padding)
            if out._node is None:
                return out
            true_vjp = out._node.vjp

            def bad_vjp(g):
                grads = true_vjp(g)
                return tuple(None if gr is None else gr * 1.01 for gr in grads)

            out._node.vjp = bad_vjp
            return out

        monkeypatch.setattr(tensor_mod, "conv2d", broken_conv)
        # The full suite runs once, in the test above; here only the conv2d check.
        suite = cli.build_suite
        monkeypatch.setattr(cli, "build_suite",
                            lambda seed: [c for c in suite(seed) if c[0] == "conv2d"])
        rc = main(["gradcheck", *TINY, "--output-dir", str(tmp_path)])
        assert rc == EXIT_THRESHOLD
        report = (tmp_path / "gradcheck.txt").read_text()
        assert report.splitlines()[2:] and all(
            line.startswith("conv2d,") and line.endswith("FAIL")
            for line in report.splitlines()[2:])


class TestParamsCommand:
    def test_baseline_has_zero_overhead(self, tmp_path, capsys):
        rc = main(["params", *TINY, "--ablation", "baseline",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        text = (tmp_path / "params.txt").read_text()
        assert "attention_overhead,0.000000" in text

    def test_full_paper_profile_overhead(self, tmp_path):
        args = ["--task", "au", "--profile", "paper", "--n-channels", "7",
                "--num-labels", "12", "--dtype", "float32"]
        rc = main(["params", *args, "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = dict(l.split(",") for l in
                     (tmp_path / "params.txt").read_text().splitlines()[1:])
        assert float(lines["attention_overhead"]) <= 0.05
        assert lines["model_params"] == lines["closed_form_params"]


class TestAblations:
    PINNED = {  # (model_params, bypass_head_params) under TINY
        "baseline": (176012, 0),
        "multi_channel": (176812, 1984),
        "f2a": (177308, 1984),
        "aaa": (177228, 0),
        "multi_channel_aaa": (177356, 1984),
        "f2a_aaa": (177852, 1984),
        "f2a_aaa_lma": (177852, 1984),
        "f2a_aaa_ldiv": (177852, 1984),
        "full": (177852, 1984),
    }
    BALANCE = {"f2a_aaa_lma": (0.0, 0.05), "f2a_aaa_ldiv": (0.25, 0.0), "full": (0.25, 0.05)}

    def test_table_covers_every_ablation(self):
        assert list(ABLATIONS) == list(self.PINNED)

    @pytest.mark.parametrize("ablation", list(PINNED))
    def test_params_and_loss_balance(self, tmp_path, ablation):
        rc = main(["params", *TINY, "--ablation", ablation, "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = dict(l.split(",") for l in (tmp_path / "params.txt").read_text().splitlines()[1:])
        assert (int(lines["model_params"]), int(lines["bypass_head_params"])) == self.PINNED[ablation]
        lcfg = loss_config(tiny_cfg(ablation=ablation, alpha=0.25, lam=0.05))
        assert (lcfg.alpha, lcfg.lam) == self.BALANCE.get(ablation, (0.0, 0.0))

    @pytest.mark.parametrize("placement", ["all_blocks", "first_two_blocks", "none"])
    def test_one_weight_and_one_bias_per_sma_block(self, placement):
        cfg = tiny_cfg(sma_placement=placement)
        state = TrainState(cfg)
        sma = [blk.attention for blk in state.model.blocks
               if isinstance(blk.attention, MultiChannelAttention)]
        assert len(sma) == {"all_blocks": 8, "first_two_blocks": 2, "none": 0}[placement]
        rows = cfg.n_channels * cfg.num_labels
        want = {}
        for b, attn in enumerate(sma):
            want |= {f"heads.{b}.weight": (rows, attn.in_channels), f"heads.{b}.bias": (rows,)}
        got = {name: p.shape for name, p in state.named_parameters() if name.startswith("heads.")}
        assert got == want

    @pytest.mark.parametrize("ablation", list(PINNED))
    def test_float32_state_is_the_float64_state_cast_down(self, ablation):
        # TrainState builds in float64 and casts once, buffers included.
        f32 = list(TrainState(tiny_cfg(ablation=ablation)).state_arrays())
        f64 = dict(TrainState(tiny_cfg(ablation=ablation, dtype="float64")).state_arrays())
        assert [name for name, _ in f32] == list(f64)
        for name, arr in f32:
            assert arr.dtype == np.float32, name
            assert arr.tobytes() == f64[name].astype(np.float32).tobytes(), name


class TestExportAttention:
    def test_zero_attention_exports_flat_maps(self, tmp_path):
        cfg = tiny_cfg(output_dir=str(tmp_path / "run"))
        state = TrainState(cfg)
        for name, p in state.named_parameters():
            if "attention" in name:
                p.data[...] = 0.0
        ckpt = tmp_path / "zero.bin"
        save_checkpoint(ckpt, config_digest(cfg), state.state_arrays())

        from smanet.data import generate_synthetic
        from smanet.ppm import decode_image, encode_color

        img = generate_synthetic(1, 1, synth_spec()).images[0]
        img_path = tmp_path / "probe.ppm"
        img_path.write_bytes(encode_color(img))

        out_dir = tmp_path / "maps"
        rc = main(["export-attention", *TINY, "--checkpoint", str(ckpt),
                   "--output-dir", str(out_dir), str(img_path)])
        assert rc == EXIT_OK
        fused = list(out_dir.glob("probe_block*_fused.pgm"))
        masks = list(out_dir.glob("probe_block*_mask*.pgm"))
        weights = sorted(out_dir.glob("probe_block*_weights.txt"))
        assert len(fused) == 8 and len(masks) == 8 * 2 and len(weights) == 8
        for f in fused:
            assert decode_image(f.read_bytes()).max() == 0.0  # constant map rule
        for w in weights:
            row = [float(v) for v in w.read_text().splitlines()[-1].split()]
            assert abs(sum(row) - 1.0) < 1e-6

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_cfg()
        state = TrainState(cfg)
        ckpt = tmp_path / "m.bin"
        save_checkpoint(ckpt, config_digest(cfg), state.state_arrays())
        from smanet.data import generate_synthetic
        from smanet.ppm import encode_color

        img_path = tmp_path / "p.ppm"
        img_path.write_bytes(encode_color(generate_synthetic(2, 1, synth_spec()).images[0]))
        out_dir = tmp_path / "maps"
        main(["export-attention", *TINY, "--checkpoint", str(ckpt),
              "--output-dir", str(out_dir), str(img_path)])
        first = read_tree(out_dir)
        main(["export-attention", *TINY, "--checkpoint", str(ckpt),
              "--output-dir", str(out_dir), str(img_path)])
        assert read_tree(out_dir) == first

    def test_exports_the_float32_forward(self, tmp_path, monkeypatch):
        import smanet.cli as cli
        from smanet.data import generate_synthetic
        from smanet.ppm import decode_image, encode_color

        cfg = tiny_cfg()
        state = TrainState(cfg)
        ckpt = tmp_path / "m.bin"
        save_checkpoint(ckpt, config_digest(cfg), state.state_arrays())
        img_path = tmp_path / "p.ppm"
        img_path.write_bytes(encode_color(generate_synthetic(4, 1, synth_spec()).images[0]))
        exported = []
        encode = cli.encode_heatmap
        monkeypatch.setattr(cli, "encode_heatmap",
                            lambda arr, **kw: exported.append(arr) or encode(arr, **kw))
        out_dir = tmp_path / "maps"
        assert main(["export-attention", *TINY, "--checkpoint", str(ckpt),
                     "--output-dir", str(out_dir), str(img_path)]) == EXIT_OK

        image = batch_tensor([decode_image(img_path.read_bytes())], np.float32)
        state.model.eval()
        with T.no_grad():
            _, inters = state.model(image)
        want = [m for it in inters for m in (it.fused.data[0, 0], *channel_masks(it).data[0])]
        assert len(exported) == len(want)
        for got, ref in zip(exported, want):
            assert got.dtype == np.float32 and np.array_equal(got, ref)
        for bi, it in enumerate(inters):
            row = (out_dir / f"p_block{bi}_weights.txt").read_text().splitlines()[-1]
            assert row == " ".join(f"{w:.6f}" for w in it.weights.data[0])

    def test_missing_inputs_refused(self, tmp_path, capsys):
        cfg = tiny_cfg()
        ckpt = tmp_path / "m.bin"
        save_checkpoint(ckpt, config_digest(cfg), TrainState(cfg).state_arrays())
        from smanet.ppm import encode_color

        img_path = tmp_path / "p.ppm"
        img_path.write_bytes(encode_color(np.zeros((64, 64, 3), np.uint8)))
        absent = tmp_path / "absent"
        for ckpt_arg, img_arg in ((absent, img_path), (ckpt, absent)):
            rc = main(["export-attention", *TINY, "--checkpoint", str(ckpt_arg),
                       "--output-dir", str(tmp_path / "o"), str(img_arg)])
            assert rc == EXIT_CONFIG
            assert str(absent) in one_line_error(capsys)

    def test_repeated_stem_refused(self, tmp_path, capsys):
        # a/face.ppm and b/face.ppm would write the same map files.
        cfg = tiny_cfg()
        ckpt = tmp_path / "m.bin"
        save_checkpoint(ckpt, config_digest(cfg), TrainState(cfg).state_arrays())
        from smanet.ppm import encode_color

        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "face.ppm")
            paths[-1].write_bytes(encode_color(np.zeros((64, 64, 3), np.uint8)))
        out = tmp_path / "o"
        rc = main(["export-attention", *TINY, "--checkpoint", str(ckpt),
                   "--output-dir", str(out), *map(str, paths)])
        assert rc == EXIT_CONFIG
        assert "'face'" in one_line_error(capsys)
        assert not out.exists()

    def test_damaged_image_named(self, tmp_path, capsys):
        cfg = tiny_cfg()
        ckpt = tmp_path / "m.bin"
        save_checkpoint(ckpt, config_digest(cfg), TrainState(cfg).state_arrays())
        good, bad = tmp_path / "a.ppm", tmp_path / "b.ppm"
        good.write_bytes(encode_color(np.zeros((64, 64, 3), np.uint8)))
        bad.write_bytes(good.read_bytes()[:-64 * 64 * 3 + 2])  # 2 payload bytes left
        rc = main(["export-attention", *TINY, "--checkpoint", str(ckpt),
                   "--output-dir", str(tmp_path / "o"), str(good), str(bad)])
        assert rc == EXIT_CONFIG
        err = one_line_error(capsys)
        assert str(bad) in err and "truncated pixmap payload" in err

    def test_wrong_size_image_rejected(self, tmp_path):
        cfg = tiny_cfg()
        state = TrainState(cfg)
        ckpt = tmp_path / "m.bin"
        save_checkpoint(ckpt, config_digest(cfg), state.state_arrays())
        from smanet.ppm import encode_color

        img_path = tmp_path / "small.ppm"
        img_path.write_bytes(encode_color(np.zeros((8, 8, 3), np.uint8)))
        rc = main(["export-attention", *TINY, "--checkpoint", str(ckpt),
                   "--output-dir", str(tmp_path / "o"), str(img_path)])
        assert rc == EXIT_CONFIG
