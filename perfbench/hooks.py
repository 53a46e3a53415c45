"""Call-boundary wrappers installed from outside the smanet package.

`Patches` rebinds a function or method and remembers how to undo it.
`StepProbe` is the only instrumentation of an untraced run: timestamps at
the step boundaries of the two verbs.  For `train` those are SGD
construction (end of set-up), every `SGD.step` and every batch forward of
`evaluate_model`; for `gradcheck` they are the end of `build_suite`, the
start of every suite check and every evaluation of a checked function.
"""

from __future__ import annotations

import sys
import time

PROBE_TAG = "_perfbench_probe"
TRACE_TAG = "_perfbench_trace"


class SetupReached(Exception):
    """Raised by a probe told to stop the verb once its set-up is done."""


def tag(fn, kind: str):
    setattr(fn, kind, True)
    return fn


def smanet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "smanet" or name.startswith("smanet."))]


class Patches:
    """Reversible rebinding of smanet attributes."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, name: str, make):
        """Replace `cls.name` with `make(original)`."""
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def wrap(self, func, make):
        """Rebind every smanet module global bound to `func` to `make(func)`."""
        replacement = make(func)
        for mod in smanet_modules():
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, func))

    def undo(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)


def installed_tags(classes) -> set[str]:
    """Which kinds of benchmark wrapper are bound anywhere in smanet."""
    found = set()
    spaces = [vars(m) for m in smanet_modules()] + [c.__dict__ for c in classes]
    for space in spaces:
        for value in list(space.values()):
            for kind in (PROBE_TAG, TRACE_TAG):
                if getattr(value, kind, False):
                    found.add(kind)
    return found


class StepProbe:
    """Timestamps at the step boundaries of one verb call."""

    def __init__(self, stop_after_setup: bool = False):
        self.stop_after_setup = stop_after_setup
        self.setup_end: float | None = None
        self.step_ends: list[float] = []
        self.evals: list[float] = []                    # seconds per eval batch
        self.forwards: list[tuple[str, float]] = []     # (check name, seconds)
        self._check = ""

    def _mark_setup(self):
        self.setup_end = time.perf_counter()
        if self.stop_after_setup:
            raise SetupReached()

    def install(self, patches: Patches, smanet) -> None:
        probe = self
        sgd_cls = smanet.backbone.SGD

        def sgd_init(orig):
            def __init__(sgd, *args, **kwargs):
                orig(sgd, *args, **kwargs)
                probe._mark_setup()
            return tag(__init__, PROBE_TAG)

        def sgd_step(orig):
            def step(sgd, lr):
                orig(sgd, lr)
                probe.step_ends.append(time.perf_counter())
            return tag(step, PROBE_TAG)

        def evaluate(orig):
            def evaluate_model(state, samples, cfg):
                # Time each batch forward through a `__call__` set on the
                # model's own class for the length of the pass.
                cls = type(state.model)
                forward = cls.__call__

                def timed(model, *args, **kwargs):
                    t0 = time.perf_counter()
                    out = forward(model, *args, **kwargs)
                    probe.evals.append(time.perf_counter() - t0)
                    return out

                own = cls.__dict__.get("__call__")
                cls.__call__ = tag(timed, PROBE_TAG)
                try:
                    return orig(state, samples, cfg)
                finally:
                    if own is None:
                        del cls.__call__
                    else:
                        cls.__call__ = own
            return tag(evaluate_model, PROBE_TAG)

        def named_check(name, thunk):
            def check():
                probe._check = name
                return thunk()
            return check

        def suite(orig):
            def build_suite(*args, **kwargs):
                checks = [(name, named_check(name, thunk)) for name, thunk in orig(*args, **kwargs)]
                probe._mark_setup()
                return checks
            return tag(build_suite, PROBE_TAG)

        def many(orig):
            def grad_check_many(forward, *args, **kwargs):
                def timed_forward():
                    t0 = time.perf_counter()
                    out = forward()
                    probe.forwards.append((probe._check, time.perf_counter() - t0))
                    return out
                return orig(timed_forward, *args, **kwargs)
            return tag(grad_check_many, PROBE_TAG)

        patches.method(sgd_cls, "__init__", sgd_init)
        patches.method(sgd_cls, "step", sgd_step)
        patches.wrap(smanet.train.evaluate_model, evaluate)
        patches.wrap(smanet.gradcheck.build_suite, suite)
        patches.wrap(smanet.gradcheck.grad_check_many, many)
