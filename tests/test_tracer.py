"""`perfbench/tracer.py` against the package: every name its patches
wrap must exist, so that a rename in `src/` cannot crash a traced
benchmark run, and undoing them must leave no wrapper behind."""

import sys
from pathlib import Path

import smanet.cli  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_install_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from hooks import TRACE_TAG, Patches, installed_tags
    from tracer import Tracer

    sm = sys.modules["smanet"]
    classes = (sm.backbone.SGD, sm.nn.Module, sm.tensor.Tensor,
               sm.attention.MultiChannelAttention)
    patches = Patches()
    try:
        Tracer(sm).install(patches)
        assert installed_tags(classes) == {TRACE_TAG}
    finally:
        patches.undo()
    assert installed_tags(classes) == set()
