"""Build plans for tests, made the way the program makes them: from a
`RunConfig`, through the one function that makes each plan.  Each
helper takes the fields a test varies as `dataclasses.replace` changes,
so a build plan declares no defaults of its own."""

import dataclasses

from smanet.config import RunConfig, backbone_config, loss_config
from smanet.train import synthetic_spec


def sma_config(n_channels, **changes):
    """The attention variant of a default run at `n_channels`."""
    sma = backbone_config(RunConfig(n_channels=n_channels)).sma
    return dataclasses.replace(sma, **changes)


def backbone_plan(**changes):
    """The backbone of a default (toy, au, `full`) run."""
    return dataclasses.replace(backbone_config(RunConfig()), **changes)


def loss_plan(**changes):
    """The objective of a default run: alpha, lambda and delta of
    `RunConfig`, and no positive weights."""
    return dataclasses.replace(loss_config(RunConfig()), **changes)


def synth_spec(**changes):
    """The generator spec of a default run, over subjects 0 to 29."""
    return dataclasses.replace(synthetic_spec(RunConfig(), tuple(range(30))), **changes)
