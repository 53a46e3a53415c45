"""Minimal layer abstractions over the autograd tensors.

Modules exist to own parameters: registration order is attribute
assignment order, which keeps checkpoint layouts and init draws
deterministic for a fixed config and seed.  Layers take shapes and an
init scale only: every layer is built in float64, and the model's owner
casts it once to the compute dtype (`Module.cast`).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tensor import Tensor, batch_norm2d, conv2d, depthwise_conv2d, linear


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, mod in self._modules.items():
            yield from mod.named_buffers(prefix + name + ".")

    def state_arrays(self):
        """Parameters then buffers, as (name, ndarray) in registration order."""
        for name, p in self.named_parameters():
            yield name, p.data
        for name, b in self.named_buffers():
            yield "buffer." + name, b

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy checkpoint records into parameters and buffers, in place
        (an optimizer may hold views of the parameter arrays); a missing
        record, a record the model does not have, or a shape mismatch is a
        DataError naming the record."""
        own = dict(self.state_arrays())
        unknown = [name for name in arrays if name not in own]
        if unknown:
            raise DataError(f"checkpoint record {unknown[0]} is not in the model")
        for name, arr in own.items():
            if name not in arrays:
                raise DataError(f"checkpoint record {name} is missing")
            if arrays[name].shape != arr.shape:
                raise DataError(f"checkpoint record {name}: shape {arrays[name].shape} != {arr.shape}")
            arr[...] = arrays[name]

    def cast(self, dtype) -> Module:
        """Cast every parameter and buffer to `dtype`, copying only those
        of another dtype."""
        for p in self._params.values():
            p.data = p.data.astype(dtype, copy=False)
        for name, b in list(self._buffers.items()):
            self.register_buffer(name, b.astype(dtype, copy=False))
        for mod in self._modules.values():
            mod.cast(dtype)
        return self

    def param_total(self) -> int:
        return sum(p.size for p in self.parameters())

    def train(self, flag: bool = True):
        object.__setattr__(self, "training", flag)
        for mod in self._modules.values():
            mod.train(flag)
        return self

    def eval(self):
        return self.train(False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def append(self, mod: Module) -> None:
        self._modules[str(len(self._modules))] = mod

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)


INIT_SCALE = 1e-2  # half-width of the uniform init of the attention layers and heads


def _init_weight(rng: np.random.Generator, shape, scale) -> Tensor:
    """He-normal over the fan-in (every axis but the first) when `scale`
    is None, else uniform in +-scale."""
    if scale is None:
        w = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), size=shape)
    else:
        w = rng.uniform(-scale, scale, size=shape)
    return Tensor(w, requires_grad=True)


class Conv2d(Module):
    """scale=None: He weights and no bias (a batch norm follows every such
    conv); a float: weights and bias uniform in +-scale."""

    def __init__(self, cin, cout, kernel, rng, stride=1, padding=0, scale=None):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = _init_weight(rng, (cout, cin, kernel, kernel), scale)
        self.bias = None if scale is None else _init_weight(rng, (cout,), scale)

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """One kernel per channel, stride 1, padded to keep the map size;
    weights and bias uniform in +-INIT_SCALE.  Used by the per-channel
    attention convs."""

    def __init__(self, channels, kernel, rng):
        super().__init__()
        self.weight = _init_weight(rng, (channels, kernel, kernel), INIT_SCALE)
        self.bias = _init_weight(rng, (channels,), INIT_SCALE)

    def forward(self, x):
        return depthwise_conv2d(x, self.weight, self.bias, padding=self.weight.shape[-1] // 2)


class Linear(Module):
    """Weights uniform in +-scale; the bias too, or zeros if zero_bias."""

    def __init__(self, din, dout, rng, scale, zero_bias=False):
        super().__init__()
        self.weight = _init_weight(rng, (dout, din), scale)
        self.bias = (Tensor(np.zeros(dout), requires_grad=True) if zero_bias
                     else _init_weight(rng, (dout,), scale))

    def forward(self, x):
        return linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels):
        super().__init__()
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x):
        return batch_norm2d(x, self.gamma, self.beta, self.running_mean, self.running_var,
                            training=self.training)
