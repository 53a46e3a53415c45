"""Minimal layer abstractions over the autograd tensors.

Modules exist to own parameters: registration order is attribute
assignment order, which keeps checkpoint layouts and init draws
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tensor import DEFAULT_DTYPE, Tensor, batch_norm2d, conv2d, depthwise_conv2d, linear


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
        record or a shape mismatch is a DataError naming the record."""

        def record(name, shape):
            if name not in arrays:
                raise DataError(f"checkpoint record {name} is missing")
            if arrays[name].shape != shape:
                raise DataError(f"checkpoint record {name}: shape {arrays[name].shape} != {shape}")
            return arrays[name]

        for name, arr in self.state_arrays():
            arr[...] = record(name, arr.shape)

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
    def __init__(self, mods=()):
        super().__init__()
        for m in mods:
            self.append(m)

    def append(self, mod: Module) -> None:
        self._modules[str(len(self._modules))] = mod

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)


def _init_weight(rng: np.random.Generator, shape, init, fan_in: int, dtype):
    if init == "he":
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    else:
        kind, scale = init
        if kind != "uniform":
            raise ValueError(f"unknown init {init!r}")
        w = rng.uniform(-scale, scale, size=shape)
    return Tensor(w.astype(dtype), requires_grad=True)


class Conv2d(Module):
    def __init__(self, cin, cout, kernel, rng, stride=1, padding=0, bias=True,
                 init="he", dtype=DEFAULT_DTYPE):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = _init_weight(rng, (cout, cin, kernel, kernel), init, cin * kernel * kernel, dtype)
        if bias:
            if init == "he":
                self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
            else:
                self.bias = _init_weight(rng, (cout,), init, cin, dtype)
        else:
            self.bias = None

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """One kernel per channel, stride 1; used by the per-channel attention convs."""

    def __init__(self, channels, kernel, rng, padding=0, init=("uniform", 1e-2), dtype=DEFAULT_DTYPE):
        super().__init__()
        self.padding = padding
        self.weight = _init_weight(rng, (channels, kernel, kernel), init, kernel * kernel, dtype)
        self.bias = _init_weight(rng, (channels,), init, kernel * kernel, dtype)

    def forward(self, x):
        return depthwise_conv2d(x, self.weight, self.bias, padding=self.padding)


class Linear(Module):
    def __init__(self, din, dout, rng, init="he", zero_bias=False, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.weight = _init_weight(rng, (dout, din), init, din, dtype)
        if init == "he" or zero_bias:
            self.bias = Tensor(np.zeros(dout, dtype=dtype), requires_grad=True)
        else:
            self.bias = _init_weight(rng, (dout,), init, din, dtype)

    def forward(self, x):
        return linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels, momentum=0.1, eps=1e-5, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x):
        return batch_norm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=self.training, momentum=self.momentum, eps=self.eps,
        )
