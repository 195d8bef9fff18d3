"""Dense-network substrate: MLP forward/backward, Adam, block softmax.

Small on purpose. The only architecture is a fully-connected ReLU stack with
one of three output heads: linear, elementwise sigmoid, or a softmax applied
independently to contiguous blocks of the output (one block per cell, so each
cell's slice shares land on a simplex by construction).

Batch convention: inputs are (batch, d_in); backward returns parameter
gradients summed over the batch, so mean-loss callers scale the output
gradient by 1/batch themselves.

Member axis: one ``Mlp`` can hold E same-shaped networks (members) stacked
on a leading axis. Their parameters form one flat ``(E, P)`` array, and each
layer's weights are ``(E, fan_in, fan_out)`` views into it. Inputs are then
``(E, batch, d_in)``; every member sees only its own slice, so one batched
matmul per layer replaces E separate passes with the same per-member
arithmetic. A plain net is the case without the leading axis, with a flat
``(P,)`` array. ``Adam`` takes that flat array as its one parameter, and
callers that update parameters in place work on it too, so one call covers
every layer of every member.

This module defines no file format. A network's and an optimizer's state
are their flat arrays (``Mlp.flat``, ``Adam.m``/``v``/``t``), which
``td3.Td3Agent.state`` collects into the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADS = ("linear", "sigmoid", "softmax_blocks")


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple[int, ...]
    head: str = "linear"
    block_size: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if min(self.layer_sizes) < 1:
            raise ValueError("layer sizes must be positive")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "softmax_blocks":
            if self.block_size < 2:
                raise ValueError("softmax_blocks needs block_size >= 2")
            if self.layer_sizes[-1] % self.block_size:
                raise ValueError("output size must be a multiple of block_size")

    @property
    def d_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def d_out(self) -> int:
        return self.layer_sizes[-1]


def decoupled_softmax(raw: np.ndarray, block_size: int) -> np.ndarray:
    """Softmax over each contiguous block of the last axis, max-shifted.

    Blocks are independent: logits in one block never influence another.
    """
    x = np.asarray(raw, dtype=float)
    if x.shape[-1] % block_size:
        raise ValueError("last axis not divisible by block_size")
    blocks = x.reshape(x.shape[:-1] + (-1, block_size))
    shifted = blocks - blocks.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return out.reshape(x.shape)


@dataclass
class _Cache:
    acts: list  # layer inputs: [x, h_1, ..., h_{L-1}]
    zs: list  # pre-activations per layer
    y: np.ndarray  # head output


class Mlp:
    """ReLU MLP with explicit parameters and hand-written backward.

    All parameters live in one flat array ``flat`` of shape ``lead + (P,)``;
    ``weights[i]`` (``lead + (fan_in, fan_out)``) and ``biases[i]``
    (``lead + (fan_out,)``) are views into it, laid out in ``parameters()``
    order. A plain net has ``lead == ()``. A stack of E same-shaped members,
    trained side by side, has ``lead == (E,)`` and takes inputs with the same
    leading axis: member e maps ``x[e]`` with its own parameters ``flat[e]``.
    """

    def __init__(self, spec: MlpSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        sizes = spec.layer_sizes
        lead = np.shape(weights[0])[:-2] if weights else ()
        ok = len(weights) == len(biases) == len(sizes) - 1
        for w, b, fin, fout in zip(weights, biases, sizes, sizes[1:]):
            ok = ok and np.shape(w) == lead + (fin, fout) and np.shape(b) == lead + (fout,)
        if not ok:
            raise ValueError("parameter shapes do not match the spec")
        parts = [np.reshape(p, lead + (-1,)) for pair in zip(weights, biases) for p in pair]
        self._bind(spec, np.concatenate(parts, axis=-1, dtype=float))

    def _bind(self, spec: MlpSpec, flat: np.ndarray) -> None:
        self.spec = spec
        self.flat = flat
        self.weights, self.biases = [], []
        lead, off = flat.shape[:-1], 0
        for fin, fout in zip(spec.layer_sizes, spec.layer_sizes[1:]):
            # splitting the contiguous last axis always gives views, never copies
            self.weights.append(flat[..., off:off + fin * fout].reshape(lead + (fin, fout)))
            off += fin * fout
            self.biases.append(flat[..., off:off + fout])
            off += fout
        if off != flat.shape[-1]:
            raise ValueError("flat parameter size does not match the spec")

    @staticmethod
    def from_flat(spec: MlpSpec, flat: np.ndarray) -> "Mlp":
        """An Mlp whose parameters are views into ``flat`` (no copy)."""
        net = Mlp.__new__(Mlp)
        net._bind(spec, flat)
        return net

    @staticmethod
    def init(rng: np.random.Generator, spec: MlpSpec) -> "Mlp":
        """Glorot-uniform weights, zero biases."""
        ws, bs = [], []
        for fin, fout in zip(spec.layer_sizes, spec.layer_sizes[1:]):
            lim = np.sqrt(6.0 / (fin + fout))
            ws.append(rng.uniform(-lim, lim, size=(fin, fout)))
            bs.append(np.zeros(fout))
        return Mlp(spec, ws, bs)

    @staticmethod
    def stack(nets: list["Mlp"]) -> "Mlp":
        """A stack whose member i is a copy of the plain net ``nets[i]``."""
        return Mlp.from_flat(nets[0].spec, np.stack([net.flat for net in nets]))

    def member(self, index) -> "Mlp":
        """Member ``index`` (an int gives a plain net, a slice a stack) as an
        Mlp sharing this one's parameters."""
        return Mlp.from_flat(self.spec, self.flat[index])

    # -- forward ------------------------------------------------------------

    def _as_batch(self, x) -> tuple[np.ndarray, bool]:
        a = np.asarray(x, dtype=float)
        lead = self.flat.shape[:-1]
        single = a.ndim == len(lead) + 1
        if single:
            a = a[..., None, :]
        if a.ndim != len(lead) + 2 or a.shape[:-2] != lead or a.shape[-1] != self.spec.d_in:
            raise ValueError(f"input shape {np.shape(x)} incompatible with d_in="
                             f"{self.spec.d_in} and member axes {lead}")
        return a, single

    def apply_head(self, z: np.ndarray) -> np.ndarray:
        if self.spec.head == "linear":
            return z
        if self.spec.head == "sigmoid":
            return 1.0 / (1.0 + np.exp(-z))
        return decoupled_softmax(z, self.spec.block_size)

    def logits(self, x) -> np.ndarray:
        """Pre-head output of the final layer."""
        h, single = self._as_batch(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b[..., None, :]
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h[..., 0, :] if single else h

    def forward(self, x) -> np.ndarray:
        z = self.logits(x)
        return self.apply_head(z)

    def forward_cached(self, x) -> tuple[np.ndarray, _Cache]:
        h, single = self._as_batch(x)
        acts, zs = [h], []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b[..., None, :]
            zs.append(z)
            if i < last:
                acts.append(np.maximum(z, 0.0))
        y = self.apply_head(zs[-1])
        return (y[..., 0, :] if single else y), _Cache(acts=acts, zs=zs, y=y)

    # -- backward -----------------------------------------------------------

    def _head_backward(self, gy: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.spec.head == "linear":
            return gy
        if self.spec.head == "sigmoid":
            return gy * y * (1.0 - y)
        bs = self.spec.block_size
        yb = y.reshape(y.shape[:-1] + (-1, bs))
        gb = gy.reshape(gy.shape[:-1] + (-1, bs))
        gz = yb * (gb - (gb * yb).sum(axis=-1, keepdims=True))
        return gz.reshape(gy.shape)

    def backward(self, cache: _Cache, grad_out,
                 out: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
        """Gradients for a scalar loss given dL/dy (batch-summed).

        Returns (param_grads in parameters() order, dL/dx). The parameter
        gradients are views into one array shaped like ``flat``: ``out``
        when given, so a caller can reuse one buffer, else a new array.
        """
        gy = np.asarray(grad_out, dtype=float)
        single = gy.ndim == self.flat.ndim
        if single:
            gy = gy[..., None, :]
        g = self._head_backward(gy, cache.y)
        grad = Mlp.from_flat(self.spec, np.empty_like(self.flat) if out is None else out)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(np.swapaxes(cache.acts[i], -1, -2), g, out=grad.weights[i])
            np.sum(g, axis=-2, out=grad.biases[i])
            g = g @ np.swapaxes(self.weights[i], -1, -2)
            if i > 0:
                g *= cache.zs[i - 1] > 0.0
        return grad.parameters(), (g[..., 0, :] if single else g)

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def param_count(self) -> int:
        """Parameters of one member (of the whole net when it is plain)."""
        return self.flat.shape[-1]

    def copy(self) -> "Mlp":
        return Mlp.from_flat(self.spec, self.flat.copy())


class Adam:
    """Standard Adam with bias correction over one parameter array, updated
    in place (an Mlp's ``flat``, so one step covers every layer and member).

    The update runs through two preallocated work arrays, so a step
    allocates no temporaries the size of the parameters.
    """

    def __init__(self, param: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self._work = np.empty((2,) + np.shape(param))

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        # a (P,) gradient would otherwise broadcast silently into an (E, P) stack
        if not param.shape == grad.shape == self.m.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match parameter shape "
                             f"{param.shape} (optimizer state {self.m.shape})")
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite gradient passed to Adam")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v, (a, b) = self.m, self.v, self._work
        # param -= lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.square(grad, out=a)
        a *= 1.0 - self.beta2
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, c1, out=b)
        b *= self.lr
        b /= a
        param -= b
