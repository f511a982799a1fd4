"""Feedforward classifier emitting Dirichlet concentration parameters.

Dense layers with rectifier hidden units; the output head is
alpha_j = softplus(z_j) + 1, so every concentration parameter is >= 1.
Backpropagation is exact and works on single examples or batches.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import losses

__all__ = [
    "NetworkParams",
    "ForwardTrace",
    "Gradients",
    "init",
    "forward",
    "backward",
    "input_gradient",
    "save_checkpoint",
    "load_checkpoint",
]

log = logging.getLogger("iad.network")

# Guard against polygamma blow-up near alpha -> 1+ early in training.
_GRAD_ALPHA_CLIP = 1e6

_CHECKPOINT_FORMAT = "iad-checkpoint"
_CHECKPOINT_VERSION = 1


@dataclass
class NetworkParams:
    """Layer weights/biases; weights[i] has shape (fan_in, fan_out)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes do not chain")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: consecutive layer dimensions do not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "NetworkParams":
        return NetworkParams([w.copy() for w in self.weights],
                             [b.copy() for b in self.biases])


@dataclass
class ForwardTrace:
    """Backprop bookkeeping: per-layer inputs and pre-activations."""

    inputs: list[np.ndarray]    # input to each layer, inputs[0] is x
    preacts: list[np.ndarray]   # z of each layer
    alpha: np.ndarray           # softplus(z_last) + 1
    squeezed: bool = False      # True if a single example was promoted to a batch


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init(layer_sizes: list[int], rng: np.random.Generator) -> NetworkParams:
    """Fan-in-scaled uniform weights, zero biases; deterministic per rng state."""
    if len(layer_sizes) < 3:
        raise ValueError("need at least one hidden layer")
    if any(s < 1 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases)


def softplus(z: np.ndarray) -> np.ndarray:
    """ln(1 + e^z), overflow-free for any float64 argument."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def forward(net: NetworkParams, x: np.ndarray) -> ForwardTrace:
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    a = np.atleast_2d(x)
    if a.shape[1] != net.weights[0].shape[0]:
        raise ValueError("input dimension does not match the first layer")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite input")
    inputs, preacts = [], []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = a @ w + b
        preacts.append(z)
        a = softplus(z) + 1.0 if i == last else np.maximum(z, 0.0)
    return ForwardTrace(inputs, preacts, a, squeezed)


def _backprop_delta(net: NetworkParams, trace: ForwardTrace, dloss_dalpha: np.ndarray):
    """Run the chain rule backwards; returns (Gradients, delta at the input)."""
    d = np.atleast_2d(np.asarray(dloss_dalpha, dtype=np.float64))
    if d.shape != trace.alpha.shape:
        raise ValueError("dloss_dalpha shape does not match the trace output")
    if np.any(np.abs(d) > _GRAD_ALPHA_CLIP):
        log.warning("clipping dloss/dalpha components beyond %g", _GRAD_ALPHA_CLIP)
        d = np.clip(d, -_GRAD_ALPHA_CLIP, _GRAD_ALPHA_CLIP)
    # d alpha / d z = sigmoid(z) for the softplus head
    z_last = trace.preacts[-1]
    delta = d * _sigmoid(z_last)
    gw = [None] * len(net.weights)
    gb = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        gw[i] = trace.inputs[i].T @ delta
        gb[i] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
        if i > 0:
            delta = delta * (trace.preacts[i - 1] > 0.0)
    return Gradients(gw, gb), delta


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def backward(net: NetworkParams, trace: ForwardTrace, dloss_dalpha: np.ndarray) -> Gradients:
    """Exact parameter gradients, summed over the rows of the trace."""
    grads, _ = _backprop_delta(net, trace, dloss_dalpha)
    return grads


def input_gradient(net: NetworkParams, x: np.ndarray, correct_class, cfg: losses.LossConfig) -> np.ndarray:
    """Gradient of the classification loss F with respect to the input features."""
    trace = forward(net, x)
    c = np.atleast_1d(np.asarray(correct_class, dtype=np.intp))
    dF = losses.iad_loss_grad_alpha_batch(trace.alpha, c, cfg.p_norm)
    _, delta = _backprop_delta(net, trace, dF)
    return delta[0] if trace.squeezed else delta


def save_checkpoint(net: NetworkParams, path) -> None:
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "layer_sizes": net.layer_sizes,
        "activation": "relu",
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> NetworkParams:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not an iad checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    if doc.get("activation") != "relu":
        raise ValueError(f"{path}: unsupported activation {doc.get('activation')!r}")
    weights = [np.array(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
    net = NetworkParams(weights, biases)
    if net.layer_sizes != doc["layer_sizes"]:
        raise ValueError(f"{path}: layer_sizes inconsistent with stored arrays")
    return net
