"""Feedforward classifier emitting Dirichlet concentration parameters.

Dense layers with rectifier hidden units; the output head is
alpha_j = softplus(z_j) + 1, so every concentration parameter is >= 1.
Backpropagation is exact. Every function takes a batch of (N, D) inputs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

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
    "CheckpointFormatError",
]

log = logging.getLogger("iad.network")

# Guard against polygamma blow-up near alpha -> 1+ early in training.
_GRAD_ALPHA_CLIP = 1e6

_CHECKPOINT_FORMAT = "iad-checkpoint"
_CHECKPOINT_VERSION = 3
_PAYLOAD_SUFFIX = ".f64"


class CheckpointFormatError(ValueError):
    """A checkpoint file that is not a well-formed iad checkpoint; names the file."""


def _views(flat: np.ndarray, sizes: list[int]):
    """(weights, biases) as tuples of reshaped views into ``flat``, laid out
    layer by layer: W0 in C order, b0, W1, b1, ..."""
    weights, biases, at = [], [], 0
    for m, n in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + m * n].reshape(m, n))
        biases.append(flat[at + m * n:at + m * n + n])
        at += m * n + n
    return tuple(weights), tuple(biases)


@dataclass
class NetworkParams:
    """Layer weights/biases; weights[i] has shape (fan_in, fan_out).

    The given arrays are validated and copied into one contiguous float64
    vector, ``flat``; ``weights`` and ``biases`` are tuples of views into it,
    so writing into an entry writes ``flat`` and assigning an entry raises."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = [np.asarray(w) for w in self.weights]
        biases = [np.asarray(b) for b in self.biases]
        if not weights or len(weights) != len(biases):
            raise ValueError("weights and biases must pair up, one layer at least")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1:
                raise ValueError(f"layer {i}: weights must be 2-D and biases 1-D")
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes do not chain")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: consecutive layer dimensions do not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        sizes = [weights[0].shape[0]] + [b.shape[0] for b in biases]
        self.flat = np.empty(sum(a.size for a in weights + biases))
        self.weights, self.biases = _views(self.flat, sizes)
        for dst, src in zip(self.weights + self.biases, weights + biases):
            dst[...] = src

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.weights, self.biases)


@dataclass
class ForwardTrace:
    """Backprop bookkeeping: per-layer inputs and pre-activations, and the
    head's e^-|z_last|, which softplus and its derivative share."""

    inputs: list[np.ndarray]    # input to each layer, inputs[0] is x
    preacts: list[np.ndarray]   # z of each layer
    alpha: np.ndarray           # softplus(z_last) + 1
    head_e: np.ndarray          # e^-|z_last|


@dataclass
class Gradients:
    """Parameter gradients in the layout of NetworkParams: ``weights`` and
    ``biases`` are views into ``flat``."""

    flat: np.ndarray
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


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


def _softplus_e(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln(1 + e^z), e^-|z|), overflow-free for any float64 argument."""
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e), e


def forward(net: NetworkParams, x: np.ndarray) -> ForwardTrace:
    a = np.asarray(x, dtype=np.float64)
    d = net.weights[0].shape[0]
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"input must have shape (N, {d}), got {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("non-finite input")
    inputs, preacts = [], []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = a @ w
        z += b
        preacts.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
    alpha, e = _softplus_e(z)
    alpha += 1.0
    return ForwardTrace(inputs, preacts, alpha, e)


def _backprop(net: NetworkParams, trace: ForwardTrace, dloss_dalpha: np.ndarray,
              grads: Gradients | None, input_delta: bool):
    """Run the chain rule backwards. Writes the parameter gradients into
    ``grads`` unless it is None; returns the delta at the input if
    ``input_delta``, else None, and then stops at layer 0."""
    d = np.asarray(dloss_dalpha, dtype=np.float64)
    if d.shape != trace.alpha.shape:
        raise ValueError("dloss_dalpha shape does not match the trace output")
    if np.count_nonzero(np.abs(d) > _GRAD_ALPHA_CLIP):
        log.warning("clipping dloss/dalpha components beyond %g", _GRAD_ALPHA_CLIP)
        d = np.clip(d, -_GRAD_ALPHA_CLIP, _GRAD_ALPHA_CLIP)
    # d alpha / d z = sigmoid(z) for the softplus head
    delta = _sigmoid(trace.preacts[-1], trace.head_e)
    delta *= d
    for i in range(len(net.weights) - 1, -1, -1):
        if grads is not None:
            np.matmul(trace.inputs[i].T, delta, out=grads.weights[i])
            np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i == 0 and not input_delta:
            return None
        delta = delta @ net.weights[i].T
        if i > 0:
            delta *= trace.preacts[i - 1] > 0.0
    return delta


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) from e = e^-|z|, overflow-free: 1 / (1 + e) where
    z >= 0 and e / (1 + e) elsewhere."""
    s = np.where(z >= 0, 1.0, e)
    s /= 1.0 + e
    return s


def backward(net: NetworkParams, trace: ForwardTrace, dloss_dalpha: np.ndarray,
             out: Gradients | None = None) -> Gradients:
    """Exact parameter gradients, summed over the rows of the trace. They are
    written into ``out``, the Gradients that an earlier call for a network of
    the same layer sizes returned, or into a fresh vector; the result's arrays
    are views of its ``flat``."""
    if out is None:
        flat = np.empty_like(net.flat)
        out = Gradients(flat, *_views(flat, net.layer_sizes))
    elif (not isinstance(out, Gradients) or out.flat.shape != net.flat.shape
          or out.flat.dtype != np.float64
          or [w.shape for w in out.weights] != [w.shape for w in net.weights]):
        raise ValueError("out must be the Gradients of an earlier backward call "
                         "for a network of these layer sizes")
    _backprop(net, trace, dloss_dalpha, out, input_delta=False)
    return out


def _trace_input_gradient(net: NetworkParams, trace: ForwardTrace, correct_class,
                          cfg: losses.LossConfig) -> np.ndarray:
    """The (N, D) gradient of each row's classification loss F at the input
    of ``trace``, a forward pass that the caller already has."""
    dF = losses.iad_loss_grad_alpha_batch(trace.alpha, correct_class, cfg.p_norm)
    return _backprop(net, trace, dF, None, input_delta=True)


def input_gradient(net: NetworkParams, x: np.ndarray, correct_class, cfg: losses.LossConfig) -> np.ndarray:
    """The (N, D) gradient of each row's classification loss F at its input."""
    return _trace_input_gradient(net, forward(net, x), correct_class, cfg)


def _replace_with(path: Path, data: bytes) -> None:
    """Write ``data`` to a sibling temporary file that then replaces ``path``,
    so a crash mid-write never leaves a truncated file at ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(net: NetworkParams, path) -> None:
    """Write the network as format version 3: ``path`` holds a small JSON
    header, and the sibling ``<stem>.f64`` holds ``net.flat`` as little-endian
    float64 bytes (W0 in C order, b0, W1, b1, ...). The header records the
    payload's name, byte count and sha256. Each file is replaced atomically,
    the payload first, so a crash between the two replaces leaves a header
    whose sha256 the new payload fails, never weights that load wrong."""
    path = Path(path)
    if path.suffix == _PAYLOAD_SUFFIX:
        raise ValueError(f"{path}: a checkpoint path may not end in {_PAYLOAD_SUFFIX}, "
                         "the payload's suffix")
    payload = np.asarray(net.flat, dtype="<f8").tobytes()
    payload_path = path.with_suffix(_PAYLOAD_SUFFIX)
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "layer_sizes": net.layer_sizes,
        "activation": "relu",
        "payload": payload_path.name,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    _replace_with(payload_path, payload)
    _replace_with(path, (json.dumps(doc) + "\n").encode("ascii"))


def _read_payload(doc: dict, path: Path, sizes: list[int]) -> np.ndarray:
    """The flat parameter vector of a version 3 header, read from its payload
    file and checked against the header's byte count and sha256."""
    name, nbytes, digest = doc.get("payload"), doc.get("payload_bytes"), doc.get("payload_sha256")
    if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
        raise CheckpointFormatError(f"{path}: payload must be a file name next to the "
                                    f"header, got {name!r}")
    if type(nbytes) is not int or not isinstance(digest, str):
        raise CheckpointFormatError(f"{path}: payload_bytes must be an integer and "
                                    "payload_sha256 a string")
    need = 8 * sum(m * n + n for m, n in zip(sizes[:-1], sizes[1:]))
    if nbytes != need:
        raise CheckpointFormatError(f"{path}: payload_bytes is {nbytes}, layer_sizes needs {need}")
    try:
        raw = (path.parent / name).read_bytes()
    except (OSError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: cannot read payload {name!r} ({exc})") from exc
    if len(raw) != need:
        raise CheckpointFormatError(f"{path}: payload {name!r} has {len(raw)} bytes, "
                                    f"layer_sizes needs {need}")
    if hashlib.sha256(raw).hexdigest() != digest:
        raise CheckpointFormatError(f"{path}: payload {name!r} does not match payload_sha256")
    return np.frombuffer(raw, dtype="<f8")


def load_checkpoint(path) -> NetworkParams:
    """Read a version 3 checkpoint; another version or malformed content, in
    the header or the payload, raises CheckpointFormatError naming the header."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointFormatError(f"{path}: not an iad checkpoint")
    version = doc.get("version")
    if type(version) is not int or version != _CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version!r}")
    if doc.get("activation") != "relu":
        raise CheckpointFormatError(f"{path}: unsupported activation {doc.get('activation')!r}")
    sizes = doc.get("layer_sizes")
    if (not isinstance(sizes, list) or len(sizes) < 2
            or not all(type(s) is int and s >= 1 for s in sizes)):
        raise CheckpointFormatError(f"{path}: layer_sizes must be a list of positive integers")
    # read-only views: NetworkParams copies them into its own vector
    weights, biases = _views(_read_payload(doc, path, sizes), sizes)
    try:
        return NetworkParams(weights, biases)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
