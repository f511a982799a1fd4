"""Minibatch optimization of the regularized objective with Adam, lambda
annealing and early stopping."""

from __future__ import annotations

import contextlib
import contextvars
import logging
import math
import os
import time
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import losses, network
from .data import Dataset, split, support_extent

__all__ = [
    "TrainConfig",
    "EpochRow",
    "TrainRecord",
    "AdamState",
    "TrainingDiverged",
    "anneal_lambda",
    "adam_step",
    "train",
    "LOSSES",
]

log = logging.getLogger("iad.training")

# Abort threshold for the Dirichlet strength of any single example.
_ALPHA0_CAP = 1e9
# Half-width of the off-support noise box, in units of the largest distance
# of a training row from the training-feature mean.
_OOD_BOX_FACTOR = 3.0
# Adam's decay rates and denominator offset, Kingma & Ba's defaults
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# the reverse-KL loss's prior target: beta + 1 at the label, 1 elsewhere
_RKL_BETA = 10.0
# Smallest contiguous piece of the flat parameter vector that Adam updates on
# a thread of its own: its six float64 arrays (p, g, m, v and two work arrays)
# take ~1.5 MB, which stays in L2
_ADAM_PIECE = 32_768


class TrainingDiverged(RuntimeError):
    """Loss became non-finite or concentrations blew up."""


@dataclass(frozen=True)
class TrainConfig:
    p_norm: float = 4.0
    lambda_max: float = 0.5
    t0: int = 10            # epochs before the regularizer ramp starts
    t_rate: int = 60        # ramp length in epochs
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    val_fraction: float = 0.1
    # gamma: weight of the information penalty on off-support noise inputs
    # (beyond the source paper; 0 trains the paper's objective unchanged)
    ood_weight: float = 0.0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "t0", "t_rate", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1 or self.patience < 1 or self.t_rate < 1:
            raise ValueError("batch_size, patience and t_rate must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if not 0.0 <= self.ood_weight < math.inf:
            raise ValueError("ood_weight must be finite and >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 1.0 <= self.p_norm < math.inf:
            raise ValueError("p_norm must be finite and >= 1")
        if not 0.0 <= self.lambda_max < math.inf:
            raise ValueError("lambda_max must be finite and >= 0")


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    lambda_t: float
    seconds: float


@dataclass
class TrainRecord:
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int = -1


def anneal_lambda(cfg: TrainConfig, epoch: int) -> float:
    """lambda_t = lambda * min((t - T0)/T, 1) for t > T0, else 0."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if epoch <= cfg.t0:
        return 0.0
    return cfg.lambda_max * min((epoch - cfg.t0) / cfg.t_rate, 1.0)


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    # two work arrays per parameter array, so that a step allocates nothing
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = [(np.empty_like(m), np.empty_like(m)) for m in self.m]

    @classmethod
    def zeros_like(cls, arrays: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays])


def _adam_array(p, g, m, v, s, r, lr, c1, c2) -> None:
    """One array's update: 14 ufunc calls into the work arrays s and r."""
    m *= _ADAM_BETA1
    np.multiply(g, 1.0 - _ADAM_BETA1, out=s)
    m += s
    v *= _ADAM_BETA2
    np.multiply(g, 1.0 - _ADAM_BETA2, out=s)
    s *= g
    v += s
    np.divide(m, c1, out=s)
    s *= lr
    np.divide(v, c2, out=r)
    np.sqrt(r, out=r)
    r += _ADAM_EPS
    s /= r
    p -= s


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState,
              cfg: TrainConfig, pool: futures.Executor | None = None) -> None:
    """Standard Adam update with bias correction, in place, at cfg's
    learning rate and the module's beta1, beta2 and eps. Each array takes
    14 ufunc calls into the state's work arrays; per element they do the
    operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / c1) / (sqrt(v / c2) + eps) in that order, so passing one
    flat vector or its pieces gives the same bits.

    Every shape is checked before anything is written. Without `pool` the
    arrays are updated in turn on the calling thread. With it, the first
    array is updated on the calling thread and each other one on the pool,
    in the caller's context, so numpy's error state covers it; the call
    returns or raises once every array is done."""
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("parameter/gradient/state shape mismatch")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not p.shape == g.shape == m.shape == v.shape:
            raise ValueError("parameter/gradient/state shape mismatch")
    state.t += 1
    lr = cfg.learning_rate
    c1, c2 = 1.0 - _ADAM_BETA1 ** state.t, 1.0 - _ADAM_BETA2 ** state.t
    arrays = zip(params, grads, state.m, state.v, state.scratch)
    if pool is None or len(params) < 2:
        for p, g, m, v, (s, r) in arrays:
            _adam_array(p, g, m, v, s, r, lr, c1, c2)
        return
    first, *rest = [(p, g, m, v, s, r, lr, c1, c2) for p, g, m, v, (s, r) in arrays]
    pending = [pool.submit(contextvars.copy_context().run, _adam_array, *args)
               for args in rest]
    try:
        _adam_array(*first)
    finally:
        for done in pending:
            done.exception()  # waits; futures.wait costs ~40 us more per call
    for done in pending:
        done.result()


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _adam_pieces(n: int) -> list[slice]:
    """Contiguous pieces of an n-element vector for Adam: each of at least
    _ADAM_PIECE elements, at most one per CPU, one when n is smaller."""
    count = max(1, min(_cpu_count(), n // _ADAM_PIECE))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


# loss selector -> (value_grad(alpha, c, cfg) -> ((N,), (N, K)), regularized:
# bool); kernels are looked up in `losses` per call
LOSSES = {
    "iad": (lambda a, c, cfg: losses.iad_value_grad_batch(a, c, cfg.p_norm), True),
    "edl": (lambda a, c, cfg: losses.edl_mse_value_grad_batch(a, c), False),
    "nll": (lambda a, c, cfg: losses.nll_marginal_value_grad_batch(a, c), False),
    "bayes_ce": (lambda a, c, cfg: losses.bayes_ce_value_grad_batch(a, c), False),
    "rkl": (lambda a, c, cfg: losses.rkl_prior_value_grad_batch(a, c, _RKL_BETA), False),
}


def _objective(alpha, c, cfg: TrainConfig, lam: float, loss: str):
    """Per-row objective values and alpha-gradients. The first len(c) rows are
    labeled and carry F + lam * R(alpha, c); any rows after them are
    off-support noise, where every outcome is incorrect, so they carry only
    lam * ood_weight * R(alpha, c=None). One R call serves both: R(alpha, c)
    is R(alpha~, None) on alpha~, alpha with a one at c, once gradient
    component c is zeroed."""
    n = c.size
    vals, grads = LOSSES[loss][0](alpha[:n], c, cfg)
    if lam == 0.0 and alpha.shape[0] == n:
        return vals, grads
    rows = np.arange(n)
    tilde = alpha.copy()
    tilde[rows, c] = 1.0
    r, dr = losses.info_value_grad_batch(tilde)
    dr[rows, c] = 0.0
    r[:n] = vals + lam * r[:n]
    dr[:n] = grads + lam * dr[:n]
    r[n:] *= lam * cfg.ood_weight
    dr[n:] *= lam * cfg.ood_weight
    return r, dr


def _evaluate_split(net, ds: Dataset, cfg: TrainConfig, lam: float, loss: str):
    trace = network.forward(net, ds.features)
    if not np.isfinite(trace.alpha).all():
        return math.nan, math.nan  # train refuses it as a non-finite loss
    c = ds.label_indices
    vals, _ = _objective(trace.alpha, c, cfg, lam, loss)
    acc = float(np.mean(np.argmax(trace.alpha, axis=1) == c))
    return float(np.mean(vals)), acc


def train(dataset: Dataset, arch: list[int], cfg: TrainConfig, loss: str = "iad",
          val: Dataset | None = None) -> tuple[network.NetworkParams, TrainRecord]:
    """Train on `dataset`, returning the parameters of the best-validation
    epoch. `arch` lists hidden layer widths; input/output sizes come from the
    data. Early stopping monitors the labeled validation objective at the
    full regularizer weight so epochs are comparable across the annealing ramp.

    With cfg.ood_weight > 0 and a regularized loss, every step with lambda_t >
    0 also draws one noise input per labeled row, uniform in the box of
    half-width 3 r_max around the training-feature mean (r_max: the largest
    distance of a training row from it), and adds lambda_t * ood_weight times
    the mean of R(alpha, c=None) over those rows to the objective.

    Adam updates the flat parameter vector in contiguous pieces of at least
    _ADAM_PIECE elements, at most one per CPU the process may use, with the
    bits of one update over the whole vector. All pieces but the first run on
    the threads of a pool that this call opens and shuts down, also when it
    raises; a net too small for two pieces, or one CPU, makes no pool."""
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; pick one of {sorted(LOSSES)}")
    if dataset.n == 0 or dataset.labels is None:
        raise ValueError("training needs a non-empty labeled dataset")
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_init = np.random.default_rng(seeds[0])
    rng_split = np.random.default_rng(seeds[1])
    rng_shuffle = np.random.default_rng(seeds[2])

    if val is None:
        train_ds, val_ds = split(dataset, [1.0 - cfg.val_fraction, cfg.val_fraction],
                                 rng_split)
    else:
        train_ds, val_ds = dataset, val

    sizes = [dataset.d] + list(arch) + [dataset.k]
    net = network.init(sizes, rng_init)
    # Adam updates contiguous pieces of the flat vector, all but the first on
    # the worker threads of the pool opened below
    pieces = _adam_pieces(net.flat.size)
    params = [net.flat[piece] for piece in pieces]
    state = AdamState.zeros_like(params)
    # the first backward call builds grads and its pieces, later calls write into them
    grads = grad_pieces = None

    # an unregularized loss keeps lam and monitor_lam at 0.0, which leaves out
    # R and the off-support noise rows
    regularized = LOSSES[loss][1]
    monitor_lam = cfg.lambda_max if regularized else 0.0
    record = TrainRecord()
    best_val = np.inf
    best_params = net.copy()
    best_epoch = 0
    feats, labels = train_ds.features, train_ds.label_indices
    off_support = cfg.ood_weight > 0.0
    if off_support:
        rng_noise = np.random.default_rng(seeds[3])
        center, rmax = support_extent(train_ds)
        box = (center - _OOD_BOX_FACTOR * rmax, center + _OOD_BOX_FACTOR * rmax)

    workers = (futures.ThreadPoolExecutor(len(pieces) - 1, "iad-adam")
               if len(pieces) > 1 else contextlib.nullcontext())
    # an overflow or NaN is refused by the guards below, not warned about; the
    # pool's threads end before train returns or raises
    with np.errstate(over="ignore", invalid="ignore"), workers as pool:
        for epoch in range(1, cfg.max_epochs + 1):
            t_start = time.perf_counter()
            lam = anneal_lambda(cfg, epoch) if regularized else 0.0
            order = rng_shuffle.permutation(train_ds.n)
            # the features are gathered per step: a whole-epoch gather allocates
            # a fresh copy of the training matrix every epoch
            epoch_labels = labels[order]
            epoch_loss = 0.0
            for start in range(0, train_ds.n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb, cb = feats[idx], epoch_labels[start:start + cfg.batch_size]
                if off_support and lam > 0.0:
                    xb = np.concatenate(
                        [xb, rng_noise.uniform(*box, size=(idx.size, train_ds.d))])
                trace = network.forward(net, xb)
                a0 = np.add.reduce(trace.alpha, axis=1)
                if np.count_nonzero(a0 <= _ALPHA0_CAP) != a0.size:
                    raise TrainingDiverged(
                        f"alpha_0 is not finite or exceeds {_ALPHA0_CAP:g} at epoch {epoch}")
                vals, dalpha = _objective(trace.alpha, cb, cfg, lam, loss)
                # the noise rows are as many as the labeled ones, so dividing the
                # sum by idx.size sums the two row means
                batch_loss = float(np.add.reduce(vals)) / idx.size
                if not math.isfinite(batch_loss):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                dalpha /= idx.size
                grads = network.backward(net, trace, dalpha, out=grads)
                if grad_pieces is None:
                    grad_pieces = [grads.flat[piece] for piece in pieces]
                adam_step(params, grad_pieces, state, cfg, pool)
                epoch_loss += batch_loss * idx.size
            epoch_loss /= train_ds.n

            val_loss, val_acc = _evaluate_split(net, val_ds, cfg, monitor_lam, loss)
            if not math.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
            record.rows.append(EpochRow(epoch, epoch_loss, val_loss, val_acc, lam,
                                        time.perf_counter() - t_start))
            if val_loss < best_val:
                best_val = val_loss
                np.copyto(best_params.flat, net.flat)
                best_epoch = epoch
            if epoch - best_epoch >= cfg.patience:
                log.info("early stop at epoch %d (best %d)", epoch, best_epoch)
                break

    record.best_epoch = best_epoch
    return best_params, record
