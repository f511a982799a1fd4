"""Uncertainty reports as column arrays, boxplot-style summaries and FGSM
attack sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network
from .data import Dataset, _check_range
from .dirichlet import mutual_information, predictive_entropy
from .losses import LossConfig
from .specfun import DomainError

__all__ = [
    "ConcentrationOverflowError",
    "UncertaintyReports",
    "DistributionSummary",
    "SweepRow",
    "evaluate",
    "summarize",
    "fgsm_attack",
    "attack_reports",
    "sweep_row",
]


class ConcentrationOverflowError(ValueError):
    """Raised when the network's concentrations overflow float64 on an input
    row, where no Dirichlet metric is defined, or F's gradient cannot take them."""


@dataclass(frozen=True)
class UncertaintyReports:
    """One (N,) column per quantity, row i describing example i."""

    pred_class: np.ndarray
    correct: np.ndarray | None   # bool; None for unlabeled (OOD) data
    entropy: np.ndarray
    mutual_info: np.ndarray
    max_prob: np.ndarray
    alpha0: np.ndarray


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number summary with 1.5*IQR whiskers and a threshold-exceedance
    fraction (count of values >= threshold over n)."""

    count: int
    min: float
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    mean: float
    threshold: float
    fraction_above_threshold: float


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    accuracy: float
    mean_entropy: float
    mean_mutual_info: float


def _forward(net: network.NetworkParams, x: np.ndarray, inputs: str) -> network.ForwardTrace:
    """network.forward(net, x), its alpha checked finite once, here, before
    any Dirichlet metric reads it; inputs names x in the error."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace = network.forward(net, x)
    finite = np.isfinite(trace.alpha).all(axis=1)
    if not finite.all():
        raise ConcentrationOverflowError(
            f"{inputs}: the network's concentrations overflow float64 on "
            f"{finite.size - np.count_nonzero(finite)} of {finite.size} rows")
    return trace


def _reports(alpha: np.ndarray, label_idx: np.ndarray | None) -> UncertaintyReports:
    alpha0 = alpha.sum(axis=1)
    mean = alpha / alpha0[:, None]
    pred = np.argmax(mean, axis=1)  # argmax takes the lowest index on ties
    return UncertaintyReports(
        pred_class=pred,
        correct=None if label_idx is None else pred == label_idx,
        entropy=predictive_entropy(alpha),
        mutual_info=mutual_information(alpha),
        max_prob=mean.max(axis=1),
        alpha0=alpha0,
    )


def evaluate(net: network.NetworkParams, data: Dataset) -> UncertaintyReports:
    """One report row per example; prediction is the argmax of the predictive
    mean. Concentrations that overflow float64 raise ConcentrationOverflowError."""
    trace = _forward(net, data.features, data.provenance)
    labels = None if data.labels is None else data.label_indices
    return _reports(trace.alpha, labels)


def summarize(values, threshold: float) -> DistributionSummary:
    """Quartiles by linear interpolation; whiskers are the extreme data points
    within 1.5*IQR of the quartile box. One sort serves the quartiles, by
    numpy's 'linear' percentile rule, the whiskers and the minimum; the mean
    and the threshold count read the values in their given order."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot summarize an empty list")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    s = np.sort(v, axis=None)
    # virtual index (n - 1) * q between s[lo] and s[lo + 1], interpolated as
    # numpy's _lerp does; at n = 1 numpy takes lo = -1 and g = 1, as here
    pos = (s.size - 1) * np.array([0.25, 0.5, 0.75])
    lo = np.minimum(pos.astype(np.intp), s.size - 2)
    g = pos - lo
    a, b = s[lo], s[lo + 1]
    d = b - a
    q1, med, q3 = np.where(g >= 0.5, b - d * (1.0 - g), a + d * g)
    iqr = q3 - q1
    return DistributionSummary(
        count=int(v.size),
        min=float(s[0]),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        whisker_lo=float(s[np.searchsorted(s, q1 - 1.5 * iqr, side="left")]),
        whisker_hi=float(s[np.searchsorted(s, q3 + 1.5 * iqr, side="right") - 1]),
        mean=float(v.mean()),
        threshold=float(threshold),
        fraction_above_threshold=float(np.count_nonzero(v >= threshold) / v.size),
    )


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def fgsm_attack(net: network.NetworkParams, x: np.ndarray, correct_class,
                epsilon: float, cfg: LossConfig,
                bounds: tuple[float, float] | None,
                direction: np.ndarray | None = None) -> np.ndarray:
    """x + epsilon * sgn(grad_x F) for an (N, D) batch x and its (N,) class
    indices, clipped componentwise to bounds. sgn(0) = 0, so zero-gradient
    components stay put. epsilon must be finite and >= 0, and bounds a pair
    of finite floats with lo <= hi. ``direction`` is sgn(grad_x F) at x if
    the caller already has it, of x's shape; else it is computed."""
    _check_epsilon(epsilon)
    if bounds is not None:
        _check_range(bounds, "bounds")
    x = np.asarray(x, dtype=np.float64)
    if direction is None:
        direction = np.sign(network.input_gradient(net, x, correct_class, cfg))
    elif np.shape(direction) != x.shape:
        raise ValueError(f"direction has shape {np.shape(direction)}, "
                         f"but x has shape {x.shape}")
    adv = epsilon * direction
    adv += x
    if bounds is not None:
        np.clip(adv, bounds[0], bounds[1], out=adv)
    return adv


def attack_reports(net: network.NetworkParams, data: Dataset, epsilons,
                   cfg: LossConfig) -> list[tuple[float, UncertaintyReports]]:
    """(epsilon, reports on the FGSM inputs) per noise level, clipped to
    data.feature_range; eps=0 evaluates the clean inputs. One clean forward
    serves the eps=0 reports and the one FGSM direction of the sweep; each
    eps > 0 then costs one perturbation and one forward. Concentrations that
    overflow float64, or that F's gradient cannot take, raise
    ConcentrationOverflowError naming the epsilon.
    `sweep_row` reduces an entry to its row of the sweep table."""
    epsilons = [float(e) for e in epsilons]
    for eps in epsilons:
        _check_epsilon(eps)
    if any(b > a for a, b in zip(epsilons[1:], epsilons)):
        raise ValueError("epsilons must be sorted ascending")
    if data.labels is None:
        raise ValueError("attack sweep needs labeled data")
    labels = data.label_indices
    clean = f"{data.provenance} at epsilon 0.0"
    trace = _forward(net, data.features, clean)
    direction = None
    if any(eps > 0.0 for eps in epsilons):
        try:
            direction = np.sign(network._trace_input_gradient(net, trace, labels, cfg))
        except DomainError:  # alpha_0 - alpha_c rounds to 0 where one alpha_c dominates
            raise ConcentrationOverflowError(f"{clean}: the network's concentrations are "
                                             "too large for F's input gradient") from None
    clean_alpha = trace.alpha
    del trace  # the sweep keeps only the clean alpha and the direction
    out = []
    for eps in epsilons:
        if eps == 0.0:
            alpha = clean_alpha
        else:
            adv = fgsm_attack(net, data.features, labels, eps, cfg,
                              data.feature_range, direction)
            alpha = _forward(net, adv, f"{data.provenance} at epsilon {eps!r}").alpha
        out.append((eps, _reports(alpha, labels)))
    return out


def sweep_row(eps: float, reports: UncertaintyReports) -> SweepRow:
    """Accuracy, mean entropy and mean MI of the reports at one noise level."""
    return SweepRow(
        epsilon=eps,
        accuracy=float(np.mean(reports.correct)),
        mean_entropy=float(np.mean(reports.entropy)),
        mean_mutual_info=float(np.mean(reports.mutual_info)),
    )
