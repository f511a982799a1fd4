"""Uncertainty reports as column arrays, boxplot-style summaries and FGSM
attack sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network
from .data import Dataset
from .dirichlet import mutual_information, predictive_entropy
from .losses import LossConfig

__all__ = [
    "UncertaintyReports",
    "DistributionSummary",
    "SweepRow",
    "evaluate",
    "summarize",
    "fgsm_attack",
    "attack_reports",
    "sweep_row",
]


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
    """One report row per example; prediction is the argmax of the predictive mean."""
    trace = network.forward(net, data.features)
    labels = None if data.labels is None else data.label_indices
    return _reports(trace.alpha, labels)


def summarize(values, threshold: float) -> DistributionSummary:
    """Quartiles by linear interpolation; whiskers are the extreme data points
    within 1.5*IQR of the quartile box."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot summarize an empty list")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    in_lo = v[v >= q1 - 1.5 * iqr]
    in_hi = v[v <= q3 + 1.5 * iqr]
    return DistributionSummary(
        count=int(v.size),
        min=float(v.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        whisker_lo=float(in_lo.min()),
        whisker_hi=float(in_hi.max()),
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
    components stay put. epsilon must be finite and >= 0. ``direction`` is
    sgn(grad_x F) at x if the caller already has it; else it is computed."""
    _check_epsilon(epsilon)
    x = np.asarray(x, dtype=np.float64)
    if direction is None:
        direction = np.sign(network.input_gradient(net, x, correct_class, cfg))
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
    eps > 0 then costs one perturbation and one forward.
    `sweep_row` reduces an entry to its row of the sweep table."""
    epsilons = [float(e) for e in epsilons]
    for eps in epsilons:
        _check_epsilon(eps)
    if any(b > a for a, b in zip(epsilons[1:], epsilons)):
        raise ValueError("epsilons must be sorted ascending")
    if data.labels is None:
        raise ValueError("attack sweep needs labeled data")
    labels = data.label_indices
    trace = network.forward(net, data.features)
    direction = None
    if any(eps > 0.0 for eps in epsilons):
        direction = np.sign(network._trace_input_gradient(net, trace, labels, cfg))
    clean_alpha = trace.alpha
    del trace  # the sweep keeps only the clean alpha and the direction
    out = []
    for eps in epsilons:
        if eps == 0.0:
            alpha = clean_alpha
        else:
            adv = fgsm_attack(net, data.features, labels, eps, cfg,
                              data.feature_range, direction)
            alpha = network.forward(net, adv).alpha
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
