"""Executable certification suite for the monotonicity lemmas and the three
loss-shape theorems, plus the dip-then-rise illustration sweep."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import iad_loss_batch, info_regularizer_batch
from .specfun import digamma, trigamma

__all__ = [
    "Verdict",
    "SweepResult",
    "verify_lemma1",
    "verify_lemma2",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "theorem2_figure_sweep",
    "run_all",
    "default_grid",
]

# Differences must beat this in the predicted direction to count as strict.
STRICT_TOL = 1e-12


@dataclass
class Verdict:
    name: str
    passed: bool
    seed: int
    checks: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepResult:
    """One parameter sweep: grid, loss values, differences and a verdict."""

    grid: list[float]
    values: list[float]
    first_diffs: list[float]
    second_diffs: list[float]
    passed: bool
    first_violation: int | None = None
    knee_index: int | None = None


def default_grid(lo: float = 1.01, hi: float = 1e3, n: int = 50) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 3 or np.any(np.diff(g) <= 0.0) or g[0] <= 1.0:
        raise ValueError("grid must be strictly increasing with values > 1")
    return g


def _sample_triples(rng: np.random.Generator, n: int):
    """Random (x1, x2, p) with x1 > x2 > 1 and p in (0, 10]."""
    x2 = 1.0 + rng.uniform(1e-3, 50.0, size=n)
    x1 = x2 + rng.uniform(1e-3, 50.0, size=n)
    p = rng.uniform(1e-6, 10.0, size=n)
    return x1, x2, p


def verify_lemma1(n_triples: int = 1000, seed: int = 0) -> Verdict:
    """0 < psi(x1+p) - psi(x2+p) < psi(x1) - psi(x2) for x1 > x2 > 1, p > 0,
    and psi(x+p) - psi(x) -> 0 as x grows."""
    rng = np.random.default_rng(seed)
    x1, x2, p = _sample_triples(rng, n_triples)
    shifted = digamma(x1 + p) - digamma(x2 + p)
    plain = digamma(x1) - digamma(x2)
    ok = bool(np.all(shifted > 0.0) and np.all(shifted < plain))
    tail = float(np.max(digamma(1e4 + np.linspace(1e-6, 10.0, 100)) - digamma(1e4)))
    ok_limit = tail < 1e-3
    return Verdict("lemma1", ok and ok_limit, seed, n_triples,
                   {"max_tail_gap": tail, "inequality_ok": ok, "limit_ok": ok_limit})


def verify_lemma2(n_triples: int = 1000, seed: int = 0) -> Verdict:
    """psi'(x1) - psi'(x2) < psi'(x1+p) - psi'(x2+p) < 0 on the same triples."""
    rng = np.random.default_rng(seed)
    x1, x2, p = _sample_triples(rng, n_triples)
    shifted = trigamma(x1 + p) - trigamma(x2 + p)
    plain = trigamma(x1) - trigamma(x2)
    ok = bool(np.all(plain < shifted) and np.all(shifted < 0.0))
    return Verdict("lemma2", ok, seed, n_triples)


def _divided_second_diffs(grid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Second divided differences; positive everywhere iff strictly convex
    on the (unevenly spaced) grid."""
    d1 = np.diff(vals) / np.diff(grid)
    return np.diff(d1) / (grid[2:] - grid[:-2])


def _sweep(curve_fn, grid: np.ndarray, check: str) -> SweepResult:
    vals = curve_fn(grid)
    diffs = np.diff(vals)
    second = _divided_second_diffs(grid, vals)
    first_violation = None
    knee = None
    if check == "decreasing_convex":
        bad_dec = np.flatnonzero(diffs >= -STRICT_TOL)
        bad_conv = np.flatnonzero(second <= STRICT_TOL)
        passed = bad_dec.size == 0 and bad_conv.size == 0
        if not passed:
            first_violation = int(min(
                [b[0] for b in (bad_dec, bad_conv) if b.size]))
    elif check == "increasing":
        bad = np.flatnonzero(diffs <= STRICT_TOL)
        passed = bad.size == 0
        if not passed:
            first_violation = int(bad[0])
    elif check == "eventually_increasing":
        pos = diffs > STRICT_TOL
        # knee: first index after which every forward difference is positive
        suffix_ok = np.flatnonzero(np.cumprod(pos[::-1])[::-1])
        knee = int(suffix_ok[0]) if suffix_ok.size else None
        passed = knee is not None and vals[-1] > vals[0]
        if not passed:
            first_violation = int(np.flatnonzero(~pos)[-1]) if np.any(~pos) else None
    else:
        raise ValueError(check)
    return SweepResult(grid.tolist(), vals.tolist(), diffs.tolist(), second.tolist(),
                       passed, first_violation, knee)


def _random_bases(rng: np.random.Generator, trials: int, k: int = 10):
    for _ in range(trials):
        alpha = rng.uniform(1.0, 50.0, size=k)
        c = int(rng.integers(k))
        j = int(rng.choice([i for i in range(k) if i != c]))
        yield alpha, c, j


def _base_sweeps(trials: int, grid, seed: int, loss_fn, vary_correct: bool,
                 check: str) -> tuple[list[SweepResult], list[int]]:
    """One sweep per random base, loss_fn(alpha, c) along the correct-class
    concentration parameter or along a random off-class one; also returns
    the indices of the failed sweeps."""
    grid = _check_grid(default_grid() if grid is None else grid)
    rng = np.random.default_rng(seed)
    sweeps = []
    for alpha, c, j in _random_bases(rng, trials):
        def curve(g, alpha=alpha, c=c, col=c if vary_correct else j):
            a = np.tile(alpha, (g.size, 1))
            a[:, col] = g
            return loss_fn(a, np.full(g.size, c))
        sweeps.append(_sweep(curve, grid, check))
    return sweeps, [i for i, s in enumerate(sweeps) if not s.passed]


def verify_theorem1(trials: int = 100, grid=None, seed: int = 0,
                    p_norm: float = 4.0) -> Verdict:
    """F is strictly convex and strictly decreasing in the correct-class
    concentration parameter."""
    _, bad = _base_sweeps(trials, grid, seed, lambda a, c: iad_loss_batch(a, c, p_norm),
                          True, "decreasing_convex")
    return Verdict("theorem1", not bad, seed, trials, {"p_norm": p_norm, "failures": bad})


def verify_theorem2(trials: int = 100, grid=None, seed: int = 0,
                    p_norm: float = 4.0) -> Verdict:
    """F is eventually strictly increasing in an off-class concentration
    parameter, with the final value above the initial one."""
    sweeps, bad = _base_sweeps(trials, grid, seed, lambda a, c: iad_loss_batch(a, c, p_norm),
                               False, "eventually_increasing")
    return Verdict("theorem2", not bad, seed, trials,
                   {"p_norm": p_norm, "knees": [s.knee_index for s in sweeps],
                    "failures": bad})


def verify_theorem3(trials: int = 100, grid=None, seed: int = 0) -> Verdict:
    """The information regularizer is strictly increasing in every off-class
    concentration parameter over the whole grid."""
    _, bad = _base_sweeps(trials, grid, seed, info_regularizer_batch, False, "increasing")
    return Verdict("theorem3", not bad, seed, trials, {"failures": bad})


def theorem2_figure_sweep(alpha: np.ndarray, c: int, p_norm: float, grid) -> dict:
    """Dip-then-rise illustration: exact loss along an off-class sweep next to
    the large-argument approximation mu(a) ~ a^p."""
    grid = _check_grid(grid)
    alpha = np.asarray(alpha, dtype=np.float64)
    k = alpha.size
    j = next(i for i in range(k) if i != c)
    a = np.tile(alpha, (grid.size, 1))
    a[:, j] = grid
    exact = iad_loss_batch(a, np.full(grid.size, c), p_norm)

    a0 = a.sum(axis=1)
    s = a0 - a[:, c]
    mask = np.ones(k, dtype=bool)
    mask[c] = False
    approx = ((s ** p_norm + np.sum(a[:, mask] ** p_norm, axis=1)) / a0 ** p_norm) ** (1.0 / p_norm)

    sweep = _sweep(lambda _: exact, grid, "eventually_increasing")
    return {
        "grid": grid.tolist(),
        "swept_index": j,
        "correct_class": c,
        "p_norm": p_norm,
        "exact": exact.tolist(),
        "approx": approx.tolist(),
        "knee_index": sweep.knee_index,
        "has_dip": bool(np.any(np.diff(exact) < -STRICT_TOL)),
        "rises": bool(exact[-1] > exact[0]),
    }


def run_all(seed: int = 0, trials: int = 100, n_triples: int = 1000) -> list[Verdict]:
    return [
        verify_lemma1(n_triples, seed),
        verify_lemma2(n_triples, seed),
        verify_theorem1(trials, seed=seed),
        verify_theorem2(trials, seed=seed),
        verify_theorem3(trials, seed=seed),
    ]


def verdicts_to_json(verdicts: list[Verdict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({v.name: v.to_dict() for v in verdicts}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def figure_sweep_to_csv(sweep: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha_j", "loss_exact", "loss_approx"])
        for g, e, ap in zip(sweep["grid"], sweep["exact"], sweep["approx"]):
            writer.writerow([repr(g), repr(e), repr(ap)])
