"""Executable certification suite for the monotonicity lemmas and the three
loss-shape theorems, plus the dip-then-rise illustration sweep."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import iad_loss_batch, info_regularizer_batch
from .specfun import BLOCK, digamma, digamma_trigamma

__all__ = [
    "Verdict",
    "verify_lemma1",
    "verify_lemma2",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "theorem2_figure_sweep",
    "run_all",
    "default_grid",
    "verdicts_to_json",
    "figure_sweep_to_csv",
]

# Differences must beat this in the predicted direction to count as strict.
STRICT_TOL = 1e-12

# The lemma sweep draws and checks its triples in blocks of this many: the
# one digamma_trigamma call over the stacked (4, b) arguments (x1, x2, x1 + p,
# x2 + p) is one specfun.BLOCK, so it takes the unsplit path, and the block's
# draws and temporaries stay in cache rather than being returned to the
# system and faulted in again.
_TRIPLES_PER_BLOCK = BLOCK // 4

# A theorem evaluates its random bases in loss calls of up to this many: 1,250
# rows on the default grid, whose ~15k stacked special-function arguments fit
# in one specfun.BLOCK. The default 100 trials make four calls.
_BASES_PER_CALL = 25


@dataclass
class Verdict:
    name: str
    passed: bool
    seed: int
    checks: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def default_grid(lo: float = 1.01, hi: float = 1e3, n: int = 50) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 3 or np.any(np.diff(g) <= 0.0) or g[0] <= 1.0:
        raise ValueError("grid must be strictly increasing with values > 1")
    return g


def _triple_blocks(n_triples: int, seed: int):
    """Random (x1, x2, p) with x1 > x2 > 1 and p in (0, 10], in blocks of up
    to _TRIPLES_PER_BLOCK. They are the numbers of x2 = 1 + u(1e-3, 50),
    x1 = x2 + u(1e-3, 50) and p = u(1e-6, 10), each drawn n_triples at a time
    in that order from default_rng(seed): a uniform double takes one 64-bit
    output, so the x1 and p streams start n_triples and 2 n_triples outputs
    into the seed's PCG64 stream."""
    seq = np.random.SeedSequence(seed)
    x2_rng, x1_rng, p_rng = (
        np.random.Generator(np.random.PCG64(seq).advance(skip * n_triples))
        for skip in range(3))
    for lo in range(0, n_triples, _TRIPLES_PER_BLOCK):
        b = min(_TRIPLES_PER_BLOCK, n_triples - lo)
        x2 = 1.0 + x2_rng.uniform(1e-3, 50.0, size=b)
        x1 = x2 + x1_rng.uniform(1e-3, 50.0, size=b)
        yield x1, x2, p_rng.uniform(1e-6, 10.0, size=b)


def _lemma_sweep(n_triples: int, seed: int) -> tuple[Verdict, Verdict]:
    """(lemma1, lemma2) over n_triples random triples, drawn and checked block
    by block with one digamma_trigamma call each."""
    if n_triples < 1:
        raise ValueError("n_triples must be >= 1")
    ok1 = ok2 = True
    for x1, x2, p in _triple_blocks(n_triples, seed):
        psi, psi1 = digamma_trigamma(np.stack([x1, x2, x1 + p, x2 + p]))
        shifted, plain = psi[2] - psi[3], psi[0] - psi[1]
        ok1 &= bool(np.all(shifted > 0.0) and np.all(shifted < plain))
        shifted, plain = psi1[2] - psi1[3], psi1[0] - psi1[1]
        ok2 &= bool(np.all(plain < shifted) and np.all(shifted < 0.0))
    tail = float(np.max(digamma(1e4 + np.linspace(1e-6, 10.0, 100)) - digamma(1e4)))
    ok_limit = tail < 1e-3
    return (Verdict("lemma1", ok1 and ok_limit, seed, n_triples,
                    {"max_tail_gap": tail, "inequality_ok": ok1, "limit_ok": ok_limit}),
            Verdict("lemma2", ok2, seed, n_triples))


def verify_lemma1(n_triples: int = 1000, seed: int = 0) -> Verdict:
    """0 < psi(x1+p) - psi(x2+p) < psi(x1) - psi(x2) for x1 > x2 > 1, p > 0,
    and psi(x+p) - psi(x) -> 0 as x grows."""
    return _lemma_sweep(n_triples, seed)[0]


def verify_lemma2(n_triples: int = 1000, seed: int = 0) -> Verdict:
    """psi'(x1) - psi'(x2) < psi'(x1+p) - psi'(x2+p) < 0 on the same triples."""
    return _lemma_sweep(n_triples, seed)[1]


def _divided_second_diffs(grid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Second divided differences along the last axis; positive everywhere
    iff strictly convex on the (unevenly spaced) grid."""
    d1 = np.diff(vals) / np.diff(grid)
    return np.diff(d1) / (grid[2:] - grid[:-2])


def _decreasing_convex(grid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per row of vals (sweeps, grid points): strictly decreasing and
    strictly convex."""
    bad = (np.any(np.diff(vals) >= -STRICT_TOL, axis=1)
           | np.any(_divided_second_diffs(grid, vals) <= STRICT_TOL, axis=1))
    return ~bad


def _increasing(vals: np.ndarray) -> np.ndarray:
    """Per row of vals: strictly increasing."""
    return ~np.any(np.diff(vals) <= STRICT_TOL, axis=1)


def _eventually_increasing(vals: np.ndarray) -> tuple[np.ndarray, list[int | None]]:
    """Per row of vals: (passed, knee). The knee is the first index after
    which every forward difference is positive, None when the last one is
    not; a row passes when it has a knee and ends above its start."""
    pos = np.diff(vals) > STRICT_TOL
    suffix_ok = np.logical_and.accumulate(pos[:, ::-1], axis=1)[:, ::-1]
    has_knee = suffix_ok[:, -1]
    knees = [int(i) if ok else None
             for i, ok in zip(np.argmax(suffix_ok, axis=1), has_knee)]
    return has_knee & (vals[:, -1] > vals[:, 0]), knees


def _random_bases(rng: np.random.Generator, trials: int, k: int = 10):
    for _ in range(trials):
        alpha = rng.uniform(1.0, 50.0, size=k)
        c = int(rng.integers(k))
        # one of the k - 1 other classes, the draw rng.choice makes over them
        j = int(rng.integers(k - 1))
        yield alpha, c, j + (j >= c)


def _base_sweeps(trials: int, grid, seed: int, loss_fn,
                 vary_correct: bool) -> tuple[np.ndarray, np.ndarray]:
    """(grid, vals): vals[t] is loss_fn(alpha, c) for random base t along the
    grid, in the correct-class concentration parameter or in a random
    off-class one. One loss_fn call covers up to _BASES_PER_CALL bases."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = _check_grid(default_grid() if grid is None else grid)
    rng = np.random.default_rng(seed)
    alphas, cs, js = (np.array(v) for v in zip(*_random_bases(rng, trials)))
    col = cs if vary_correct else js
    vals = np.empty((trials, grid.size))
    for lo in range(0, trials, _BASES_PER_CALL):
        part = slice(lo, lo + _BASES_PER_CALL)
        a = np.repeat(alphas[part, None, :], grid.size, axis=1)
        a[np.arange(a.shape[0])[:, None], np.arange(grid.size), col[part, None]] = grid
        vals[part] = loss_fn(a.reshape(-1, alphas.shape[1]),
                             np.repeat(cs[part], grid.size)).reshape(-1, grid.size)
    return grid, vals


def verify_theorem1(trials: int = 100, grid=None, seed: int = 0,
                    p_norm: float = 4.0) -> Verdict:
    """F is strictly convex and strictly decreasing in the correct-class
    concentration parameter."""
    grid, vals = _base_sweeps(trials, grid, seed,
                              lambda a, c: iad_loss_batch(a, c, p_norm), True)
    bad = np.flatnonzero(~_decreasing_convex(grid, vals)).tolist()
    return Verdict("theorem1", not bad, seed, trials, {"p_norm": p_norm, "failures": bad})


def verify_theorem2(trials: int = 100, grid=None, seed: int = 0,
                    p_norm: float = 4.0) -> Verdict:
    """F is eventually strictly increasing in an off-class concentration
    parameter, with the final value above the initial one."""
    _, vals = _base_sweeps(trials, grid, seed,
                           lambda a, c: iad_loss_batch(a, c, p_norm), False)
    passed, knees = _eventually_increasing(vals)
    bad = np.flatnonzero(~passed).tolist()
    return Verdict("theorem2", not bad, seed, trials,
                   {"p_norm": p_norm, "knees": knees, "failures": bad})


def verify_theorem3(trials: int = 100, grid=None, seed: int = 0) -> Verdict:
    """The information regularizer is strictly increasing in every off-class
    concentration parameter over the whole grid."""
    _, vals = _base_sweeps(trials, grid, seed, info_regularizer_batch, False)
    bad = np.flatnonzero(~_increasing(vals)).tolist()
    return Verdict("theorem3", not bad, seed, trials, {"failures": bad})


def theorem2_figure_sweep(alpha: np.ndarray, c: int, p_norm: float, grid) -> dict:
    """Dip-then-rise illustration: exact loss along an off-class sweep next to
    the large-argument approximation mu(a) ~ a^p."""
    grid = _check_grid(grid)
    alpha = np.asarray(alpha, dtype=np.float64)
    k = alpha.size
    if k < 2:
        raise ValueError("alpha must have at least 2 classes")
    j = next(i for i in range(k) if i != c)
    a = np.tile(alpha, (grid.size, 1))
    a[:, j] = grid
    exact = iad_loss_batch(a, np.full(grid.size, c), p_norm)

    a0 = a.sum(axis=1)
    s = a0 - a[:, c]
    mask = np.ones(k, dtype=bool)
    mask[c] = False
    approx = ((s ** p_norm + np.sum(a[:, mask] ** p_norm, axis=1)) / a0 ** p_norm) ** (1.0 / p_norm)

    return {
        "grid": grid.tolist(),
        "swept_index": j,
        "correct_class": c,
        "p_norm": p_norm,
        "exact": exact.tolist(),
        "approx": approx.tolist(),
        "knee_index": _eventually_increasing(exact[None, :])[1][0],
        "has_dip": bool(np.any(np.diff(exact) < -STRICT_TOL)),
        "rises": bool(exact[-1] > exact[0]),
    }


def run_all(seed: int = 0, trials: int = 100, n_triples: int = 1000) -> list[Verdict]:
    return [
        *_lemma_sweep(n_triples, seed),
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
