"""Executable certification suite for the monotonicity lemmas and the three
loss-shape theorems, plus the dip-then-rise illustration sweep."""

from __future__ import annotations

from dataclasses import dataclass, field

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
]

# Differences must beat this in the predicted direction to count as strict.
STRICT_TOL = 1e-12

# The lemma sweep draws and checks its triples in blocks of this many: the
# one digamma_trigamma call over the stacked (4, b) arguments (x1, x2, x1 + p,
# x2 + p) is one specfun.BLOCK, so it takes the unsplit path, and every block
# is drawn into the same buffer, so no draw or sum is allocated per block.
_TRIPLES_PER_BLOCK = BLOCK // 4

# The protocol: every sweep runs over GRID, 50 points evenly spaced in log
# from 1.01 to 1e3; theorems 1 and 2 take F at THEOREM_P_NORM, the figure at
# FIGURE_P_NORM.
GRID = np.logspace(np.log10(1.01), np.log10(1e3), 50)
THEOREM_P_NORM = 4.0
FIGURE_P_NORM = 2.0

# A theorem evaluates its random bases in loss calls of up to this many: 1,250
# rows on GRID, whose ~15k stacked special-function arguments fit in one
# specfun.BLOCK. The default 100 trials make four calls.
_BASES_PER_CALL = 25


@dataclass
class Verdict:
    name: str
    passed: bool
    seed: int
    checks: int
    detail: dict = field(default_factory=dict)


def _uniform_into(rng: np.random.Generator, lo: float, hi: float, out: np.ndarray) -> None:
    """rng.uniform(lo, hi, size=out.size) written into out, bit for bit: numpy
    forms each value as lo + (hi - lo) * U from one standard uniform double."""
    rng.random(out=out)
    out *= hi - lo
    out += lo


def _triple_blocks(n_triples: int, seed: int):
    """Random (x1, x2, p) with x1 > x2 > 1 and p in (0, 10], as (4, b) blocks
    of rows (x1, x2, x1 + p, x2 + p), b up to _TRIPLES_PER_BLOCK. Each block
    is a view of one buffer that the next block overwrites, so it is valid
    only until the next one is drawn.

    They are the numbers of x2 = 1 + u(1e-3, 50), x1 = x2 + u(1e-3, 50) and
    p = u(1e-6, 10), each drawn n_triples at a time in that order from
    default_rng(seed): a uniform double takes one 64-bit output, so the x1
    and p streams start n_triples and 2 n_triples outputs into the seed's
    PCG64 stream."""
    seq = np.random.SeedSequence(seed)
    x2_rng, x1_rng, p_rng = (
        np.random.Generator(np.random.PCG64(seq).advance(skip * n_triples))
        for skip in range(3))
    buf = np.empty(4 * min(_TRIPLES_PER_BLOCK, n_triples))
    for lo in range(0, n_triples, _TRIPLES_PER_BLOCK):
        b = min(_TRIPLES_PER_BLOCK, n_triples - lo)
        # the last, partial block is the buffer's contiguous head
        block = buf[:4 * b].reshape(4, b)
        x1, x2, x1p, x2p = block
        _uniform_into(x2_rng, 1e-3, 50.0, x2)
        x2 += 1.0
        _uniform_into(x1_rng, 1e-3, 50.0, x1)
        x1 += x2
        # p goes into row 2 and is then shifted by x1 there
        _uniform_into(p_rng, 1e-6, 10.0, x1p)
        np.add(x2, x1p, out=x2p)
        x1p += x1
        yield block


def _lemma_sweep(n_triples: int, seed: int) -> tuple[Verdict, Verdict]:
    """(lemma1, lemma2) over n_triples random triples, drawn and checked block
    by block with one digamma_trigamma call each."""
    if n_triples < 1:
        raise ValueError("n_triples must be >= 1")
    ok1 = ok2 = True
    for block in _triple_blocks(n_triples, seed):
        psi, psi1 = digamma_trigamma(block)
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


def _decreasing_convex(vals: np.ndarray) -> np.ndarray:
    """Per row of vals (sweeps, GRID points): strictly decreasing and
    strictly convex, every second divided difference on the unevenly spaced
    grid positive."""
    diffs = np.diff(vals)
    second = np.diff(diffs / np.diff(GRID)) / (GRID[2:] - GRID[:-2])
    bad = np.any(diffs >= -STRICT_TOL, axis=1) | np.any(second <= STRICT_TOL, axis=1)
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


def _draw_bases(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alphas, cs, js): the `trials` random bases of default_rng(seed)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    return tuple(np.array(v) for v in zip(*_random_bases(rng, trials)))


def _base_sweeps(bases, loss_fn, vary_correct: bool) -> np.ndarray:
    """vals[t] is loss_fn(alpha, c) for random base t along GRID, in the
    correct-class concentration parameter or in a random off-class one. One
    loss_fn call covers up to _BASES_PER_CALL bases."""
    alphas, cs, js = bases
    col = cs if vary_correct else js
    vals = np.empty((cs.size, GRID.size))
    for lo in range(0, cs.size, _BASES_PER_CALL):
        part = slice(lo, lo + _BASES_PER_CALL)
        a = np.repeat(alphas[part, None, :], GRID.size, axis=1)
        a[np.arange(a.shape[0])[:, None], np.arange(GRID.size), col[part, None]] = GRID
        vals[part] = loss_fn(a.reshape(-1, alphas.shape[1]),
                             np.repeat(cs[part], GRID.size)).reshape(-1, GRID.size)
    return vals


def _theorem_f(alpha, c):
    return iad_loss_batch(alpha, c, THEOREM_P_NORM)


def _theorem1(bases, seed: int) -> Verdict:
    vals = _base_sweeps(bases, _theorem_f, True)
    bad = np.flatnonzero(~_decreasing_convex(vals)).tolist()
    return Verdict("theorem1", not bad, seed, len(vals),
                   {"p_norm": THEOREM_P_NORM, "failures": bad})


def _theorem2(bases, seed: int) -> Verdict:
    vals = _base_sweeps(bases, _theorem_f, False)
    passed, knees = _eventually_increasing(vals)
    bad = np.flatnonzero(~passed).tolist()
    return Verdict("theorem2", not bad, seed, len(vals),
                   {"p_norm": THEOREM_P_NORM, "knees": knees, "failures": bad})


def _theorem3(bases, seed: int) -> Verdict:
    vals = _base_sweeps(bases, info_regularizer_batch, False)
    bad = np.flatnonzero(~_increasing(vals)).tolist()
    return Verdict("theorem3", not bad, seed, len(vals), {"failures": bad})


def verify_theorem1(trials: int = 100, seed: int = 0) -> Verdict:
    """F is strictly convex and strictly decreasing in the correct-class
    concentration parameter."""
    return _theorem1(_draw_bases(trials, seed), seed)


def verify_theorem2(trials: int = 100, seed: int = 0) -> Verdict:
    """F is eventually strictly increasing in an off-class concentration
    parameter, with the final value above the initial one."""
    return _theorem2(_draw_bases(trials, seed), seed)


def verify_theorem3(trials: int = 100, seed: int = 0) -> Verdict:
    """The information regularizer is strictly increasing in every off-class
    concentration parameter over the whole grid."""
    return _theorem3(_draw_bases(trials, seed), seed)


def theorem2_figure_sweep(seed: int) -> dict:
    """Dip-then-rise illustration: the exact loss at FIGURE_P_NORM along the
    sweep of alpha_1 over GRID, next to the large-argument approximation
    mu(a) ~ a^p. The K = 10 base draws each alpha_j uniform in [5, 50) from
    default_rng(seed), then keeps the correct class 0 small at 1.5."""
    alpha = np.random.default_rng(seed).uniform(5.0, 50.0, size=10)
    alpha[0] = 1.5
    c, j, p = 0, 1, FIGURE_P_NORM
    a = np.tile(alpha, (GRID.size, 1))
    a[:, j] = GRID
    exact = iad_loss_batch(a, np.full(GRID.size, c), p)

    a0 = a.sum(axis=1)
    s = a0 - a[:, c]
    off = np.arange(alpha.size) != c
    approx = ((s ** p + np.sum(a[:, off] ** p, axis=1)) / a0 ** p) ** (1.0 / p)

    return {
        "grid": GRID.tolist(),
        "swept_index": j,
        "correct_class": c,
        "p_norm": p,
        "exact": exact.tolist(),
        "approx": approx.tolist(),
        "knee_index": _eventually_increasing(exact[None, :])[1][0],
        "has_dip": bool(np.any(np.diff(exact) < -STRICT_TOL)),
        "rises": bool(exact[-1] > exact[0]),
    }


def run_all(seed: int = 0, trials: int = 100, n_triples: int = 1000) -> list[Verdict]:
    """The two lemmas and the three theorems, which share one draw of the
    random bases: each verdict equals its standalone verify_* one."""
    lemmas = _lemma_sweep(n_triples, seed)
    bases = _draw_bases(trials, seed)
    return [*lemmas, *(check(bases, seed) for check in (_theorem1, _theorem2, _theorem3))]
