"""Executable certification of the monotonicity lemmas and theorems, plus the
dip-then-rise illustration sweep."""

import json
import tracemalloc

import numpy as np
import pytest

from iad import verify
from iad.losses import iad_loss_batch, info_regularizer_batch
from iad.specfun import digamma, trigamma
from iad.verify import (STRICT_TOL, Verdict, default_grid, figure_sweep_to_csv,
                        run_all, theorem2_figure_sweep, verdicts_to_json,
                        verify_lemma1, verify_lemma2, verify_theorem1,
                        verify_theorem2, verify_theorem3)


def test_lemma1_passes_over_random_triples():
    v = verify_lemma1(n_triples=1000, seed=0)
    assert v.passed
    assert v.checks >= 1000


def test_lemma2_passes_over_random_triples():
    v = verify_lemma2(n_triples=1000, seed=0)
    assert v.passed


def test_lemmas_deterministic_per_seed():
    assert verify_lemma1(seed=3).to_dict() == verify_lemma1(seed=3).to_dict()


@pytest.mark.parametrize("n_triples", [0, -5])
@pytest.mark.parametrize("fn", [verify_lemma1, verify_lemma2,
                                lambda n: run_all(trials=1, n_triples=n)])
def test_lemmas_reject_fewer_than_one_triple(fn, n_triples):
    with pytest.raises(ValueError, match="n_triples must be >= 1") as err:
        fn(n_triples)
    assert type(err.value) is ValueError


def test_theorem1_decreasing_convex():
    v = verify_theorem1(trials=100, seed=0)
    assert v.passed
    assert v.detail["failures"] == []


def test_theorem2_eventually_increasing():
    v = verify_theorem2(trials=100, seed=0)
    assert v.passed


def test_theorem3_regularizer_increasing():
    v = verify_theorem3(trials=100, seed=0)
    assert v.passed


def test_run_all_passes():
    verdicts = run_all(seed=0, trials=20, n_triples=200)
    assert {v.name for v in verdicts} == {
        "lemma1", "lemma2", "theorem1", "theorem2", "theorem3"}
    assert all(v.passed for v in verdicts)


def test_default_grid_shape():
    g = default_grid()
    assert g.size == 50
    assert g[0] == pytest.approx(1.01)
    assert g[-1] == pytest.approx(1e3)
    assert np.all(np.diff(g) > 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        verify_theorem1(trials=1, grid=[0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        verify_theorem1(trials=1, grid=[2.0, 1.5, 3.0])
    with pytest.raises(ValueError):
        verify_theorem1(trials=0)


def test_figure_sweep_dip_then_rise():
    # stated illustration configuration: p=2, K=10, small correct-class alpha
    rng = np.random.default_rng(0)
    alpha = rng.uniform(5.0, 50.0, size=10)
    alpha[0] = 1.5
    sweep = theorem2_figure_sweep(alpha, 0, 2.0, default_grid())
    assert sweep["has_dip"]
    assert sweep["rises"]
    assert sweep["knee_index"] is not None
    exact = np.array(sweep["exact"])
    tail = np.diff(exact[sweep["knee_index"]:])
    assert np.all(tail > STRICT_TOL)
    assert exact[-1] > exact[0]


def test_figure_sweep_rejects_one_class_alpha():
    with pytest.raises(ValueError, match="at least 2 classes"):
        theorem2_figure_sweep(np.array([1.5]), 0, 2.0, default_grid())


def test_figure_sweep_approximation_tracks_exact_at_large_alpha():
    alpha = np.full(10, 20.0)
    alpha[0] = 1.5
    sweep = theorem2_figure_sweep(alpha, 0, 2.0, default_grid())
    exact, approx = np.array(sweep["exact"]), np.array(sweep["approx"])
    # mu(a) ~ a^p is a large-argument approximation: agreement tightens
    # toward the top of the grid
    assert abs(approx[-1] / exact[-1] - 1.0) < 0.05


def test_emission_roundtrip(tmp_path):
    verdicts = run_all(seed=1, trials=5, n_triples=50)
    verdicts_to_json(verdicts, tmp_path / "v.json")
    loaded = json.loads((tmp_path / "v.json").read_text())
    assert set(loaded) == {"lemma1", "lemma2", "theorem1", "theorem2",
                           "theorem3"}
    assert all(item["passed"] for item in loaded.values())

    alpha = np.full(10, 10.0)
    alpha[0] = 1.5
    sweep = theorem2_figure_sweep(alpha, 0, 2.0, default_grid())
    figure_sweep_to_csv(sweep, tmp_path / "f.csv")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert len(lines) == len(sweep["grid"]) + 1


# ------------------------------------------- batched sweeps against per-trial

def reference_sweeps(trials, seed, loss_fn, vary_correct, check):
    """(failures, knees) by the per-trial algorithm: one loss call over the
    grid and one check per random base."""
    grid = default_grid()
    rng = np.random.default_rng(seed)
    failures, knees = [], []
    for t in range(trials):
        alpha = rng.uniform(1.0, 50.0, size=10)
        c = int(rng.integers(10))
        j = int(rng.choice([i for i in range(10) if i != c]))
        a = np.tile(alpha, (grid.size, 1))
        a[:, c if vary_correct else j] = grid
        vals = loss_fn(a, np.full(grid.size, c))
        diffs = np.diff(vals)
        if check == "decreasing_convex":
            second = np.diff(diffs / np.diff(grid)) / (grid[2:] - grid[:-2])
            passed = not (np.any(diffs >= -STRICT_TOL) or np.any(second <= STRICT_TOL))
        elif check == "increasing":
            passed = not np.any(diffs <= STRICT_TOL)
        else:
            pos = diffs > STRICT_TOL
            suffix_ok = np.flatnonzero(np.cumprod(pos[::-1])[::-1])
            knee = int(suffix_ok[0]) if suffix_ok.size else None
            knees.append(knee)
            passed = knee is not None and vals[-1] > vals[0]
        if not passed:
            failures.append(t)
    return failures, knees


def reference_theorem(name, trials, seed, p_norm=4.0) -> dict:
    iad = lambda a, c: iad_loss_batch(a, c, p_norm)  # noqa: E731
    if name == "theorem1":
        bad, _ = reference_sweeps(trials, seed, iad, True, "decreasing_convex")
        detail = {"p_norm": p_norm, "failures": bad}
    elif name == "theorem2":
        bad, knees = reference_sweeps(trials, seed, iad, False, "eventually_increasing")
        detail = {"p_norm": p_norm, "knees": knees, "failures": bad}
    else:
        bad, _ = reference_sweeps(trials, seed, info_regularizer_batch, False, "increasing")
        detail = {"failures": bad}
    return Verdict(name, not bad, seed, trials, detail).to_dict()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("trials", [1, 7, 100])
def test_batched_theorems_equal_per_trial_reference(seed, trials):
    for name, fn in (("theorem1", verify_theorem1), ("theorem2", verify_theorem2),
                     ("theorem3", verify_theorem3)):
        assert fn(trials, seed=seed).to_dict() == reference_theorem(name, trials, seed)


def test_batched_theorems_split_over_calls_equal_per_trial_reference(monkeypatch):
    monkeypatch.setattr(verify, "_BASES_PER_CALL", 3)
    for name, fn in (("theorem1", verify_theorem1), ("theorem2", verify_theorem2),
                     ("theorem3", verify_theorem3)):
        assert fn(7, seed=2).to_dict() == reference_theorem(name, 7, 2)


def test_sweep_checks_report_failures_and_missing_knees():
    # by c mod 3: a rise with a wiggle that may end falling, a straight
    # (not strictly convex) fall, and a convex fall
    def synthetic(a, c):
        s = a.sum(axis=1)
        return np.select([c % 3 == 0, c % 3 == 1], [s + 3.0 * np.sin(s), -s], 1.0 / s)

    trials, seed = 40, 3
    grid, vals = verify._base_sweeps(trials, None, seed, synthetic, False)
    passed, knees = verify._eventually_increasing(vals)
    want_bad, want_knees = reference_sweeps(trials, seed, synthetic, False,
                                            "eventually_increasing")
    assert np.flatnonzero(~passed).tolist() == want_bad
    assert knees == want_knees
    assert 0 < len(want_bad) < trials
    assert None in knees and any(k is not None for k in knees)
    for check, got in (("increasing", verify._increasing(vals)),
                       ("decreasing_convex", verify._decreasing_convex(grid, vals))):
        want_bad, _ = reference_sweeps(trials, seed, synthetic, False, check)
        assert np.flatnonzero(~got).tolist() == want_bad
    assert 0 < len(want_bad) < trials


# ------------------------------------------ blocked lemma sweep against whole-array

def _sample_triples(rng: np.random.Generator, n: int):
    """Random (x1, x2, p) with x1 > x2 > 1 and p in (0, 10], as three whole
    draws from rng: the stream the lemma sweep draws block by block."""
    x2 = 1.0 + rng.uniform(1e-3, 50.0, size=n)
    x1 = x2 + rng.uniform(1e-3, 50.0, size=n)
    p = rng.uniform(1e-6, 10.0, size=n)
    return x1, x2, p


@pytest.mark.parametrize("seed", [0, 9])
def test_streamed_triples_equal_one_whole_draw(seed):
    b = verify._TRIPLES_PER_BLOCK
    for n in (1, b, b + 7, 3 * b + 7):
        blocks = list(verify._triple_blocks(n, seed))
        assert [x1.size for x1, _, _ in blocks] == [min(b, n - lo) for lo in range(0, n, b)]
        got = [np.concatenate(column) for column in zip(*blocks)]
        want = _sample_triples(np.random.default_rng(seed), n)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def reference_lemmas(n_triples, seed) -> tuple[dict, dict]:
    """(lemma1, lemma2) by the whole-array algorithm: one draw per lemma and
    one special-function call per argument array."""
    x1, x2, p = _sample_triples(np.random.default_rng(seed), n_triples)
    shifted = digamma(x1 + p) - digamma(x2 + p)
    plain = digamma(x1) - digamma(x2)
    ok1 = bool(np.all(shifted > 0.0) and np.all(shifted < plain))
    tail = float(np.max(digamma(1e4 + np.linspace(1e-6, 10.0, 100)) - digamma(1e4)))
    ok_limit = tail < 1e-3
    x1, x2, p = _sample_triples(np.random.default_rng(seed), n_triples)
    shifted = trigamma(x1 + p) - trigamma(x2 + p)
    plain = trigamma(x1) - trigamma(x2)
    ok2 = bool(np.all(plain < shifted) and np.all(shifted < 0.0))
    return (Verdict("lemma1", ok1 and ok_limit, seed, n_triples,
                    {"max_tail_gap": tail, "inequality_ok": ok1,
                     "limit_ok": ok_limit}).to_dict(),
            Verdict("lemma2", ok2, seed, n_triples).to_dict())


@pytest.mark.parametrize("block", [None, 3])
def test_blocked_lemmas_equal_whole_array_reference(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(verify, "_TRIPLES_PER_BLOCK", block)
    b = verify._TRIPLES_PER_BLOCK
    for n in (1, b - 1, b, b + 1, 3 * b + 7):
        for seed in range(5):
            want1, want2 = reference_lemmas(n, seed)
            assert want1["passed"] and want2["passed"]
            assert verify_lemma1(n, seed).to_dict() == want1
            assert verify_lemma2(n, seed).to_dict() == want2


def test_run_all_lemmas_equal_standalone_lemmas():
    n = 3 * verify._TRIPLES_PER_BLOCK + 7
    lemma1, lemma2, *_ = run_all(seed=4, trials=2, n_triples=n)
    assert lemma1.to_dict() == verify_lemma1(n, 4).to_dict()
    assert lemma2.to_dict() == verify_lemma2(n, 4).to_dict()


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("broken", ["digamma", "trigamma"])
def test_planted_violation_fails_only_its_lemma(monkeypatch, block, where, broken):
    # The wrapper sets the shifted difference of one triple to 0 in the psi
    # (first) or psi' (second) output of digamma_trigamma, which breaks
    # `shifted > 0` (lemma 1) or `shifted < 0` (lemma 2) there and nowhere
    # else; the triple sits in the first or in the last, partial, block.
    if block is not None:
        monkeypatch.setattr(verify, "_TRIPLES_PER_BLOCK", block)
    n, seed = 3 * verify._TRIPLES_PER_BLOCK + 7, 2
    x1, x2, _ = _sample_triples(np.random.default_rng(seed), n)
    t = 0 if where == "first" else n - 1
    out = ("digamma", "trigamma").index(broken)
    real = verify.digamma_trigamma

    def planted(args):
        outs = real(args)
        hit = np.flatnonzero((args[0] == x1[t]) & (args[1] == x2[t]))
        outs[out][2, hit] = outs[out][3, hit]
        return outs

    monkeypatch.setattr(verify, "digamma_trigamma", planted)
    verdicts = {v.name: v.passed for v in run_all(seed=seed, trials=1, n_triples=n)}
    assert verdicts["lemma1"] is (broken != "digamma")
    assert verdicts["lemma2"] is (broken != "trigamma")
    assert verify_lemma1(n, seed).passed is verdicts["lemma1"]
    assert verify_lemma2(n, seed).passed is verdicts["lemma2"]


def test_run_all_peak_memory_at_benchmark_size():
    # The lemma sweep draws and checks one 8,192-triple block at a time, so
    # the peak (~3.4 MB) is one block's draws and temporaries; one 300k-triple
    # array alone would add 2.4 MB.
    tracemalloc.start()
    try:
        verdicts = run_all(seed=0, trials=100, n_triples=300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.passed for v in verdicts)
    assert peak < 6e6
