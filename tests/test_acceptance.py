"""Acceptance gate: nine numbered criteria, one test (and one printed
PASS/FAIL line) per criterion. Criterion 6 is split into its lettered
subchecks so each gets its own line.

Criterion 6d (OOD ring exceedance) is out of reach for the paper's objective
alone: F and R act only on the labeled rows, so far from the data every
piecewise-linear region of the rectifier network extrapolates one class's
logit upward and ring entropy ends up below that of the test rows. The desk
pipeline therefore opts in to `TrainConfig.ood_weight` (beyond the source
paper, in the spirit of CEDA training on out-of-support noise), which
penalizes all information on uniform noise around the data. It buys the
ring exceedance with higher in-distribution entropy, still inside 6b's bound
at ood_weight=1. The 6d check itself is as stated.
"""

import csv
import math
import time

import numpy as np
import pytest

from iad import data, evaluation, losses, network, training, verify
from iad.cli import main as cli_main
from iad.dirichlet import DirichletParams, mutual_information, predictive_entropy
from iad.losses import LossConfig
from iad.specfun import digamma, log_gamma, tetragamma, trigamma
from oracles import sample
from test_losses import one_row

LN3 = math.log(3.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_1_special_function_and_lemma_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.uniform(1e-3, 1e3, size=1000)
    ok = (np.allclose(log_gamma(x + 1.0), log_gamma(x) + np.log(x),
                      rtol=1e-10, atol=1e-10)
          and np.allclose(digamma(x + 1.0), digamma(x) + 1.0 / x,
                          rtol=1e-9, atol=1e-12)
          and np.allclose(trigamma(x + 1.0), trigamma(x) - 1.0 / x ** 2,
                          rtol=1e-9, atol=1e-12)
          and np.allclose(tetragamma(x + 1.0), tetragamma(x) + 2.0 / x ** 3,
                          rtol=1e-8, atol=1e-12))
    l1 = verify.verify_lemma1(n_triples=1000, seed=0)
    l2 = verify.verify_lemma2(n_triples=1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = ok and l1.passed and l2.passed and elapsed < 5.0
    report(1, ok, f"recurrences+lemmas over 1000 triples in {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_closed_form_versus_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_rel = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 11))
        alpha = rng.uniform(1.0, 30.0, size=k)
        c = int(rng.integers(0, k))
        p = float(rng.uniform(1.5, 8.0))
        d = DirichletParams(alpha)
        draws = sample(d, rng, 1_000_000)
        mc = float(np.mean(np.sum(np.abs(np.eye(k)[c] - draws) ** p, axis=1)))
        rel = abs(one_row(losses.iad_loss_batch, alpha, c, p) ** p - mc) / mc
        worst_rel = max(worst_rel, rel)

    bound_violations = 0
    for _ in range(200):
        k = int(rng.choice([2, 5, 10]))
        alpha = rng.uniform(1.0, 50.0, size=k)
        c = int(rng.integers(0, k))
        p = float(rng.uniform(1.5, 8.0))
        d = DirichletParams(alpha)
        draws = sample(d, rng, 100_000)
        err = np.max(np.abs(np.eye(k)[c] - draws), axis=1)
        mc = float(err.mean())
        se = float(err.std() / math.sqrt(err.size))
        if mc > one_row(losses.iad_loss_batch, alpha, c, p) + 3.0 * se:
            bound_violations += 1
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.01 and bound_violations == 0 and elapsed < 120.0
    report(2, ok, f"worst p-moment rel err {worst_rel:.4f}, "
                  f"{bound_violations} bound violations, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_theorem_sweeps():
    start = time.perf_counter()
    t1 = verify.verify_theorem1(trials=100, seed=0)
    t2 = verify.verify_theorem2(trials=100, seed=0)
    t3 = verify.verify_theorem3(trials=100, seed=0)
    fig = verify.theorem2_figure_sweep(0)
    elapsed = time.perf_counter() - start
    ok = (t1.passed and t2.passed and t3.passed
          and fig["has_dip"] and fig["rises"]
          and fig["knee_index"] is not None and elapsed < 60.0)
    report(3, ok, f"theorem 1/2/3 sweeps plus dip-then-rise figure, "
                  f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_gradient_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(2)

    def fd(fn, vec, rel_step=1e-4):
        g = np.zeros_like(vec)
        for j in range(vec.size):
            h = rel_step * vec[j]
            hi, lo = vec.copy(), vec.copy()
            hi[j] += h
            lo[j] -= h
            g[j] = (fn(hi) - fn(lo)) / (2.0 * h)
        return g

    alpha_ok = True
    for _ in range(50):
        alpha = rng.uniform(1.05, 50.0, size=5)
        c = int(rng.integers(0, 5))
        p = float(rng.choice([2.0, 4.0, 8.0]))
        got = one_row(losses.iad_loss_grad_alpha_batch, alpha, c, p)
        want = fd(lambda a: one_row(losses.iad_loss_batch, a, c, p), alpha)
        alpha_ok &= bool(np.allclose(got, want, rtol=1e-6, atol=1e-10))
        got_r = one_row(losses.info_regularizer_grad_alpha_batch, alpha, c)
        want_r = fd(lambda a: one_row(losses.info_regularizer_batch, a, c),
                    alpha)
        mask = np.arange(5) != c
        alpha_ok &= bool(np.allclose(got_r[mask], want_r[mask],
                                     rtol=1e-6, atol=1e-10))

    net = network.init([2, 8, 8, 3], np.random.default_rng(3))
    x = rng.normal(size=(6, 2))
    cvec = rng.integers(0, 3, size=6)

    def net_loss():
        alpha = network.forward(net, x).alpha
        return float(np.mean(
            losses.iad_loss_batch(alpha, cvec, 4.0)
            + 0.5 * losses.info_regularizer_batch(alpha, cvec)))

    trace = network.forward(net, x)
    g_alpha = (losses.iad_loss_grad_alpha_batch(trace.alpha, cvec, 4.0)
               + 0.5 * losses.info_regularizer_grad_alpha_batch(trace.alpha,
                                                                cvec))
    grads = network.backward(net, trace, g_alpha / x.shape[0])
    param_ok = True
    checked = 0
    for arr, g in zip(net.weights + net.biases, grads.weights + grads.biases):
        flat, gflat = arr.ravel(), g.ravel()
        for idx in rng.choice(flat.size, size=min(12, flat.size),
                              replace=False):
            h, orig = 1e-5, flat[idx]
            flat[idx] = orig + h
            hi = net_loss()
            flat[idx] = orig - h
            lo = net_loss()
            flat[idx] = orig
            fd_val = (hi - lo) / (2.0 * h)
            param_ok &= bool(np.isclose(gflat[idx], fd_val,
                                        rtol=1e-4, atol=1e-8))
            checked += 1

    input_ok = True
    cfg = LossConfig(p_norm=4.0)
    for _ in range(50):
        xi = rng.normal(size=2)
        ci = int(rng.integers(0, 3))
        got = network.input_gradient(net, xi[None, :], np.array([ci]), cfg)[0]
        for j in range(2):
            h = 1e-6
            hi, lo = xi.copy(), xi.copy()
            hi[j] += h
            lo[j] -= h
            fhi = losses.iad_loss_batch(
                network.forward(net, hi[None, :]).alpha, np.array([ci]),
                4.0)[0]
            flo = losses.iad_loss_batch(
                network.forward(net, lo[None, :]).alpha, np.array([ci]),
                4.0)[0]
            input_ok &= bool(np.isclose(got[j], (fhi - flo) / (2.0 * h),
                                        rtol=1e-4, atol=1e-8))
    elapsed = time.perf_counter() - start
    ok = alpha_ok and param_ok and input_ok and checked >= 50 and elapsed < 60
    report(4, ok, f"alpha-space/parameter/input gradients vs central "
                  f"differences, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_uncertainty_metric_identities():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(10_000):
        k = int(rng.integers(2, 8))
        d = DirichletParams(rng.uniform(1.0, 100.0, size=k))
        h = predictive_entropy(d)
        mi = mutual_information(d)
        ok &= -1e-9 <= mi <= h + 1e-9 <= math.log(k) + 2e-9
    for k in (2, 3, 10):
        d = DirichletParams(np.full(k, 3.7))
        ok &= abs(predictive_entropy(d) - math.log(k)) <= 1e-12

    d = DirichletParams(np.array([3.0, 1.5, 7.0]))
    draws = sample(d, rng, 1_000_000)
    data_h = -(draws * np.log(np.clip(draws, 1e-300, None))).sum(axis=1)
    mc = predictive_entropy(d) - float(data_h.mean())
    decomposition_ok = abs(mutual_information(d) - mc) / mc <= 0.01
    report(5, ok and decomposition_ok,
           "0<=MI<=H<=lnK over 1e4 draws; uniform H=lnK at 1e-12; "
           "MI decomposition vs MC within 1%")


# --------------------------------------------------------------- criterion 6

def _desk_pipeline():
    """Fresh end-to-end run of the stated desk-scale configuration, timed."""
    start = time.perf_counter()
    ds = data.make_blobs(3, 1000, data.triangle_centers(4.0), 0.9,
                         np.random.default_rng(1))
    train_ds, test_ds = data.split_scaled(ds, [2.0 / 3.0, 1.0 / 3.0],
                                          np.random.default_rng(2))
    cfg = training.TrainConfig(seed=7, max_epochs=60, t0=5, t_rate=20,
                               p_norm=4.0, lambda_max=0.5, ood_weight=1.0)
    net, _ = training.train(train_ds, [32, 32], cfg, loss="iad")
    reports = evaluation.evaluate(net, test_ds)
    ring = data.make_ood_ring(train_ds, 1.5, 1000, np.random.default_rng(3))
    ent_summary = evaluation.summarize(evaluation.evaluate(net, ring).entropy,
                                       0.95 * np.log(3))
    sweep = [evaluation.sweep_row(e, r) for e, r in evaluation.attack_reports(
        net, test_ds, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], LossConfig(p_norm=4.0))]
    elapsed = time.perf_counter() - start
    return reports, ent_summary, sweep, elapsed


@pytest.fixture(scope="module")
def desk_pipeline():
    return _desk_pipeline()


def test_criterion_6a_accuracy(desk_pipeline):
    reports, _, _, elapsed = desk_pipeline
    acc = float(np.mean(reports.correct))
    report("6a", acc >= 0.95 and elapsed < 180.0,
           f"test accuracy {acc:.3f} (pipeline {elapsed:.0f}s)")


def test_criterion_6b_success_entropy(desk_pipeline):
    reports, _, _, _ = desk_pipeline
    med = float(np.median(reports.entropy[reports.correct]))
    report("6b", med <= 0.3 * LN3,
           f"median success entropy {med:.3f} <= {0.3 * LN3:.3f}")


def test_criterion_6c_error_entropy_gap(desk_pipeline):
    reports, _, _, _ = desk_pipeline
    med_s = float(np.median(reports.entropy[reports.correct]))
    med_e = float(np.median(reports.entropy[~reports.correct]))
    report("6c", med_e >= 2.0 * med_s,
           f"median error entropy {med_e:.3f} vs 2x success {2 * med_s:.3f}")


def test_criterion_6d_ood_ring_exceedance(desk_pipeline):
    _, ent_summary, _, _ = desk_pipeline
    frac = ent_summary.fraction_above_threshold
    report("6d", frac >= 0.60,
           f"OOD ring fraction with entropy >= 0.95*ln3: {frac:.2f}")


def test_criterion_6e_fgsm_entropy_increase(desk_pipeline):
    _, _, sweep, _ = desk_pipeline
    report("6e", sweep[-1].mean_entropy > sweep[0].mean_entropy,
           f"mean entropy {sweep[0].mean_entropy:.3f} at eps=0 -> "
           f"{sweep[-1].mean_entropy:.3f} at eps=0.5")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_baseline_contrast(contrast_models):
    iad_net, edl_net, _, test_ds = contrast_models
    meds = []
    for net in (iad_net, edl_net):
        reports = evaluation.evaluate(net, test_ds)
        meds.append(float(np.median(reports.entropy[~reports.correct])))
    report(7, meds[0] > meds[1],
           f"median misclassification entropy IAD {meds[0]:.3f} "
           f"> EDL {meds[1]:.3f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_regularizer_effect(regularizer_models):
    reg_net, plain_net, train_ds, _ = regularizer_models
    c = train_ds.label_indices
    idx = np.arange(train_ds.n)
    meds = []
    for net in (reg_net, plain_net):
        alpha = network.forward(net, train_ds.features).alpha
        meds.append(float(np.median(alpha.sum(axis=1) - alpha[idx, c])))
    report(8, meds[0] < meds[1],
           f"median off-class concentration lambda=0.5: {meds[0]:.4f} "
           f"< lambda=0: {meds[1]:.4f}")


# --------------------------------------------------------------- criterion 9

TINY = ["--set", "data.per_class=60", "--set", "train.max_epochs=4",
        "--set", "train.t0=1", "--set", "train.t_rate=2",
        "--set", "arch=[8]", "--seed", "11"]


def _mask_seconds(path):
    """train_record.csv minus its wall-clock column (the one permitted
    nondeterministic field)."""
    with open(path, newline="") as fh:
        rows = [row[:-1] for row in csv.reader(fh)]
    return rows


def _run_twice(argv_fn, tmp_path, compare):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(argv_fn(str(out))) in (0,)
        outs.append(out)
    for name in compare:
        fa, fb = outs[0] / name, outs[1] / name
        if name == "train_record.csv":
            assert _mask_seconds(fa) == _mask_seconds(fb), name
        else:
            assert fa.read_bytes() == fb.read_bytes(), name
    return outs


def test_criterion_9_reproducibility(tmp_path):
    train_outs = _run_twice(
        lambda out: ["train", "--out", out] + TINY, tmp_path / "train",
        ["checkpoint.json", "checkpoint.f64", "train_record.csv",
         "config_resolved.txt", "run_meta.json"])
    ckpt = str(train_outs[0] / "checkpoint.json")
    _run_twice(
        lambda out: ["eval", "--out", out, "--checkpoint", ckpt] + TINY,
        tmp_path / "eval",
        ["reports.csv", "summary_successes.json", "run_meta.json"])
    _run_twice(
        lambda out: ["ood", "--out", out, "--checkpoint", ckpt,
                     "--set", "ood.n=50"] + TINY,
        tmp_path / "ood", ["ood_entropy.json", "ood_mutual_info.json"])
    _run_twice(
        lambda out: ["attack", "--out", out, "--checkpoint", ckpt,
                     "--set", "attack.epsilons=[0.0,0.25]"] + TINY,
        tmp_path / "attack", ["attack_sweep.csv", "attack_summaries.json"])
    _run_twice(
        lambda out: ["verify", "--out", out, "--set", "verify.trials=5",
                     "--set", "verify.n_triples=50"],
        tmp_path / "verify", ["verify_evidence.json", "theorem2_figure.csv"])
    report(9, True, "train/eval/ood/attack/verify byte-identical across "
                    "reruns (train_record.csv compared without wall-clock)")
