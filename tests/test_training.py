"""Annealing schedule, Adam recurrence, early stopping, determinism and
divergence handling."""

from collections import Counter

import numpy as np
import pytest

from iad import cli, data, losses, network
from iad.config import ConfigError, ExperimentConfig
from iad.training import (LOSSES, AdamState, TrainConfig, TrainingDiverged,
                          _evaluate_split, _objective, adam_step, anneal_lambda, train)
from oracles import reference_objective, reference_validation_values


def two_class_blobs(seed=0, n=400, spread=0.3):
    centers = np.array([[0.0, 0.0], [4.0, 4.0]])
    return data.make_blobs(2, n, centers, spread, np.random.default_rng(seed))


# ----------------------------------------------------------------- annealing

def test_anneal_lambda_schedule_points():
    cfg = TrainConfig(lambda_max=0.5, t0=10, t_rate=60)
    assert anneal_lambda(cfg, 0) == 0.0
    assert anneal_lambda(cfg, 10) == 0.0
    assert anneal_lambda(cfg, 40) == pytest.approx(0.25)
    assert anneal_lambda(cfg, 70) == pytest.approx(0.5)
    assert anneal_lambda(cfg, 1000) == 0.5


def test_anneal_lambda_nondecreasing_and_capped():
    cfg = TrainConfig(lambda_max=0.8, t0=3, t_rate=7)
    vals = [anneal_lambda(cfg, e) for e in range(50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert max(vals) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        anneal_lambda(cfg, -1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)
    for bad in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            TrainConfig(ood_weight=bad)
        with pytest.raises(ConfigError):
            ExperimentConfig({"train.ood_weight": bad})
    with pytest.raises(ConfigError):
        ExperimentConfig({"train.ood_weight": "fast"})
    assert ExperimentConfig({"train.ood_weight": 1.5}).train_config(
    ).ood_weight == 1.5


# ---------------------------------------------------------------------- Adam

def test_adam_zero_gradients_leave_params_unchanged():
    cfg = TrainConfig()
    p = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = AdamState.zeros_like(p)
    for _ in range(5):
        adam_step(p, [np.zeros(2), np.zeros((1, 1))], state, cfg)
    assert np.array_equal(p[0], [1.0, -2.0])
    assert p[1][0, 0] == 3.0


def test_adam_first_step_magnitude_is_learning_rate():
    cfg = TrainConfig(learning_rate=1e-3)
    p = [np.array([0.0])]
    state = AdamState.zeros_like(p)
    adam_step(p, [np.array([1.0])], state, cfg)
    # bias-corrected m_hat = v_hat = 1 at t=1, so the step is lr/(1+eps)
    assert p[0][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_hand_recurrence_two_steps():
    cfg = TrainConfig(learning_rate=0.1)
    p = [np.array([0.5])]
    state = AdamState.zeros_like(p)
    grads = [1.0, -2.0]
    # independent reimplementation of the recurrence
    m = v = 0.0
    want = 0.5
    # at Kingma & Ba's beta1 = 0.9, beta2 = 0.999 and eps = 1e-8
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        want -= cfg.learning_rate * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        adam_step(p, [np.array([g])], state, cfg)
    assert p[0][0] == pytest.approx(want, rel=1e-12)


def test_adam_shape_mismatch():
    p = [np.zeros(2)]
    state = AdamState.zeros_like(p)
    with pytest.raises(ValueError):
        adam_step(p, [np.zeros(3)], state, TrainConfig())


def _adam_step_per_array_reference(params, grads, state, cfg):
    """The per-array Adam loop adam_step replaced, kept as the reference for
    its bits, at beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""
    state.t += 1
    b1, b2 = 0.9, 0.999
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def test_adam_step_bit_identical_to_per_array_loop():
    # the wide benchmark net, 784-100-100-10, as six arrays and as one vector
    net = network.init([784, 100, 100, 10], np.random.default_rng(0))
    rng = np.random.default_rng(1)
    cfg = TrainConfig(learning_rate=3e-3)
    ref = [a.copy() for a in net.weights + net.biases]
    six = [a.copy() for a in net.weights + net.biases]
    flat = net.copy()
    states = [AdamState.zeros_like(ref), AdamState.zeros_like(six),
              AdamState.zeros_like([flat.flat])]
    for _ in range(20):
        grads = [rng.standard_normal(a.shape) * rng.uniform(1e-4, 10.0) for a in ref]
        _adam_step_per_array_reference(ref, grads, states[0], cfg)
        adam_step(six, grads, states[1], cfg)
        g = network.NetworkParams(grads[:3], grads[3:]).flat
        adam_step([flat.flat], [g], states[2], cfg)
    for a, b, c in zip(ref, six, flat.weights + flat.biases):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    assert np.array_equal(np.concatenate([m.ravel() for m in states[0].m]),
                          np.concatenate([m.ravel() for m in states[1].m]))


@pytest.mark.parametrize("field, bad", [
    ("max_epochs", 0), ("p_norm", 0.5), ("lambda_max", -2.0),
    ("learning_rate", float("nan")), ("learning_rate", float("inf"))])
def test_train_config_rejects_out_of_range_optimizer_and_loss_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: bad})


@pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience", "t0",
                                   "t_rate", "seed"])
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "3"])
def test_train_config_refuses_non_integral_counts(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainConfig(**{field: bad})


def test_train_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=np.int64(3), batch_size=np.int32(8)).seed == 3


def test_train_returns_snapshot_of_best_epoch_unmoved_by_later_steps():
    ds = data.make_blobs(2, 100, np.array([[0.0, 0.0], [4.0, 4.0]]), 3.0,
                         np.random.default_rng(0))
    kw = dict(seed=0, t0=1, t_rate=3, patience=12, learning_rate=0.05)
    net, record = train(ds, [8], TrainConfig(max_epochs=12, **kw))
    assert record.best_epoch < len(record.rows) == 12
    # the same run stopped at the best epoch ends on the snapshot's parameters
    stopped, short = train(ds, [8], TrainConfig(max_epochs=record.best_epoch, **kw))
    assert short.best_epoch == record.best_epoch
    assert np.array_equal(net.flat, stopped.flat)
    for a in net.weights + net.biases:
        assert np.shares_memory(a, net.flat)


# ----------------------------------------------------------------- objective

def test_objective_rows_are_f_plus_lambda_r():
    """Labeled rows carry F + lambda R; noise rows carry lambda gamma R(c=None)."""
    rng = np.random.default_rng(9)
    alpha = rng.uniform(1.0, 10.0, size=(12, 3))
    c = rng.integers(0, 3, size=8)
    lab, noise = alpha[:8], alpha[8:]
    cfg = TrainConfig(p_norm=4.0, ood_weight=1.5)
    for lam in (0.0, 0.3):
        vals, _ = _objective(alpha, c, cfg, lam, "iad")
        want = (losses.iad_loss_batch(lab, c, 4.0)
                + lam * losses.info_regularizer_batch(lab, c))
        assert vals[:8] == pytest.approx(want, rel=1e-12)
        want = lam * 1.5 * losses.info_regularizer_batch(noise, None)
        assert vals[8:] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("loss", sorted(LOSSES))
def test_objective_matches_two_call_reference_bits(loss, k):
    """One R call over alpha~ and the noise rows gives the values and
    gradients of one call per kind of row, bit for bit."""
    rng = np.random.default_rng(k)
    n = 16
    c = rng.integers(0, k, size=n)
    for lam in (0.0, 0.3):
        for gamma in (0.0, 1.5):
            cfg = TrainConfig(ood_weight=gamma)
            for noise in (0, n):
                alpha = 1.0 + rng.gamma(0.7, 4.0, size=(n + noise, k))
                vals, grads = _objective(alpha, c, cfg, lam, loss)
                want_vals, want_grads = reference_objective(alpha, c, cfg, lam, loss)
                assert vals.shape == (n + noise,) and grads.shape == (n + noise, k)
                assert np.array_equal(vals, want_vals)
                assert np.array_equal(grads, want_grads)
            assert np.array_equal(vals[:n], reference_validation_values(
                alpha[:n], c, cfg, lam, loss))


@pytest.mark.parametrize("loss", sorted(LOSSES))
def test_evaluate_split_matches_value_only_reference_bits(loss):
    ds = two_class_blobs(n=60)
    net = network.init([2, 8, 2], np.random.default_rng(4))
    alpha = network.forward(net, ds.features).alpha
    for lam in (0.0, 0.5):
        got, acc = _evaluate_split(net, ds, TrainConfig(), lam, loss)
        want = reference_validation_values(alpha, ds.label_indices, TrainConfig(), lam, loss)
        assert got == float(np.mean(want))
        assert acc == float(np.mean(np.argmax(alpha, axis=1) == ds.label_indices))


# --------------------------------------------------------------------- train

def test_train_separable_blobs_high_accuracy():
    ds = two_class_blobs()
    cfg = TrainConfig(seed=1, max_epochs=40, t0=5, t_rate=20)
    net, record = train(ds, [16], cfg, loss="iad")
    assert record.rows[-1].val_acc >= 0.99 or max(
        r.val_acc for r in record.rows) >= 0.99
    assert net.output_dim == 2


def test_train_lambda_zero_degenerate_config():
    ds = two_class_blobs()
    cfg = TrainConfig(seed=1, max_epochs=30, lambda_max=0.0)
    _, record = train(ds, [16], cfg, loss="iad")
    assert max(r.val_acc for r in record.rows) >= 0.99
    assert all(r.lambda_t == 0.0 for r in record.rows)


def test_train_deterministic_per_seed():
    ds = two_class_blobs()
    # ood_weight > 0 adds the off-support noise draws
    for ood_weight in (0.0, 1.0):
        cfg = TrainConfig(seed=3, max_epochs=8, t0=2, t_rate=4,
                          ood_weight=ood_weight)
        net_a, rec_a = train(ds, [8], cfg, loss="iad")
        net_b, rec_b = train(ds, [8], cfg, loss="iad")
        assert [r.train_loss for r in rec_a.rows] == [r.train_loss
                                                      for r in rec_b.rows]
        assert [r.val_loss for r in rec_a.rows] == [r.val_loss
                                                    for r in rec_b.rows]
        for a, b in zip(net_a.weights + net_a.biases,
                        net_b.weights + net_b.biases):
            assert np.array_equal(a, b)


def test_train_off_support_acts_only_with_regularizer_on():
    ds = two_class_blobs(n=100)

    def params(loss, **kw):
        net, _ = train(ds, [8], TrainConfig(seed=3, max_epochs=6, **kw),
                       loss=loss)
        return net.weights + net.biases

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    ramp = dict(t0=2, t_rate=4)
    assert not same(params("iad", ood_weight=1.0, **ramp),
                    params("iad", **ramp))
    # lambda_t = 0 in every epoch, an unregularized loss, or lambda_max = 0
    assert same(params("iad", ood_weight=1.0, t0=6), params("iad", t0=6))
    assert same(params("edl", ood_weight=1.0, **ramp), params("edl", **ramp))
    assert same(params("iad", ood_weight=1.0, lambda_max=0.0),
                params("iad", lambda_max=0.0))


def test_train_refuses_a_support_radius_that_overflows_before_the_first_epoch(monkeypatch):
    ds = two_class_blobs(n=100)
    wide = data.Dataset(ds.features * 1e200, ds.labels, provenance="wide")
    monkeypatch.setattr(network, "forward", lambda *a: pytest.fail("an epoch ran"))
    with pytest.raises(data.FeatureRangeError, match="^wide: the support radius"):
        train(wide, [8], TrainConfig(seed=3, max_epochs=1, t0=0, ood_weight=1.0))


def test_train_off_support_lowers_far_concentration():
    ds = two_class_blobs()
    center, rmax = data.support_extent(ds)
    dirs = np.random.default_rng(0).standard_normal((200, 2))
    far = center + 2.0 * rmax * dirs / np.linalg.norm(dirs, axis=1,
                                                      keepdims=True)
    strengths = []
    for gamma in (1.0, 0.0):
        cfg = TrainConfig(seed=2, max_epochs=15, t0=2, t_rate=5,
                          ood_weight=gamma)
        net, _ = train(ds, [16], cfg, loss="iad")
        strengths.append(np.median(network.forward(net, far).alpha.sum(axis=1)))
    assert strengths[0] < 0.5 * strengths[1]


def test_train_step_makes_one_call_per_special_function(monkeypatch):
    # a step makes one log_rising call for F, (ln (a)_p, psi(a+p) - psi(a)),
    # and one paired call for R, (psi', psi''); no ln Gamma, psi or
    # single-function view is called on the way
    names = ("log_rising", "log_gamma_digamma", "trigamma_tetragamma",
             "digamma", "trigamma")
    counts = Counter()
    for name in names:
        def counting(*args, name=name, real=getattr(losses, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(losses, name, counting)
    assert not hasattr(losses, "log_gamma")
    ds = two_class_blobs(n=80)
    # t0=0: lambda_t > 0 from epoch 1, so every step evaluates F and R
    cfg = TrainConfig(seed=0, max_epochs=1, patience=1, t0=0, batch_size=32)
    train(ds, [8], cfg, val=ds.take(np.arange(16)))
    steps = 160 // 32
    # the epoch's one validation pass adds one F and one R kernel call
    assert counts == {"log_rising": steps + 1, "trigamma_tetragamma": steps + 1}


@pytest.mark.parametrize("ood_weight", [0.0, 1.0])
def test_train_step_makes_one_r_call_with_or_without_noise_rows(monkeypatch, ood_weight):
    # R(alpha, c) on the labeled rows and R(alpha, None) on the noise rows come
    # from one info_value_grad_batch call per step; nothing in train calls a
    # value-only loss
    calls = Counter()
    for name in losses.__all__:
        real = getattr(losses, name)
        if callable(real) and name.endswith("_batch"):
            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(losses, name, spy)
    ds = two_class_blobs(n=80)
    cfg = TrainConfig(seed=0, max_epochs=1, patience=1, t0=0, batch_size=32,
                      ood_weight=ood_weight)
    train(ds, [8], cfg, val=ds.take(np.arange(16)))
    steps = 160 // 32
    # one call per step and one for the epoch's validation pass
    assert calls == {"iad_value_grad_batch": steps + 1,
                     "info_value_grad_batch": steps + 1}


def test_train_builds_gradient_views_once_per_call_not_per_step(monkeypatch,
                                                                 separated_blobs):
    # backward writes into the Gradients its first call returned, so the
    # views into the gradient vector are built once per train call: the
    # count must not grow with the number of steps
    calls = []

    def counting(*args, real=network._views):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(network, "_views", counting)
    train_ds, _ = separated_blobs
    counts = {}
    for batch_size in (256, 32):   # 8 and 57 steps per epoch
        calls.clear()
        cfg = TrainConfig(seed=7, max_epochs=3, patience=3, batch_size=batch_size)
        _, record = train(train_ds, [32, 32], cfg)
        assert len(record.rows) == 3
        counts[batch_size] = len(calls)
    # init, the best-epoch snapshot and the first backward call
    assert counts[32] == counts[256] == 3


def test_train_record_lambda_matches_schedule():
    ds = two_class_blobs()
    cfg = TrainConfig(seed=4, max_epochs=25, t0=3, t_rate=10, lambda_max=0.5)
    _, record = train(ds, [8], cfg, loss="iad")
    for row in record.rows:
        assert row.lambda_t == anneal_lambda(cfg, row.epoch)
    epochs = [r.epoch for r in record.rows]
    assert epochs == sorted(epochs)


def test_train_returns_best_validation_epoch():
    ds = two_class_blobs()
    cfg = TrainConfig(seed=5, max_epochs=40, t0=2, t_rate=10)
    net, record = train(ds, [8], cfg, loss="iad")
    losses_seen = [r.val_loss for r in record.rows]
    best = int(np.argmin(losses_seen)) + 1
    assert record.best_epoch == best
    # ties broken by earliest epoch: the recorded best is the first minimum
    assert losses_seen[record.best_epoch - 1] == min(losses_seen)


def test_train_early_stopping_respects_patience():
    # heavy class overlap so the validation loss bottoms out quickly
    ds = two_class_blobs(spread=3.0)
    cfg = TrainConfig(seed=6, max_epochs=200, patience=5, t0=2, t_rate=4,
                      learning_rate=5e-3)
    _, record = train(ds, [8], cfg, loss="iad")
    assert len(record.rows) <= record.best_epoch + cfg.patience
    assert len(record.rows) < 200


def test_train_rejects_bad_inputs():
    ds = two_class_blobs()
    with pytest.raises(ValueError):
        train(ds, [8], TrainConfig(), loss="no-such-loss")
    unlabeled = data.Dataset(ds.features, None)
    with pytest.raises(ValueError):
        train(unlabeled, [8], TrainConfig(), loss="iad")


def test_train_divergence_guard():
    ds = two_class_blobs(n=60)
    cfg = TrainConfig(seed=7, learning_rate=1e6, max_epochs=30,
                      lambda_max=0.0)
    with pytest.raises(TrainingDiverged):
        train(ds, [8], cfg, loss="iad")


def test_train_all_losses_run():
    ds = two_class_blobs(n=100)
    for sel in ("iad", "edl", "nll", "bayes_ce", "rkl"):
        cfg = TrainConfig(seed=8, max_epochs=3, t0=1, t_rate=2)
        net, record = train(ds, [8], cfg, loss=sel)
        assert len(record.rows) == 3
        assert np.all(np.isfinite([r.train_loss for r in record.rows]))


def test_train_record_csv_roundtrip(tmp_path):
    ds = two_class_blobs(n=100)
    cfg = ExperimentConfig({"seed": 9, "arch": [8], "loss": "iad", "train.max_epochs": 4,
                            "train.t0": 1, "train.t_rate": 2})
    assert cli.cmd_train(cfg, tmp_path, (ds, None), None) == 0
    _, record = train(ds, [8], cfg.train_config(), loss="iad")
    lines = (tmp_path / "train_record.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc,lambda_t,seconds"
    assert len(lines) == 5
    # every field but the wall-clock seconds reads back to the record's value
    got = [[float(v) for v in line.split(",")[:-1]] for line in lines[1:]]
    assert got == [[r.epoch, r.train_loss, r.val_loss, r.val_acc, r.lambda_t]
                   for r in record.rows]


def test_regularizer_lowers_off_class_concentration(regularizer_models):
    reg_net, plain_net, train_ds, _ = regularizer_models
    c = train_ds.label_indices
    idx = np.arange(train_ds.n)
    totals = []
    for net in (reg_net, plain_net):
        alpha = network.forward(net, train_ds.features).alpha
        totals.append(np.median(alpha.sum(axis=1) - alpha[idx, c]))
    assert totals[0] < totals[1]
