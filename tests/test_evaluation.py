"""Uncertainty reports, distribution summaries, FGSM attacks and OOD
evaluation, including the run-time checks on a trained desk-scale model."""

import itertools
import json
import math
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iad import cli, data, network
from iad.config import DEFAULTS, ExperimentConfig
from iad.evaluation import (ConcentrationOverflowError, attack_reports, evaluate, fgsm_attack,
                            summarize, sweep_row)
from iad.losses import LossConfig
from oracles import attack_reports_per_epsilon, reference_summarize


def constant_alpha_net(alpha, d=2):
    """A network whose output is (nearly) the requested alpha everywhere."""
    net = network.init([d, 2, len(alpha)], np.random.default_rng(0))
    for w in net.weights:
        w *= 0.0
    for b in net.biases:
        b *= 0.0
    gap = np.asarray(alpha, dtype=np.float64) - 1.0
    z = np.full(gap.shape, -40.0)
    big = gap > 1e-8
    z[big] = np.log(np.expm1(gap[big]))
    net.biases[-1][:] = z
    return net


# ------------------------------------------------------------------ evaluate

def test_evaluate_uniform_alpha_ties_break_low():
    net = constant_alpha_net([1.0 + math.log(2.0)] * 4)
    ds = data.Dataset(np.zeros((5, 2)), np.eye(4)[[0, 1, 2, 3, 0]])
    reports = evaluate(net, ds)
    assert np.all(reports.pred_class == 0)
    assert reports.entropy == pytest.approx(np.full(5, math.log(4.0)), abs=1e-9)


def test_evaluate_confident_class_zero():
    net = constant_alpha_net([10.0] + [1.0] * 9, d=3)
    ds = data.Dataset(np.zeros((2, 3)), None)
    reports = evaluate(net, ds)
    assert np.all(reports.pred_class == 0)
    assert reports.correct is None
    assert reports.max_prob == pytest.approx(np.full(2, 10.0 / 19.0), abs=1e-6)


def test_evaluate_partitions_consistent(desk_model):
    net, _, _, test_ds = desk_model
    reports = evaluate(net, test_ds)
    assert reports.pred_class.shape == (test_ds.n,)
    assert reports.correct.dtype == bool
    n_succ = int(np.count_nonzero(reports.correct))
    n_err = int(np.count_nonzero(~reports.correct))
    assert n_succ + n_err == test_ds.n
    acc = float(np.mean(reports.correct))
    assert acc == pytest.approx(n_succ / test_ds.n)


def test_report_invariants_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(20):
        net = network.init([3, 6, 4], np.random.default_rng(
            int(rng.integers(1 << 30))))
        x = rng.normal(scale=3.0, size=(16, 3))
        ds = data.Dataset(x, np.eye(4)[rng.integers(0, 4, size=16)])
        r = evaluate(net, ds)
        assert np.all((0.0 <= r.entropy) & (r.entropy <= math.log(4.0) + 1e-9))
        assert np.all((-1e-9 <= r.mutual_info) & (r.mutual_info <= r.entropy + 1e-9))
        assert np.all((0.25 - 1e-9 <= r.max_prob) & (r.max_prob <= 1.0 + 1e-9))
        assert np.all(r.alpha0 >= 4.0)


def test_evaluate_dimension_mismatch(desk_model):
    net, _, _, _ = desk_model
    ds = data.Dataset(np.zeros((3, 5)), None)
    with pytest.raises(ValueError):
        evaluate(net, ds)


# ----------------------------------------------------------------- summarize

def test_summarize_example_values():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0], threshold=4.0)
    assert s.median == 3.0
    assert s.q1 == 2.0 and s.q3 == 4.0
    assert s.fraction_above_threshold == pytest.approx(0.4)  # >= counts
    assert s.count == 5 and s.min == 1.0 and s.mean == 3.0


def test_summarize_constant_values():
    s = summarize([2.5] * 7, threshold=3.0)
    assert s.q1 == s.median == s.q3 == 2.5
    assert s.fraction_above_threshold == 0.0


def test_summarize_threshold_below_min():
    s = summarize([5.0, 6.0], threshold=1.0)
    assert s.fraction_above_threshold == 1.0


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(2)
    v = rng.normal(size=100)
    a = summarize(v, 0.0)
    b = summarize(rng.permutation(v), 0.0)
    for field in ("count", "min", "q1", "median", "q3", "whisker_lo",
                  "whisker_hi", "threshold", "fraction_above_threshold"):
        assert getattr(a, field) == getattr(b, field)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)


@pytest.mark.parametrize("values", [[-0.0, 0.0, 0.0, 1.0], [-0.0, -0.0, 0.0],
                                    [-1.0, -0.0, 0.0, 0.0, 2.0], [-0.0], [-0.0, -0.0]])
def test_summarize_bytes_do_not_depend_on_the_order_of_signed_zeros(values):
    # -0.0 ties 0.0 in a sort, so which one a field reports must not matter
    want = json.dumps(asdict(summarize(values, 0.0)), sort_keys=True)
    assert "-0.0" not in want
    for perm in itertools.permutations(values):
        assert json.dumps(asdict(summarize(list(perm), 0.0)), sort_keys=True) == want
    assert json.dumps(asdict(summarize(values, -0.0)), sort_keys=True) == want


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([], 0.0)


@pytest.mark.parametrize("values, threshold, what", [
    *(pytest.param([1.0, bad, 3.0], 0.0, "values", id=repr(bad))
      for bad in (math.nan, math.inf, -math.inf)),
    *(pytest.param([1.0, 2.0, 3.0], bad, "threshold", id=f"threshold-{bad!r}")
      for bad in (math.nan, math.inf, -math.inf)),
])
def test_summarize_non_finite_value_rejected(values, threshold, what):
    # a summary is written as JSON, which has no NaN or infinity: every
    # field, the threshold included, must be finite
    with pytest.raises(ValueError, match=f"{what} must be finite"):
        summarize(values, threshold)


def _summary_bits(s):
    return [np.float64(getattr(s, f.name)).tobytes() for f in fields(s)]


# -0.0 is left out: it ties +0.0 in np.partition, which does not define
# which of the two the reference reports, while summarize spells both 0.0
_SUMMARY_FLOATS = st.floats(-1e150, 1e150).map(lambda f: f + 0.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_summarize_equals_percentile_reference_bit_for_bit(data):
    n = data.draw(st.integers(1, 1200), label="n")
    kind = data.draw(st.sampled_from(["spread", "ties", "constant"]), label="kind")
    pool = np.array(data.draw(st.lists(_SUMMARY_FLOATS, min_size=1, max_size={
        "spread": 16, "ties": 4, "constant": 1}[kind]), label="pool"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "spread":  # drawn values first, then normals at one scale
        scale = 10.0 ** data.draw(st.integers(-300, 149), label="exponent")
        v = rng.standard_normal(n) * scale + 0.0
        v[:pool.size] = pool[:n]
    else:
        v = pool[rng.integers(pool.size, size=n)]
    shape = data.draw(st.sampled_from(["1-D", "0-D", "2-D"]), label="shape")
    if shape == "0-D":
        v = v[0].reshape(())
    elif shape == "2-D" and n % 2 == 0:
        v = v.reshape(2, n // 2)
    threshold = data.draw(_SUMMARY_FLOATS, label="threshold")
    assert _summary_bits(summarize(v, threshold)) == _summary_bits(
        reference_summarize(v, threshold))


def test_summarize_ordering_invariant():
    rng = np.random.default_rng(3)
    s = summarize(rng.exponential(size=500), threshold=1.0)
    assert s.min <= s.q1 <= s.median <= s.q3
    assert s.whisker_lo <= s.q1 and s.whisker_hi >= s.q3
    assert 0.0 <= s.fraction_above_threshold <= 1.0


# --------------------------------------------------------------- fgsm_attack

def test_fgsm_zero_epsilon_is_identity(desk_model):
    net, _, _, test_ds = desk_model
    x = test_ds.features[:10]
    out = fgsm_attack(net, x, test_ds.label_indices[:10], 0.0, LossConfig(),
                      (0.0, 1.0))
    assert np.array_equal(out, x)


def test_fgsm_steps_are_signed_epsilon(desk_model):
    net, _, _, test_ds = desk_model
    x = test_ds.features[:50]
    eps = 0.07
    out = fgsm_attack(net, x, test_ds.label_indices[:50], eps, LossConfig(),
                      (-10.0, 10.0))  # wide bounds: no clipping
    steps = np.unique(np.round(np.abs(out - x), 12))
    assert set(steps.tolist()) <= {0.0, eps}


def test_fgsm_respects_bounds(desk_model):
    net, _, _, test_ds = desk_model
    out = fgsm_attack(net, test_ds.features, test_ds.label_indices, 0.5,
                      LossConfig(), (0.0, 1.0))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_fgsm_rejects_negative_epsilon(desk_model):
    net, _, _, test_ds = desk_model
    with pytest.raises(ValueError):
        fgsm_attack(net, test_ds.features[:2], test_ds.label_indices[:2],
                    -0.1, LossConfig(), (0.0, 1.0))


@pytest.mark.parametrize("bounds", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf),
                                    (0.0,), [0.0, 1.0, 2.0]])
def test_fgsm_refuses_bad_bounds(bounds):
    # descending bounds would clip every component to the upper bound
    net = network.init([2, 4, 3], np.random.default_rng(0))
    x, c = np.full((3, 2), 0.5), np.array([0, 1, 2])
    with pytest.raises(ValueError, match="bounds must be a pair"):
        fgsm_attack(net, x, c, 0.1, LossConfig(), bounds)
    assert fgsm_attack(net, x, c, 0.1, LossConfig(), [0.25, 0.75]).max() <= 0.75


@pytest.mark.parametrize("n, shape", [(3, (2,)), (1, (5, 2)), (3, (3, 3))])
def test_fgsm_refuses_direction_of_another_shape(n, shape):
    # a (5, 2) direction on one row of x would broadcast to five adversarial rows
    net = network.init([2, 4, 3], np.random.default_rng(0))
    x, c = np.full((n, 2), 0.5), np.arange(n) % 3
    with pytest.raises(ValueError, match=rf"direction has shape \({shape[0]},.*"
                                         rf"x has shape \({n}, 2\)"):
        fgsm_attack(net, x, c, 0.1, LossConfig(), None, np.ones(shape))


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_fgsm_rejects_non_finite_epsilon(desk_model, eps):
    # NaN steps every component to NaN, and inf * sgn(0) is NaN too
    net, _, _, test_ds = desk_model
    x, c = test_ds.features[:2], test_ds.label_indices[:2]
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        fgsm_attack(net, x, c, eps, LossConfig(), None)
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        attack_reports(net, data.Dataset(x, test_ds.labels[:2]), [0.0, eps], LossConfig())


def test_fgsm_raises_mean_entropy_on_trained_model(desk_model):
    net, _, _, test_ds = desk_model
    clean = evaluate(net, test_ds)
    adv_x = fgsm_attack(net, test_ds.features, test_ds.label_indices, 0.5,
                        LossConfig(), test_ds.feature_range)
    adv = evaluate(net, data.Dataset(adv_x, test_ds.labels))
    assert np.mean(adv.entropy) > np.mean(clean.entropy)


# ------------------------------------------------------------------ iad ood

def _run_ood(tmp_path, net, n, seed):
    """`iad ood` with the desk model on the desk blobs: the entropy and MI
    summaries it writes, and its ring."""
    ckpt = tmp_path / "desk.json"
    network.save_checkpoint(net, ckpt)
    sets = {"seed": seed, "data.spread": 0.9, "ood.n": n}
    out = tmp_path / "ood"
    argv = ["ood", "--out", str(out), "--checkpoint", str(ckpt)]
    for key, val in sets.items():
        argv += ["--set", f"{key}={val}"]
    assert cli.main(argv) == 0
    cfg = ExperimentConfig(sets)
    train_ds, _ = cli.build_datasets(cfg, {}, (0,))
    ring = data.make_ood_ring(train_ds, cfg["ood.radius_factor"], n,
                              cli._rng_streams(cfg)["ood"])
    return (json.loads((out / "ood_entropy.json").read_text()),
            json.loads((out / "ood_mutual_info.json").read_text()), ring)


def test_ood_entropy_median_dominates_mi(tmp_path, desk_model):
    ent, mi, _ = _run_ood(tmp_path, desk_model[0], 300, 4)
    assert ent["median"] >= mi["median"]
    assert ent["threshold"] == pytest.approx(0.95 * math.log(3.0))


def test_ood_threshold_fraction_one(tmp_path, desk_model):
    # the CLI's threshold is fixed at 0.95 ln K; ln K itself goes through
    # summarize on the same ring
    net = desk_model[0]
    ent, _, ring = _run_ood(tmp_path, net, 100, 5)
    reports = evaluate(net, ring)
    assert (ent["count"], ent["mean"]) == (100, float(np.mean(reports.entropy)))
    at_max = summarize(reports.entropy, math.log(3.0))
    exact_max = int(np.count_nonzero(reports.entropy >= math.log(3.0)))
    assert at_max.fraction_above_threshold == pytest.approx(exact_max / 100.0)


# ------------------------------------------------------------ attack_reports

def test_epsilon_sweep_clean_row_and_monotone_accuracy(desk_model):
    net, _, _, test_ds = desk_model
    eps = [0.0, 0.1, 0.3, 0.5]
    rows = [sweep_row(e, r) for e, r in attack_reports(net, test_ds, eps, LossConfig())]
    assert len(rows) == len(eps)
    reports = evaluate(net, test_ds)
    clean_acc = float(np.mean(reports.correct))
    assert rows[0].accuracy == pytest.approx(clean_acc)
    assert rows[0].mean_entropy == pytest.approx(float(np.mean(reports.entropy)))
    assert rows[-1].accuracy <= rows[0].accuracy


def test_attack_reports_clean_entry_equals_evaluate(desk_model):
    net, _, _, test_ds = desk_model
    (eps, clean), _ = attack_reports(net, test_ds, [0.0, 0.2], LossConfig())
    want = evaluate(net, test_ds)
    assert eps == 0.0
    for name in ("pred_class", "correct", "entropy", "mutual_info", "max_prob",
                 "alpha0"):
        assert np.array_equal(getattr(clean, name), getattr(want, name)), name


def test_attack_reports_rejects_unsorted_epsilons_and_unlabeled_data(desk_model):
    net, _, _, test_ds = desk_model
    with pytest.raises(ValueError, match="sorted"):
        attack_reports(net, test_ds, [0.2, 0.1], LossConfig())
    with pytest.raises(ValueError, match="labeled"):
        attack_reports(net, data.Dataset(test_ds.features, None), [0.0], LossConfig())


_REPORT_COLUMNS = ("pred_class", "correct", "entropy", "mutual_info", "max_prob",
                   "alpha0")
_EPSILON_LISTS = [[0.0], [0.3], [0.0, 0.3], DEFAULTS["attack.epsilons"]]


@pytest.fixture(scope="module")
def wide_model():
    """A 784-100-100-10 net at its initial weights and 120 rows in [0, 1]."""
    rng = np.random.default_rng(5)
    net = network.init([784, 100, 100, 10], rng)
    labels = np.eye(10)[rng.integers(0, 10, size=120)]
    ds = data.Dataset(rng.uniform(size=(120, 784)), labels, feature_range=(0.0, 1.0))
    return net, ds


@pytest.mark.parametrize("eps", _EPSILON_LISTS, ids=["0", "0.3", "0,0.3", "default"])
@pytest.mark.parametrize("model", ["desk", "wide"])
def test_attack_reports_equal_one_attack_per_epsilon(eps, model, desk_model, wide_model):
    net, test_ds = (desk_model[0], desk_model[3]) if model == "desk" else wide_model
    got = attack_reports(net, test_ds, eps, LossConfig())
    want = attack_reports_per_epsilon(net, test_ds, eps, LossConfig())
    assert [e for e, _ in got] == [e for e, _ in want] == [float(e) for e in eps]
    for (e, g), (_, w) in zip(got, want):
        for name in _REPORT_COLUMNS:
            assert np.array_equal(getattr(g, name), getattr(w, name)), (e, name)


@pytest.mark.parametrize("eps, forwards, backprops",
                         [([0.0], 1, 0), ([0.3], 2, 1), ([0.0, 0.1, 0.3], 3, 1),
                          (DEFAULTS["attack.epsilons"], 6, 1)],
                         ids=["0", "0.3", "0,0.1,0.3", "default"])
def test_attack_reports_one_clean_forward_and_one_input_backprop(
        eps, forwards, backprops, desk_model, monkeypatch):
    net, _, _, test_ds = desk_model
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(network, name, wrapper)

    spy("forward", network.forward)
    spy("_backprop", network._backprop)
    attack_reports(net, test_ds, eps, LossConfig())
    assert (calls.count("forward"), calls.count("_backprop")) == (forwards, backprops)


_NOT_FINITE = "epsilon must be finite and >= 0"


@pytest.mark.parametrize("eps, message", [([0.0, 0.2, math.nan], _NOT_FINITE),
                                          ([0.0, 0.2, math.inf], _NOT_FINITE),
                                          ([0.0, 0.2, -0.1], _NOT_FINITE),
                                          ([0.0, 0.3, 0.2], "sorted ascending")],
                         ids=["nan", "inf", "negative", "descending"])
def test_attack_reports_refuses_bad_epsilons_before_any_forward(eps, message, desk_model,
                                                                 monkeypatch):
    net, _, _, test_ds = desk_model

    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran before the epsilon check")

    monkeypatch.setattr(network, "forward", no_forward)
    with pytest.raises(ValueError, match=message):
        attack_reports(net, test_ds, eps, LossConfig())


def test_concentrations_that_overflow_are_refused_naming_the_inputs():
    ds = data.Dataset(np.ones((4, 2)), np.eye(3)[[0, 1, 2, 0]], provenance="ones")
    net = network.init([2, 8, 3], np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # unclipped FGSM steps of 1e308 overflow the head's pre-activations
        with pytest.raises(ConcentrationOverflowError,
                           match=r"^ones at epsilon 1e\+308: the network's concentrations "
                                 r"overflow float64 on \d of 4 rows$"):
            attack_reports(net, ds, [0.0, 1e308], LossConfig())
        net.flat *= 1e300
        with pytest.raises(ConcentrationOverflowError, match=r"^ones: "):
            evaluate(net, ds)
        with pytest.raises(ConcentrationOverflowError, match=r"^ones at epsilon 0\.0: "):
            attack_reports(net, ds, [0.1], LossConfig())


# --------------------------------------------------------------- serializers

def test_report_and_summary_serialization(tmp_path, desk_model):
    net, _, _, test_ds = desk_model
    cfg = ExperimentConfig({"attack.epsilons": [0.0, 0.1]})
    assert cli.cmd_eval(cfg, tmp_path, (None, test_ds), net) == 0
    reports = evaluate(net, test_ds)
    lines = (tmp_path / "reports.csv").read_text().splitlines()
    assert len(lines) == test_ds.n + 1
    pred, ok, *floats = lines[1].split(",")
    assert (int(pred), int(ok)) == (reports.pred_class[0], reports.correct[0])
    assert [float(v) for v in floats] == [reports.entropy[0], reports.mutual_info[0],
                                          reports.max_prob[0], reports.alpha0[0]]

    loaded = json.loads((tmp_path / "summary_successes.json").read_text())
    assert loaded["count"] == np.count_nonzero(reports.correct)

    assert cli.cmd_attack(cfg, tmp_path, (None, test_ds), net) == 0
    assert len((tmp_path / "attack_sweep.csv").read_text().splitlines()) == 3
