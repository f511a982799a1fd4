"""Isolated calls into each ``iad`` layer at fixed shapes.

Each metric is the median over rounds of the mean time per call in a round;
the number of calls per round is sized from one calibration call so that a
metric costs about ``budget_s``. Inputs come from the workload seed, shapes
are fixed, and the tracer is not installed while these run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

ROUNDS = 5

SPECFUN = ("log_gamma", "digamma", "trigamma", "tetragamma")
SPECFUN_SIZES = {"n96": 96, "n1e5": 100_000}

# name -> (value function, gradient function, extra positional arguments)
LOSS_PAIRS = {
    "iad": ("iad_loss_batch", "iad_loss_grad_alpha_batch", (4.0,)),
    "info_reg": ("info_regularizer_batch", "info_regularizer_grad_alpha_batch", ()),
    "edl": ("edl_mse_loss_batch", "edl_mse_grad_alpha_batch", ()),
    "nll": ("nll_marginal_loss_batch", "nll_marginal_grad_alpha_batch", ()),
    "bayes_ce": ("bayes_ce_loss_batch", "bayes_ce_grad_alpha_batch", ()),
    "rkl": ("rkl_prior_loss_batch", "rkl_prior_grad_alpha_batch", (10.0,)),
}
LOSS_SHAPES = {"b32k3": (32, 3), "b256k10": (256, 10)}

# net name -> (layer sizes, batch rows); the two shapes the workloads train
NETS = {"small": ([2, 32, 32, 3], 32), "wide": ([784, 100, 100, 10], 64)}

# training.step workloads -> (net, loss, steps in the one timed epoch)
STEP_CASES = {"desk_iad": ("small", "iad", 50), "desk_edl": ("small", "edl", 50),
              "wide_k10": ("wide", "iad", 20)}

EVAL_ROWS = 256
VERIFY_TRIPLES = 100_000
VERIFY_TRIALS = 100


def per_call_s(fn, budget_s: float, rounds: int = ROUNDS) -> float:
    """Median seconds per call of ``fn()``."""
    t0 = perf_counter()
    fn()
    first = perf_counter() - t0
    number = max(1, int(budget_s / (rounds * max(first, 1e-7))))
    samples = []
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - t0) / number)
    return statistics.median(samples)


def _alpha(rng, shape):
    """Concentrations as a Dirichlet head emits them: all >= 1."""
    return 1.0 + rng.exponential(3.0, size=shape)


def measure(seed: int, workdir, budget_s: float, write_idx) -> dict[str, float]:
    """Every isolated-call metric, by name. ``write_idx(path_prefix, seed)``
    writes the IDX pair the ``data.load_idx`` metric reads."""
    from iad import data, dirichlet, evaluation, losses, network, specfun, training, verify

    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    def put(name, fn, scale, rounds=ROUNDS):
        out[name] = per_call_s(fn, budget_s, rounds) * scale

    for label, n in SPECFUN_SIZES.items():
        x = rng.uniform(1.0, 30.0, size=n)
        for fname in SPECFUN:
            f = getattr(specfun, fname)
            put(f"specfun.{fname}.ns_per_elem.{label}", lambda f=f: f(x), 1e9 / n)

    for label, (n, k) in LOSS_SHAPES.items():
        a = _alpha(rng, (n, k))
        c = rng.integers(k, size=n)
        for name, (value, grad, extra) in LOSS_PAIRS.items():
            vf, gf = getattr(losses, value), getattr(losses, grad)
            put(f"losses.{name}.value_grad_us.{label}",
                lambda vf=vf, gf=gf, extra=extra: (vf(a, c, *extra), gf(a, c, *extra)), 1e6)

    nets = {}
    for label, (sizes, rows) in NETS.items():
        net = network.init(sizes, rng)
        x = rng.uniform(0.0, 1.0, size=(rows, sizes[0]))
        c = rng.integers(sizes[-1], size=rows)
        trace = network.forward(net, x)
        dalpha = rng.standard_normal(trace.alpha.shape) / rows
        nets[label] = net
        put(f"network.forward.us.{label}", lambda net=net, x=x: network.forward(net, x), 1e6)
        put(f"network.backward.us.{label}",
            lambda net=net, t=trace, d=dalpha: network.backward(net, t, d), 1e6)
        put(f"network.input_gradient.us.{label}",
            lambda net=net, x=x, c=c: network.input_gradient(net, x, c, losses.LossConfig()),
            1e6)
        params = [p.copy() for p in net.weights + net.biases]
        grads = [rng.standard_normal(p.shape) for p in params]
        state = training.AdamState.zeros_like(params)
        cfg = training.TrainConfig()
        put(f"training.adam_step.us.{label}",
            lambda p=params, g=grads, s=state: training.adam_step(p, g, s, cfg), 1e6)

    ckpt = workdir / "layers_checkpoint.json"
    put("network.save_checkpoint.ms.wide",
        lambda: network.save_checkpoint(nets["wide"], ckpt), 1e3)
    put("network.load_checkpoint.ms.wide", lambda: network.load_checkpoint(ckpt), 1e3)

    for label, (net_label, loss, steps) in STEP_CASES.items():
        sizes, rows = NETS[net_label]
        n, k = rows * steps, sizes[-1]
        labels = np.eye(k)[rng.integers(k, size=n)]
        train_ds = data.Dataset(rng.uniform(0.0, 1.0, size=(n, sizes[0])), labels)
        val_ds = train_ds.take(np.arange(rows))
        # t0=0 puts the regularizer on from epoch 1, as in most workload epochs
        cfg = training.TrainConfig(seed=seed, max_epochs=1, patience=1, t0=0,
                                   batch_size=rows)
        put(f"training.step.us.{label}",
            lambda d=train_ds, v=val_ds, cfg=cfg, loss=loss, s=sizes:
            training.train(d, s[1:-1], cfg, loss=loss, val=v), 1e6 / steps, rounds=3)

    for label, k in (("k3", 3), ("k10", 10)):
        d = dirichlet.DirichletParams(_alpha(rng, k))
        put(f"dirichlet.predictive_entropy.us.{label}",
            lambda d=d: dirichlet.predictive_entropy(d), 1e6)
        put(f"dirichlet.mutual_information.us.{label}",
            lambda d=d: dirichlet.mutual_information(d), 1e6)

    for label, net_label in (("k3", "small"), ("k10", "wide")):
        net = nets[net_label]
        sizes = net.layer_sizes
        labels = np.eye(sizes[-1])[rng.integers(sizes[-1], size=EVAL_ROWS)]
        ds = data.Dataset(rng.uniform(0.0, 1.0, size=(EVAL_ROWS, sizes[0])), labels,
                          feature_range=(0.0, 1.0))
        put(f"evaluation.evaluate.us_per_row.{label}",
            lambda net=net, ds=ds: evaluation.evaluate(net, ds), 1e6 / EVAL_ROWS)
        put(f"evaluation.fgsm_attack.us_per_row.{label}",
            lambda net=net, ds=ds: evaluation.fgsm_attack(
                net, ds.features, ds.label_indices, 0.1, losses.LossConfig(), (0.0, 1.0)),
            1e6 / EVAL_ROWS)

    centers = data.triangle_centers(4.0)
    blobs = data.make_blobs(3, 1000, centers, 0.6, rng)
    put("data.make_blobs.ms", lambda: data.make_blobs(3, 1000, centers, 0.6, rng), 1e3)
    put("data.split.ms", lambda: data.split(blobs, [0.8, 0.2], rng), 1e3)
    prefix = workdir / "layers"
    images, labels_path = write_idx(prefix, seed)
    put("data.load_idx.ms", lambda: data.load_idx(images, labels_path), 1e3)

    for name, fn in (
            ("lemma1", lambda: verify.verify_lemma1(VERIFY_TRIPLES, seed)),
            ("lemma2", lambda: verify.verify_lemma2(VERIFY_TRIPLES, seed)),
            ("theorem1", lambda: verify.verify_theorem1(VERIFY_TRIALS, seed=seed)),
            ("theorem2", lambda: verify.verify_theorem2(VERIFY_TRIALS, seed=seed)),
            ("theorem3", lambda: verify.verify_theorem3(VERIFY_TRIALS, seed=seed))):
        put(f"verify.{name}.s", fn, 1.0, rounds=3)
    return out
