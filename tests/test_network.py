"""Forward/backward correctness: softplus head, finite-difference gradient
certification for parameters and inputs, init determinism, checkpoint I/O."""

import base64
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iad import evaluation, losses, network
from iad.losses import LossConfig
from iad.network import (NetworkParams, backward, forward, init,
                         input_gradient, load_checkpoint, save_checkpoint)
from oracles import sigmoid_masked


def tiny_net(sizes, seed=0):
    return init(sizes, np.random.default_rng(seed))


def batch_loss_value(net, x, c, p_norm, lam=0.0):
    trace = forward(net, x)
    vals = losses.iad_loss_batch(trace.alpha, c, p_norm)
    if lam > 0.0:
        vals = vals + lam * losses.info_regularizer_batch(trace.alpha, c)
    return float(vals.mean())


def batch_loss_grads(net, x, c, p_norm, lam=0.0):
    trace = forward(net, x)
    g = losses.iad_loss_grad_alpha_batch(trace.alpha, c, p_norm)
    if lam > 0.0:
        g = g + lam * losses.info_regularizer_grad_alpha_batch(trace.alpha, c)
    return backward(net, trace, g / x.shape[0])


# ------------------------------------------------------------------ softplus

def test_softplus_stable_at_extremes():
    def softplus(z):
        return network._softplus_e(np.array([z]))[0][0]

    assert softplus(0.0) == pytest.approx(math.log(2.0))
    assert softplus(-745.0) < 1e-300
    assert softplus(50.0) == pytest.approx(50.0, abs=1e-20)
    assert softplus(1000.0) == 1000.0


def test_sigmoid_equals_masked_form_bit_for_bit():
    """The head's derivative, formed from the e^-|z| that softplus computed,
    equals the two-branch masked sigmoid bit for bit."""
    edges = np.array([0.0, 1e-300, 30.0, 709.0, 746.0])
    z = np.concatenate([edges, -edges, np.random.default_rng(3).normal(0.0, 20.0, 3000)])
    _, e = network._softplus_e(z.reshape(-1, 2))
    got = network._sigmoid(z.reshape(-1, 2), e)
    assert got.shape == (z.size // 2, 2)
    assert np.array_equal(got.ravel(), sigmoid_masked(z))
    assert np.signbit(z[5]) and got.ravel()[5] == 0.5  # -0.0 takes the z >= 0 branch
    assert got.ravel()[9] == 0.0 and got.ravel()[4] == 1.0  # e^-746 underflows


def test_forward_alpha_floor():
    net = tiny_net([2, 4, 3])
    for w in net.weights:
        w *= 0.0
    for b in net.biases:
        b *= 0.0
    trace = forward(net, np.array([[0.3, -0.7]]))
    assert np.allclose(trace.alpha, 1.0 + math.log(2.0), atol=1e-12)


def test_forward_alpha_always_at_least_one():
    rng = np.random.default_rng(1)
    for _ in range(30):
        net = tiny_net([3, 5, 4], seed=int(rng.integers(1 << 30)))
        x = rng.normal(scale=5.0, size=(8, 3))
        assert np.all(forward(net, x).alpha >= 1.0)


def test_forward_large_preactivation_is_linear():
    net = tiny_net([1, 2, 2])
    net.weights[1][:] = 0.0
    net.biases[1][:] = np.array([50.0, -50.0])
    trace = forward(net, np.array([[1.0]]))
    assert trace.alpha[0, 0] == pytest.approx(51.0, abs=1e-12)
    assert trace.alpha[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_forward_rejects_bad_input():
    net = tiny_net([2, 3, 2])
    with pytest.raises(ValueError):
        forward(net, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        forward(net, np.array([[1.0, float("nan")]]))
    for x in (np.zeros((2, 2, 2)), np.zeros(()), np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match="shape"):
            forward(net, x)
        with pytest.raises(ValueError, match="shape"):
            input_gradient(net, x, 0, LossConfig())


def test_single_example_form_is_refused():
    """Every function takes a batch: a (D,) input or a (K,) alpha row is
    refused, not promoted to a one-row batch."""
    net = tiny_net([2, 3, 3])
    x, c = np.array([0.4, 0.6]), np.array([0])
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        forward(net, x)
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        input_gradient(net, x, c, LossConfig())
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        evaluation.fgsm_attack(net, x, c, 0.1, LossConfig(), None)
    trace = forward(net, x[None, :])
    with pytest.raises(ValueError, match="dloss_dalpha"):
        backward(net, trace, trace.alpha[0])
    alpha = np.array([2.0, 3.0, 4.0])
    for kernel, extra in ((losses.iad_value_grad_batch, (4.0,)),
                          (losses.info_value_grad_batch, ()),
                          (losses.nll_marginal_value_grad_batch, ()),
                          (losses.bayes_ce_value_grad_batch, ()),
                          (losses.edl_mse_value_grad_batch, ()),
                          (losses.rkl_prior_value_grad_batch, (10.0,))):
        with pytest.raises(ValueError, match=r"\(N, K\)"):
            kernel(alpha, c, *extra)
    with pytest.raises(ValueError, match=r"\(N, K\)"):
        losses.info_value_grad_batch(alpha)


def test_forward_deterministic():
    net = tiny_net([2, 4, 3])
    x = np.array([[0.1, 0.2], [0.5, -1.0]])
    a = forward(net, x).alpha
    b = forward(net, x).alpha
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------- init

def test_init_deterministic_per_seed():
    a = tiny_net([2, 8, 3], seed=5)
    b = tiny_net([2, 8, 3], seed=5)
    c = tiny_net([2, 8, 3], seed=6)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))


def test_init_fan_in_bound_and_zero_biases():
    net = tiny_net([7, 16, 4], seed=2)
    for w in net.weights:
        assert np.all(np.abs(w) <= math.sqrt(6.0 / w.shape[0]) + 1e-12)
    for b in net.biases:
        assert np.all(b == 0.0)


def test_init_rejects_bad_spec():
    with pytest.raises(ValueError):
        init([4], np.random.default_rng(0))


def test_network_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(weights=[np.ones((2, 3)), np.ones((4, 2))],
                      biases=[np.zeros(3), np.zeros(2)])


def assert_flat_layout(net):
    """weights/biases are views that tile net.flat layer by layer."""
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    for a in net.weights + net.biases:
        assert np.shares_memory(a, net.flat)
    tiles = [a.ravel() for pair in zip(net.weights, net.biases) for a in pair]
    assert np.array_equal(np.concatenate(tiles), net.flat)


def test_parameters_are_views_of_one_flat_vector(tmp_path):
    net = tiny_net([3, 5, 4, 2], seed=1)
    assert net.flat.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2
    assert_flat_layout(net)
    twin = net.copy()
    assert_flat_layout(twin)
    assert not np.shares_memory(twin.flat, net.flat)
    assert np.array_equal(twin.flat, net.flat)
    save_checkpoint(net, tmp_path / "ckpt.json")
    back = load_checkpoint(tmp_path / "ckpt.json")
    assert_flat_layout(back)
    assert np.array_equal(back.flat, net.flat)
    net.flat[-1] = 7.0
    assert net.biases[-1][-1] == 7.0 and twin.biases[-1][-1] != 7.0


def test_network_params_copies_given_arrays_in():
    w = [np.ones((2, 3)), np.ones((3, 2))]
    net = NetworkParams(w, [np.zeros(3), np.zeros(2)])
    w[0][0, 0] = 5.0
    assert net.weights[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        NetworkParams([np.ones(3)], [np.zeros(3)])


def test_parameter_entries_cannot_be_reassigned():
    net = tiny_net([2, 3, 2])
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((2, 3))
    with pytest.raises(TypeError):
        net.biases[1] = np.zeros(2)


# ------------------------------------------------------------------ backward

def test_backward_zero_upstream_gives_zero_gradients():
    net = tiny_net([2, 3, 2])
    x = np.array([[0.2, -0.4]])
    trace = forward(net, x)
    g = backward(net, trace, np.zeros_like(trace.alpha))
    for arr in g.weights + g.biases:
        assert np.all(arr == 0.0)


def test_backward_linearity_over_examples():
    net = tiny_net([2, 3, 2], seed=3)
    x = np.array([[0.2, -0.4], [1.0, 0.5]])
    c = np.array([0, 1])
    both = batch_loss_grads(net, x, c, 4.0)
    g0 = batch_loss_grads(net, x[:1], c[:1], 4.0)
    g1 = batch_loss_grads(net, x[1:], c[1:], 4.0)
    for w, w0, w1 in zip(both.weights, g0.weights, g1.weights):
        assert np.allclose(w, 0.5 * (w0 + w1), rtol=1e-12, atol=1e-15)


def test_parameter_gradients_match_finite_differences_tiny_net():
    rng = np.random.default_rng(4)
    net = tiny_net([2, 3, 2], seed=7)
    x = rng.normal(size=(4, 2))
    c = rng.integers(0, 2, size=4)
    got = batch_loss_grads(net, x, c, 4.0)
    for arrs, got_arrs in ((net.weights, got.weights),
                           (net.biases, got.biases)):
        for arr, g in zip(arrs, got_arrs):
            flat = arr.ravel()
            for idx in range(flat.size):
                h = 1e-5
                orig = flat[idx]
                flat[idx] = orig + h
                hi = batch_loss_value(net, x, c, 4.0)
                flat[idx] = orig - h
                lo = batch_loss_value(net, x, c, 4.0)
                flat[idx] = orig
                fd = (hi - lo) / (2.0 * h)
                assert g.ravel()[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_parameter_gradients_with_regularizer_random_points():
    # end-to-end check including lambda*R on a 2-8-8-3 network
    rng = np.random.default_rng(5)
    net = tiny_net([2, 8, 8, 3], seed=8)
    x = rng.normal(size=(5, 2))
    c = rng.integers(0, 3, size=5)
    lam = 0.5
    got = batch_loss_grads(net, x, c, 4.0, lam=lam)
    params = net.weights + net.biases
    grads = got.weights + got.biases
    checked = 0
    for arr, g in zip(params, grads):
        flat, gflat = arr.ravel(), g.ravel()
        for idx in rng.choice(flat.size, size=min(12, flat.size),
                              replace=False):
            h = 1e-5
            orig = flat[idx]
            flat[idx] = orig + h
            hi = batch_loss_value(net, x, c, 4.0, lam=lam)
            flat[idx] = orig - h
            lo = batch_loss_value(net, x, c, 4.0, lam=lam)
            flat[idx] = orig
            fd = (hi - lo) / (2.0 * h)
            assert gflat[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            checked += 1
    assert checked >= 50


def test_backward_into_out_equals_fresh_backward():
    """A Gradients from an earlier call, passed back as out, is overwritten
    in place with the bits a fresh call gives."""
    rng = np.random.default_rng(12)
    net = tiny_net([5, 7, 6, 3], seed=12)
    trace = forward(net, rng.normal(size=(9, 5)))
    d = rng.normal(size=trace.alpha.shape)
    fresh = backward(net, trace, d)
    out = backward(net, forward(net, rng.normal(size=(4, 5))), np.ones((4, 3)))
    out.flat[:] = np.nan
    got = backward(net, trace, d, out=out)
    assert got is out
    assert np.array_equal(out.flat, fresh.flat)
    for a, b in zip(got.weights + got.biases, fresh.weights + fresh.biases):
        assert np.shares_memory(a, out.flat) and np.array_equal(a, b)
    other = tiny_net([5, 8, 5, 3], seed=12)   # as many parameters, other shapes
    assert other.flat.size == net.flat.size
    for bad in (backward(other, forward(other, np.ones((1, 5))), np.ones((1, 3))),
                backward(tiny_net([5, 7, 3]), forward(tiny_net([5, 7, 3]), np.ones((1, 5))),
                         np.ones((1, 3))),
                np.empty(net.flat.size)):
        with pytest.raises(ValueError, match="Gradients of an earlier backward call"):
            backward(net, trace, d, out=bad)


# ------------------------------------------------------------ input gradient

def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = tiny_net([3, 6, 4], seed=9)
    cfg = LossConfig(p_norm=4.0)
    for _ in range(10):
        x = rng.normal(size=3)
        c = int(rng.integers(0, 4))
        got = input_gradient(net, x[None, :], np.array([c]), cfg)[0]
        for j in range(3):
            h = 1e-6
            hi, lo = x.copy(), x.copy()
            hi[j] += h
            lo[j] -= h
            fhi = losses.iad_loss_batch(forward(net, hi[None, :]).alpha,
                                        np.array([c]), 4.0)[0]
            flo = losses.iad_loss_batch(forward(net, lo[None, :]).alpha,
                                        np.array([c]), 4.0)[0]
            fd = (fhi - flo) / (2.0 * h)
            assert got[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_input_gradient_zero_network():
    net = tiny_net([2, 3, 2])
    for w in net.weights:
        w *= 0.0
    g = input_gradient(net, np.array([[0.4, 0.6]]), np.array([0]), LossConfig())[0]
    assert np.allclose(g, 0.0, atol=1e-15)


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_lossless(tmp_path):
    net = tiny_net([4, 10, 5], seed=11)
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.layer_sizes == net.layer_sizes
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert np.array_equal(a, b)
    x = np.array([[0.1, -0.2, 0.3, 0.9]])
    assert np.array_equal(forward(net, x).alpha, forward(back, x).alpha)


def test_checkpoint_rejects_other_activation(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(tiny_net([2, 3, 3], seed=1), path)
    doc = json.loads(path.read_text())
    assert doc["activation"] == "relu"
    doc["activation"] = "tanh"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="ckpt.json.*tanh"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


# bit patterns a text format could lose: signed zero, subnormals, extremes
_SPECIAL = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
            1.0 + 2.0 ** -52, math.pi]


def special_net():
    net = tiny_net([3, 4, 2], seed=12)
    net.weights[0].flat[:len(_SPECIAL)] = _SPECIAL
    net.biases[0][:] = [-0.0, 5e-324, 1e308, -1e308]
    return net


def assert_bit_identical(a, b):
    assert a.layer_sizes == b.layer_sizes
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_checkpoint_v3_roundtrip_bit_exact(tmp_path):
    net = special_net()
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    payload = net.flat.astype("<f8").tobytes()
    assert json.loads(path.read_text()) == {
        "format": "iad-checkpoint", "version": 3, "layer_sizes": net.layer_sizes,
        "activation": "relu", "payload": "ckpt.f64", "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest()}
    assert (tmp_path / "ckpt.f64").read_bytes() == payload
    back = load_checkpoint(path)
    assert_bit_identical(net, back)
    back.weights[0][0, 0] = 1.0  # loaded arrays are writable
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.f64", "ckpt.json"]


def test_checkpoint_save_refuses_payload_suffix(tmp_path):
    with pytest.raises(ValueError, match="f64"):
        save_checkpoint(tiny_net([2, 3, 2]), tmp_path / "ckpt.f64")
    assert list(tmp_path.iterdir()) == []


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _old_doc(version, **changes):
    """A version 1 (nested float lists) or 2 (base64 arrays) document of the
    [2, 3, 2] net; None drops a key. Neither version is read."""
    net = tiny_net([2, 3, 2], seed=13)
    encode = (lambda a: a.tolist()) if version == 1 else _b64
    doc = {"format": "iad-checkpoint", "version": version, "layer_sizes": [2, 3, 2],
           "activation": "relu",
           "weights": [encode(w) for w in net.weights],
           "biases": [encode(b) for b in net.biases]}
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


_PAYLOAD = tiny_net([2, 3, 2], seed=13).flat.astype("<f8").tobytes()
_NAN_PAYLOAD = np.full(17, np.nan).astype("<f8").tobytes()


def _v3_doc(data=_PAYLOAD, **changes):
    """The version 3 header of the payload bytes ``data``, stored in
    ckpt.f64, with changes; None drops a key."""
    doc = {"format": "iad-checkpoint", "version": 3, "layer_sizes": [2, 3, 2],
           "activation": "relu", "payload": "ckpt.f64", "payload_bytes": len(data),
           "payload_sha256": hashlib.sha256(data).hexdigest()}
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


_UNSUPPORTED = "unsupported checkpoint version"
# name: (header text, what the error says); ckpt.f64 holds _PAYLOAD and
# nan.f64 _NAN_PAYLOAD
_MALFORMED = {
    "not json": ("{ not json", "not valid JSON"),
    "top level list": ("[1, 2]", "not an iad checkpoint"),
    "missing layer_sizes": (_v3_doc(layer_sizes=None), "layer_sizes must be"),
    "layer_sizes string": (_v3_doc(layer_sizes="2,3,2"), "layer_sizes must be"),
    "layer_sizes float": (_v3_doc(layer_sizes=[2, 3.0, 2]), "layer_sizes must be"),
    "layer_sizes zero": (_v3_doc(layer_sizes=[2, 0, 2]), "layer_sizes must be"),
    "layer_sizes disagree": (_v3_doc(layer_sizes=[2, 3, 3]),
                             "payload_bytes is 136, layer_sizes needs 168"),
    "non-finite payload": (_v3_doc(_NAN_PAYLOAD, payload="nan.f64"), "non-finite parameters"),
    "missing activation": (_v3_doc(activation=None), "unsupported activation None"),
    "version true": (_v3_doc(version=True), _UNSUPPORTED),
    "version float": (_v3_doc(version=3.0), _UNSUPPORTED),
    "version 4": (_v3_doc(version=4), _UNSUPPORTED),
    # versions 1 and 2, well-formed or not, stop at the version check
    "v1 document": (_old_doc(1), _UNSUPPORTED),
    "v2 document": (_old_doc(2), _UNSUPPORTED),
    "v1 ragged": (_old_doc(1, weights=[[[1.0], [1.0, 2.0]], [[1.0]]]), _UNSUPPORTED),
    "v1 string entry": (_old_doc(1, biases=[_b64(np.zeros(3)), _b64(np.zeros(2))]),
                        _UNSUPPORTED),
    "v1 wrong shape": (_old_doc(1, weights=[np.zeros((3, 2)).tolist()] * 2), _UNSUPPORTED),
    "missing weights": (_old_doc(2, weights=None), _UNSUPPORTED),
    "missing biases": (_old_doc(2, biases=None), _UNSUPPORTED),
    "weights a dict": (_old_doc(2, weights={"0": "AAAA"}), _UNSUPPORTED),
    "entry a number": (_old_doc(2, biases=[0, 0]), _UNSUPPORTED),
    "wrong array count": (_old_doc(2, biases=[_b64(np.zeros(3))]), _UNSUPPORTED),
    "bad base64": (_old_doc(2, biases=[_b64(np.zeros(3)), "A*AA"]), _UNSUPPORTED),
    "payload too short": (_old_doc(2, biases=[_b64(np.zeros(3)), "AAAAAAAAAAA="]),
                          _UNSUPPORTED),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_checkpoint_malformed_raises_named_error(tmp_path, name):
    text, what = _MALFORMED[name]
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    (tmp_path / "ckpt.f64").write_bytes(_PAYLOAD)
    (tmp_path / "nan.f64").write_bytes(_NAN_PAYLOAD)
    with pytest.raises(network.CheckpointFormatError, match="ckpt.json") as exc:
        load_checkpoint(path)
    assert what in str(exc.value)


def _replace_payload(doc, f64, payload):
    """A payload whose header records its true byte count and sha256."""
    f64.write_bytes(payload)
    doc.update(payload_bytes=len(payload), payload_sha256=hashlib.sha256(payload).hexdigest())


# each edits the header ``doc`` of a saved [2, 3, 2] net or its payload ``f64``
_MALFORMED_V3 = {
    "payload file missing": lambda doc, f64: f64.unlink(),
    "payload file a directory": lambda doc, f64: (f64.unlink(), f64.mkdir()),
    "payload key missing": lambda doc, f64: doc.pop("payload"),
    "payload a number": lambda doc, f64: doc.update(payload=1),
    "payload empty": lambda doc, f64: doc.update(payload=""),
    "payload in parent dir": lambda doc, f64: doc.update(payload="../x.f64"),
    "payload absolute": lambda doc, f64: doc.update(payload=str(f64)),
    "payload short": lambda doc, f64: f64.write_bytes(f64.read_bytes()[:-8]),
    "payload long": lambda doc, f64: f64.write_bytes(f64.read_bytes() + bytes(8)),
    "payload short, header agrees": lambda doc, f64: _replace_payload(
        doc, f64, f64.read_bytes()[:-8]),
    "payload_bytes disagrees": lambda doc, f64: doc.update(payload_bytes=128),
    "layer_sizes disagree": lambda doc, f64: doc.update(layer_sizes=[2, 3, 3]),
    "sha256 mismatch": lambda doc, f64: f64.write_bytes(bytes(136)),
    "sha256 of nothing": lambda doc, f64: doc.update(payload_sha256=hashlib.sha256().hexdigest()),
    "non-finite payload": lambda doc, f64: _replace_payload(
        doc, f64, np.array([np.nan] * 17, dtype="<f8").tobytes()),
    "payload_bytes missing": lambda doc, f64: doc.pop("payload_bytes"),
    "payload_bytes string": lambda doc, f64: doc.update(payload_bytes="136"),
    "payload_bytes float": lambda doc, f64: doc.update(payload_bytes=136.0),
    "payload_bytes true": lambda doc, f64: doc.update(payload_bytes=True),
    "payload_sha256 missing": lambda doc, f64: doc.pop("payload_sha256"),
    "payload_sha256 a number": lambda doc, f64: doc.update(payload_sha256=0),
    "payload_sha256 a list": lambda doc, f64: doc.update(payload_sha256=[doc["payload_sha256"]]),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_V3))
def test_checkpoint_v3_malformed_raises_named_error(tmp_path, name):
    # the checkpoint sits one level down, so "../x.f64" names a valid payload
    path = tmp_path / "sub" / "ckpt.json"
    path.parent.mkdir()
    save_checkpoint(tiny_net([2, 3, 2], seed=13), path)
    f64 = path.with_suffix(".f64")
    (tmp_path / "x.f64").write_bytes(f64.read_bytes())
    doc = json.loads(path.read_text())
    assert doc["payload_bytes"] == 136
    _MALFORMED_V3[name](doc, f64)
    path.write_text(json.dumps(doc))
    with pytest.raises(network.CheckpointFormatError, match="ckpt.json"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_truncated_or_corrupted_fails_named(tmp_path, data):
    path = tmp_path / "ckpt.json"
    net = tiny_net([2, 3, 2], seed=14)
    save_checkpoint(net, path)
    assert json.loads(path.read_text())["version"] == 3
    target = data.draw(st.sampled_from([path, tmp_path / "ckpt.f64"]), label="file")
    raw = target.read_bytes()
    pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:pos]
    else:
        raw = raw[:pos] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[pos + 1:]
    target.write_bytes(raw)
    try:
        back = load_checkpoint(path)
    except network.CheckpointFormatError as exc:
        assert "ckpt.json" in str(exc)
    else:
        # only an edit that keeps the meaning, such as a changed space, loads
        assert_bit_identical(net, back)


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    first = tiny_net([2, 3, 2], seed=15)
    real_replace = network.os.replace
    # a crash at the payload's replace changes nothing; one at the header's
    # leaves the new payload under the old header, which fails its sha256
    for crash_at, loads_old in ((1, True), (2, False)):
        save_checkpoint(first, path)
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == crash_at:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(network.os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_net([2, 3, 2], seed=16), path)
        monkeypatch.setattr(network.os, "replace", real_replace)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.f64", "ckpt.json"]
        if loads_old:
            assert_bit_identical(first, load_checkpoint(path))
        else:
            with pytest.raises(network.CheckpointFormatError, match="ckpt.json.*sha256"):
                load_checkpoint(path)
