"""Loss values against hand evaluations, Monte-Carlo oracles, and central
finite differences for every analytic gradient."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iad import losses, network
from iad.dirichlet import DirichletParams
from iad.losses import (LossConfig, _check_batch, bayes_ce_grad_alpha_batch,
                        bayes_ce_loss_batch, bayes_ce_value_grad_batch,
                        edl_mse_grad_alpha_batch, edl_mse_loss_batch,
                        edl_mse_value_grad_batch, iad_loss_batch,
                        iad_loss_grad_alpha_batch, iad_value_grad_batch,
                        info_regularizer_batch,
                        info_regularizer_grad_alpha_batch,
                        info_value_grad_batch,
                        nll_marginal_grad_alpha_batch,
                        nll_marginal_loss_batch, nll_marginal_value_grad_batch,
                        rkl_prior_grad_alpha_batch, rkl_prior_loss_batch,
                        rkl_prior_value_grad_batch)
from iad.specfun import DomainError, digamma, log_rising, tetragamma, trigamma
from iad.training import TrainConfig, _objective
from oracles import (kl_divergence, reference_edl_mse_loss, reference_iad_loss,
                     reference_info_regularizer, reference_nll_marginal_loss,
                     reference_rkl_prior_loss, sample)


def one_row(fn, alpha, c, *args):
    """The batch loss or gradient fn on one example: alpha (K,), class c."""
    return fn(np.asarray(alpha, dtype=np.float64)[None, :], np.array([c]),
              *args)[0]


def fd_gradient(fn, alpha, rel_step=1e-4):
    """Central finite differences with per-coordinate step rel_step*alpha_j."""
    g = np.zeros_like(alpha)
    for j in range(alpha.size):
        h = rel_step * alpha[j]
        hi, lo = alpha.copy(), alpha.copy()
        hi[j] += h
        lo[j] -= h
        g[j] = (fn(hi) - fn(lo)) / (2.0 * h)
    return g


# -------------------------------------------------------------- LossConfig

def test_loss_config_defaults_and_validation():
    assert LossConfig().p_norm == 4.0
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="p_norm"):
            LossConfig(p_norm=bad)


# -------------------------------------------------------------------- F value

def test_iad_loss_uniform_two_class():
    assert one_row(iad_loss_batch, [1.0, 1.0], 0, 2.0) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-12)


def test_iad_loss_beta_two_one():
    assert one_row(iad_loss_batch, [2.0, 1.0], 0, 2.0) == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-12)


def test_iad_loss_vanishes_with_confidence():
    assert one_row(iad_loss_batch, [1e4, 1.0], 0, 2.0) < 0.02


def test_iad_loss_index_out_of_range():
    with pytest.raises(IndexError):
        one_row(iad_loss_batch, [1.0, 1.0], 2, 2.0)


def test_iad_loss_batch_matches_scalar():
    rng = np.random.default_rng(0)
    alpha = rng.uniform(1.0, 30.0, size=(20, 4))
    c = rng.integers(0, 4, size=20)
    vals = iad_loss_batch(alpha, c, 4.0)
    for i in range(20):
        assert vals[i] == pytest.approx(
            one_row(iad_loss_batch, alpha[i], int(c[i]), 4.0), rel=1e-12)


def _separate_iad(alpha, c, p):
    """(F, dF/dalpha) from one log_rising call per argument array: the
    unfused form, which the fused kernel must equal bit for bit."""
    rows = np.arange(alpha.shape[0])
    a0 = alpha.sum(axis=1)
    s = a0 - alpha[rows, c]
    log_mu_0, nu_0 = log_rising(a0, p)
    log_mu_s, nu_s = log_rising(s, p)
    log_mu_a, nu_a = log_rising(alpha, p)
    log_mu_k = np.where(np.arange(alpha.shape[1]) == c[:, None], -np.inf, log_mu_a)
    terms = np.concatenate([log_mu_s[:, None], log_mu_k], axis=1)
    top = terms.max(axis=1, keepdims=True)
    lse = (top + np.log(np.sum(np.exp(terms - top), axis=1, keepdims=True)))[:, 0]
    f = np.exp((lse - log_mu_0) / p)
    common = -nu_0
    w = np.exp(terms - lse[:, None])
    g = (common[:, None] + w[:, :1] * nu_s[:, None] + w[:, 1:] * nu_a) / p
    g[rows, c] = common / p
    return f, f[:, None] * g


def _separate_info(alpha, c):
    """(R, dR/dalpha) from separate trigamma/tetragamma calls on alpha~ and
    alpha~_0 (the unfused form)."""
    off = alpha.copy()
    if c is not None:
        off[np.arange(alpha.shape[0]), c] = 1.0
    d = off - 1.0
    a_t0 = off.sum(axis=1)
    tri, tri0 = trigamma(off), trigamma(a_t0)[:, None]
    tet, tet0 = tetragamma(off), tetragamma(a_t0)[:, None]
    r = 0.5 * np.sum(d * d * (tri - tri0), axis=1)
    g = (d * (tri - tri0) + 0.5 * d * d * (tet - tet0)
         - 0.5 * tet0 * (np.sum(d * d, axis=1)[:, None] - d * d))
    if c is not None:
        g[np.arange(alpha.shape[0]), c] = 0.0
    return r, g


@pytest.mark.parametrize("k", [2, 3, 10])
def test_fused_kernels_equal_thin_views_and_separate_calls(k):
    rng = np.random.default_rng(k)
    alpha = 1.0 + rng.exponential(3.0, size=(40, k))
    alpha[::7] *= 50.0  # rows wholly above the psi-family shift cutoff
    c = rng.integers(k, size=40)
    f, df = iad_value_grad_batch(alpha, c, 4.0)
    assert np.array_equal(f, iad_loss_batch(alpha, c, 4.0))
    assert np.array_equal(f, reference_iad_loss(alpha, c, 4.0))
    assert np.array_equal(df, iad_loss_grad_alpha_batch(alpha, c, 4.0))
    ref_f, ref_df = _separate_iad(alpha, c, 4.0)
    assert np.array_equal(f, ref_f) and np.array_equal(df, ref_df)
    for cc in (c, None):
        r, dr = info_value_grad_batch(alpha, cc)
        assert np.array_equal(r, info_regularizer_batch(alpha, cc))
        assert np.array_equal(r, reference_info_regularizer(alpha, cc))
        assert np.array_equal(dr, info_regularizer_grad_alpha_batch(alpha, cc))
        ref_r, ref_dr = _separate_info(alpha, cc)
        assert np.array_equal(r, ref_r) and np.array_equal(dr, ref_dr)


def test_iad_loss_p_moment_matches_monte_carlo():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(2, 8))
        alpha = rng.uniform(1.0, 30.0, size=k)
        c = int(rng.integers(0, k))
        p = float(rng.choice([2.0, 4.0, 6.0]))
        d = DirichletParams(alpha)
        draws = sample(d, rng, 400_000)
        y = np.eye(k)[c]
        moment = float(np.mean(np.sum(np.abs(y - draws) ** p, axis=1)))
        assert one_row(iad_loss_batch, alpha, c, p) ** p == pytest.approx(
            moment, rel=0.01)


def test_iad_loss_upper_bounds_max_norm_error():
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = int(rng.choice([2, 5, 10]))
        alpha = rng.uniform(1.0, 50.0, size=k)
        c = int(rng.integers(0, k))
        d = DirichletParams(alpha)
        draws = sample(d, rng, 100_000)
        err = np.max(np.abs(np.eye(k)[c] - draws), axis=1)
        mc, se = float(err.mean()), float(err.std() / math.sqrt(err.size))
        assert mc <= one_row(iad_loss_batch, alpha, c, 4.0) + 3.0 * se


def test_norm_ordering_for_error_vectors():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(200, 6))
    for p in (3.0, 4.0, 8.0):
        lp = np.sum(np.abs(e) ** p, axis=1) ** (1.0 / p)
        linf = np.max(np.abs(e), axis=1)
        l2 = np.sqrt(np.sum(e ** 2, axis=1))
        assert np.all(linf <= lp + 1e-12)
        assert np.all(lp <= l2 + 1e-12)


# ----------------------------------------------------------------- F gradient

def test_iad_grad_correct_class_hand_value():
    g = one_row(iad_loss_grad_alpha_batch, [2.0, 1.0], 0, 2.0)
    want = math.sqrt(1.0 / 3.0) * 0.5 * (digamma(3.0) - digamma(5.0))
    assert g[0] == pytest.approx(want, abs=1e-12)
    assert g[0] == pytest.approx(-0.1684, abs=5e-4)


def test_iad_grad_correct_class_negative():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        alpha = rng.uniform(1.0, 80.0, size=k)
        c = int(rng.integers(0, k))
        g = one_row(iad_loss_grad_alpha_batch, alpha, c, 4.0)
        assert g[c] < 0.0


def test_iad_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(60):
        alpha = rng.uniform(1.05, 50.0, size=5)
        c = int(rng.integers(0, 5))
        p = float(rng.choice([2.0, 4.0, 7.5]))
        got = one_row(iad_loss_grad_alpha_batch, alpha, c, p)
        want = fd_gradient(lambda a: one_row(iad_loss_batch, a, c, p), alpha)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-10)


def _iad_mpmath(alpha, c, p):
    """(F, dF/dalpha) for one row at 40 digits, from the rising factorials
    mu(a) = (a)_p and nu(a) = sum_k 1 / (a + k) = psi(a+p) - psi(a)."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(x)) for x in alpha]
        a0 = mpmath.fsum(a)
        s = a0 - a[c]
        mu = lambda x: mpmath.rf(x, p)  # noqa: E731
        nu = lambda x: mpmath.fsum(1 / (x + k) for k in range(p))  # noqa: E731
        num = mu(s) + mpmath.fsum(mu(a[j]) for j in range(len(a)) if j != c)
        f = (num / mu(a0)) ** (mpmath.mpf(1) / p)
        grad = [f / p * (-nu(a0) + (0 if j == c else
                                     (mu(s) * nu(s) + mu(a[j]) * nu(a[j])) / num))
                for j in range(len(a))]
        return float(f), np.array([float(g) for g in grad])


@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_iad_value_and_grad_against_mpmath_at_large_alpha(p):
    # ln Gamma(a+p) - ln Gamma(a) cancels at large alpha (F off by ~1e-11
    # relative here); the sums over the rising factors do not
    rng = np.random.default_rng(20 + p)
    alpha = np.exp(rng.uniform(0.0, np.log(1e4), size=(60, 3)))
    c = rng.integers(3, size=60)
    f, df = iad_value_grad_batch(alpha, c, float(p))
    for i in range(60):
        want_f, want_df = _iad_mpmath(alpha[i], int(c[i]), p)
        assert abs(f[i] - want_f) <= 1e-13 * want_f
        assert np.max(np.abs(df[i] - want_df)) <= 1e-11 * np.max(np.abs(want_df))


@pytest.mark.parametrize("fn", [iad_loss_batch, iad_value_grad_batch])
@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
def test_iad_rejects_bad_p_norm(fn, bad):
    with pytest.raises(ValueError, match="p_norm must be finite and >= 1"):
        fn(np.ones((2, 3)), np.array([0, 1]), bad)


# --------------------------------------------------------------- regularizer

def test_regularizer_zero_at_unit_off_class():
    assert one_row(info_regularizer_batch, [7.0, 1.0, 1.0], 0) == pytest.approx(
        0.0, abs=1e-14)
    assert np.allclose(
        one_row(info_regularizer_grad_alpha_batch, [7.0, 1.0, 1.0], 0),
        0.0, atol=1e-14)


def test_regularizer_hand_value():
    got = one_row(info_regularizer_batch, [5.0, 2.0, 1.0], 0)
    assert got == pytest.approx(0.5 * (trigamma(2.0) - trigamma(4.0)),
                                abs=1e-13)
    assert got == pytest.approx(0.18056, abs=5e-6)


def test_regularizer_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        alpha = rng.uniform(1.0, 60.0, size=k)
        c = int(rng.integers(0, k))
        assert one_row(info_regularizer_batch, alpha, c) >= 0.0


def test_regularizer_rejects_off_class_below_one():
    with pytest.raises(DomainError):
        one_row(info_regularizer_batch, [5.0, 0.5, 2.0], 0)
    # a sub-one entry at the correct class is fine
    assert one_row(info_regularizer_batch, [0.5, 2.0], 0) > 0.0


def test_regularizer_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(60):
        alpha = rng.uniform(1.05, 50.0, size=5)
        c = int(rng.integers(0, 5))
        got = one_row(info_regularizer_grad_alpha_batch, alpha, c)
        want = fd_gradient(lambda a: one_row(info_regularizer_batch, a, c), alpha)
        assert got[c] == 0.0
        mask = np.arange(5) != c
        assert np.allclose(got[mask], want[mask], rtol=1e-6, atol=1e-10)


def test_regularizer_grad_off_class_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(100):
        alpha = rng.uniform(1.0, 60.0, size=6)
        c = int(rng.integers(0, 6))
        g = one_row(info_regularizer_grad_alpha_batch, alpha, c)
        assert np.all(g[np.arange(6) != c] >= -1e-12)


# c=None: no outcome is correct, so every component is penalized


def test_regularizer_no_class_zero_at_uniform_unit():
    ones = np.ones((2, 4))
    assert np.allclose(info_regularizer_batch(ones), 0.0, atol=1e-14)
    assert np.allclose(info_regularizer_grad_alpha_batch(ones), 0.0,
                       atol=1e-14)


def test_regularizer_no_class_nonnegative():
    rng = np.random.default_rng(9)
    alpha = rng.uniform(1.0, 60.0, size=(200, 5))
    assert np.all(info_regularizer_batch(alpha, None) >= 0.0)


def test_regularizer_no_class_hand_value():
    alpha = np.array([[5.0, 2.0, 1.0]])
    a0 = 8.0
    want = 0.5 * sum((a - 1.0) ** 2 * (trigamma(a) - trigamma(a0))
                     for a in alpha[0])
    assert info_regularizer_batch(alpha)[0] == pytest.approx(want, abs=1e-13)
    assert want == pytest.approx(0.961386, abs=5e-6)
    # every component counts, so it exceeds R with any class marked correct
    assert info_regularizer_batch(alpha)[0] > info_regularizer_batch(
        alpha, np.array([1]))[0]


def test_regularizer_no_class_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(60):
        alpha = rng.uniform(1.05, 50.0, size=5)
        got = info_regularizer_grad_alpha_batch(alpha[None, :])[0]
        want = fd_gradient(
            lambda a: info_regularizer_batch(a[None, :])[0], alpha)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-10)


def test_regularizer_no_class_rejects_below_one():
    with pytest.raises(DomainError):
        info_regularizer_batch(np.array([[5.0, 0.5, 2.0]]))


# ------------------------------------------------------ training objective

def mean_objective(alpha, c, lam, p_norm):
    """Mean of F_i + lam R_i as the training step computes it."""
    vals, _ = _objective(np.asarray(alpha, dtype=np.float64), np.asarray(c),
                         TrainConfig(p_norm=p_norm), lam, "iad")
    return float(np.mean(vals))


def test_total_loss_lambda_zero_is_mean_classification_loss():
    batch = [([3.0, 1.0, 2.0], 0), ([1.0, 4.0, 1.0], 1)]
    want = np.mean([one_row(iad_loss_batch, a, c, 4.0) for a, c in batch])
    got = mean_objective([a for a, _ in batch], [c for _, c in batch], 0.0, 4.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_total_loss_single_element():
    a, c = [3.0, 2.0], 0
    want = (one_row(iad_loss_batch, a, c, 4.0)
            + 0.7 * one_row(info_regularizer_batch, a, c))
    assert mean_objective([a], [c], 0.7, 4.0) == pytest.approx(want, rel=1e-12)
    assert mean_objective([a, a], [c, c], 0.7, 4.0) == pytest.approx(
        want, rel=1e-12)


def test_total_loss_batch_matches_list_form():
    rng = np.random.default_rng(9)
    alpha = rng.uniform(1.0, 10.0, size=(8, 3))
    c = rng.integers(0, 3, size=8)
    want = np.mean([one_row(iad_loss_batch, alpha[i], int(c[i]), 4.0)
                    + 0.3 * one_row(info_regularizer_batch, alpha[i], int(c[i]))
                    for i in range(8)])
    assert mean_objective(alpha, c, 0.3, 4.0) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- baselines

def test_nll_marginal_values():
    assert one_row(nll_marginal_loss_batch, [2.0, 2.0], 0) == pytest.approx(
        math.log(2.0), abs=1e-12)
    assert one_row(nll_marginal_loss_batch, [9.0, 1.0], 0) == pytest.approx(
        -math.log(0.9), abs=1e-12)
    assert one_row(nll_marginal_loss_batch, [1.0, 9.0], 0) == pytest.approx(
        -math.log(0.1), abs=1e-12)


def test_bayes_ce_values():
    assert one_row(bayes_ce_loss_batch, [2.0, 2.0], 0) == pytest.approx(
        0.5 + 1.0 / 3.0, abs=1e-12)
    assert one_row(bayes_ce_loss_batch, [1.0, 1.0], 0) == pytest.approx(
        1.0, abs=1e-12)


def test_bayes_ce_dominates_nll_marginal():
    rng = np.random.default_rng(10)
    alpha = rng.uniform(0.2, 100.0, size=(10_000, 4))
    c = rng.integers(0, 4, size=10_000)
    assert np.all(bayes_ce_loss_batch(alpha, c)
                  >= nll_marginal_loss_batch(alpha, c) - 1e-12)


def test_edl_mse_uniform_two_class():
    got = one_row(edl_mse_loss_batch, [1.0, 1.0], 0)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert got == pytest.approx(one_row(iad_loss_batch, [1.0, 1.0], 0, 2.0) ** 2,
                                abs=1e-12)


def test_edl_mse_vanishes_with_confidence():
    assert one_row(edl_mse_loss_batch, [1e4, 1.0], 0) < 1e-3


def test_edl_mse_matches_monte_carlo():
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = int(rng.integers(2, 6))
        alpha = rng.uniform(1.0, 20.0, size=k)
        c = int(rng.integers(0, k))
        d = DirichletParams(alpha)
        draws = sample(d, rng, 1_000_000)
        mc = float(np.mean(np.sum((np.eye(k)[c] - draws) ** 2, axis=1)))
        assert one_row(edl_mse_loss_batch, alpha, c) == pytest.approx(mc, rel=0.01)


def test_rkl_prior_zero_at_target():
    assert one_row(rkl_prior_loss_batch, [2.0, 1.0], 0, 1.0) == pytest.approx(
        0.0, abs=1e-12)
    assert one_row(rkl_prior_loss_batch, [11.0, 1.0, 1.0], 0, 10.0) == pytest.approx(
        0.0, abs=1e-12)


def test_rkl_prior_nonnegative():
    rng = np.random.default_rng(12)
    alpha = rng.uniform(0.5, 50.0, size=(500, 3))
    c = rng.integers(0, 3, size=500)
    assert np.all(rkl_prior_loss_batch(alpha, c, 10.0) >= -1e-10)


def test_rkl_prior_matches_dirichlet_kl_divergence():
    rng = np.random.default_rng(14)
    alpha = rng.uniform(0.5, 50.0, size=(50, 4))
    c = rng.integers(0, 4, size=50)
    got = rkl_prior_loss_batch(alpha, c, 10.0)
    for i in range(50):
        target = np.ones(4)
        target[c[i]] = 11.0
        want = kl_divergence(DirichletParams(alpha[i]), DirichletParams(target))
        assert got[i] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fn", [rkl_prior_loss_batch, rkl_prior_grad_alpha_batch,
                                rkl_prior_value_grad_batch])
@pytest.mark.parametrize("beta", [-5.0, 0.0, float("nan"), float("inf")])
def test_rkl_prior_rejects_out_of_range_beta(fn, beta):
    with pytest.raises(ValueError, match="beta") as err:
        fn(np.array([[2.0, 1.5, 3.0]]), np.array([0]), beta)
    assert type(err.value) is ValueError


# (value function, gradient view, value+grad kernel, extra arguments); each
# value function but bayes_ce's is the [0] of its kernel, each gradient view
# its [1]
_BASELINES = [
    (nll_marginal_loss_batch, nll_marginal_grad_alpha_batch,
     nll_marginal_value_grad_batch, ()),
    (bayes_ce_loss_batch, bayes_ce_grad_alpha_batch, bayes_ce_value_grad_batch, ()),
    (edl_mse_loss_batch, edl_mse_grad_alpha_batch, edl_mse_value_grad_batch, ()),
    (rkl_prior_loss_batch, rkl_prior_grad_alpha_batch, rkl_prior_value_grad_batch,
     (10.0,)),
]


@pytest.mark.parametrize("value_fn,grad_fn,extra",
                         [(v, g, e) for v, g, _, e in _BASELINES])
def test_baseline_grads_match_finite_differences(value_fn, grad_fn, extra):
    rng = np.random.default_rng(13)
    for _ in range(30):
        alpha = rng.uniform(1.05, 40.0, size=4)
        c = np.array([int(rng.integers(0, 4))])
        got = grad_fn(alpha[None, :], c, *extra)[0]
        want = fd_gradient(
            lambda a: float(value_fn(a[None, :], c, *extra)[0]), alpha)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-9)


# value function -> a value-only body of its own: the oracle's, or the
# library's for bayes_ce
_VALUE_BODY = {
    nll_marginal_loss_batch: reference_nll_marginal_loss,
    bayes_ce_loss_batch: bayes_ce_loss_batch,
    edl_mse_loss_batch: reference_edl_mse_loss,
    rkl_prior_loss_batch: reference_rkl_prior_loss,
}


@pytest.mark.parametrize("value_fn,grad_fn,value_grad,extra", _BASELINES)
@pytest.mark.parametrize("n,k", [(1, 2), (32, 3), (256, 10)])
def test_baseline_kernel_equals_value_function_and_grad_view_bit_for_bit(
        value_fn, grad_fn, value_grad, extra, n, k):
    # the kernel's value equals a separate value-only body, not only the view
    rng = np.random.default_rng(17)
    alpha = 1.0 + rng.exponential(3.0, size=(n, k))
    c = rng.integers(k, size=n)
    vals, grads = value_grad(alpha, c, *extra)
    assert vals.shape == (n,) and grads.shape == (n, k)
    assert np.array_equal(vals, value_fn(alpha, c, *extra))
    assert np.array_equal(vals, _VALUE_BODY[value_fn](alpha, c, *extra))
    assert np.array_equal(grads, grad_fn(alpha, c, *extra))


# value view -> (its kernel, its value-only body in the oracle, extra arguments)
_VIEWS = {
    "iad_loss_batch": ("iad_value_grad_batch", reference_iad_loss, (4.0,)),
    "info_regularizer_batch": ("info_value_grad_batch", reference_info_regularizer, ()),
    "nll_marginal_loss_batch": ("nll_marginal_value_grad_batch",
                                reference_nll_marginal_loss, ()),
    "edl_mse_loss_batch": ("edl_mse_value_grad_batch", reference_edl_mse_loss, ()),
    "rkl_prior_loss_batch": ("rkl_prior_value_grad_batch", reference_rkl_prior_loss, (10.0,)),
}


def _view_inputs(n, k, above):
    """alpha (N, K) >= 1 and classes c; with above, every entry lies above
    the special functions' recurrence-shift cutoff 10, else every third row
    does."""
    rng = np.random.default_rng(100 * n + k)
    alpha = 1.0 + rng.exponential(3.0, size=(n, k))
    alpha[::1 if above else 3] += 10.0
    return alpha, rng.integers(k, size=n)


@pytest.mark.parametrize("above", [False, True], ids=["mixed", "above_cutoff"])
@pytest.mark.parametrize("n,k", [(1, 2), (32, 3), (256, 10)])
@pytest.mark.parametrize("view", _VIEWS)
def test_value_view_equals_its_oracle_body_bit_for_bit(view, n, k, above):
    alpha, c = _view_inputs(n, k, above)
    _, body, extra = _VIEWS[view]
    got = getattr(losses, view)(alpha, c, *extra)
    assert got.shape == (n,)
    assert np.array_equal(got, body(alpha, c, *extra))
    if view == "info_regularizer_batch":
        assert np.array_equal(info_regularizer_batch(alpha), reference_info_regularizer(alpha))


@pytest.mark.parametrize("view", _VIEWS)
def test_value_view_calls_only_its_own_kernel_once(view, monkeypatch):
    # the view as the module defines it, called with every losses.*_batch
    # name it could look up replaced by a spy
    kernel, _, extra = _VIEWS[view]
    fn = getattr(losses, view)
    calls = []
    for name in losses.__all__:
        if name.endswith("_batch"):
            def spy(*args, name=name, real=getattr(losses, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(losses, name, spy)
    alpha, c = _view_inputs(32, 3, False)
    fn(alpha, c, *extra)
    assert calls == [kernel]


def test_bayes_ce_kernel_gradient_equals_trigamma_form_bit_for_bit():
    # its one digamma_trigamma call gives the psi' of a separate trigamma call
    rng = np.random.default_rng(19)
    alpha = 1.0 + rng.exponential(3.0, size=(64, 4))
    c = rng.integers(4, size=64)
    want = np.repeat(trigamma(alpha.sum(axis=1))[:, None], 4, axis=1)
    want[np.arange(64), c] -= trigamma(alpha[np.arange(64), c])
    assert np.array_equal(bayes_ce_value_grad_batch(alpha, c)[1], want)


# ------------------------------------------------------------- special cases

@settings(max_examples=100)
@given(st.floats(min_value=1.0, max_value=200.0),
       st.floats(min_value=1.0, max_value=200.0),
       st.floats(min_value=1.0, max_value=10.0))
def test_iad_loss_positive_and_finite(a1, a2, p):
    val = one_row(iad_loss_batch, [a1, a2], 0, p)
    assert 0.0 < val < math.inf


# a head concentration: alpha = 1 + softplus >= 1, at any magnitude up to 1e300
_HEAD_ALPHA = st.one_of(st.floats(1.0, 1e300),
                        st.floats(0.0, 300.0).map(lambda e: 10.0 ** e))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_head_concentrations_never_overflow_log_f_at_integer_p(data):
    # CLI input reaches F only through the head, so it cannot raise
    # LossOverflowError at p = 1..8: F >= s / alpha_0 >= 2^-53 while the
    # off-class sum s = alpha_0 - alpha_c does not round to 0, and where it
    # does, log_rising's DomainError comes first. No errstate is set here, so
    # a warning would fail the test too.
    k = data.draw(st.integers(2, 10), label="k")
    n = data.draw(st.integers(1, 4), label="n")
    p = data.draw(st.integers(1, 8), label="p")
    alpha = np.array(data.draw(st.lists(_HEAD_ALPHA, min_size=n * k, max_size=n * k),
                               label="alpha")).reshape(n, k)
    c = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                           label="c"))
    s = np.add.reduce(alpha, axis=1) - alpha[np.arange(n), c]
    try:
        f, grad = iad_value_grad_batch(alpha, c, float(p))
    except DomainError:
        assert np.any(s == 0.0)
        return
    assert np.all(s > 0.0)
    assert np.all(f >= 2.0 ** -53) and np.all(np.isfinite(f))
    assert np.all(np.isfinite(grad))


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        iad_loss_batch(np.ones((3, 2)), np.zeros(4, dtype=int), 2.0)
    with pytest.raises(IndexError):
        iad_loss_batch(np.ones((3, 2)), np.array([0, 1, 2]), 2.0)


_ALPHA = np.array([[2.0, 3.0, 4.0]])
_NET = network.init([2, 4, 3], np.random.default_rng(0))
# every public function that takes class indices c, called with c
TAKES_C = {
    "iad_loss_batch": lambda c: iad_loss_batch(_ALPHA, c, 4.0),
    "iad_value_grad_batch": lambda c: iad_value_grad_batch(_ALPHA, c, 4.0),
    "iad_loss_grad_alpha_batch": lambda c: iad_loss_grad_alpha_batch(_ALPHA, c, 4.0),
    "info_regularizer_batch": lambda c: info_regularizer_batch(_ALPHA, c),
    "info_value_grad_batch": lambda c: info_value_grad_batch(_ALPHA, c),
    "info_regularizer_grad_alpha_batch":
        lambda c: info_regularizer_grad_alpha_batch(_ALPHA, c),
    "nll_marginal_loss_batch": lambda c: nll_marginal_loss_batch(_ALPHA, c),
    "nll_marginal_value_grad_batch": lambda c: nll_marginal_value_grad_batch(_ALPHA, c),
    "nll_marginal_grad_alpha_batch": lambda c: nll_marginal_grad_alpha_batch(_ALPHA, c),
    "bayes_ce_loss_batch": lambda c: bayes_ce_loss_batch(_ALPHA, c),
    "bayes_ce_value_grad_batch": lambda c: bayes_ce_value_grad_batch(_ALPHA, c),
    "bayes_ce_grad_alpha_batch": lambda c: bayes_ce_grad_alpha_batch(_ALPHA, c),
    "edl_mse_loss_batch": lambda c: edl_mse_loss_batch(_ALPHA, c),
    "edl_mse_value_grad_batch": lambda c: edl_mse_value_grad_batch(_ALPHA, c),
    "edl_mse_grad_alpha_batch": lambda c: edl_mse_grad_alpha_batch(_ALPHA, c),
    "rkl_prior_loss_batch": lambda c: rkl_prior_loss_batch(_ALPHA, c, 10.0),
    "rkl_prior_value_grad_batch": lambda c: rkl_prior_value_grad_batch(_ALPHA, c, 10.0),
    "rkl_prior_grad_alpha_batch": lambda c: rkl_prior_grad_alpha_batch(_ALPHA, c, 10.0),
    "network.input_gradient":
        lambda c: network.input_gradient(_NET, np.array([[0.4, 0.6]]), c, LossConfig()),
}


@pytest.mark.parametrize("name", TAKES_C)
@pytest.mark.parametrize("c", [1.7, 0.99, math.nan])
def test_non_integer_class_index_is_rejected(name, c):
    # a cast to int would take 1.7 for class 1 and 0.99 for class 0
    with pytest.raises(ValueError, match="class indices must be integers"):
        TAKES_C[name]([c])


def check_batch_reference(alpha, c):
    """losses._check_batch as written with np.issubdtype and two masked
    range reductions: the rules the count-free form must keep."""
    alpha = np.asarray(alpha, dtype=np.float64)
    c = np.asarray(c)
    if not np.issubdtype(c.dtype, np.integer):
        raise ValueError(f"class indices must be integers, got dtype {c.dtype}")
    c = c.astype(np.intp, copy=False)
    if alpha.ndim != 2 or c.shape != (alpha.shape[0],):
        raise ValueError("alpha must be (N, K) and c must be (N,)")
    if (c < 0).any() or (c >= alpha.shape[1]).any():
        raise IndexError("correct_class out of range")
    return alpha, c


def _outcome(fn, alpha, c):
    try:
        return fn(alpha, c)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from(["?", "f8", "f4", "u1", "u8", "i1", "i4", "i8", "m8[s]"]),
       values=st.lists(st.sampled_from([-129, -2, -1, 0, 1, 2, 3, 4, 255, 256,
                                        2 ** 63 - 1, -2 ** 63]), max_size=6),
       k=st.integers(0, 4), extra_rows=st.sampled_from([0, 0, 0, 1, -1]),
       flat_alpha=st.booleans())
def test_check_batch_refuses_what_the_reference_refuses(dtype, values, k, extra_rows,
                                                        flat_alpha):
    with np.errstate(all="ignore"):
        # a cast may wrap (uint8 of -1 is 255) or round, as a caller's array could
        c = np.array(values, dtype=np.int64).astype(dtype) if values else np.array([], dtype)
    n = max(len(values) + extra_rows, 0)
    alpha = np.ones(n * k) if flat_alpha else np.ones((n, k))
    want, got = _outcome(check_batch_reference, alpha, c), _outcome(_check_batch, alpha, c)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and got[1].dtype == np.intp
        assert np.array_equal(got[1], want[1])
