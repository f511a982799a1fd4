"""Dirichlet primitives against hand values, recurrence oracles and
Monte-Carlo estimates with pinned seeds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iad.dirichlet import DirichletParams, mutual_information, predictive_entropy
from iad.specfun import DomainError, digamma, trigamma
from oracles import (beta_moment, fisher_information, kl_divergence, log_b, log_pdf,
                     predictive_mean, renyi_local_approx, sample)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def params(*alpha):
    return DirichletParams(np.array(alpha, dtype=np.float64))


alpha_vectors = hnp.arrays(
    np.float64, st.integers(min_value=2, max_value=8),
    elements=st.floats(min_value=0.05, max_value=100.0))


# ------------------------------------------------------------- construction

def test_alpha0_is_sum():
    d = params(2.0, 3.5, 0.5)
    assert d.alpha0 == pytest.approx(6.0)
    assert d.k == 3


@pytest.mark.parametrize("bad", [[1.0], [1.0, 0.0], [1.0, -2.0],
                                 [1.0, float("nan")], [1.0, float("inf")]])
def test_invalid_parameters_rejected(bad):
    with pytest.raises((ValueError, DomainError)):
        params(*bad)


# ------------------------------------------------------------------ log_pdf

def _log_pdf_rows(d, p):
    """Vectorized Dirichlet log-density used as a row-wise cross-check and
    for the larger Monte-Carlo estimates below."""
    return (d.alpha - 1.0) @ np.log(p).T - log_b(d.alpha)


def test_log_pdf_uniform_density_is_log_two():
    d = params(1.0, 1.0, 1.0)
    for p in ([0.2, 0.3, 0.5], [1 / 3] * 3, [0.98, 0.01, 0.01]):
        assert log_pdf(d, np.array(p)) == pytest.approx(LN2, abs=1e-12)


def test_log_pdf_beta_two_one_at_half():
    assert log_pdf(params(2.0, 1.0), np.array([0.5, 0.5])) == pytest.approx(
        0.0, abs=1e-12)


def test_log_pdf_integrates_to_one():
    # MC quadrature: draw p uniformly on the simplex (Dirichlet(1,1,1),
    # density (K-1)! = 2) and average exp(log_pdf)/2.
    rng = np.random.default_rng(3)
    d = params(2.0, 3.0, 1.5)
    p = sample(params(1.0, 1.0, 1.0), rng, 400_000)
    log_vals = _log_pdf_rows(d, p)
    # the vectorized formula used for the bulk agrees with log_pdf row-wise
    for row, lv in zip(p[:200], log_vals[:200]):
        assert log_pdf(d, row) == pytest.approx(float(lv), rel=1e-12)
    vals = np.exp(log_vals)
    est = np.mean(vals) / 2.0
    se = np.std(vals) / 2.0 / math.sqrt(vals.size)
    assert abs(est - 1.0) < max(3.0 * se, 0.02)


def test_log_pdf_boundary_conventions():
    # p_j = 0 with alpha_j > 1: density vanishes (log -> -inf)
    assert log_pdf(params(1.0, 2.0), np.array([1.0, 0.0])) == -math.inf
    # p_j = 0 with alpha_j < 1: divergent
    with pytest.raises(DomainError):
        log_pdf(params(0.5, 1.0), np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        log_pdf(params(1.0, 1.0), np.array([0.7, 0.7]))


# ---------------------------------------------------- mean / entropy / MI

def test_predictive_mean_examples():
    assert predictive_mean(params(2.0, 1.0, 1.0)) == pytest.approx(
        [0.5, 0.25, 0.25])
    assert predictive_mean(params(10.0, 30.0)) == pytest.approx([0.25, 0.75])
    assert predictive_mean(params(*[1.0] * 7)) == pytest.approx([1 / 7] * 7)


def test_predictive_entropy_examples():
    assert predictive_entropy(params(*[1.0] * 10)) == pytest.approx(
        math.log(10.0), abs=1e-12)
    assert predictive_entropy(params(1.0, 1.0)) == pytest.approx(LN2, abs=1e-12)
    m = np.array([1000.0, 1.0]) / 1001.0
    want = float(-(m * np.log(m)).sum())
    assert predictive_entropy(params(1000.0, 1.0)) == pytest.approx(want,
                                                                    abs=1e-12)
    assert want == pytest.approx(0.0079, abs=5e-4)


def test_mutual_information_two_uniform():
    # ln 2 - (psi(3) - psi(2)) = ln 2 - 1/2
    assert mutual_information(params(1.0, 1.0)) == pytest.approx(LN2 - 0.5,
                                                                 abs=1e-12)
    assert mutual_information(params(1.0, 1.0)) == pytest.approx(0.1931,
                                                                 abs=5e-5)


def test_mutual_information_three_uniform():
    # ln 3 - (psi(4) - psi(2)) = ln 3 - (1/2 + 1/3)
    want = LN3 - (0.5 + 1.0 / 3.0)
    assert mutual_information(params(1.0, 1.0, 1.0)) == pytest.approx(
        want, abs=1e-12)
    assert want == pytest.approx(0.2653, abs=5e-5)


def test_mutual_information_vanishes_at_high_strength():
    assert mutual_information(params(1e4, 1e4, 1e4)) < 0.01


@settings(max_examples=200)
@given(alpha_vectors)
def test_uncertainty_bounds(alpha):
    d = DirichletParams(alpha)
    h = predictive_entropy(d)
    mi = mutual_information(d)
    assert -1e-9 <= mi <= h + 1e-9
    assert h <= math.log(d.k) + 1e-9


def test_entropy_maximal_iff_uniform():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        alpha = rng.uniform(1.0, 100.0, size=k)
        h = predictive_entropy(DirichletParams(alpha))
        if np.ptp(alpha) < 1e-12:
            assert h == pytest.approx(math.log(k), abs=1e-9)
        else:
            assert h < math.log(k) + 1e-9
    c = rng.uniform(1.0, 100.0)
    assert predictive_entropy(params(c, c, c, c)) == pytest.approx(
        math.log(4.0), abs=1e-12)


def test_mi_decomposition_against_monte_carlo():
    # MI = H(mean) - E_p[H(y|p)], expectation by MC over Dirichlet draws
    rng = np.random.default_rng(5)
    d = params(3.0, 1.5, 7.0)
    p = sample(d, rng, 1_000_000)
    per_draw = -(p * np.log(np.clip(p, 1e-300, None))).sum(axis=1)
    want = predictive_entropy(d) - float(per_draw.mean())
    got = mutual_information(d)
    assert got == pytest.approx(want, rel=0.01)


def _row_loop_entropy_mi(row):
    """Reference: the one-row formulas, summing only ratios above 1e-300."""
    a0 = float(row.sum())
    r = row / a0
    keep = r > 1e-300
    r, a = r[keep], row[keep]
    h = float(-np.sum(r * np.log(r)))
    mi = float(-np.sum(r * (np.log(r) - digamma(a + 1.0) + digamma(a0 + 1.0))))
    return h, mi


@pytest.mark.parametrize("k", [2, 3, 10])
def test_batch_uncertainty_equals_one_row_calls_bit_for_bit(k):
    rng = np.random.default_rng(k)
    alpha = np.vstack([rng.uniform(0.05, 100.0, size=(40, k)),
                       1.0 + rng.exponential(3.0, size=(40, k))])
    h = predictive_entropy(alpha)
    mi = mutual_information(alpha)
    assert h.shape == mi.shape == (80,)
    for i, row in enumerate(alpha):
        d = DirichletParams(row)
        assert (h[i], mi[i]) == (predictive_entropy(d), mutual_information(d))
        assert (h[i], mi[i]) == _row_loop_entropy_mi(row)


def test_batch_uncertainty_drops_vanishing_ratios():
    # a ratio alpha_j / alpha_0 below 1e-300 contributes 0 (0 log 0 = 0)
    alpha = np.array([[1e-310, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert predictive_entropy(alpha) == pytest.approx([LN2, LN3], abs=1e-12)
    assert mutual_information(alpha)[0] == pytest.approx(LN2 - 0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_batch_uncertainty_rejects_bad_matrix(bad):
    alpha = np.full((4, 3), 2.0)
    alpha[2, 1] = bad
    for fn in (predictive_entropy, mutual_information):
        with pytest.raises(DomainError):
            fn(alpha)


def test_batch_uncertainty_rejects_non_matrix():
    for fn in (predictive_entropy, mutual_information):
        with pytest.raises(ValueError):
            fn(np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            fn(np.ones((3, 1)))


def test_conjugate_update_of_predictive_mean():
    d = params(2.5, 1.0, 3.0)
    c = 1
    updated = DirichletParams(d.alpha + np.eye(3)[c])
    assert predictive_mean(updated)[c] == pytest.approx(
        (d.alpha[c] + 1.0) / (d.alpha0 + 1.0), abs=1e-15)


# --------------------------------------------------------------- Fisher info

def test_fisher_information_two_uniform():
    j = fisher_information(params(1.0, 1.0))
    assert j[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert j[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert j[0, 1] == pytest.approx(-(math.pi ** 2 / 6.0 - 1.0), abs=1e-12)
    assert j[0, 1] == pytest.approx(-0.6449, abs=5e-5)


def test_fisher_information_symmetric_positive_definite():
    rng = np.random.default_rng(6)
    for _ in range(30):
        alpha = rng.uniform(0.2, 50.0, size=int(rng.integers(2, 7)))
        j = fisher_information(DirichletParams(alpha))
        assert np.allclose(j, j.T)
        assert np.all(np.linalg.eigvalsh(j) > 0.0)


def test_fisher_information_matches_score_covariance():
    # J = E[score score^T] where score_j = ln p_j - (psi(alpha_j) - psi(alpha0))
    rng = np.random.default_rng(7)
    d = params(4.0, 2.0, 6.0)
    p = sample(d, rng, 400_000)
    score = np.log(p) - (digamma(d.alpha) - digamma(d.alpha0))
    mc = score.T @ score / p.shape[0]
    assert np.allclose(mc, fisher_information(d), rtol=0.02, atol=1e-3)


# ------------------------------------------------------------------ sampling

def test_sample_mean_symmetry():
    rng = np.random.default_rng(8)
    p = sample(params(1.0, 1.0), rng, 1_000_000)
    assert abs(p[:, 0].mean() - 0.5) < 0.002


def test_sample_mean_matches_predictive_mean():
    rng = np.random.default_rng(9)
    p = sample(params(2.0, 1.0, 1.0), rng, 1_000_000)
    assert np.allclose(p.mean(axis=0), [0.5, 0.25, 0.25], atol=0.002)


def test_sample_variance_beta_marginal():
    rng = np.random.default_rng(10)
    p = sample(params(3.0, 2.0), rng, 1_000_000)
    assert abs(p[:, 0].var() - 0.04) < 0.002


def test_sample_moments_match_beta_moment():
    rng = np.random.default_rng(11)
    d = params(2.5, 1.2, 4.0)
    p = sample(d, rng, 200_000)
    for j in range(3):
        for q in (1.0, 2.0, 3.0):
            emp = p[:, j] ** q
            want = beta_moment(d.alpha[j], d.alpha0 - d.alpha[j], q)
            se = emp.std() / math.sqrt(emp.size)
            assert abs(emp.mean() - want) <= 3.0 * se + 1e-12


def test_sample_deterministic_for_fixed_seed():
    a = sample(params(2.0, 3.0), np.random.default_rng(12), 100)
    b = sample(params(2.0, 3.0), np.random.default_rng(12), 100)
    assert np.array_equal(a, b)
    assert np.allclose(a.sum(axis=1), 1.0)


# ------------------------------------------------------------------------ KL

def test_kl_self_is_zero():
    d = params(3.0, 1.0, 2.0)
    assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=100)
@given(alpha_vectors.filter(lambda a: a.size >= 2))
def test_kl_nonnegative(alpha):
    rng = np.random.default_rng(int(abs(alpha).sum() * 1e3) % 2 ** 31)
    beta = rng.uniform(0.1, 50.0, size=alpha.size)
    assert kl_divergence(DirichletParams(alpha),
                         DirichletParams(beta)) >= -1e-10


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(13)
    d1, d2 = params(2.0, 1.0), params(1.0, 1.0)
    p = sample(d1, rng, 400_000)
    diffs = _log_pdf_rows(d1, p) - _log_pdf_rows(d2, p)
    for row, dv in zip(p[:200], diffs[:200]):
        assert log_pdf(d1, row) - log_pdf(d2, row) == pytest.approx(float(dv),
                                                                    rel=1e-10)
    assert kl_divergence(d1, d2) == pytest.approx(float(diffs.mean()),
                                                  rel=0.01)


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError):
        kl_divergence(params(1.0, 1.0), params(1.0, 1.0, 1.0))


# --------------------------------------------------------- local Renyi form

def test_renyi_local_zero_displacement():
    assert renyi_local_approx(params(5.0, 1.0, 1.0), 0, 1.0) == pytest.approx(
        0.0, abs=1e-14)


def test_renyi_local_linear_in_order():
    d = params(5.0, 2.0, 3.0)
    assert renyi_local_approx(d, 0, 2.0) == pytest.approx(
        2.0 * renyi_local_approx(d, 0, 1.0), rel=1e-12)


def test_renyi_local_single_active_coordinate():
    # off-class (2, 1): only the alpha=2 coordinate is displaced, so the
    # quadratic form collapses to (1/2)(psi1(2) - psi1(4))
    got = renyi_local_approx(params(5.0, 2.0, 1.0), 0, 1.0)
    want = 0.5 * (trigamma(2.0) - trigamma(4.0))
    assert got == pytest.approx(want, abs=1e-13)
    assert got == pytest.approx(0.1806, abs=5e-5)


def test_renyi_local_full_quadratic_form():
    # oracle: u/2 * s^T J(alpha~) s with s = alpha~ - 1 via explicit matrices
    d = params(4.0, 2.5, 3.0, 1.5)
    c = 1
    at = d.alpha.copy()
    at[c] = 1.0
    s = at - 1.0
    j = fisher_information(DirichletParams(at))
    want = 0.5 * 1.7 * float(s @ j @ s)
    assert renyi_local_approx(d, c, 1.7) == pytest.approx(want, rel=1e-12)
