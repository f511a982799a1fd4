"""Special-function oracles: closed forms, recurrence chains, and scipy/mpmath
cross-checks (scipy and mpmath are test-only dependencies)."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from iad.specfun import (BLOCK, DomainError, MIN_ARG, RISING_MAX_P, digamma,
                         digamma_trigamma, log_gamma, log_gamma_digamma,
                         log_rising, tetragamma, trigamma)
from oracles import beta_moment

EULER_GAMMA = 0.5772156649015328606


# each output of `digamma_trigamma`, as a one-output function (the other two
# paired kernels need no views: `log_gamma` and `digamma` are the outputs of
# `log_gamma_digamma`, `trigamma` and `tetragamma` those of
# `trigamma_tetragamma`)

def digamma_of_psi_pair(x):
    return digamma_trigamma(x)[0]


def trigamma_of_psi_pair(x):
    return digamma_trigamma(x)[1]


def log_rising_4(x):
    return log_rising(x, 4)[0]


def psi_step_4(x):
    return log_rising(x, 4)[1]


# (output of digamma_trigamma, the same function from the other paired
# kernels, which it must equal bit for bit)
_PAIRED = [(digamma_of_psi_pair, digamma), (trigamma_of_psi_pair, trigamma)]
_ALL_VIEWS = ([log_gamma, digamma, trigamma, tetragamma]
              + [p for p, _ in _PAIRED] + [log_rising_4, psi_step_4])


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_half_integer():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)


def test_log_gamma_small_integers():
    for n, fact in ((1, 1), (2, 1), (3, 2), (5, 24), (11, 3628800)):
        assert log_gamma(float(n)) == pytest.approx(math.log(fact), abs=1e-12)


def test_log_gamma_matches_scipy_over_wide_range():
    x = np.logspace(-10, 8, 400)
    want = scipy.special.gammaln(x)
    assert np.allclose(log_gamma(x), want, rtol=1e-12, atol=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_log_gamma_recurrence(x):
    # Gamma(x+1) = x * Gamma(x)
    lhs = log_gamma(x + 1.0)
    rhs = log_gamma(x) + math.log(x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------------ digamma

def test_digamma_at_one_is_minus_euler_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)


def test_digamma_at_half():
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0),
                                         abs=1e-13)


def test_digamma_ten_and_a_half_via_recurrence_chain():
    # psi(10.5) = psi(0.5) + sum_{k=0}^{9} 1/(0.5+k)
    want = -EULER_GAMMA - 2.0 * math.log(2.0) + sum(1.0 / (0.5 + k)
                                                    for k in range(10))
    assert digamma(10.5) == pytest.approx(want, abs=1e-13)


def test_digamma_matches_scipy_over_wide_range():
    x = np.logspace(-10, 8, 400)
    assert np.allclose(digamma(x), scipy.special.psi(x), rtol=1e-12, atol=1e-12)


@given(st.floats(min_value=1e-2, max_value=1e6))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                             rel=1e-10, abs=1e-10)


# ----------------------------------------------------------------- trigamma

def test_trigamma_at_one_is_pi_squared_over_six():
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)


def test_trigamma_at_four():
    want = math.pi ** 2 / 6.0 - 1.0 - 0.25 - 1.0 / 9.0
    assert trigamma(4.0) == pytest.approx(want, abs=1e-12)
    assert trigamma(4.0) == pytest.approx(0.2838229557, abs=1e-9)


def test_trigamma_matches_scipy_over_wide_range():
    x = np.logspace(-10, 8, 400)
    want = scipy.special.polygamma(1, x)
    assert np.allclose(trigamma(x), want, rtol=1e-12, atol=1e-300)


@given(st.floats(min_value=1e-2, max_value=1e6))
def test_trigamma_recurrence(x):
    assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x ** 2,
                                              rel=1e-9, abs=1e-12)


def test_trigamma_positive_and_decreasing():
    x = np.logspace(-6, 6, 200)
    v = trigamma(x)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) < 0.0)


# --------------------------------------------------------------- tetragamma

def test_tetragamma_at_one_is_minus_two_zeta_three():
    want = -2.0 * float(mpmath.zeta(3))
    assert tetragamma(1.0) == pytest.approx(want, abs=1e-12)


def test_tetragamma_matches_scipy_over_wide_range():
    x = np.logspace(-6, 6, 300)
    want = scipy.special.polygamma(2, x)
    assert np.allclose(tetragamma(x), want, rtol=1e-11, atol=1e-300)


@given(st.floats(min_value=1e-2, max_value=1e5))
def test_tetragamma_recurrence(x):
    assert tetragamma(x + 1.0) == pytest.approx(
        tetragamma(x) + 2.0 / x ** 3, rel=1e-8, abs=1e-12)


def test_tetragamma_negative_everywhere():
    x = np.logspace(-6, 6, 200)
    assert np.all(tetragamma(x) < 0.0)


# ---------------------------------------------------- paired kernels

@pytest.mark.parametrize("fn", [log_gamma])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_log_gamma_against_mpmath_where_the_shift_cancels(fn, x):
    # ln Gamma(x) = ln Gamma(x + 10) - ln prod (x + k) subtracts two numbers
    # of 15-18 whose difference is 0 at x = 1 and x = 2
    want = float(mpmath.loggamma(mpmath.mpf(x)))
    assert abs(fn(x) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("paired, single", _PAIRED)
def test_paired_outputs_equal_single_views_bit_for_bit(paired, single):
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(np.log(MIN_ARG), np.log(1e6), 3 * BLOCK + 7))
    x[:3] = [0.5, 10.0 - 1e-15, 10.0]
    assert paired(2.5) == single(2.5)
    assert isinstance(paired(2.5), float)
    for view in (x[:12].reshape(3, 4), x[::3], x[:BLOCK - 1], x[:BLOCK + 1], x):
        got = paired(view)
        assert got.shape == view.shape
        assert np.array_equal(got, single(view))


# ------------------------------------------------------ recurrence shift

# (function, scipy oracle, rtol, atol of the wide-range tests above,
#  recurrence f(x+1) - f(x) = step(x), rel and abs of the recurrence tests);
# ln Gamma and both outputs of each paired kernel share the psi family's
# shift, and each paired output takes the row of its single-output function
_PSI_FAMILY = [
    (digamma, scipy.special.psi, 1e-12, 1e-12, lambda x: 1.0 / x, 1e-10, 1e-10),
    (trigamma, lambda x: scipy.special.polygamma(1, x), 1e-12, 1e-300,
     lambda x: -1.0 / x ** 2, 1e-9, 1e-12),
    (tetragamma, lambda x: scipy.special.polygamma(2, x), 1e-11, 1e-300,
     lambda x: 2.0 / x ** 3, 1e-8, 1e-12),
    (log_gamma, scipy.special.gammaln, 1e-12, 1e-12, np.log, 1e-10, 1e-10),
]
_ORACLE_ROWS = {row[0]: row[1:] for row in _PSI_FAMILY}
_PSI_FAMILY += [(paired,) + _ORACLE_ROWS[single] for paired, single in _PAIRED]
# the smallest argument, the last shifted steps, both sides of the cutoff
# (10), and far above it
_SHIFT_EDGES = np.array([MIN_ARG, 9.0, 10.0 - 1e-15, 10.0, 1e6])


@pytest.mark.parametrize("fn, oracle, rtol, atol, step, rel, abs_", _PSI_FAMILY)
def test_psi_family_shift_boundaries(fn, oracle, rtol, atol, step, rel, abs_):
    x = _SHIFT_EDGES.copy()
    got = fn(x)
    assert np.array_equal(x, _SHIFT_EDGES)  # the input is not shifted in place
    assert np.allclose(got, oracle(x), rtol=rtol, atol=atol)
    for xi, gi in zip(x, got):
        assert fn(float(xi)) == gi
    # recurrences across the cutoff: x shifted, x + 1 not (or both not)
    for xi in (9.0, 9.5, 10.0 - 1e-15, 10.0, 1e6):
        assert fn(xi + 1.0) == pytest.approx(fn(xi) + step(xi), rel=rel, abs=abs_)


@pytest.mark.parametrize("fn, oracle, rtol, atol, step, rel, abs_", _PSI_FAMILY)
def test_psi_family_shift_2d_and_wholly_above_cutoff(fn, oracle, rtol, atol,
                                                      step, rel, abs_):
    mixed = np.array([[MIN_ARG, 0.3, 9.0, 10.0 - 1e-15],
                      [10.0, 12.5, 1e3, 1e6]])
    got = fn(mixed)
    assert got.shape == (2, 4)
    assert np.array_equal(got, fn(mixed.ravel()).reshape(2, 4))
    assert np.allclose(got, oracle(mixed), rtol=rtol, atol=atol)
    above = np.linspace(10.0, 1e3, 64)
    assert np.allclose(fn(above), oracle(above), rtol=rtol, atol=atol)
    assert np.allclose(fn(above + 1.0), fn(above) + step(above), rtol=rel, atol=abs_)


# ------------------------------------------------------ rising factorials

def _gamma_differences(x, p):
    """(ln Gamma(x+p) - ln Gamma(x), psi(x+p) - psi(x), ln Gamma(x+p))."""
    lg, dg = log_gamma_digamma(x)
    lg_p, dg_p = log_gamma_digamma(x + p)
    return lg_p - lg, dg_p - dg, lg_p


@pytest.mark.parametrize("p", range(1, RISING_MAX_P + 1))
def test_log_rising_integer_path_matches_gamma_differences(p):
    # the difference form is only as exact as its larger ln Gamma value
    x = np.exp(np.linspace(np.log(MIN_ARG), np.log(1e3), 2001))
    log_mu, nu = log_rising(x, p)
    want_mu, want_nu, lg_p = _gamma_differences(x, p)
    assert np.all(np.abs(log_mu - want_mu) <= 1e-13 * np.maximum(1.0, np.abs(lg_p)))
    assert np.all(np.abs(nu - want_nu) <= 1e-13 * np.maximum(1.0, np.abs(want_nu)))


@pytest.mark.parametrize("p", [1, 4, 7, RISING_MAX_P])
def test_log_rising_against_mpmath_up_to_huge_x(p):
    # exact sums of ln(x + k) and 1 / (x + k); past 1e36 the factors' logs
    # are summed, as their 8-factor products would overflow
    x = np.exp(np.linspace(np.log(MIN_ARG), np.log(1e300), 121))
    x[:2] = [1e36, 1e36 * (1.0 + 1e-15)]
    log_mu, nu = log_rising(x, p)
    for xi, got_mu, got_nu in zip(x, log_mu, nu):
        with mpmath.workdps(40):
            pts = [mpmath.mpf(float(xi)) + k for k in range(p)]
            want_mu = float(mpmath.fsum(mpmath.log(t) for t in pts))
            want_nu = float(mpmath.fsum(1 / t for t in pts))
        assert abs(got_mu - want_mu) <= 1e-14 * max(1.0, abs(want_mu))
        assert abs(got_nu - want_nu) <= 1e-15 * want_nu


def test_log_rising_scalar_and_bulk_calls_are_bit_identical():
    rng = np.random.default_rng(12)
    x = np.exp(rng.uniform(np.log(MIN_ARG), np.log(1e40), 97))
    x[:4] = [MIN_ARG, 1.0, 1e36, 1e37]
    for p in (1, 2, 4, 7, RISING_MAX_P, RISING_MAX_P + 1, 2.5):
        bulk = log_rising(x.reshape(1, 97), p)
        assert all(out.shape == (1, 97) for out in bulk)
        for i, xi in enumerate(x):
            one = log_rising(float(xi), p)
            assert isinstance(one[0], float) and isinstance(one[1], float)
            assert one == (bulk[0][0, i], bulk[1][0, i])


@pytest.mark.parametrize("p", [RISING_MAX_P + 1, 2.5, 1e6])
def test_log_rising_other_orders_take_gamma_differences(p):
    x = np.exp(np.linspace(np.log(MIN_ARG), np.log(1e6), 301))
    log_mu, nu = log_rising(x, p)
    want_mu, want_nu, _ = _gamma_differences(x, p)
    assert np.array_equal(log_mu, want_mu) and np.array_equal(nu, want_nu)


@pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_log_rising_rejects_bad_order(p):
    with pytest.raises(DomainError, match="p must be"):
        log_rising(2.0, p)


# ------------------------------------------------------------ bulk blocking

_BULK_N = 3 * BLOCK + 7


@pytest.fixture(scope="module")
def bulk_input():
    """3 BLOCK + 7 arguments: a third below 0.5, a third in [0.5, 10] (both
    shifted), a third above 10, shuffled, plus each boundary."""
    rng = np.random.default_rng(8)
    third = _BULK_N // 3
    x = np.concatenate([rng.uniform(MIN_ARG, 0.5, third), rng.uniform(0.5, 10.0, third),
                        rng.uniform(10.0, 1e6, _BULK_N - 2 * third)])
    rng.shuffle(x)
    x[:4] = [MIN_ARG, 0.5, 10.0 - 1e-15, 10.0]
    return x


@pytest.fixture(scope="module")
def elementwise(bulk_input):
    """Each function applied alone to each element of bulk_input within 8 of
    a piece boundary or of either end, and to 3000 more at random; NaN
    elsewhere."""
    n = bulk_input.size
    near = (np.arange(0, n + BLOCK, BLOCK)[:, None] + np.arange(-8, 8)).ravel()
    sample = np.union1d(near[(near >= 0) & (near < n)],
                        np.random.default_rng(9).choice(n, 3000, replace=False))
    out = {}
    for fn in _ALL_VIEWS:
        want = np.full(n, np.nan)
        want[sample] = [fn(float(bulk_input[i])) for i in sample]
        out[fn] = want
    return out


@pytest.mark.parametrize("fn", _ALL_VIEWS)
def test_bulk_calls_equal_elementwise_calls(fn, bulk_input, elementwise):
    # one block, the first calls split into pieces, a ragged last piece, and
    # 2-D and strided inputs longer than a block; each view is applied to the
    # element positions too, to find each result's elementwise value
    pos = np.arange(bulk_input.size)
    rows = 3 * (BLOCK + 1)
    views = [lambda a, n=n: a[:n] for n in (BLOCK - 1, BLOCK, BLOCK + 1, _BULK_N)] + [
        lambda a: a[:rows].reshape(BLOCK + 1, 3),
        lambda a: a[:rows].reshape(BLOCK + 1, 3).T,
        lambda a: a[::2]]
    for view in views:
        x, at = view(bulk_input), view(pos)
        got = fn(x)
        assert got.shape == x.shape
        want = elementwise[fn][at]
        checked = ~np.isnan(want)
        assert checked.sum() > 500
        assert np.array_equal(got[checked], want[checked])


# -------------------------------------------------------------- beta_moment

def test_beta_moment_second_moment_example():
    # E[X^2] for Beta(2,3) = a(a+1)/((a+b)(a+b+1)) = 6/30
    assert beta_moment(2.0, 3.0, 2.0) == pytest.approx(0.2, abs=1e-13)


def test_beta_moment_first_moment_is_mean():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(0.2, 50.0, size=2)
        assert beta_moment(a, b, 1.0) == pytest.approx(a / (a + b), rel=1e-12)


def test_beta_moment_against_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.uniform(0.8, 20.0, size=2)
        q = rng.uniform(0.5, 6.0)
        dens = scipy.special.gamma(a + b) / (scipy.special.gamma(a)
                                             * scipy.special.gamma(b))
        val, err = scipy.integrate.quad(
            lambda t: dens * t ** (q + a - 1.0) * (1.0 - t) ** (b - 1.0),
            0.0, 1.0)
        assert beta_moment(a, b, q) == pytest.approx(val, rel=1e-8)


# ----------------------------------------------------------- domain handling

@pytest.mark.parametrize("fn", _ALL_VIEWS)
@pytest.mark.parametrize("bad", [0.0, -1.0, MIN_ARG / 2.0,
                                 float("nan"), float("inf")])
def test_rejects_nonpositive_and_nonfinite(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


def test_rejects_bad_array_element():
    with pytest.raises(DomainError):
        digamma(np.array([1.0, 2.0, -3.0]))


def test_vectorized_shapes_roundtrip():
    x = np.linspace(0.5, 9.5, 12).reshape(3, 4)
    for fn in _ALL_VIEWS:
        assert fn(x).shape == (3, 4)
        assert isinstance(fn(2.5), float)


@settings(max_examples=50)
@given(st.floats(min_value=1e-3, max_value=1e4),
       st.floats(min_value=1e-3, max_value=1e4))
def test_digamma_is_derivative_of_log_gamma(x, h_scale):
    # central finite difference on log_gamma
    h = max(1e-6 * x, 1e-9)
    fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
    assert digamma(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)
