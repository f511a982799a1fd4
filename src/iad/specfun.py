"""Numerically stable special-function kernels: log-gamma, digamma family,
rising factorials.

All functions accept scalars or numpy arrays and are pure. One scheme serves
all four functions: every argument below the cutoff 10 is lifted by exactly
ten recurrence steps, y = x + 10, and the asymptotic (Stirling and
Bernoulli-number) series is evaluated at y. The corrections come from the
k-major (10, m) matrix of x + k over the m lifted elements: ln Gamma subtracts
ln prod_k (x + k) (Abramowitz & Stegun 6.1.41), the psi family sums powers of
1 / (x + k) (Bernardo 1976, Algorithm AS 103).

`log_gamma_digamma`, `trigamma_tetragamma` and `digamma_trigamma` return two
functions from one argument check and one shift. Each single-function name is
one output of the paired kernel that names it: `log_gamma` and `digamma` of
`log_gamma_digamma`, `trigamma` and `tetragamma` of `trigamma_tetragamma`.
`digamma_trigamma`, which verify's lemmas call, gives the same psi and psi'
bit for bit.

`log_rising` returns ln (x)_p = ln Gamma(x+p) - ln Gamma(x) and
psi(x+p) - psi(x). For an integer p up to RISING_MAX_P it needs no special
function: it reduces the k-major (p, m) matrix of the rising factors x + k,
the log of their product (A&S 6.1.22) and the sum of their reciprocals
(A&S 6.3.6). Any other p takes log_gamma_digamma differences.

Each public function runs its body over the whole array, or, for more than
BLOCK elements, over contiguous BLOCK-element pieces written into one output
array per function.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

__all__ = [
    "DomainError",
    "log_gamma",
    "digamma",
    "trigamma",
    "tetragamma",
    "log_gamma_digamma",
    "trigamma_tetragamma",
    "digamma_trigamma",
    "log_rising",
]

# Inputs below this are rejected rather than clamped: silent clamping would
# hide upstream bugs (e.g. a concentration parameter driven to zero).
MIN_ARG = 1e-12

# 256 KB of float64, as data.py's row blocks. A body makes ~20 temporaries
# the size of its input and one (10, m) shift matrix: over 300k elements they
# spill out of L2, over one block they stay in cache. Training and evaluation
# calls fit in one block.
BLOCK = 32_768

# Integer orders up to this take log_rising's rising-factor sums; any other
# order takes ln Gamma / psi differences (p = 1e6 would build a million-row
# matrix). The product of at most 8 factors stays finite for x below
# _RISING_MAX_X ((1e36 + 8)^8 < 1e289); elements above it sum the factors'
# logs instead.
RISING_MAX_P = 8
_RISING_MAX_X = 1e36

# Argument above which the asymptotic series are accurate to ~1e-15; elements
# below it are lifted by this many recurrence steps.
_ASYM_CUTOFF = 10.0

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# x + k for k = 0..9, one row per step.
_STEPS = np.arange(_ASYM_CUTOFF)[:, None]

# Coefficients c_0..c_6 of the asymptotic series, each sum_k c_k (-u)^k in
# u = 1/y^2, from the Bernoulli numbers B_2..B_14:
# ln Gamma(y) ~ (y - 1/2) ln y - y + ln(2 pi)/2 + (1/y) series,
_LOG_GAMMA = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188, 691 / 360360, 1 / 156)
# psi(y) ~ ln y - 1/(2y) - u series,
_PSI = (1 / 12, 1 / 120, 1 / 252, 1 / 240, 1 / 132, 691 / 32760, 1 / 12)
# psi'(y) ~ 1/y + u/2 + (u/y) series,
_PSI1 = (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730, 7 / 6)
# psi''(y) ~ -u - u/y - u^2 series.
_PSI2 = (1 / 2, 1 / 6, 1 / 6, 3 / 10, 5 / 6, 691 / 210, 35 / 2)

# The (7, 2, 1) Horner tables of the three paired kernels, one row per series.
_LOG_GAMMA_PSI = np.array([_LOG_GAMMA, _PSI]).T[:, :, None]
_PSI1_PSI2 = np.array([_PSI1, _PSI2]).T[:, :, None]
_PSI_PSI1 = np.array([_PSI, _PSI1]).T[:, :, None]


class DomainError(ValueError):
    """Raised when a special function is evaluated outside its domain."""


def _as_positive_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise DomainError(f"{name} must be finite, got {x!r}")
    if np.count_nonzero(arr < MIN_ARG):
        raise DomainError(f"{name} must be >= {MIN_ARG}, got {x!r}")
    return arr, scalar


def _apply(body, x):
    """The outputs of body, which maps a flat array to a tuple of flat arrays,
    for a checked x: in one call for at most BLOCK elements, else piece by
    piece into one array per output. Each output has x's shape, or is a float
    for a scalar x."""
    arr, scalar = _as_positive_array(x, "x")
    flat = arr.ravel()
    if flat.size <= BLOCK:
        outs = body(flat)
    else:
        outs = ()
        for start in range(0, flat.size, BLOCK):
            pieces = body(flat[start:start + BLOCK])
            outs = outs or tuple(np.empty_like(flat) for _ in pieces)
            for out, piece in zip(outs, pieces):
                out[start:start + BLOCK] = piece
    if scalar:
        return tuple(float(out[0]) for out in outs)
    return tuple(out.reshape(arr.shape) for out in outs)


def _shift(flat: np.ndarray, table):
    """(y, low, 1/y, 1/y^2, series): y = x + 10 at the indices `low` of the
    elements below the cutoff and y = x elsewhere, and series u times each
    series of `table` at y."""
    below = flat < _ASYM_CUTOFF
    low = np.flatnonzero(below)
    y = np.where(below, flat + _ASYM_CUTOFF, flat) if low.size else flat
    inv = 1.0 / y
    u = inv * inv
    return y, low, inv, u, _horner(u, table)


def _tree(op, mat: np.ndarray) -> np.ndarray:
    """op-reduction of the rows of mat into mat[0], in place, as a fixed tree
    of elementwise calls: every element sees the same order of operations,
    whatever the number of columns (numpy's own sum changes its order with the
    layout)."""
    n = len(mat)
    while n > 1:
        half = n // 2
        op(mat[:half], mat[n - half:n], out=mat[:half])
        n -= half
    return mat[0]


def _horner(u: np.ndarray, table) -> np.ndarray:
    """u times each series of the (7, rows, 1) `table` at u, as (rows, n)."""
    acc = table[-1] * u
    for c in table[-2::-1]:
        np.subtract(c, acc, out=acc)
        acc *= u
    return acc


def _recip_steps(flat: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The k-major (10, m) matrix of 1 / (x + k) over the m elements at low."""
    pts = flat[low] + _STEPS
    return np.divide(1.0, pts, out=pts)


# Each body below evaluates its series at y, then, if any element lies below
# the cutoff, subtracts or adds what the ten recurrence steps collect:
# ln Gamma(x) = ln Gamma(x+10) - ln prod (x+k), psi(x) = psi(x+10) - sum
# 1/(x+k), psi'(x) = psi'(x+10) + sum 1/(x+k)^2 and psi''(x) = psi''(x+10) -
# 2 sum 1/(x+k)^3, each reduced over the rows k of a (10, m) matrix that it
# overwrites. With no element below the cutoff no matrix is built.

def _digamma_at(ln_y, inv, series):
    return ln_y - 0.5 * inv - series


def _trigamma_at(inv, u, series):
    return inv + 0.5 * u + inv * series


def _log_gamma_digamma(flat):
    y, low, inv, _, series = _shift(flat, _LOG_GAMMA_PSI)
    ln_y = np.log(y)
    # ln Gamma overflows to +inf quietly above ~2.5e305, as scipy's gammaln
    with np.errstate(over="ignore"):
        lg = (y - 0.5) * ln_y - y + _HALF_LOG_2PI + y * series[0]
    dg = _digamma_at(ln_y, inv, series[1])
    if low.size:
        pts = flat[low] + _STEPS
        # the product's first tree level, out of place: the reciprocals need pts
        lg[low] -= np.log(_tree(np.multiply, pts[:5] * pts[5:]))
        dg[low] -= _tree(np.add, np.divide(1.0, pts, out=pts))
    return lg, dg


def _trigamma_tetragamma(flat):
    _, low, inv, u, series = _shift(flat, _PSI1_PSI2)
    tri = _trigamma_at(inv, u, series[0])
    tetra = -u - u * inv - u * series[1]
    if low.size:
        recip = _recip_steps(flat, low)
        recip2 = recip * recip
        recip3 = np.multiply(recip2, recip, out=recip)
        tri[low] += _tree(np.add, recip2)
        tetra[low] -= 2.0 * _tree(np.add, recip3)
    return tri, tetra


def _digamma_trigamma(flat):
    y, low, inv, u, series = _shift(flat, _PSI_PSI1)
    dg = _digamma_at(np.log(y), inv, series[0])
    tri = _trigamma_at(inv, u, series[1])
    if low.size:
        recip = _recip_steps(flat, low)
        recip2 = recip * recip
        dg[low] -= _tree(np.add, recip)
        tri[low] += _tree(np.add, recip2)
    return dg, tri


def _log_rising(flat, p: int):
    """(ln (x)_p, psi(x+p) - psi(x)) over the k-major (p, m) matrix of x + k."""
    pts = flat + np.arange(p)[:, None]
    # np.minimum copies pts, which the reciprocals need, and keeps the
    # products of elements above _RISING_MAX_X finite until they are replaced
    log_prod = np.log(_tree(np.multiply, np.minimum(pts, _RISING_MAX_X)))
    big = np.flatnonzero(flat > _RISING_MAX_X)
    if big.size:
        log_prod[big] = _tree(np.add, np.log(pts[:, big]))
    return log_prod, _tree(np.add, np.divide(1.0, pts, out=pts))


def _log_gamma_ratio(flat, p: float):
    """(ln (x)_p, psi(x+p) - psi(x)) as log_gamma_digamma differences."""
    lg, dg = _log_gamma_digamma(np.concatenate([flat, flat + p]))
    m = flat.size
    return lg[m:] - lg[:m], dg[m:] - dg[:m]


def log_rising(x, p):
    """(ln (x)_p, psi(x+p) - psi(x)) for x > 0 and p > 0, where (x)_p =
    Gamma(x+p) / Gamma(x) is the rising factorial.

    An integer p up to RISING_MAX_P sums over the p factors x + k, which does
    not cancel at large x; any other p takes the differences of
    log_gamma_digamma at x + p and x."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be finite and > 0, got {p!r}")
    if p.is_integer() and p <= RISING_MAX_P:
        return _apply(partial(_log_rising, p=int(p)), x)
    return _apply(partial(_log_gamma_ratio, p=p), x)


def log_gamma_digamma(x):
    """(ln Gamma(x), psi(x)) for x > 0 from one shift."""
    return _apply(_log_gamma_digamma, x)


def trigamma_tetragamma(x):
    """(psi'(x), psi''(x)) for x > 0 from one shift."""
    return _apply(_trigamma_tetragamma, x)


def digamma_trigamma(x):
    """(psi(x), psi'(x)) for x > 0 from one shift."""
    return _apply(_digamma_trigamma, x)


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    return log_gamma_digamma(x)[0]


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    return log_gamma_digamma(x)[1]


def trigamma(x):
    """psi'(x), the polygamma function of order 1, for x > 0."""
    return trigamma_tetragamma(x)[0]


def tetragamma(x):
    """psi''(x), the polygamma function of order 2, for x > 0. Always negative."""
    return trigamma_tetragamma(x)[1]

