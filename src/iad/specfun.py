"""Numerically stable special-function kernels: log-gamma, digamma family, Beta moments.

All functions accept scalars or numpy arrays and are pure. Strategy for the
psi family: shift the argument up by the recurrence until it exceeds a cutoff,
then evaluate the asymptotic (Bernoulli-number) series. Log-gamma uses the
Lanczos approximation (g=7, 9 terms).

log_gamma and the psi family check their argument once, then run their
elementwise body over the whole array, or, for more than BLOCK elements, over
contiguous BLOCK-element pieces written into one output array.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "log_gamma",
    "digamma",
    "trigamma",
    "tetragamma",
    "beta_moment",
]

# Inputs below this are rejected rather than clamped: silent clamping would
# hide upstream bugs (e.g. a concentration parameter driven to zero).
MIN_ARG = 1e-12

# 256 KB of float64, as data.py's row blocks. A body makes ~25 temporaries
# the size of its input: over 300k elements they spill out of L2, over one
# block they stay in cache. Training and evaluation calls fit in one block.
BLOCK = 32_768

# Argument above which the asymptotic series are accurate to ~1e-15.
_ASYM_CUTOFF = 10.0

_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class DomainError(ValueError):
    """Raised when a special function is evaluated outside its domain."""


def _as_positive_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if np.any(arr < MIN_ARG):
        raise DomainError(f"{name} must be >= {MIN_ARG}, got {x!r}")
    return arr, scalar


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _blocked(body, arr: np.ndarray) -> np.ndarray:
    """body(arr) for an elementwise body: in one call for at most BLOCK
    elements, else piece by piece over the flattened array."""
    if arr.size <= BLOCK:
        return body(arr)
    flat = arr.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, BLOCK):
        out[start:start + BLOCK] = body(flat[start:start + BLOCK])
    return out.reshape(arr.shape)


def log_gamma(x):
    """ln Gamma(x) for x > 0 via the Lanczos approximation."""
    arr, scalar = _as_positive_array(x, "x")
    return _ret(_blocked(_log_gamma, arr), scalar)


def _log_gamma(arr: np.ndarray) -> np.ndarray:
    out = np.empty_like(arr)
    small = arr < 0.5
    if np.any(small):
        xs = arr[small]
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - _lanczos(1.0 - xs)
    if np.any(~small):
        out[~small] = _lanczos(arr[~small])
    return out


def _lanczos(x: np.ndarray) -> np.ndarray:
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_COEF[0])
    for k in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)


# x + k for k = 0..9: ten recurrence steps lift any x >= MIN_ARG past the cutoff.
_STEPS = np.arange(_ASYM_CUTOFF)


def _shift_up(arr: np.ndarray, power: int):
    """(y, corr): y = x + n, with n the number of steps k < 10 at which
    x + k is below the cutoff (so y >= cutoff), and corr = sum_{k<n}
    (x+k)^-power, the sum the psi-family recurrences collect on the way up
    (Bernardo 1976, Algorithm AS 103).

    A fixed-width (m, 10) matrix of x + k is built for the m elements below
    the cutoff only, and reused in place."""
    flat = arr.ravel()
    low = np.flatnonzero(flat < _ASYM_CUTOFF)
    if not low.size:
        return arr, 0.0
    pts = flat[low][:, None] + _STEPS
    below = pts < _ASYM_CUTOFF
    y = flat.copy()
    y[low] += below.sum(axis=1)
    np.divide(1.0, pts, out=pts)
    pts **= power
    pts *= below
    corr = np.zeros_like(flat)
    corr[low] = pts.sum(axis=1)
    return y.reshape(arr.shape), corr.reshape(arr.shape)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    arr, scalar = _as_positive_array(x, "x")
    return _ret(_blocked(_digamma, arr), scalar)


def _digamma(arr: np.ndarray) -> np.ndarray:
    y, corr = _shift_up(arr, 1)
    u = 1.0 / (y * y)
    # psi(y) ~ ln y - 1/(2y) - sum B_2k / (2k y^2k)
    series = (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0 - u / 12.0))))))
    # psi(x) = psi(x+1) - 1/x
    return np.log(y) - 0.5 / y - u * series - corr


def trigamma(x):
    """psi'(x), the polygamma function of order 1, for x > 0."""
    arr, scalar = _as_positive_array(x, "x")
    return _ret(_blocked(_trigamma, arr), scalar)


def _trigamma(arr: np.ndarray) -> np.ndarray:
    y, corr = _shift_up(arr, 2)
    u = 1.0 / (y * y)
    # psi'(y) ~ 1/y + 1/(2y^2) + sum B_2k / y^(2k+1)
    series = (1.0 / 6.0 - u * (1.0 / 30.0 - u * (1.0 / 42.0 - u * (
        1.0 / 30.0 - u * (5.0 / 66.0 - u * (691.0 / 2730.0 - u * 7.0 / 6.0))))))
    # psi'(x) = psi'(x+1) + 1/x^2
    return 1.0 / y + 0.5 * u + u / y * series + corr


def tetragamma(x):
    """psi''(x), the polygamma function of order 2, for x > 0. Always negative."""
    arr, scalar = _as_positive_array(x, "x")
    return _ret(_blocked(_tetragamma, arr), scalar)


def _tetragamma(arr: np.ndarray) -> np.ndarray:
    y, corr = _shift_up(arr, 3)
    u = 1.0 / (y * y)
    # psi''(y) ~ -1/y^2 - 1/y^3 - sum (2k+1) B_2k / y^(2k+2)
    series = (0.5 - u * (1.0 / 6.0 - u * (1.0 / 6.0 - u * (
        3.0 / 10.0 - u * (5.0 / 6.0 - u * 691.0 / 210.0)))))
    # psi''(x) = psi''(x+1) - 2/x^3
    return -u - u / y - u * u * series - 2.0 * corr


def beta_moment(a, b, q):
    """q-th moment of Beta(a, b): E[p^q] = B(a+q, b) / B(a, b).

    Computed as exp of log-gamma differences so concentrations up to ~1e6
    do not overflow.
    """
    aa, sa = _as_positive_array(a, "a")
    bb, sb = _as_positive_array(b, "b")
    qq, sq = _as_positive_array(q, "q")
    out = np.exp(
        log_gamma(aa + qq) + log_gamma(aa + bb) - log_gamma(aa) - log_gamma(aa + bb + qq)
    )
    return _ret(out, sa and sb and sq)
