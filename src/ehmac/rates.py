"""Concave transmission rate functions and the inequalities they satisfy.

The rate is the AWGN form ``0.5 * log2(1 + x / n0)`` in bits per unit time,
the only one the package implements.  The solvers rely only on its
qualitative contract (r(0) = 0, increasing, strictly concave, smooth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericOverflowError, UsageError

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateFunction:
    """Rate curve r(x) for total received power x >= 0.

    n0 is the noise power spectral density.
    """

    n0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.n0 < math.inf:
            raise DomainError(f"noise level must be finite > 0, got {self.n0}", field="n0")


def _check_nonnegative(x):
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0.0).all():
        raise DomainError("total power must be nonnegative, not NaN")
    return arr


def over_n0(x, n0):
    """``x / n0``; a finite power whose quotient overflows raises NumericOverflowError."""
    if n0 >= 1.0:   # cannot overflow; skips the checks' cost in the solver's kernel calls
        return x / n0
    with np.errstate(over="ignore"):
        q = x / n0
    if (np.isinf(q) & np.isfinite(x)).any():
        raise NumericOverflowError(f"a power over the noise level n0 = {n0!r} overflows")
    return q


def rate(rf: RateFunction, x):
    """Rate in bits per unit time at total power ``x``.

    Accepts scalars or arrays; negative or NaN power raises DomainError, and
    a power whose ratio to n0 overflows raises NumericOverflowError.
    """
    out = 0.5 * np.log1p(over_n0(_check_nonnegative(x), rf.n0)) / _LN2
    return float(out) if np.ndim(x) == 0 else out


def rate_deriv(rf: RateFunction, x, order=1):
    """First or second derivative of the rate at total power ``x``.

    A derivative beyond the float range (a tiny n0 near zero power) raises
    NumericOverflowError, as ``rate`` does.
    """
    arr = _check_nonnegative(x)
    if order not in (1, 2):
        raise UsageError(f"derivative order must be 1 or 2, got {order}")
    with np.errstate(over="ignore", divide="ignore"):
        out = (1.0 if order == 1 else -1.0) / ((rf.n0 + arr) ** order * (2.0 * _LN2))
    if np.isinf(out).any():
        raise NumericOverflowError(f"a rate derivative at n0 = {rf.n0!r} overflows")
    return float(out) if np.ndim(x) == 0 else out


def mixture_rate_inequality_check(gamma, beta, a, b, rf: RateFunction | None = None,
                                  rtol=1e-12):
    """Check the weighted-mixture rate inequality used by the concavity proofs.

    Returns True when

        sum_k a_k * r(gamma * b_k / a_k + beta)
            <= (sum a) * r(gamma * (sum b) / (sum a) + beta)

    holds up to relative slack ``rtol``.  All entries of ``a`` and ``b`` must
    be positive; the inequality is an identity of concave rates, so a False
    return signals a numerical defect, not a tight counterexample.
    """
    if rf is None:
        rf = RateFunction()
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DomainError("weight sequences must be non-empty")
    if a.shape != b.shape:
        raise DomainError("weight sequences must have equal length")
    if not (gamma > 0.0 and beta > 0.0):
        raise DomainError("gamma and beta must be positive")
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DomainError("all weights must be positive")
    lhs = float(np.sum(a * rate(rf, gamma * b / a + beta)))
    a_tot = float(np.sum(a))
    b_tot = float(np.sum(b))
    rhs = a_tot * rate(rf, gamma * b_tot / a_tot + beta)
    return lhs <= rhs + rtol * max(abs(rhs), 1.0)
