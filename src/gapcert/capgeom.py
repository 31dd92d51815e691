"""Spherical cap measures and the quantitative probability bounds.

The exact cap measure on S^n is (1/2) I_x(n/2, 1/2) with x = 2h - h^2 and cap
height h = 1 - cos(delta).  The regularized incomplete Beta integral is
evaluated by adaptive Simpson quadrature after the substitution t = sin(phi)^2,
which turns the integrand t^{(n-2)/2} (1-t)^{-1/2} dt into the smooth
colatitude form 2 sin(phi)^{n-1} dphi and removes the endpoint singularity.
No special-function library is involved; the colatitude form is also valid for
caps larger than a hemisphere.

The probability-bound evaluators (`cap_lower_bound`, `landing_probability_bound`,
`step_bounds`, `gap_probability_bound`) implement the printed closed forms
verbatim, in log space, each restricted to the parameter window where it is
asserted.  The landing bound and the gap bound are intentionally kept as two
independent formulas; no algebraic reduction between them is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

SIMPSON_REL_TOL = 1e-12


@dataclass(frozen=True)
class CapQuery:
    """A spherical cap: sphere dimension n (S^n in R^{n+1}) and radius in radians."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sphere dimension must be >= 1, got {self.n}")
        if not (0.0 < self.delta < math.pi):
            raise DomainError(f"cap radius must lie in (0, pi), got {self.delta}")


def _adaptive_simpson(f, a: float, b: float, rel_tol: float) -> float:
    """Classic adaptive Simpson with Richardson correction."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = rel_tol * max(abs(whole), 1e-300)

    def recurse(a, fa, b, fb, m, fm, s, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 60 or abs(left + right - s) <= 15.0 * tol:
            return left + right + (left + right - s) / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1
        )

    return recurse(a, fa, b, fb, 0.5 * (a + b), fm, whole, tol, 0)


@lru_cache(maxsize=None)
def _sine_power_full(n: int) -> float:
    """Integral of sin(phi)^(n-1) over (0, pi): the cap-measure normalizer."""
    return _adaptive_simpson(lambda p: math.sin(p) ** (n - 1), 0.0, math.pi, SIMPSON_REL_TOL)


def cap_measure_exact(q: CapQuery) -> float:
    """Normalized uniform measure of a spherical cap of radius delta on S^n."""
    num = _adaptive_simpson(lambda p: math.sin(p) ** (q.n - 1), 0.0, q.delta, SIMPSON_REL_TOL)
    return num / _sine_power_full(q.n)


def cap_lower_bound(q: CapQuery) -> float:
    """Closed-form cap lower bound (1/(2 sqrt(pi))) (delta/2)^n / sqrt(n).

    Only asserted for radii below 1/4; other radii raise DomainError.
    """
    if not (0.0 < q.delta < 0.25):
        raise DomainError(f"cap radius must lie in (0, 1/4) for this bound, got {q.delta}")
    return (0.5 / math.sqrt(math.pi)) * (0.5 * q.delta) ** q.n / math.sqrt(q.n)


def landing_exponent(d: int, r: int) -> int:
    """Exponent r d^2 - r(r+1)/2 of the landing and gap probability bounds."""
    return r * d * d - r * (r + 1) // 2


def _check_dr(d: int, r: int):
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")
    if not (1 <= r <= d * d):
        raise DomainError(f"rank must lie in 1..d^2, got {r}")


def landing_probability_bound(d: int, r: int, epsilon: float) -> float:
    """Lower bound on the probability that all r sampled vectors land within
    epsilon of any fixed orthonormal targets:

        (2 d sqrt(pi))^(-r) * ((epsilon/8) / (4^r sqrt(r!)))^(r d^2 - r(r+1)/2)

    Evaluated in log space so the factorial and the large exponent cannot
    overflow; the final value may round to zero for large exponents.
    """
    _check_dr(d, r)
    if not (0.0 < epsilon < 0.25):
        raise DomainError(f"epsilon must lie in (0, 1/4), got {epsilon}")
    m = landing_exponent(d, r)
    log_base = math.log(epsilon / 8.0) - r * math.log(4.0) - 0.5 * math.lgamma(r + 1)
    log_bound = -r * math.log(2.0 * d * math.sqrt(math.pi)) + m * log_base
    return math.exp(log_bound)


def step_bounds(d: int, i: int, delta: float) -> float:
    """Per-step landing bound: the direct cap bound for the first vector,
    the conditional bound (1/(2 d sqrt(pi))) (delta/8)^(d^2 - i) for later ones.

    The conditional form is only asserted for delta < 1/(4^(i+1) sqrt(i!)).
    """
    if i < 1:
        raise DomainError(f"step index must be >= 1, got {i}")
    _check_dr(d, i)
    if i == 1:
        if not (0.0 < delta < 0.25):
            raise DomainError(f"delta must lie in (0, 1/4) for the first step, got {delta}")
        return (0.5 / math.sqrt(math.pi)) * (0.5 * delta) ** (d * d - 1) / d
    window = 1.0 / (4.0 ** (i + 1) * math.sqrt(math.factorial(i)))
    if not (0.0 < delta < window):
        raise DomainError(f"delta must lie in (0, {window}) for step {i}, got {delta}")
    m = d * d - i
    return math.exp(-math.log(2.0 * d * math.sqrt(math.pi)) + m * math.log(delta / 8.0))


def gap_probability_bound(d: int, r: int, epsilon: float) -> float:
    """Lower bound on the probability of a certified gap above 1 - 8 r epsilon:

        (2 d sqrt(pi))^(-r) * (8 epsilon^2 4^(-2r))^(r d^2 - r(r+1)/2)

    Requires 0 < epsilon < 1/(8r).  Kept verbatim and independent of
    `landing_probability_bound`; the two printed forms do not reduce to one
    another for general (r, epsilon).
    """
    _check_dr(d, r)
    if not (0.0 < epsilon < 1.0 / (8.0 * r)):
        raise DomainError(f"epsilon must lie in (0, 1/(8r)) = (0, {1.0/(8.0*r)}), got {epsilon}")
    m = landing_exponent(d, r)
    log_base = math.log(8.0) + 2.0 * math.log(epsilon) - 2.0 * r * math.log(4.0)
    log_bound = -r * math.log(2.0 * d * math.sqrt(math.pi)) + m * log_base
    return math.exp(log_bound)
