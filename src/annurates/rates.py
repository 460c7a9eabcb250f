"""Interest-rate value objects.

A fixed annual rate j carries its discount companions d = j/(1+j) and
v = 1/(1+j).  A stochastic rate is specified by the mean j and variance s2
of the i.i.d. annual rate; the derived quantities are the moment rates that
closed-form accumulated-value formulas are evaluated at:

    mu = 1 + j                 first moment of 1 + i
    m  = (1+j)^2 + s2 = 1 + f  second moment of 1 + i
    r  = j + s2/(1+j)          cross rate, (1+j)(1+r) = 1+f
    ell = s2/(1+j)^2           relative variance, (1+j)^2(1+ell) = 1+f

The closed forms divide by d or j, or by 1+j-q for geometric payments, and
give way to a recursion in a band around each pole: singular draws the band
of d, geometric_singular that of the closed geometric moments, whose second
and cross forms divide by 1+j-q.  They are the only readers of
SINGULARITY_EPS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# the half-width of the singular bands
SINGULARITY_EPS = 1e-9


def singular(j: float) -> bool:
    """Whether the rate j lies in the band |j| < 1e-9 around the pole of 1/d."""
    return abs(j) < SINGULARITY_EPS


def geometric_singular(g: float, q: float) -> bool:
    """Whether q lies in the band |g-q| < 1e-9*max(1,q) around g = 1+j."""
    return abs(g - q) < SINGULARITY_EPS * max(1.0, q)


@dataclass(frozen=True)
class FixedRate:
    """Annual compound rate with precomputed discount quantities."""

    j: float
    d: float
    v: float


@dataclass(frozen=True)
class StochasticRateSpec:
    """Mean/variance description of an i.i.d. annual rate with derived moment rates."""

    j: float
    s2: float
    mu: float
    m: float
    f: float
    r: float
    ell: float


@dataclass(frozen=True)
class GeometricAux:
    """Auxiliary rates for geometric growth payments at ratio 1+u.

    t solves (1+u) = (1+j)(1+t); h solves 1+f = (1+u)^2 (1+h); w solves
    1+f = (1+j)^2 (1+t)(1+w).  h and w may be negative.
    """

    u: float
    t: float
    h: float
    w: float


def fixed_rate(j: float) -> FixedRate:
    """Build a FixedRate from the annual rate j > -1."""
    j = float(j)
    if not math.isfinite(j) or not j > -1.0:
        raise DomainError(f"annual rate must be finite and exceed -1, got {j}")
    return FixedRate(j=j, d=j / (1.0 + j), v=1.0 / (1.0 + j))


def stochastic_rate(j: float, s2: float) -> StochasticRateSpec:
    """Build a StochasticRateSpec from mean rate j > -1 and variance s2 >= 0."""
    j = float(j)
    s2 = float(s2)
    if not math.isfinite(j) or not j > -1.0:
        raise DomainError(f"mean annual rate must be finite and exceed -1, got {j}")
    if not math.isfinite(s2) or s2 < 0.0:
        raise DomainError(f"rate variance must be finite and nonnegative, got {s2}")
    mu = 1.0 + j
    m = mu * mu + s2
    f = m - 1.0
    r = j + s2 / mu
    ell = s2 / (mu * mu)
    return StochasticRateSpec(j=j, s2=s2, mu=mu, m=m, f=f, r=r, ell=ell)


def _growth_ratio(u) -> float:
    """The payment ratio 1+u of the growth rate u, which must be finite and exceed -1."""
    u = float(u)
    if not u > -1.0:
        raise DomainError(f"growth rate must exceed -1, got {u}")
    if u == math.inf:
        raise DomainError(f"growth rate must be finite, got {u}")
    return 1.0 + u


def geometric_aux(spec: StochasticRateSpec, u: float) -> GeometricAux:
    """Derive the growth-payment auxiliary rates for ratio 1+u > 0."""
    one_u = _growth_ratio(u)
    u = float(u)
    t = one_u / spec.mu - 1.0
    h = spec.m / (one_u * one_u) - 1.0
    w = spec.m / (spec.mu * spec.mu * (1.0 + t)) - 1.0
    return GeometricAux(u=u, t=t, h=h, w=w)
