"""Independent checks of the analytic moments.

Two oracles are provided.  Exact enumeration walks every path of a two-point
rate (j - s or j + s each year, equally likely) and reproduces the moments
without any appeal to the closed forms.  Monte Carlo simulates the same
accumulation under a chosen rate distribution with a counter-based RNG whose
substreams depend only on (seed, path index), so estimates are bit-identical
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationBudgetError, ShapeMismatchError, check_int
from .moments import MomentSeries, PaymentPlan
from .rates import StochasticRateSpec, stochastic_rate

ENUMERATION_MAX_HORIZON = 24

# Comparison rules: exact enumeration must match to this relative tolerance;
# Monte Carlo means are judged by |z| and variances by a ratio band.
ENUM_REL_TOL = 1e-9
MEAN_Z_LIMIT = 4.0
VAR_BAND_SE_MULTIPLE = 6.0

# Paths are simulated in fixed-size blocks; block b draws from the Philox
# substream at counter b << 128, so path i's rates depend only on
# (seed, i) and never on the worker count.
_BATCH_PATHS = 1 << 14

_KINDS = ("two-point", "uniform", "lognormal")


@dataclass(frozen=True)
class RateDistribution:
    """Annual-rate distribution with mean j and variance s2, exactly matched."""

    kind: str
    j: float
    s2: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        stochastic_rate(self.j, self.s2)  # j finite and > -1, s2 finite and >= 0
        if self.kind != "lognormal":  # lognormal support is all of 1+i > 0
            lowest = self.lowest_rate()
            if not lowest > -1.0:
                raise DomainError(
                    f"{self.kind} support reaches 1+i <= 0 "
                    f"(lowest rate {lowest}); reduce s2"
                )

    def lowest_rate(self) -> float:
        """Infimum of the rate support (not attained for lognormal)."""
        if self.kind == "two-point":
            return self.j - math.sqrt(self.s2)
        if self.kind == "uniform":
            return self.j - math.sqrt(3.0 * self.s2)
        return self.j if self.s2 == 0.0 else -1.0

    @classmethod
    def two_point(cls, j: float, s2: float) -> "RateDistribution":
        """i = j - s or j + s with probability 1/2 each."""
        return cls(kind="two-point", j=float(j), s2=float(s2))

    @classmethod
    def uniform(cls, j: float, s2: float) -> "RateDistribution":
        """i uniform on [j - sqrt(3) s, j + sqrt(3) s]."""
        return cls(kind="uniform", j=float(j), s2=float(s2))

    @classmethod
    def lognormal(cls, j: float, s2: float) -> "RateDistribution":
        """1 + i lognormal, moment-matched to mean 1+j and variance s2."""
        return cls(kind="lognormal", j=float(j), s2=float(s2))

    def sample_gross(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw 1 + i with the requested shape."""
        mu = 1.0 + self.j
        if self.kind == "two-point":
            s = math.sqrt(self.s2)
            bits = rng.integers(0, 2, size=shape)
            return mu + s * (2.0 * bits - 1.0)
        if self.kind == "uniform":
            hw = math.sqrt(3.0 * self.s2)
            return mu + hw * (2.0 * rng.random(size=shape) - 1.0)
        sigma2 = math.log1p(self.s2 / (mu * mu))
        m_ln = math.log(mu) - 0.5 * sigma2
        return rng.lognormal(mean=m_ln, sigma=math.sqrt(sigma2), size=shape)


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seed and parallelism hint."""

    paths: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "paths", check_int(self.paths, "paths", 1))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))
        object.__setattr__(self, "workers", check_int(self.workers, "workers", 1))


@dataclass(frozen=True)
class EnumerationResult:
    """Exact moments of the two-point accumulation, per year 1..k."""

    horizon: int
    mean: tuple
    second_moment: tuple
    variance: tuple


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimates and standard errors, per year 1..k."""

    kind: str
    paths: int
    seed: int
    horizon: int
    mean: tuple
    variance: tuple
    se_mean: tuple
    se_variance: tuple


@dataclass(frozen=True)
class MomentComparison:
    """One analytic-vs-oracle comparison at a single year."""

    k: int
    source: str
    analytic_mean: float
    oracle_mean: float
    mean_abs_dev: float
    mean_rel_dev: float
    analytic_variance: float
    oracle_variance: float
    var_abs_dev: float
    var_rel_dev: float
    mean_se: float | None
    mean_z: float | None
    var_se_rel: float | None
    var_ratio: float | None
    passed: bool


@dataclass(frozen=True)
class OracleReport:
    comparisons: tuple
    passed: bool


def enumerate_series(
    plan: PaymentPlan, spec: StochasticRateSpec, k
) -> EnumerationResult:
    """Exact per-year moments over all 2^k two-point rate paths.

    Limited to k <= 24 (the k = 24 case touches a few hundred MB of
    temporaries).  Requires j - s > -1 so every gross rate stays positive.
    """
    k = check_int(k, "k", 1, plan.n)
    if k > ENUMERATION_MAX_HORIZON:
        raise EnumerationBudgetError(
            f"exact enumeration supports k <= {ENUMERATION_MAX_HORIZON}, got {k}"
        )
    s = math.sqrt(spec.s2)
    if not spec.j - s > -1.0:
        raise DomainError(
            f"two-point support reaches 1+i <= 0 (lowest rate {spec.j - s})"
        )
    means = np.empty(k)
    seconds = np.empty(k)
    # a degenerate rate has a single deterministic path
    idx = np.arange(1 if s == 0.0 else 1 << k, dtype=np.uint32)
    c = np.zeros(len(idx))
    lo, hi = spec.mu - s, spec.mu + s
    for t in range(1, k + 1):
        bits = (idx >> (t - 1)) & 1
        g = np.where(bits == 1, hi, lo)
        c = (c + plan.payment(t)) * g
        means[t - 1] = c.mean()
        seconds[t - 1] = np.mean(c * c)
    variance = np.maximum(seconds - means * means, 0.0)
    return EnumerationResult(
        horizon=k,
        mean=tuple(float(x) for x in means),
        second_moment=tuple(float(x) for x in seconds),
        variance=tuple(float(x) for x in variance),
    )


def enumerate_exact(
    plan: PaymentPlan, spec: StochasticRateSpec, k
) -> tuple[float, float, float]:
    """Exact (mean, second moment, variance) of C_k over all 2^k paths."""
    result = enumerate_series(plan, spec, k)
    return (
        result.mean[-1],
        result.second_moment[-1],
        result.variance[-1],
    )


def _batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """Philox substream for one block of paths; depends only on (seed, block)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=batch_index << 128))


def _simulate_batch(
    plan: PaymentPlan,
    distribution: RateDistribution,
    seed: int,
    batch_index: int,
    batch_size: int,
    k: int,
) -> np.ndarray:
    """Power sums (S1..S4 per year) of the accumulated value over one block."""
    rng = _batch_generator(seed, batch_index)
    gross = distribution.sample_gross(rng, (batch_size, k))
    sums = np.empty((4, k))
    c = np.zeros(batch_size)
    for t in range(1, k + 1):
        c = (c + plan.payment(t)) * gross[:, t - 1]
        c2 = c * c
        sums[0, t - 1] = np.sum(c)
        sums[1, t - 1] = np.sum(c2)
        sums[2, t - 1] = np.sum(c2 * c)
        sums[3, t - 1] = np.sum(c2 * c2)
    return sums


def simulate(
    plan: PaymentPlan,
    distribution: RateDistribution,
    config: SimConfig,
    k,
) -> SimulationResult:
    """Monte Carlo estimates of mean and variance of C_t for t = 1..k.

    Identical (seed, paths, plan, distribution) inputs give bit-identical
    results for any worker count: block substreams are derived from the path
    index and partial sums are reduced in block order.
    """
    k = check_int(k, "k", 1, plan.n)
    n = config.paths
    n_batches = (n + _BATCH_PATHS - 1) // _BATCH_PATHS

    def run(b: int) -> np.ndarray:
        size = min(_BATCH_PATHS, n - b * _BATCH_PATHS)
        return _simulate_batch(plan, distribution, config.seed, b, size, k)

    if config.workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            batch_sums = list(pool.map(run, range(n_batches)))
    else:
        batch_sums = [run(b) for b in range(n_batches)]

    totals = np.zeros((4, k))
    for sums in batch_sums:  # fixed reduction order keeps results deterministic
        totals += sums

    s1, s2_, s3, s4 = totals
    mean = s1 / n
    if n > 1:
        var = (s2_ - n * mean * mean) / (n - 1)
        var = np.maximum(var, 0.0)
        m4 = (s4 - 4.0 * mean * s3 + 6.0 * mean * mean * s2_) / n - 3.0 * mean**4
        se_mean = np.sqrt(var / n)
        # Var(s^2) = (m4 - var^2)/n + 2 var^2/(n(n-1)), written so the second
        # term survives plug-in estimation: for the two-point rate at k = 1
        # the sample m4 tracks var^2 to O(1/n^2) and the difference alone
        # collapses to noise while the sample variance still fluctuates
        se_var = np.sqrt(
            np.maximum(m4 - var * var, 0.0) / n
            + 2.0 * var * var / (n * (n - 1.0))
        )
    else:
        var = np.full(k, math.nan)
        se_mean = np.full(k, math.nan)
        se_var = np.full(k, math.nan)
    return SimulationResult(
        kind=distribution.kind,
        paths=n,
        seed=config.seed,
        horizon=k,
        mean=tuple(float(x) for x in mean),
        variance=tuple(float(x) for x in var),
        se_mean=tuple(float(x) for x in se_mean),
        se_variance=tuple(float(x) for x in se_var),
    )


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _compare_enumeration(
    analytic: MomentSeries, oracle: EnumerationResult
) -> list[MomentComparison]:
    out = []
    for i in range(oracle.horizon):
        a_mean = float(analytic.mean[i])
        a_var = float(analytic.variance[i])
        o_mean = oracle.mean[i]
        o_var = oracle.variance[i]
        mean_rel = _rel_dev(a_mean, o_mean)
        var_rel = _rel_dev(a_var, o_var)
        out.append(
            MomentComparison(
                k=i + 1,
                source="enumeration",
                analytic_mean=a_mean,
                oracle_mean=o_mean,
                mean_abs_dev=abs(a_mean - o_mean),
                mean_rel_dev=mean_rel,
                analytic_variance=a_var,
                oracle_variance=o_var,
                var_abs_dev=abs(a_var - o_var),
                var_rel_dev=var_rel,
                mean_se=None,
                mean_z=None,
                var_se_rel=None,
                var_ratio=None,
                passed=mean_rel <= ENUM_REL_TOL and var_rel <= ENUM_REL_TOL,
            )
        )
    return out


def _compare_simulation(
    analytic: MomentSeries, oracle: SimulationResult
) -> list[MomentComparison]:
    out = []
    for i in range(oracle.horizon):
        a_mean = float(analytic.mean[i])
        a_var = float(analytic.variance[i])
        o_mean = oracle.mean[i]
        o_var = oracle.variance[i]
        se = oracle.se_mean[i]
        if se > 1e-15:
            z = (o_mean - a_mean) / se
            mean_ok = abs(z) <= MEAN_Z_LIMIT
        else:
            # degenerate spread: demand near-exact agreement
            z = 0.0
            mean_ok = _rel_dev(a_mean, o_mean) <= ENUM_REL_TOL
        if a_var <= 1e-12 and o_var <= 1e-12:
            ratio = 1.0
            se_rel = 0.0
            var_ok = True
        elif a_var > 0.0:
            ratio = o_var / a_var
            se_rel = oracle.se_variance[i] / a_var
            var_ok = abs(ratio - 1.0) <= VAR_BAND_SE_MULTIPLE * se_rel
        else:
            ratio = math.inf
            se_rel = math.inf
            var_ok = False
        out.append(
            MomentComparison(
                k=i + 1,
                source=f"mc-{oracle.kind}",
                analytic_mean=a_mean,
                oracle_mean=o_mean,
                mean_abs_dev=abs(a_mean - o_mean),
                mean_rel_dev=_rel_dev(a_mean, o_mean),
                analytic_variance=a_var,
                oracle_variance=o_var,
                var_abs_dev=abs(a_var - o_var),
                var_rel_dev=_rel_dev(a_var, o_var),
                mean_se=se,
                mean_z=z,
                var_se_rel=se_rel,
                var_ratio=ratio,
                passed=mean_ok and var_ok,
            )
        )
    return out


def compare(analytic: MomentSeries, oracle) -> OracleReport:
    """Judge oracle results against an analytic series.

    Enumeration results must match to relative 1e-9; Monte Carlo means must
    sit within |z| <= 4 and variances within 1 +/- 6 relative standard
    errors.  The oracle horizon must equal the analytic horizon.
    """
    results = oracle if isinstance(oracle, (list, tuple)) else [oracle]
    comparisons: list[MomentComparison] = []
    for result in results:
        if result.horizon != analytic.horizon:
            raise ShapeMismatchError(
                f"oracle horizon {result.horizon} does not match analytic "
                f"horizon {analytic.horizon}"
            )
        if isinstance(result, EnumerationResult):
            comparisons.extend(_compare_enumeration(analytic, result))
        elif isinstance(result, SimulationResult):
            comparisons.extend(_compare_simulation(analytic, result))
        else:
            raise DomainError(f"unsupported oracle result type {type(result)!r}")
    return OracleReport(
        comparisons=tuple(comparisons),
        passed=all(c.passed for c in comparisons),
    )
