"""Independent checks of the analytic moments.

Two oracles are provided.  Exact enumeration walks every path of a two-point
rate (j - s or j + s each year, equally likely) and reproduces the moments
without any appeal to the closed forms.  Its time doubles with each year of
horizon, but it holds at most 2^12 balances per year: past that it walks the
paths depth first.  Monte Carlo simulates the same
accumulation under a chosen rate distribution in fixed-size blocks of paths.
Block b draws from its own SFC64 stream, seeded by SeedSequence(seed,
spawn_key=(b,)), and the blocks' means and central sums are merged in block
order, so estimates are bit-identical for any worker count.  A block draws
and accumulates one year at a time, so it holds a few arrays of its paths
whatever the horizon.

Both oracles import numpy when they are called, and simulate imports its
thread pool only for more than one worker, so importing the package loads
neither.  Sums past double range raise NumericalFailureError, not warnings.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (DomainError, EnumerationBudgetError, NumericalFailureError,
                     ShapeMismatchError, check_int)
from .moments import MomentSeries, PaymentPlan
from .rates import StochasticRateSpec, stochastic_rate

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

ENUMERATION_MAX_HORIZON = 24

# Enumeration walks the years after the first _SUBTREE_BITS depth first, in
# subtrees of 2^_SUBTREE_BITS balances.  It must stay >= 7, so that a subtree
# spans whole 128-lane blocks of numpy's pairwise sum; 2^14 and 2^16 lanes
# were no faster.
_SUBTREE_BITS = 12

# Comparison rules: exact enumeration must match to this relative tolerance;
# Monte Carlo means are judged by |z| and variances by a ratio band.
ENUM_REL_TOL = 1e-9
MEAN_Z_LIMIT = 4.0
VAR_BAND_SE_MULTIPLE = 6.0

# Paths are simulated in fixed-size blocks; block b's rates come from a stream
# that depends only on (seed, b), so path i's rates depend only on (seed, i)
# and never on the worker count.
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

    def gross_rows(self, rng: np.random.Generator, k: int, size: int) -> Iterator[np.ndarray]:
        """Yield k fresh rows of size draws of 1 + i, one per year, lazily.

        The rows are bit for bit those of one year-major (k, size) draw from
        rng, so a block holds one row at a time, not k.  A two-point draw
        takes one random bit and is exactly 1+j-s or 1+j+s; the bytes of all
        k * size bits are drawn at the first row, and row t unpacks its bits
        from bit t * size of them.
        """
        import numpy as np
        mu = 1.0 + self.j
        if self.kind == "two-point":
            s = math.sqrt(self.s2)
            packed = rng.integers(0, 256, size=(k * size + 7) // 8, dtype=np.uint8)
            # pick a support value by its bit pattern, low + bit * (high - low)
            # in integers: exact, and faster than np.where on two scalars
            low, high = np.array([mu - s, mu + s]).view(np.uint64)
            for start in range(0, k * size, size):
                skip = start % 8
                row_bytes = packed[start // 8:(start + size + 7) // 8]
                bits = np.unpackbits(row_bytes, count=skip + size)[skip:]
                patterns = np.multiply(bits, high - low, dtype=np.uint64)
                patterns += low
                yield patterns.view(np.float64)
        elif self.kind == "uniform":
            hw = math.sqrt(3.0 * self.s2)
            for _ in range(k):
                # mu + hw * (2 r - 1), in place
                row = rng.random(size)
                row *= 2.0
                row -= 1.0
                row *= hw
                row += mu
                yield row
        else:
            sigma2 = math.log1p(self.s2 / (mu * mu))
            m_ln = math.log(mu) - 0.5 * sigma2
            sigma = math.sqrt(sigma2)
            for _ in range(k):
                yield rng.lognormal(mean=m_ln, sigma=sigma, size=size)


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seed and parallelism hint."""

    paths: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        # a variance estimate needs two paths
        object.__setattr__(self, "paths", check_int(self.paths, "paths", 2))
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

    Years 1..m, m = min(k, 12), are built breadth first: year t's 2^t
    distinct balances from year t-1's.  Later years are walked depth first
    in subtrees of 2^m balances, so time is proportional to 2^k but memory
    to k 2^m: k = 24 takes about 0.16 s and peaks at 1 MiB of arrays on a
    2-core Xeon.  Limited to k <= 24.  Requires j - s > -1 so every gross
    rate stays positive.
    """
    k = check_int(k, "k", 1, plan.n)
    if k > ENUMERATION_MAX_HORIZON:
        raise EnumerationBudgetError(
            f"exact enumeration supports k <= {ENUMERATION_MAX_HORIZON}, got {k}"
        )
    RateDistribution.two_point(spec.j, spec.s2)  # checks j - s > -1
    s = math.sqrt(spec.s2)
    import numpy as np
    means = np.empty(k)
    seconds = np.empty(k)
    # a degenerate rate has a single deterministic path
    gross = (spec.mu - s,) if s == 0.0 else (spec.mu - s, spec.mu + s)
    m = k if s == 0.0 else min(k, _SUBTREE_BITS)
    # numpy sums float64 pairwise in blocks of up to 128, so 2^(k-t) copies of
    # the 2^t distinct year-t balances sum to 2^(k-t) times one copy's sum, bit
    # for bit, once a copy is a block wide; a narrower copy is tiled first
    width = min(len(gross) ** k, 128)
    c = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports overflow
        for t in range(1, m + 1):
            # path i's balance is c[i mod 2^t]; bit t-1 of i picks its year-t rate
            c = np.outer(gross, c + plan._payment(t)).ravel()
            lanes = np.tile(c, width // len(c)) if len(c) < width else c
            means[t - 1] = lanes.mean()
            seconds[t - 1] = np.mean(lanes * lanes)
        if m < k:
            _walk_subtrees(plan, gross, c, m, k, means, seconds)
        _check_finite("exact enumeration", {"second moment": seconds})  # bounds the mean
        variance = np.maximum(seconds - means * means, 0.0)
    return EnumerationResult(
        horizon=k,
        mean=tuple(float(x) for x in means),
        second_moment=tuple(float(x) for x in seconds),
        variance=tuple(float(x) for x in variance),
    )


def _walk_subtrees(
    plan: PaymentPlan, gross: tuple, root: np.ndarray, m: int, k: int,
    means: np.ndarray, seconds: np.ndarray,
) -> None:
    """Years m+1..k of enumerate_series, depth first from year m's balances.

    Year t's 2^t balances, in path order, are 2^(t-m) runs of 2^m, one for
    each pattern of the rates of years m+1..t, with year t's rate bit as the
    most significant bit of the run's index.  Each run is a node of the
    walk.  numpy sums a float64 array by halving it at powers of two down to
    blocks of 128 lanes, so a run of 2^m >= 128 lanes sums alone as it does
    inside the whole array, and adding adjacent run sums level by level
    rebuilds the whole array's sum bit for bit; so do the squares'.
    """
    import numpy as np
    # per year t > m, the sums of each run's balances and of their squares
    sums = [np.empty((2, 1 << (t - m))) for t in range(m + 1, k + 1)]

    def visit(balances: np.ndarray, t: int, index: int) -> None:
        # the float operations of np.outer(gross, balances + payment(t))
        x = balances + plan._payment(t)
        row = sums[t - m - 1]
        for bit, g in enumerate(gross):
            child = x * g
            node = index | bit << (t - m - 1)
            row[0, node] = child.sum()
            row[1, node] = (child * child).sum()
            if t < k:
                visit(child, t + 1, node)

    visit(root, m + 1, 0)
    for t, row in enumerate(sums, m + 1):
        while row.shape[1] > 1:
            row = row[:, 0::2] + row[:, 1::2]
        means[t - 1], seconds[t - 1] = row[:, 0] / 2.0**t


def _check_finite(oracle: str, columns: dict) -> None:
    """Raise NumericalFailureError at the first year, and column (name -> values), not finite."""
    for year, row in enumerate(zip(*columns.values()), 1):
        for name, value in zip(columns, row):
            if not math.isfinite(value):
                raise NumericalFailureError(f"{oracle} {name} leaves double range at year {year}")


def enumerate_exact(
    plan: PaymentPlan, spec: StochasticRateSpec, k
) -> tuple[float, float, float]:
    """Exact (mean, second moment, variance) of C_k over all 2^k paths."""
    result = enumerate_series(plan, spec, k)
    return result.mean[-1], result.second_moment[-1], result.variance[-1]


def _batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """SFC64 stream for one block of paths; depends only on (seed, block)."""
    import numpy as np
    sequence = np.random.SeedSequence(seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.SFC64(sequence))


def _central_sums(
    c: np.ndarray, d: np.ndarray, d2: np.ndarray
) -> tuple[float, float, float, float]:
    """Mean and central sums M2, M3, M4 of c, in two passes through scratch d and d2."""
    import numpy as np
    mean = c.mean()
    np.subtract(c, mean, out=d)
    np.square(d, out=d2)  # as d * d, bit for bit, but reads one operand
    m2 = d2.sum()
    d *= d2  # d2 * d, bit for bit
    m3 = d.sum()
    np.square(d2, out=d2)
    return mean, m2, m3, d2.sum()


def _merge_central(a: np.ndarray, n_a: int, b: np.ndarray, n_b: int) -> np.ndarray:
    """Mean and central sums M2-M4 of two disjoint samples of sizes n_a and n_b.

    a and b hold (mean, M2, M3, M4) along their first axis.  The pairwise
    update is Chan, Golub & LeVeque (1983) for M2 and Pebay (Sandia report
    SAND2008-6212, 2008) for M3 and M4; it adds no difference of raw power
    sums, so a small spread about a large mean keeps its digits.
    """
    import numpy as np
    mean_a, m2_a, m3_a, m4_a = a
    mean_b, m2_b, m3_b, m4_b = b
    n_a, n_b = float(n_a), float(n_b)
    n = n_a + n_b
    delta = mean_b - mean_a
    dn = delta / n
    return np.array([
        mean_a + n_b * dn,
        m2_a + m2_b + n_a * n_b * delta * dn,
        m3_a + m3_b + n_a * n_b * (n_a - n_b) * delta * dn * dn
        + 3.0 * dn * (n_a * m2_b - n_b * m2_a),
        m4_a + m4_b
        + n_a * n_b * (n_a * n_a - n_a * n_b + n_b * n_b) * delta * dn * dn * dn
        + 6.0 * dn * dn * (n_a * n_a * m2_b + n_b * n_b * m2_a)
        + 4.0 * dn * (n_a * m3_b - n_b * m3_a),
    ])


def _simulate_batch(
    plan: PaymentPlan,
    distribution: RateDistribution,
    seed: int,
    batch_index: int,
    k: int,
    scratch: np.ndarray,
) -> np.ndarray:
    """Per-year mean and central sums M2-M4 of the accumulated value over one block.

    scratch holds three rows of the block's size, for the balances and the
    two rows _central_sums writes.  Each year draws one row of the block's
    rates, updates the balances in place and reduces them, so a block holds
    a few rows of its paths whatever k is.
    """
    import numpy as np
    rng = _batch_generator(seed, batch_index)
    sums = np.empty((4, k))
    c, d, d2 = scratch
    c.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # per thread; simulate checks
        for t, gross in enumerate(distribution.gross_rows(rng, k, len(c))):
            c += plan._payment(t + 1)
            c *= gross
            sums[:, t] = _central_sums(c, d, d2)
    return sums


def simulate(
    plan: PaymentPlan,
    distribution: RateDistribution,
    config: SimConfig,
    k,
) -> SimulationResult:
    """Monte Carlo estimates of mean and variance of C_t for t = 1..k.

    Identical (seed, paths, plan, distribution) inputs give bit-identical
    results for any worker count: each block's stream depends only on
    (seed, block) and the blocks' central sums are merged in block order.
    """
    k = check_int(k, "k", 1, plan.n)
    # loaded here, before any worker thread imports it
    import numpy as np
    n = config.paths
    n_batches = (n + _BATCH_PATHS - 1) // _BATCH_PATHS

    def size(b: int) -> int:
        return min(_BATCH_PATHS, n - b * _BATCH_PATHS)

    # each thread keeps one scratch for all its blocks: a scratch allocated
    # per block makes malloc return and refault its pages block after block
    local = threading.local()

    def run(b: int) -> np.ndarray:
        if not hasattr(local, "scratch"):
            local.scratch = np.empty((3, min(n, _BATCH_PATHS)))
        return _simulate_batch(plan, distribution, config.seed, b, k, local.scratch[:, :size(b)])

    if config.workers > 1 and n_batches > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            batch_sums = list(pool.map(run, range(n_batches)))
    else:
        batch_sums = [run(b) for b in range(n_batches)]

    with np.errstate(over="ignore", invalid="ignore"):
        # a fixed merge order keeps results deterministic; every block before
        # the last is full
        totals = batch_sums[0]
        for b in range(1, n_batches):
            totals = _merge_central(totals, b * _BATCH_PATHS, batch_sums[b], size(b))

        mean, m2, _, m4 = totals
        var = m2 / (n - 1)
        m4 = m4 / n
        se_mean = np.sqrt(var / n)
        # Var(s^2) = (m4 - var^2)/n + 2 var^2/(n(n-1)), written so the second
        # term survives plug-in estimation: for the two-point rate at k = 1
        # the sample m4 tracks var^2 to O(1/n^2) and the difference alone
        # collapses to noise while the sample variance still fluctuates
        se_var = np.sqrt(
            np.maximum(m4 - var * var, 0.0) / n
            + 2.0 * var * var / (n * (n - 1.0))
        )
    columns = {"mean": mean, "variance": var, "variance's standard error": se_var}
    _check_finite(f"Monte Carlo ({distribution.kind})", columns)
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


def _years(analytic: MomentSeries, oracle):
    """(k, analytic mean, oracle mean, analytic variance, oracle variance) for each year."""
    for i in range(oracle.horizon):
        a_mean, a_var = float(analytic.mean[i]), float(analytic.variance[i])
        yield i + 1, a_mean, oracle.mean[i], a_var, oracle.variance[i]


def _comparison(
    source: str, k: int, a_mean: float, o_mean: float, a_var: float, o_var: float, passed: bool,
    *, mean_se=None, mean_z=None, var_se_rel=None, var_ratio=None,
) -> MomentComparison:
    """The comparison record at year k; enumeration leaves the Monte Carlo fields None."""
    return MomentComparison(
        k=k,
        source=source,
        analytic_mean=a_mean,
        oracle_mean=o_mean,
        mean_abs_dev=abs(a_mean - o_mean),
        mean_rel_dev=_rel_dev(a_mean, o_mean),
        analytic_variance=a_var,
        oracle_variance=o_var,
        var_abs_dev=abs(a_var - o_var),
        var_rel_dev=_rel_dev(a_var, o_var),
        mean_se=mean_se,
        mean_z=mean_z,
        var_se_rel=var_se_rel,
        var_ratio=var_ratio,
        passed=passed,
    )


def _compare_enumeration(
    analytic: MomentSeries, oracle: EnumerationResult
) -> list[MomentComparison]:
    out = []
    for k, a_mean, o_mean, a_var, o_var in _years(analytic, oracle):
        passed = _rel_dev(a_mean, o_mean) <= ENUM_REL_TOL and _rel_dev(a_var, o_var) <= ENUM_REL_TOL
        out.append(_comparison("enumeration", k, a_mean, o_mean, a_var, o_var, passed))
    return out


def _compare_simulation(
    analytic: MomentSeries, oracle: SimulationResult
) -> list[MomentComparison]:
    out = []
    for k, a_mean, o_mean, a_var, o_var in _years(analytic, oracle):
        se = oracle.se_mean[k - 1]
        if se > 1e-15:
            z = (o_mean - a_mean) / se
            mean_ok = abs(z) <= MEAN_Z_LIMIT
        else:
            # degenerate spread: demand near-exact agreement
            z = 0.0
            mean_ok = _rel_dev(a_mean, o_mean) <= ENUM_REL_TOL
        if a_var <= 1e-12 and o_var <= 1e-12:
            ratio, se_rel, var_ok = 1.0, 0.0, True
        elif a_var > 0.0:
            ratio = o_var / a_var
            se_rel = oracle.se_variance[k - 1] / a_var
            var_ok = abs(ratio - 1.0) <= VAR_BAND_SE_MULTIPLE * se_rel
        else:
            ratio, se_rel, var_ok = math.inf, math.inf, False
        out.append(
            _comparison(
                f"mc-{oracle.kind}", k, a_mean, o_mean, a_var, o_var, mean_ok and var_ok,
                mean_se=se, mean_z=z, var_se_rel=se_rel, var_ratio=ratio,
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
