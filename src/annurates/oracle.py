"""Independent checks of the analytic moments.

Two oracles are provided.  Exact enumeration walks every path of a two-point
rate (j - s or j + s each year, equally likely) and reproduces the moments
without any appeal to the closed forms.  Its time doubles with each year of
horizon, but it holds at most 2^12 balances per year: past that it walks the
paths depth first.  Monte Carlo simulates the same
accumulation under a chosen rate distribution in fixed-size blocks of paths.
Block b draws from its own SFC64 stream, seeded by SeedSequence(seed,
spawn_key=(b,)), and the blocks' means and central sums are merged in block
order, so estimates are bit-identical for any worker count.  A worker
advances a contiguous group of up to three blocks as one array, drawing and
accumulating one year at a time, so it holds a few arrays of its paths
whatever the horizon.  A lognormal rate is exp(m + sigma z) of a standard
normal z, formed in place in the year's array with numpy's exp: it is
numpy's lognormal sampler bit for bit where numpy's float64 exp is the C
library's, and within 1 ulp of it where numpy has a SIMD exp (AVX512F).

Both oracles import numpy when they are called, and simulate imports its
thread pool only for more than one worker, so importing the package loads
neither.  Sums past double range raise NumericalFailureError, not warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (DomainError, EnumerationBudgetError, NumericalFailureError,
                     ShapeMismatchError, check_int)
from .moments import MomentSeries, PaymentPlan
from .rates import StochasticRateSpec, stochastic_rate

if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

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

# A worker advances up to this many contiguous blocks as one (blocks, 2^14)
# array, so each year costs one numpy call per operation for the group, not
# one per block.  numpy releases the interpreter lock around each call, and
# two threads making calls on one block's rows (8-14 us each) spend most of
# their time handing the lock over.  3 scratch rows x 3 blocks x 128 KiB is
# about 1.1 MiB per worker, which fits a 2 MiB L2 cache.
_GROUP_BLOCKS = 3

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

    def gross_rows(
        self, rngs: Sequence[np.random.Generator], k: int, out: np.ndarray
    ) -> Iterator[np.ndarray]:
        """Fill out with each year's draws of 1 + i and yield it, k times.

        out is (len(rngs), size) and is overwritten each year: at year t, row
        g is bit for bit row t of one year-major (k, size) draw from the fresh
        generator rngs[g], so a group of blocks holds one year of its draws,
        not k.  A two-point draw takes one random bit and is exactly 1+j-s or
        1+j+s; row t takes its bits from bit t * size of the bytes of one
        integers(0, 256, uint8) draw of k * size bits.  That draw takes its
        bytes from 32-bit words, and SFC64 gives the low and then the high half
        of each 64-bit output as words, so the bytes are those of the raw
        64-bit outputs, little-endian.  They are drawn as a year first needs
        them, 16 KiB or more at a time, so memory does not grow with k.  A
        lognormal row is exp(m_ln + sigma z), z the row of a standard_normal
        draw, with sigma^2 = log1p(s2 / (1+j)^2) and m_ln = log(1+j) -
        sigma^2 / 2.  z * sigma + m_ln rounds as numpy's lognormal sampler
        forms loc + scale * z, so the row is Generator.lognormal(m_ln, sigma)
        on the same stream bit for bit where numpy's float64 exp is the C
        library's exp; where numpy uses its own SIMD exp (AVX512F hosts), a
        draw may differ from it by 1 ulp.
        """
        import numpy as np
        mu = 1.0 + self.j
        if self.kind == "two-point":
            s = math.sqrt(self.s2)
            blocks, size = out.shape
            total = (k * size + 7) // 8  # the bytes of the one draw
            # byte v's eight draws, most significant bit first as np.unpackbits
            # orders them: exactly 1+j-s for a 0 bit and 1+j+s for a 1
            bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
            table = np.where(bits == 1, mu + s, mu - s)
            # each generator's bytes first..drawn of its one draw
            packed, first = np.empty((blocks, 0), np.uint8), 0
            for start in range(0, k * size, size):
                lo, stop, skip = start // 8, (start + size + 7) // 8, start % 8
                drawn = first + packed.shape[1]
                if stop > drawn:
                    # never past the last output the one draw takes
                    words = (min(max(stop, drawn + (1 << 14)), total) - drawn + 7) // 8
                    fresh = np.stack([rng.bit_generator.random_raw(words) for rng in rngs])
                    fresh = fresh.astype("<u8", copy=False).view(np.uint8)
                    if lo < drawn:  # the row starts in bytes already drawn
                        fresh = np.concatenate((packed[:, lo - first:], fresh), axis=1)
                    packed, first = fresh, lo
                row_bytes = packed[:, lo - first:stop - first]
                if skip == 0 and size % 8 == 0:
                    # eight draws per byte straight into out, a view of it;
                    # mode "clip" skips take's buffering, and a byte is in range
                    np.take(table, row_bytes, axis=0, out=out.reshape(blocks, -1, 8), mode="clip")
                else:
                    draws = np.take(table, row_bytes, axis=0).reshape(blocks, -1)
                    out[...] = draws[:, skip:skip + size]
                yield out
        elif self.kind == "uniform":
            hw = math.sqrt(3.0 * self.s2)
            for _ in range(k):
                for rng, row in zip(rngs, out):
                    rng.random(out=row)
                # mu + hw * (2 r - 1), in place: r - 0.5 and 2 hw are exact, so
                # their product rounds the same real as hw * (2 r - 1)
                out -= 0.5
                out *= 2.0 * hw
                out += mu
                yield out
        else:
            sigma2 = math.log1p(self.s2 / (mu * mu))
            m_ln = math.log(mu) - 0.5 * sigma2
            sigma = math.sqrt(sigma2)
            for _ in range(k):
                for rng, row in zip(rngs, out):
                    rng.standard_normal(out=row)
                # exp(m_ln + sigma z) in place; an overflow is inf, which
                # simulate reports
                out *= sigma
                out += m_ln
                with np.errstate(over="ignore"):
                    np.exp(out, out=out)
                yield out


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean and central sums M2-M4 along c's last axis, in two passes through scratch d and d2.

    numpy sums a row of a (blocks, size) array pairwise along its contiguous
    axis as it sums the row alone, so each block's sums are bit for bit those
    of a 1-D c holding that block.
    """
    import numpy as np
    total = np.add.reduce  # what ndarray.sum and mean call, without their wrappers
    mean = total(c, axis=-1, keepdims=True)
    mean /= c.shape[-1]
    np.subtract(c, mean, out=d)
    np.square(d, out=d2)  # as d * d, bit for bit, but reads one operand
    m2 = total(d2, axis=-1)
    d *= d2  # d2 * d, bit for bit
    m3 = total(d, axis=-1)
    np.square(d2, out=d2)
    return mean[..., 0], m2, m3, total(d2, axis=-1)


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


def _block_groups(paths: int, workers: int) -> list[range]:
    """The blocks of simulate in the contiguous groups a worker advances as one.

    The full blocks split into groups of near-equal size, at most
    _GROUP_BLOCKS each, as many as a multiple of workers while there are
    blocks enough, so each worker gets the same work; a partial last block
    is a group of its own.
    """
    full, tail = divmod(paths, _BATCH_PATHS)
    count = min(full, -(-full // (_GROUP_BLOCKS * workers)) * workers)
    groups = [range(full * g // count, full * (g + 1) // count) for g in range(count)]
    if tail:
        groups.append(range(full, full + 1))
    return groups


def _simulate_group(
    plan: PaymentPlan,
    distribution: RateDistribution,
    seed: int,
    blocks: range,
    k: int,
    scratch: np.ndarray,
) -> np.ndarray:
    """Per-year mean and central sums M2-M4 of the accumulated value in each block of a group.

    blocks are contiguous blocks of one size; scratch holds three
    (len(blocks), size) arrays, for the balances, the draws and the second
    row _central_sums writes.  Each year draws one row of each block's rates
    into the draws' array, which is free again once the balances are
    updated, and reduces each block's balances, so the group costs one numpy
    call per operation and holds three rows of its paths whatever k is.
    Returns a (4, len(blocks), k) array.
    """
    import numpy as np
    rngs = [_batch_generator(seed, b) for b in blocks]
    sums = np.empty((4, len(blocks), k))
    c, d, d2 = scratch
    c.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # per thread; simulate checks
        for t, gross in enumerate(distribution.gross_rows(rngs, k, d)):
            c += plan._payment(t + 1)
            c *= gross
            sums[:, :, t] = _central_sums(c, d, d2)
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
    groups = _block_groups(n, config.workers)

    def size(b: int) -> int:
        return min(_BATCH_PATHS, n - b * _BATCH_PATHS)

    workers = min(config.workers, len(groups))

    # worker w advances groups w, w + workers, ... through one scratch: a
    # scratch allocated per group makes malloc return and refault its pages
    # group after group
    def share(w: int) -> list:
        scratch = np.empty((3, max(map(len, groups)), size(0)))
        return [
            _simulate_group(
                plan, distribution, config.seed, group, k,
                scratch[:, :len(group), :size(group.start)],
            )
            for group in groups[w::workers]
        ]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        # the calling thread is worker 0, so a call starts workers - 1 threads
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = pool.map(share, range(1, workers))
            shares = [share(0), *others]
    else:
        shares = [share(0)]
    group_sums = [None] * len(groups)
    for w, sums in enumerate(shares):
        group_sums[w::workers] = sums
    block_sums = np.concatenate(group_sums, axis=1)  # (4, blocks, k)

    with np.errstate(over="ignore", invalid="ignore"):
        # a fixed merge order keeps results deterministic; every block before
        # the last is full
        totals = block_sums[:, 0]
        for b in range(1, block_sums.shape[1]):
            totals = _merge_central(totals, b * _BATCH_PATHS, block_sums[:, b], size(b))

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
        # a spread this small is the roundoff of the central sums, which grows
        # with the mean, not a sampled one
        zero_spread = se <= 1e-15 * max(1.0, abs(a_mean))
        if zero_spread:
            # degenerate spread: demand near-exact agreement
            z = 0.0
            mean_ok = _rel_dev(a_mean, o_mean) <= ENUM_REL_TOL
        else:
            z = (o_mean - a_mean) / se
            mean_ok = abs(z) <= MEAN_Z_LIMIT
        if a_var <= 1e-12 and o_var <= 1e-12 or a_var == 0.0 and zero_spread:
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
    errors.  The oracle horizon must equal the analytic horizon, and each
    oracle must be an EnumerationResult or a SimulationResult.
    """
    results = oracle if isinstance(oracle, (list, tuple)) else [oracle]
    comparisons: list[MomentComparison] = []
    for result in results:
        if not isinstance(result, (EnumerationResult, SimulationResult)):
            raise DomainError(f"unsupported oracle result type {type(result)!r}")
        if result.horizon != analytic.horizon:
            raise ShapeMismatchError(
                f"oracle horizon {result.horizon} does not match analytic "
                f"horizon {analytic.horizon}"
            )
        enumerated = isinstance(result, EnumerationResult)
        judge = _compare_enumeration if enumerated else _compare_simulation
        comparisons.extend(judge(analytic, result))
    return OracleReport(
        comparisons=tuple(comparisons),
        passed=all(c.passed for c in comparisons),
    )
