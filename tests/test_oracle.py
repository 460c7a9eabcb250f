"""Enumeration and Monte Carlo oracles: exactness, determinism, judgment."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from annurates import (
    ENUMERATION_MAX_HORIZON,
    DomainError,
    EnumerationBudgetError,
    MomentSeries,
    PaymentPlan,
    RateDistribution,
    ShapeMismatchError,
    SimConfig,
    compare,
    enumerate_exact,
    enumerate_series,
    moment_series,
    simulate,
    stochastic_rate,
)
from annurates import oracle
from annurates.oracle import (
    _BATCH_PATHS,
    ENUM_REL_TOL,
    _batch_generator,
    _block_groups,
    _central_sums,
    _merge_central,
)

PLAN = PaymentPlan.increasing(10)
nan, inf = float("nan"), float("inf")
SPEC = stochastic_rate(0.1, 0.04)


class TestEnumeration:
    def test_matches_rational_enumeration(self):
        # same 2^k paths walked with exact rationals
        for k in (1, 2, 5, 8):
            got = enumerate_exact(PLAN, SPEC, k)
            want = oracles.two_point_moments(
                oracles.increasing_payments(k), Fraction(1, 10), Fraction(1, 5)
            )
            for g, w in zip(got, want):
                assert g == pytest.approx(float(w), rel=1e-12)

    def test_series_prefix_consistency(self):
        series = enumerate_series(PLAN, SPEC, 6)
        for k in (1, 3, 6):
            mean, second, var = enumerate_exact(PLAN, SPEC, k)
            assert series.mean[k - 1] == pytest.approx(mean, rel=1e-13)
            assert series.second_moment[k - 1] == pytest.approx(second, rel=1e-13)
            assert series.variance[k - 1] == pytest.approx(var, rel=1e-12)

    def test_degenerate_rate_single_path(self):
        spec = stochastic_rate(0.1, 0.0)
        mean, second, var = enumerate_exact(PLAN, spec, 5)
        assert var == 0.0
        assert second == pytest.approx(mean * mean, rel=1e-14)

    def test_budget_cap(self):
        plan = PaymentPlan.level(30)
        with pytest.raises(EnumerationBudgetError):
            enumerate_exact(plan, SPEC, 25)

    def test_support_validation(self):
        plan = PaymentPlan.level(4)
        wide = stochastic_rate(0.1, 1.44)  # j - s = -1.1
        with pytest.raises(DomainError):
            enumerate_exact(plan, wide, 4)
        # the rule and its message are RateDistribution's
        edge = stochastic_rate(0.0, 1.0)  # j - s = -1 exactly
        with pytest.raises(DomainError) as raised:
            enumerate_exact(plan, edge, 4)
        with pytest.raises(DomainError) as direct:
            RateDistribution.two_point(0.0, 1.0)
        assert str(raised.value) == str(direct.value)
        assert str(raised.value).endswith("(lowest rate -1.0); reduce s2")


def _plans(k):
    """Every payment family at horizon k, with signed and geometric payments."""
    payment = st.floats(min_value=-5.0, max_value=5.0)
    return st.one_of(
        st.just(PaymentPlan.level(k)),
        st.just(PaymentPlan.increasing(k)),
        st.integers(min_value=k, max_value=k + 10).map(PaymentPlan.decreasing),
        st.floats(min_value=-0.5, max_value=0.5).map(lambda u: PaymentPlan.growth(u, k)),
        # non-strict, so the payments may change sign along the way
        st.tuples(payment, st.floats(min_value=-1.0, max_value=1.0)).map(
            lambda pq: PaymentPlan.arithmetic(*pq, k, strict=False)
        ),
        st.tuples(
            st.floats(min_value=0.1, max_value=5.0),
            st.floats(min_value=0.5, max_value=0.99) | st.floats(min_value=1.01, max_value=1.5),
        ).map(lambda pq: PaymentPlan.geometric(*pq, k)),
    )


class TestEnumerationLoop:
    """enumerate_series against the all-lanes loop it replaced, bit for bit.

    The loop keeps only the 2^t distinct year-t balances and relies on
    numpy's pairwise summation to sum them as it sums all 2^k lanes; k up
    to 16 covers distinct-balance counts below, at and above its 128-wide
    block.  Past 2^12 balances it walks the later years depth first, in
    subtrees of 2^12; the k = 20 cases walk 8 years that way, and the walk
    property narrows the subtrees to 2^7 and 2^8 so k up to 16 walks up to
    9 years, down to the narrowest subtree the summation argument allows.
    """

    @staticmethod
    def _fields(result):
        return (result.mean, result.second_moment, result.variance)

    @given(
        st.integers(min_value=1, max_value=16).flatmap(lambda k: st.tuples(st.just(k), _plans(k))),
        st.floats(min_value=-0.9, max_value=1.0),
        st.sampled_from([0.0, 1e-14]) | st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_all_lanes(self, horizon_plan, j, s2):
        k, plan = horizon_plan
        assume(j - math.sqrt(s2) > -1.0)
        spec = stochastic_rate(j, s2)
        got = self._fields(enumerate_series(plan, spec, k))
        assert got == oracles.two_point_lanes(plan, spec, k)

    @pytest.mark.parametrize("bits", [7, 8])
    @given(
        st.data(),
        st.floats(min_value=-0.9, max_value=1.0),
        st.sampled_from([0.0, 1e-14]) | st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_walk_bit_equal_to_all_lanes(self, bits, data, j, s2):
        # from one year short of a subtree, so most draws walk some years
        k = data.draw(st.integers(min_value=bits - 1, max_value=16), label="k")
        plan = data.draw(_plans(k), label="plan")
        assume(j - math.sqrt(s2) > -1.0)
        spec = stochastic_rate(j, s2)
        # patched here, not by a fixture, so every example sees it
        with mock.patch.object(oracle, "_SUBTREE_BITS", bits):
            got = self._fields(enumerate_series(plan, spec, k))
        assert got == oracles.two_point_lanes(plan, spec, k)

    def test_bit_equal_at_k20(self):
        plan = PaymentPlan.arithmetic(3.0, -0.25, 20, strict=False)
        spec = stochastic_rate(0.04, 0.03)
        got = self._fields(enumerate_series(plan, spec, 20))
        assert got == oracles.two_point_lanes(plan, spec, 20)

    def test_bit_equal_at_k20_geometric(self):
        plan = PaymentPlan.geometric(2.0, 0.9, 20)
        spec = stochastic_rate(0.06, 0.05)
        got = self._fields(enumerate_series(plan, spec, 20))
        assert got == oracles.two_point_lanes(plan, spec, 20)

    def test_horizon_cap_matches_recursion(self):
        # 2^24 paths; on a 2-core Xeon the all-lanes loop took 6.5 s and its
        # arrays peaked at 528 MiB; the breadth-first loop that followed it
        # took 0.30 s and 256 MiB, and this walk takes 0.16 s and 1 MiB
        k = ENUMERATION_MAX_HORIZON
        plan = PaymentPlan.level(k)
        spec = stochastic_rate(0.05, 0.01)
        tracemalloc.start()
        try:
            result = enumerate_series(plan, spec, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few arrays of 2^12 doubles for each year walked depth first
        assert peak <= 2**23
        want = moment_series(plan, spec, "recursive")
        for got, ref in ((result.mean, want.mean), (result.variance, want.variance)):
            assert np.allclose(got, ref, rtol=ENUM_REL_TOL, atol=0.0)


def _year_major(dist, rng, k, size):
    """The sampler's k rows of size draws from one generator, stacked year-major."""
    return np.stack([rows[0].copy() for rows in dist.gross_rows([rng], k, np.empty((1, size)))])


def _sums(block):
    return np.array(_central_sums(block, np.empty_like(block), np.empty_like(block)))


class TestRateDistribution:
    def test_support_rules(self):
        RateDistribution.two_point(0.1, 0.04)
        with pytest.raises(DomainError):
            RateDistribution.two_point(0.1, 1.44)
        with pytest.raises(DomainError):
            RateDistribution.uniform(0.1, 0.45)  # j - sqrt(3 s2) < -1
        # lognormal support is all of 1+i > 0 regardless of s2
        RateDistribution.lognormal(0.1, 1.44)

    def test_lognormal_lowest_rate(self):
        # 1 + i is positive with support down to 0, unless it is degenerate at 1+j
        assert RateDistribution.lognormal(0.05, 0.01).lowest_rate() == -1.0
        assert RateDistribution.lognormal(0.05, 0.0).lowest_rate() == 0.05

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            RateDistribution(kind="triangular", j=0.1, s2=0.01)

    @pytest.mark.parametrize("kind", ["two-point", "uniform", "lognormal"])
    @pytest.mark.parametrize(
        "j, s2",
        [(nan, 0.01), (inf, 0.01), (-inf, 0.01), (0.1, nan), (0.1, inf)],
    )
    def test_rejects_non_finite_parameters(self, kind, j, s2):
        with pytest.raises(DomainError):
            RateDistribution(kind=kind, j=j, s2=s2)

    @pytest.mark.parametrize("kind", ["two-point", "uniform", "lognormal"])
    def test_moment_matching(self, kind):
        # each distribution must hit the requested mean and variance, drawn
        # year-major through the generator simulate uses
        dist = RateDistribution(kind=kind, j=0.07, s2=0.03)
        draws = _year_major(dist, _batch_generator(99, 0), 20, 20_000)
        assert draws.shape == (20, 20_000)
        assert draws.min() > 0.0
        assert draws.mean() == pytest.approx(1.07, abs=6 * np.sqrt(0.03 / 400_000))
        assert draws.var(ddof=1) == pytest.approx(0.03, rel=0.05)

    def test_two_point_draws_are_the_exact_support(self):
        # 400,003 draws: the last byte's unpacked bits are cut at the count
        dist = RateDistribution.two_point(0.07, 0.03)
        low, high = 1.07 - math.sqrt(0.03), 1.07 + math.sqrt(0.03)
        draws = _year_major(dist, _batch_generator(99, 0), 7, 57_143)
        values, counts = np.unique(draws, return_counts=True)
        assert values.tolist() == [low, high]
        # a fair coin's share of highs is within 6 standard errors of 1/2
        assert abs(counts[1] / draws.size - 0.5) <= 6 * 0.5 / math.sqrt(draws.size)

    @pytest.mark.parametrize("kind", ["two-point", "uniform", "lognormal"])
    @pytest.mark.parametrize("size", [3, 8, 1696, 16384])
    @pytest.mark.parametrize("k", [1, 7, 20, 100])
    def test_rows_are_one_year_major_draw(self, kind, size, k):
        # each generator's rows, stacked, are one (k, size) draw built here
        # from numpy's samplers alone, whether it fills its rows alone or in a
        # group of three; a size that is not a multiple of 8 starts rows
        # inside a random byte
        dist = RateDistribution(kind=kind, j=0.07, s2=0.03)
        mu, shape = 1.0 + 0.07, (k, size)
        for blocks in (1, 3):
            rows = [[] for _ in range(blocks)]
            group = [_batch_generator(5, 2 + g) for g in range(blocks)]
            for year in dist.gross_rows(group, k, np.empty((blocks, size))):
                for g in range(blocks):
                    rows[g].append(year[g].copy())
            for g in range(blocks):
                rng = _batch_generator(5, 2 + g)
                if kind == "two-point":
                    packed = rng.integers(0, 256, size=(k * size + 7) // 8, dtype=np.uint8)
                    bits = np.unpackbits(packed, count=k * size).reshape(shape)
                    s = math.sqrt(0.03)
                    want = np.where(bits == 1, mu + s, mu - s)
                elif kind == "uniform":
                    want = mu + math.sqrt(3.0 * 0.03) * (2.0 * rng.random(size=shape) - 1.0)
                else:
                    sigma2 = math.log1p(0.03 / (mu * mu))
                    want = rng.lognormal(
                        mean=math.log(mu) - 0.5 * sigma2, sigma=math.sqrt(sigma2), size=shape
                    )
                assert all(row.dtype == np.float64 and row.shape == (size,) for row in rows[g])
                assert np.array_equal(np.stack(rows[g]).view(np.uint64), want.view(np.uint64))


def _finite(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


class TestCentralSums:
    """Blocks' central sums merged in block order against one pass over all paths."""

    @given(
        st.lists(st.lists(_finite(-1.0, 1.0), min_size=1, max_size=40), min_size=1, max_size=8),
        _finite(-1e3, 1e3),
        _finite(1e-8, 1e3),
    )
    @example(blocks=[[0.5, -0.25, 1.0], [0.75], [-1.0, 0.125]], loc=1e3, spread=1e-8)
    @example(blocks=[[0.3], [0.9], [-0.2, 0.4, 0.1, -0.7]], loc=1.05, spread=1e-7)
    # M3 is subnormal here: 1.5e-320 against the reference's 1.4995e-320
    @example(blocks=[[0.0], [0.0, 0.0, 3.420044910637537e-99]], loc=0.0, spread=1e-08)
    # the mean is subnormal here: the merged mean and fsum(x) / len(x) sit
    # half an ulp of 0.0 from the exact mean, on opposite sides
    @example(blocks=[[1.8904429435108124e-302], [0.0]], loc=0.0, spread=1e-08)
    @example(blocks=[[1.3781955298125378e-306], [0.0]], loc=0.0, spread=1e-08)
    @settings(max_examples=300, deadline=None)
    def test_merged_blocks_match_one_two_pass_sum(self, blocks, loc, spread):
        blocks = [loc + spread * np.array(block) for block in blocks]
        merged, count = _sums(blocks[0]), len(blocks[0])
        for block in blocks[1:]:
            merged = _merge_central(merged, count, _sums(block), len(block))
            count += len(block)
        # the reference: two passes over all paths with exactly rounded sums
        x = np.concatenate(blocks)
        mean = math.fsum(x) / len(x)
        d = [v - mean for v in x.tolist()]
        # the merged mean is good to a few ulps of the data, and an error e in
        # the mean moves each deviation by e; the sums must agree to 1e-12 of
        # sum |d|^p beyond what that alone can move.  A result that underflows
        # to a subnormal carries an absolute rounding error of up to half of
        # math.ulp(0.0) per operation, which no relative allowance covers,
        # so a few such ulps per path are allowed on top; the mean is held to
        # the exact mean, as fsum(x) / len(x) is itself rounded
        e = 64 * 2.0**-53 * float(np.max(np.abs(x)))
        underflow = 4 * len(x) * math.ulp(0.0)
        exact = sum(map(Fraction, x.tolist())) / len(x)
        assert abs(Fraction(float(merged[0])) - exact) <= Fraction(e) + Fraction(underflow)
        for p, got in zip((2, 3, 4), merged[1:]):
            want = math.fsum(v**p for v in d)
            scale = math.fsum(abs(v) ** p for v in d)
            shifted = math.fsum((abs(v) + e) ** p for v in d)
            assert abs(got - want) <= 1e-12 * scale + (shifted - scale) + underflow, p


def _block_by_block(plan, dist, seed, paths, k):
    """simulate's estimates from its definition: each block's year-major rows
    and its central sums per year, merged in block order."""
    totals = None
    for b, start in enumerate(range(0, paths, _BATCH_PATHS)):
        size = min(_BATCH_PATHS, paths - start)
        gross = _year_major(dist, _batch_generator(seed, b), k, size)
        c = np.zeros(size)
        sums = np.empty((4, k))
        for t in range(k):
            c = (c + plan.payment(t + 1)) * gross[t]
            sums[:, t] = _sums(c)
        totals = sums if totals is None else _merge_central(totals, start, sums, size)
    mean, m2, _, m4 = totals
    var = m2 / (paths - 1)
    m4 = m4 / paths
    se_var = np.sqrt(
        np.maximum(m4 - var * var, 0.0) / paths + 2.0 * var * var / (paths * (paths - 1.0))
    )
    return tuple(tuple(x.tolist()) for x in (mean, var, np.sqrt(var / paths), se_var))


class TestSimulate:
    def test_worker_count_does_not_change_results(self):
        # three blocks, the last of 3 paths: 30 two-point bits, not whole bytes
        paths = 2 * _BATCH_PATHS + 3
        for kind in ("two-point", "uniform", "lognormal"):
            dist = RateDistribution(kind=kind, j=0.1, s2=0.04)
            results = [
                simulate(PLAN, dist, SimConfig(paths=paths, seed=31, workers=workers), 10)
                for workers in (1, 2, 5)
            ]
            assert results[1] == results[0] and results[2] == results[0], kind

    @pytest.mark.parametrize("kind", ["two-point", "uniform", "lognormal"])
    def test_stacked_groups_are_the_per_block_definition(self, kind):
        # 6 full blocks and a tail of 1,696 paths (verify's 10^5 paths), and 7
        # full blocks, advanced in groups of up to three blocks by 1, 2 and 3
        # workers
        plan = PaymentPlan.increasing(6)
        dist = RateDistribution(kind=kind, j=0.05, s2=0.01)
        for paths in (6 * _BATCH_PATHS + 1696, 7 * _BATCH_PATHS):
            want = _block_by_block(plan, dist, 13, paths, 6)
            for workers in (1, 2, 3):
                got = simulate(plan, dist, SimConfig(paths=paths, seed=13, workers=workers), 6)
                fields = (got.mean, got.variance, got.se_mean, got.se_variance)
                assert fields == want, (paths, workers)

    def test_block_groups(self):
        # the full blocks in order, in near-equal groups of at most three, as
        # many as a multiple of workers while blocks last; a partial last
        # block is a group of its own
        assert [len(g) for g in _block_groups(10**5, 1)] == [3, 3, 1]
        assert [len(g) for g in _block_groups(10**5, 2)] == [3, 3, 1]
        for full_blocks, tail in ((0, 2), (1, 0), (2, 3), (7, 0), (100, 1)):
            paths = full_blocks * _BATCH_PATHS + tail
            for workers in (1, 2, 3, 5):
                groups = _block_groups(paths, workers)
                assert [b for g in groups for b in g] == list(range(full_blocks + (tail > 0)))
                full = [len(g) for g in groups[:len(groups) - (tail > 0)]]
                assert max(full, default=1) <= 3
                assert max(full, default=0) - min(full, default=0) <= 1
                assert len(full) % workers == 0 or len(full) == full_blocks
                if tail:
                    assert len(groups[-1]) == 1

    def test_one_block_is_its_sample_statistics(self):
        # a single block draws year-major from stream (seed, 0) and reports
        # the sample mean and variance of those paths
        dist = RateDistribution.lognormal(0.1, 0.04)
        paths = 1000
        result = simulate(PLAN, dist, SimConfig(paths=paths, seed=8), 10)
        gross = _year_major(dist, _batch_generator(8, 0), 10, paths)
        c = np.zeros(paths)
        for t in range(10):
            c = (c + PLAN.payment(t + 1)) * gross[t]
            assert result.mean[t] == pytest.approx(c.mean(), rel=1e-14)
            assert result.variance[t] == pytest.approx(c.var(ddof=1), rel=1e-12)

    @pytest.mark.parametrize("kind", ["two-point", "uniform", "lognormal"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_horizon(self, kind, workers):
        # each block draws and reduces one year row at a time, so it holds a
        # few rows of 2^14 doubles at any horizon; drawing a whole (k, 2^14)
        # block first peaked at 13-29 MiB here
        plan = PaymentPlan.level(100)
        dist = RateDistribution(kind=kind, j=0.05, s2=0.01)
        config = SimConfig(paths=10**5, seed=3, workers=workers)
        simulate(plan, dist, SimConfig(paths=20, seed=3), 2)  # imports numpy.random
        tracemalloc.start()
        try:
            simulate(plan, dist, config, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**22

    def test_two_point_memory_is_flat_in_the_horizon(self):
        # the bits are drawn as the years reach them, 16 KiB at a time;
        # drawing all k years' bits up front took 0.75 MiB at n = 20 and
        # 1.56 MiB at n = 400
        dist = RateDistribution.two_point(0.05, 0.01)
        config = SimConfig(paths=10**5, seed=3)
        simulate(PaymentPlan.level(2), dist, SimConfig(paths=20, seed=3), 2)  # imports numpy.random
        peaks = []
        for n in (20, 400):
            tracemalloc.start()
            try:
                simulate(PaymentPlan.level(n), dist, config, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**18, peaks

    def test_seed_changes_results(self):
        dist = RateDistribution.uniform(0.1, 0.04)
        a = simulate(PLAN, dist, SimConfig(paths=20_000, seed=1), 10)
        b = simulate(PLAN, dist, SimConfig(paths=20_000, seed=2), 10)
        assert a.mean != b.mean

    def test_partial_batch_tail(self):
        # path counts that do not divide the block size must still reduce cleanly
        dist = RateDistribution.two_point(0.1, 0.04)
        result = simulate(PLAN, dist, SimConfig(paths=(1 << 14) + 7, seed=5), 10)
        assert result.paths == (1 << 14) + 7
        assert all(np.isfinite(result.mean))

    def test_variance_se_positive_for_two_point_first_year(self):
        # at k=1 the fourth central moment equals var^2; the error of the
        # sample variance is then chi-square order and must not report as 0
        dist = RateDistribution.two_point(0.1, 0.04)
        result = simulate(PLAN, dist, SimConfig(paths=100_000, seed=11), 10)
        assert result.se_variance[0] > 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(paths=0, seed=1)
        # one path has no sample variance
        with pytest.raises(DomainError, match="paths must be at least 2, got 1"):
            SimConfig(paths=1, seed=1)
        SimConfig(paths=2, seed=1)
        with pytest.raises(DomainError):
            SimConfig(paths=100, seed=-1)
        with pytest.raises(DomainError):
            SimConfig(paths=100, seed=1, workers=0)


class TestCompare:
    def test_enumeration_judgment(self):
        analytic = moment_series(PLAN, SPEC, "recursive")
        report = compare(analytic, enumerate_series(PLAN, SPEC, 10))
        assert report.passed
        assert all(c.source == "enumeration" for c in report.comparisons)

    @pytest.mark.parametrize("kind", ["two-point", "uniform", "lognormal"])
    def test_simulation_judgment(self, kind):
        analytic = moment_series(PLAN, SPEC, "closed")
        dist = RateDistribution(kind=kind, j=0.1, s2=0.04)
        sim = simulate(PLAN, dist, SimConfig(paths=200_000, seed=7, workers=2), 10)
        report = compare(analytic, sim)
        assert report.passed
        assert all(abs(c.mean_z) <= 4.0 for c in report.comparisons)

    def test_detects_a_wrong_mean(self):
        analytic = moment_series(PLAN, SPEC, "recursive")
        corrupted = MomentSeries(
            plan=analytic.plan,
            spec=analytic.spec,
            method=analytic.method,
            mean=analytic.mean * 1.01,
            second_moment=analytic.second_moment,
            variance=analytic.variance,
            diagonal=analytic.diagonal,
            cross=analytic.cross,
        )
        sim = simulate(
            PLAN, RateDistribution.uniform(0.1, 0.04), SimConfig(paths=100_000, seed=3), 10
        )
        assert not compare(corrupted, sim).passed

    def test_detects_a_wrong_variance(self):
        analytic = moment_series(PLAN, SPEC, "recursive")
        corrupted = MomentSeries(
            plan=analytic.plan,
            spec=analytic.spec,
            method=analytic.method,
            mean=analytic.mean,
            second_moment=analytic.second_moment,
            variance=analytic.variance * 1.05,
            diagonal=analytic.diagonal,
            cross=analytic.cross,
        )
        report = compare(corrupted, enumerate_series(PLAN, SPEC, 10))
        assert not report.passed

    def test_zero_rate_variance_judges_the_mean_by_the_enumeration_tolerance(self):
        # every path is the same, so the standard error is at most roundoff
        # and no z-score is formed
        analytic = moment_series(PLAN, stochastic_rate(0.05, 0.0), "closed")
        sim = simulate(PLAN, RateDistribution.two_point(0.05, 0.0), SimConfig(paths=1000, seed=1), 10)
        report = compare(analytic, sim)
        assert report.passed
        for c in report.comparisons:
            assert c.mean_se <= 1e-15
            assert (c.mean_z, c.var_ratio, c.var_se_rel) == (0.0, 1.0, 0.0)
        shifted = MomentSeries(
            plan=analytic.plan,
            spec=analytic.spec,
            method=analytic.method,
            mean=analytic.mean * (1.0 + 2.0 * ENUM_REL_TOL),
            second_moment=analytic.second_moment,
            variance=analytic.variance,
            diagonal=analytic.diagonal,
            cross=analytic.cross,
        )
        assert not any(c.passed for c in compare(shifted, sim).comparisons)

    def test_positive_simulated_variance_against_a_zero_analytic_variance_fails(self):
        analytic = moment_series(PLAN, stochastic_rate(0.1, 0.0), "closed")
        sim = simulate(PLAN, RateDistribution.uniform(0.1, 0.04), SimConfig(paths=2000, seed=5), 10)
        report = compare(analytic, sim)
        assert not report.passed
        for c in report.comparisons:
            assert (c.var_ratio, c.var_se_rel, c.passed) == (inf, inf, False)

    @pytest.mark.parametrize("oracle_result", [object(), [object()]], ids=["alone", "in-a-list"])
    def test_rejects_an_unsupported_oracle(self, oracle_result):
        # an object without a horizon raised AttributeError
        analytic = moment_series(PLAN, SPEC, "recursive")
        with pytest.raises(DomainError, match="^unsupported oracle result type <class 'object'>$"):
            compare(analytic, oracle_result)

    def test_horizon_mismatch(self):
        analytic = moment_series(PaymentPlan.increasing(8), SPEC, "recursive")
        with pytest.raises(ShapeMismatchError):
            compare(analytic, enumerate_series(PLAN, SPEC, 10))

    def test_mixed_oracle_list(self):
        analytic = moment_series(PLAN, SPEC, "closed")
        sims = [
            enumerate_series(PLAN, SPEC, 10),
            simulate(PLAN, RateDistribution.lognormal(0.1, 0.04), SimConfig(paths=100_000, seed=17), 10),
        ]
        report = compare(analytic, sims)
        assert report.passed
        assert len(report.comparisons) == 20
