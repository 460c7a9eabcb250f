"""Golden CLI outputs: the SHA-256 of stdout and the exit code of fixed commands.

A digest changes with any byte of the report, so a refactor that claims to
leave results alone must keep every digest.  A change of output that is
intended updates the digest together with a note of why it moved.

The digests were recorded with numpy 2.4.6 on Linux x86-64 (glibc).  The
closed forms go through the platform's libm, and the Monte Carlo part of the
verify report follows numpy's SFC64 and SeedSequence streams and its
standard normal sampler, which numpy does not promise to keep from one
release to the next; the CI workflow pins numpy for that reason.  A digest
that moves only with such an upgrade is re-recorded, not a regression.

Lognormal Monte Carlo rates go through numpy's float64 exp, which is the C
library's exp on most hosts but numpy's own SIMD exp, within 1 ulp of it, on
hosts with AVX512F.  So each verify command has two digests, and
EXP_IS_LIBM, a probe of np.exp against math.exp on fixed arguments, picks
one.  The libm digests are those recorded before lognormal rows were formed
in place; the SIMD ones were recorded on an AVX512F host when they were.  A
host whose exp is neither matches no digest, and that is a finding, not a
digest to accept.

Four digests were re-recorded when the arithmetic closed forms began to read
their increasing and squared-increasing annuity values from exact prefix
sums rounded once (fixed._sum_tables) instead of an fsum of rounded
products: the increasing, arithmetic and decreasing moments tables and the
increasing verify report.  Those entries differ from the old ones by at most
1 ulp, which moves some second moments by up to 8 ulps and some variances,
which cancel, by up to 6e-13 of themselves.  No mean moved, and the worst
error against the exact rational recursion, over these commands and the
identity grids, is the same before and after.

The identities digest was re-recorded when the stochastic suite began to
audit moment_series(plan, spec, "closed"), the series the moments command
prints, instead of the same closed formulas evaluated on per-year mode
"sum" annuity values.  Two worst deviations moved, well inside their
tolerances: arithmetic-variance-closed-vs-recursive from 2.4495028630520957e-11
to 2.4864504912045573e-11 (tol 1e-9) and arithmetic-decomposition from
1.9898444003629834e-11 to 2.2605077456667796e-11 (tol 1e-10).  Their worst
cases read a table entry that is correctly rounded and 1 ulp away from the
per-year sum.  Every name, case count, tolerance and row position is unchanged.

The last three digests were recorded before the per-cell renderers gave way
to one table renderer, so that every command is pinned in both formats: the
JSON fixed table (with its list field "columns"), the CSV verify report (str,
bool and empty cells) and the JSON identities report.  The verify command
above already pins the JSON verify report, its default format.

LIBRARY_GRID_DIGEST pins the library itself the same way: the bits of every
public value function, or the exception it raises, over a seeded grid of
1,200 cases (_library_grid).  It was recorded before the per-series kernels
replaced the per-k calls of the public accumulators, and neither they nor
the accumulator builders that later replaced them moved it.

EDGE_GRID_DIGEST pins the order of the fixed-rate accumulators' checks:
LIBRARY_GRID_DIGEST calls them only in valid modes and with strict=False,
so it never sees which of an invalid rate, horizon, payment or mode raises
first.  It was recorded before the accumulators became builders of
functions of k, and the builders left it unchanged.

EDGE_GRID_DIGEST was re-recorded when an explicit mode "sum" came under the
same overflow guard as the closed forms.  63 lines moved, every one a mode
"sum" call at k = 1746 or 1800 that now raises NumericalFailureError naming
the largest horizon that fits (1729 to 1751), and nothing else did.  Before,
26 of them, at j = 0.5 and of every accumulator, raised OverflowError from
fsum's intermediate overflow; 30, geometric and growth with q = 1.5 at each
rate but -1.0, raised OverflowError from q**i; two geometric calls at
j = 0.5 with q = -0.5 raised ValueError ("-inf + inf in fsum"); and five
geometric and arithmetic calls at j = 0.5 with p or q zero returned NaN.

EDGE_GRID_DIGEST was re-recorded again when a zero payment stopped adding
0 * inf: mode "sum" leaves zero payments out, and geometric_due with p = 0
is zero in every mode.  33 lines moved, each a non-strict call with p = 0
that now returns 0.0, and nothing else did.  32 are geometric_due:
q = 1.5 at k = 1800 in modes auto, closed, recursive and sum at each of
j = 0.0, 1e-10, 0.05, -0.1 and 0.5, where j = 0.5 meets it twice (q = 1.5
and q = 1+j); q = 1.5 in mode closed at j = 0.5 and k = 1746, twice the
same way; and q = 0.0 and -0.5 at j = 0.5 and k = 1800 in modes auto,
closed and sum.  The 33rd is arithmetic_due(0.0, 0.0, 1800, 0.5, 'sum').
Before, the six mode "recursive" calls returned NaN (0 * inf in the
payment list) and the other 27 raised NumericalFailureError.

Six digests were re-recorded when the recursion began to carry the variance
by its own recursion, var_k = m var_{k-1} + s2 (mu_{k-1} + c_k)^2, instead
of m_k - mu_k^2 clamped at zero; when the closed variance came to be settled
within 2.5e-11 relative to that variance, with no floor at 1; and when the
closed geometric mean inside the band q = 1+j became the recursion's row:
the three moments commands with --method both, identities in CSV and in
JSON, and LIBRARY_GRID_DIGEST.  1,261 of the grid's 24,982 lines moved (a
diff of `PYTHONPATH=src python3 tests/test_golden.py library` at the two
commits lists them).  Per function, with the worst relative error of the
moved values against the exact rational recursion, before and after:
moment_series 500 (closed variance 25 to 2.5e-11, recursive variance 9.5e-4
to 4.7e-14); variance_closed 418 (1 to 8.4e-12); increasing_moments 71,
level_moments 69 and growth_moments 65 (variance 8.8e-6 to 9.9e-15, 3.0e-6
to 1.1e-14 and 2.2e-6 to 1.2e-14 where s2 > 0; the other 23 lines are at
s2 = 0, where a nonzero variance kept by the old absolute settlement is now
0.0); decreasing_moments 44 (variance 6.8e-9 to 2.2e-14); and mean_closed
and mean_squared_closed 47 each, all band geometric plans (1.23e-14 to
1.27e-14 and 2.46e-14 to 2.53e-14).  No other value's worst error moved.
Three decreasing_moments lines at s2 = 1e-8, (n, k) = (33, 30) at j = 0.1
and (103, 100) at j = 0.9 and 0.05, raised a false FormulaAuditError, the
specialized variance audited against a reference that cancelled; they now
return variances within 2.3e-14 of exact.  Six worst deviations of the
identities report moved, each inside its unchanged tolerance:
arithmetic-variance-closed-vs-recursive 2.4864504912045573e-11 to
2.4882951066224994e-11, geometric-variance-closed-vs-recursive
1.1583881287462422e-11 to 1.1573281270147536e-11, and the
special-vs-general checks of level 1.9099388737231493e-11 to
1.0529815172653234e-12, increasing 2.347100291899551e-11 to
2.254646464631249e-11, decreasing 2.441915567014368e-11 to
2.4432105222392684e-11 and growth 2.1827872842550278e-11 to
6.883382752675971e-13.

The two digests of `verify --family increasing --n 8 --j 0.1 --s2 0.04
--paths 2e4`, JSON and CSV, were re-recorded when the Monte Carlo changed
both its streams and its estimator: block b now draws from
SFC64(SeedSequence(seed, spawn_key=(b,))) instead of a Philox substream,
year-major, with two-point draws unpacked from random bytes, and the
variance comes from each block's central sums merged in block order (Chan,
Golub & LeVeque; Pebay) instead of raw power sums, S2 - n mean^2.  Every
field of the 24 Monte Carlo rows that depends on the draws moved; the 8
enumeration rows and every analytic value did not, and the report still
passes.  The worst |z| of a mean went from 1.54 to 1.45 (two-point), 1.79
to 2.60 (uniform) and 1.78 to 1.04 (lognormal), against a limit of 4, and
the worst |ratio - 1| of a variance, in standard errors, from 1.84 to 2.74,
1.06 to 1.74 and 1.42 to 1.78, against a limit of 6.

No digest moved when each numerical decision got one home: the singular
bands in rates.singular and rates.geometric_singular, the double-range test
in fixed._fits, the comparison record in oracle._comparison and the report
format in cli._emit; nor when the band recursion began to keep one pass's
values and the closed geometric kernels to cache each accumulator's year.

Four digests were re-recorded when mode "auto" of the geometric accumulator
began to take the closed quotient at every ratio, where it had summed every
year afresh inside the band |1+j-q| < 1e-9*max(1,q): the two identities
reports, whose geometric-evaluators row now also checks mode "closed" at
q = 1+j (cases 3,362 to 3,690, worst deviation 1.4809397417333806e-15
unchanged), LIBRARY_GRID_DIGEST (69 of 24,982 lines) and EDGE_GRID_DIGEST
(35 of 11,385 lines, every one a value before and after).  Per function,
with the worst relative error of the moved values, in units of 2^-53,
against exact rational arithmetic at the accumulator's own rounded inputs
(gross rate 1.0 + j; for the diagonal, p*p and q*q at 1.0 + f), before and
after: geometric_due 52 (48.6 to 1.96), growth_due 19 (48.6 to 1.24),
second_moment_diagonal 18 (5.12 to 1.75) and moment_series 15, only its
diagonal column (5.93 to 3.62).  The worst errors fall, but a sum of few
terms rounds less than the quotient: 3 geometric_due, 8
second_moment_diagonal and 10 moment_series lines, all at horizons up to
347, rise from at most 2.94 to at most 3.42.  Against the exact moment
recursion, where rounding q*q and 1 + f dominates, the moved diagonal values'
worst goes from 308.8 to 310.4.

Nine digests were re-recorded when the closed squared mean became the closed
mean squared.  Before, arithmetic plans summed six terms over annuity values
at j up to year 2k, and geometric plans divided by 1+j-q a form that read
the mean at years k and 2k.  The nine are the increasing, arithmetic,
decreasing and growth moments tables, both verify reports, both identities
reports and LIBRARY_GRID_DIGEST.  In the moments and verify reports only the
closed variance and the fields computed from it moved; no mean or second
moment did.  Worst relative error of the closed variance column against the
exact rational recursion, before and after: increasing, 30 of 30 rows moved
(1.26e-12 to 8.32e-13); arithmetic, 60 of 60 (1.58e-11 to 6.55e-12);
decreasing, 22 of 25 (3.27e-12 to 3.64e-12); growth, 24 of 25 (5.27e-12 to
6.97e-12); and the verify reports' 8 of 8 (1.26e-12 to 8.32e-13).  1,007 of
the grid's 24,982 lines moved, none from a value to a raise or back.  Per
function, with the worst relative error of the moved values against the
exact rational recursion, before and after: mean_squared_closed 658
(1.31e-4 to 3.65e-11), variance_closed 230 (2.37e-11 to 2.33e-11) and
moment_series 119, only its closed variance column (2.50e-11 to 2.43e-11).
Two worst deviations of the identities reports moved, with every case count
and tolerance unchanged: arithmetic-variance-closed-vs-recursive
2.4882951066224994e-11 to 2.450771822134345e-11 and
geometric-variance-closed-vs-recursive 1.1573281270147536e-11 to
8.881118063186477e-12.  No other identity row moved.

Six digests were re-recorded when every fixed accumulator began to take its
payments as the values c_i themselves, so that its recursion steps
value = (1+j)(value + c_i) as the moment recursion's mean does, where
arithmetic plans had added p and (i-1)q to the value one at a time and
decreasing ones n+1 and -i; when the closed mean of a plan in a singular
band, or of a geometric plan with p = 0, became the mean of every other
plan (arithmetic_due or geometric_due at j) instead of the recursion's row;
and when the level, increasing and growth families began to subtract the
square of their mean, where they had read annuity values at 2k years, and
the increasing family's cross part at year 1 became 0.0.  The six are
`moments --family geometric --p 1 --q 1.05 ... --method both`,
`fixed --n 30 --j 0 ... --p 1.5 --q 0.1`, both identities reports,
LIBRARY_GRID_DIGEST and EDGE_GRID_DIGEST.  In the geometric band table,
the closed mean is now geometric_due's quotient: its worst error, in units
of 2^-53 against the exact value at the rounded gross rate 1.0 + j, went
from 4.37 to 1.76, and the closed variance's worst relative error against
the exact recursion from 1.34e-14 to 1.16e-14.  In the j = 0 fixed table
the arithmetic rows at k = 8..14 moved, and each is now correctly rounded
(worst 1.76 to 0.64 units).  463 of the grid's 24,982 lines and 17 of the
edge grid's 11,385 moved, none from a value to a raise or back.  Per
function, with the worst error of the moved values before and after,
relative, against the exact value at the rounded gross rate for fixed
accumulators and means, else against the exact rational recursion:
decreasing_due 116 (73.7 to 18.5 units); increasing_moments 65, 51 of them
in the variance (6.59e-12 to 5.33e-12) and 25 in the cross part at year 1,
whose exact value is 0 (up to 9.8e-7 absolute before, 0.0 now);
level_moments 53, the variance (1.54e-11 to 1.36e-11); growth_moments 49,
the variance (3.77e-13 to 5.54e-13); mean_closed 45 (53.9 to 2.08 units);
mean_squared_closed 45 (108 to 3.51 units); arithmetic_due 37 (29.3 to 21.8
units); variance_closed 27 (7.24e-12 to 1.88e-11, within the 2.5e-11
settlement); and moment_series 26, in its mean column (53.9 to 2.25 units)
and closed variance column (2.31e-11 to 2.27e-11).  Every moved
mean_closed, variance_closed and moment_series line is a geometric plan in
the band q = 1+j or with p = 0; the arithmetic band means kept their bits.
Two worst errors rose: variance_closed, whose second moment less the
squared mean amplifies the mean's new last bits, and growth_moments.  In
the edge grid: arithmetic_due 14 (33.0 to 23.5 units) and
decreasing_due 3 (71.4 to 7.44 units).  Three worst deviations of the
identities reports fell, with every case count and tolerance unchanged:
level-special-vs-general 1.0529815172653234e-12 to 1.0300443632251698e-12,
increasing-special-vs-general 2.254646464631249e-11 to
2.0625877146900713e-11 and growth-special-vs-general 6.883382752675971e-13
to 5.74651437545981e-13.  A geometric plan with p = -0.0 now has a closed
mean of -0.0, geometric_due's value, where the recursion's row is +0.0.

No digest moved when each Monte Carlo block began to draw and accumulate
one year row at a time, through RateDistribution.gross_rows, instead of
drawing its whole (k, 16,384) block of rates first, nor when
geometric_aux began to raise NumericalFailureError where t rounds to -1.
None moved either when each Monte Carlo worker began to advance a group of
up to three blocks as one (blocks, 16,384) array, with two-point bits drawn
a year at a time as raw 64-bit outputs and looked up eight per byte.

LIBRARY_GRID_DIGEST was re-recorded when the specialized families became
kernels of the closed forms, reading their annuity values from
fixed._sum_tables, each exact sum rounded once, where they had taken an fsum
of rounded products per year (mode "sum").  Level values, L_k, are the same
bits either way, so every level_moments and growth_moments line kept its
bits, error text included; increasing and squared-increasing values, I_k and
Q_k, move by up to an ulp.  17 of the grid's 24,982 lines moved, none from
a value to a raise or back: increasing_moments 12 and decreasing_moments 5.
Per field, with the worst relative error of the moved values against the
exact rational recursion (tests/oracles.moment_recursion), before and after:
increasing cross part 9 (4.25e-14 to 2.94e-14), diagonal part 9 (1.25e-14
to 1.24e-14), second moment 11 (3.55e-14 to 2.26e-14) and variance 6
(1.57e-13 to 7.21e-14); decreasing variance 5 (2.28e-14 to 8.49e-15).  No
mean moved, and over all 159 lines with k > 0 of each family no field's
worst error moved.  Neither identities digest moved: every case count,
tolerance and worst deviation of the specialization suite held, though it
now compares whole columns with the recursion pass they were settled against.

Three digests were re-recorded when the increasing family became the closed
series of PaymentPlan.increasing at p = q = 1 (the five-term second moment
and cross part, the diagonal part with its audit and the settled variance)
instead of kernels of its own: LIBRARY_GRID_DIGEST and both identities
reports.  In the reports only increasing-special-vs-general moved, from
2.0625877146900713e-11 to 1.9061068735355547e-11, with 1,800 cases and its
1e-10 tolerance unchanged.  144 of the grid's 24,982 lines moved, every one
increasing_moments and none from a value to a raise or back; no mean moved.
Per field, with the worst relative error of the moved values against the
exact rational recursion, before and after: cross part 83 (8.21e-11 to
9.16e-11; 2.07e-6 to 1.99e-6 at j = 1e-5), second moment 123 (7.34e-11 to
6.92e-11; 2.30e-6 to 3.74e-6 at j = 1e-5), variance 69 (5.33e-12 to
3.29e-12) and, inside the band |j| < 1e-9, where the diagonal part is now
the closed one and the second moment the recursion's row, diagonal part 7
(1.16e-15 to 1.51e-15), second moment 15 (1.36e-15 to 1.07e-15) and
variance 16 (6.18e-16 to 5.90e-15).  At j = 1e-5 both forms divide by j^2
or d^2, and their second moments are within only about 4e-6 of exact.

No digest moved when uniform Monte Carlo rates began to be drawn as
mu + (r - 0.5) * (2 hw), the same bits as mu + hw * (2 r - 1) in one pass
fewer, nor when a zero Monte Carlo spread began to be judged relative to
the analytic mean.

Three digests were re-recorded when the level, decreasing and growth
families became the closed series of their plans, PaymentPlan.level(k),
.decreasing(n) and .growth(u, k), as the increasing family already was,
instead of kernels of their own (the level and growth t-forms, the
decreasing ell-form, and the recursion's rows inside each family's band):
LIBRARY_GRID_DIGEST and both identities reports.  309 of the grid's 24,982
lines moved, level_moments 67, decreasing_moments 118 and growth_moments
124, and none from a value to a raise or back.  Per field, with the worst
relative error of the moved values against the exact rational recursion
(tests/oracles.moment_recursion), before and after: level variance 67
(1.36e-11 to 1.50e-11); decreasing mean 27 (6.5e-15 to 1.64e-12) and
variance 91 (1.16e-11 to 5.90e-12); growth mean 85 (7.14e-15 to 6.91e-15)
and variance 83 (5.54e-13 to 6.48e-13).  No level mean moved.  The
decreasing means that moved are those at s2 = 0, where the family took the
recursion's row and now takes the closed arithmetic mean that it already
took at s2 > 0; over all 159 of its lines with k > 0 the worst decreasing
mean is 2.28e-12 before and after, at j = 1e-5, where the closed mean
divides by d.  In the reports only the max_rel_dev of three rows moved,
with every name, case count and tolerance unchanged:
level-special-vs-general 1.0300443632251698e-12 to 7.510395759417629e-13,
decreasing-special-vs-general 2.4432105222392684e-11 to
2.222237935168399e-11 and growth-special-vs-general 5.74651437545981e-13
to 9.073647847357153e-13.

The SIMD digests of the two verify commands were recorded when lognormal
Monte Carlo rows became exp(m + sigma z) formed in place with numpy's exp,
where they had been Generator.lognormal's draws, the same expression through
the C library's exp; the libm digests did not move.  Only three mc-lognormal
rows moved, in the last digits of oracle_variance and of the fields computed
from it; no oracle mean moved, and every row still passes.  At k = 5 |z| stays
0.6297303874085417 and |ratio - 1| goes from 0.015327552573944025 to
0.015327552573944137 (1.2161684216070308 to 1.2161684216070396 standard
errors); at k = 7 |z| goes from 0.5683019986140986 to 0.5683019986140987,
through the mean's standard error, and |ratio - 1| from 0.016171308590052558
to 0.01617130859005278 (1.201169687276023 to 1.2011696872760398); at k = 8
|z| stays 0.16770214254981242 and |ratio - 1| goes from 0.014646783437262223
to 0.014646783437262445 (1.0165123259746784 to 1.0165123259746942).
"""

import argparse
import hashlib
import math
import random

import numpy as np
import pytest

import annurates as a
from annurates.cli import main


def _exp_is_libm() -> bool:
    """Whether numpy's float64 exp gives math.exp's bits on fixed arguments.

    Where numpy has a SIMD exp (AVX512F hosts), about 5% of these 10,001
    arguments, the span of lognormal rate exponents, differ by 1 ulp.
    """
    args = np.linspace(-3.0, 3.0, 10_001)
    return np.exp(args).tolist() == [math.exp(x) for x in args.tolist()]


EXP_IS_LIBM = _exp_is_libm()


def _expected(digest):
    """A command's digest on this host; a verify command has a pair, (libm exp, SIMD exp)."""
    if isinstance(digest, tuple):
        return digest[0] if EXP_IS_LIBM else digest[1]
    return digest


GOLDEN = [
    (
        "moments --family increasing --n 30 --j 0.1 --s2 0.04",
        "6ca7c6f705308423b7868c41f428216718503953513dd4cfe304be915386416c",
        0,
    ),
    (
        "moments --family arithmetic --p 2 --q 0.3 --n 60 --j 0.05 --s2 0.0025"
        " --method both --output json",
        "ec415f44897d3fecb63f698dc8f98340493bdf3358dd92cfb87d3507efb70ea7",
        0,
    ),
    (
        "moments --family geometric --p 1 --q 1.05 --n 40 --j 0.05 --s2 0.01 --method both",
        "66a645aae89535db0b24da2a102cdda9670e65d4769204bf73f3d055806912bb",
        0,
    ),
    (
        "moments --family level --n 50 --j 0 --s2 0.04 --method both",
        "aae17e9d9671c3cdb09140a7e64830c3d2a6b86a7dc05e438267c0d2eccd7a5c",
        0,
    ),
    (
        "moments --family decreasing --n 25 --j 0.07 --s2 0.001",
        "1ef68163d8527c0d6526f2af155d4de06c9e2ae41c75d0a1792bbcc8cf7c030a",
        0,
    ),
    (
        "moments --family growth --u 0.03 --n 25 --j 0.07 --s2 0.001 --output json",
        "b09a50b0d149f66c2cc01a4cf1cd39bbaf02610d2a48e723e761b7d318fbae30",
        0,
    ),
    (
        "fixed --n 30 --j 0.07 --family all --q 0.1",
        "a31788cfe9a294fd43b00852c28cdf997f43518707806af14725e4a8d3507e94",
        0,
    ),
    (
        "verify --family increasing --n 8 --j 0.1 --s2 0.04 --paths 2e4",
        (
            "d22604a513ab6b8eade3c946edd3564ace41ff9873d1e518e935a8141196fd59",
            "07631cfe3ac10bd8cdfd20c2f6e12e222e4d82b786d9063f975a529e7dd20bc8",
        ),
        0,
    ),
    (
        "identities",
        "09989b72e2bfaef94f581357da02e446ab88710b31e6ff150fc2ad1ce7f8d22f",
        0,
    ),
    (
        "fixed --n 30 --j 0 --family all --p 1.5 --q 0.1",
        "073c2b90885797e647d0021569a237ae6d755a387bee06da35b876cc58bc80a8",
        0,
    ),
    (
        "fixed --n 30 --j 0.07 --family all --q 0.1 --output json",
        "6d9a1dc7e9b39c0d715451dc7086def8545a7fc801cf1f1ad9a0596b5470ef11",
        0,
    ),
    (
        "verify --family increasing --n 8 --j 0.1 --s2 0.04 --paths 2e4 --output csv",
        (
            "057cc68a9d0ea6d0cd98318add5ed9c9101da6c3109412537eaa5c6f1b0b50e6",
            "fb058ca3d7d52ff6a14fe5ddaa5f2ed93083b7059a466005ee649e56ef9bb4b9",
        ),
        0,
    ),
    (
        "identities --output json",
        "bcbab4c6c03bc02f2ac9137575ef76f2973db0e05bcd4914dfc74e7136c38923",
        0,
    ),
]


LIBRARY_GRID_DIGEST = "a034873ea3acfbbb6ea3f75ed4c26f17c14d32f830f2c86506a0618c093ad590"

EDGE_GRID_DIGEST = "cba755f03548c6a0ee448a7fd45126e470478420286d03f6cd4ed31f6e0d22b9"


@pytest.mark.parametrize("command, digest, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(command, digest, code, capsys):
    assert main(command.split()) == code
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == _expected(digest)


def test_golden_commands_are_read_without_argparse(capsys, monkeypatch):
    """Each golden command's flags go through the option schema alone."""

    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse parsed {args!r}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    for command, digest, code in GOLDEN:
        assert main(command.split()) == code, command
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == _expected(digest), command


def _line(name, fn, *args):
    """fn(*args) as one line: its arguments and the float bits of its result,
    or the type and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return f"{name}{args!r} raises {type(exc).__name__}: {exc}"
    if isinstance(value, tuple):
        return f"{name}{args!r} = {[float(x).hex() for x in value]}"
    if hasattr(value, "tobytes"):
        return f"{name}{args!r} = {value.tobytes().hex()}"
    return f"{name}{args!r} = {float(value).hex()}"


def _library_grid():
    """Every public value function over a seeded grid of 1,200 cases.

    Yields one line per call: its arguments and the float bits of its
    result, or the type and message of what it raised.  The grid covers both
    plan families, the singular bands (j = 0, q = 1+j), tiny and large rate
    variances, negative payments outside strict mode, every fixed-rate mode
    and horizons up to 400; it stays inside double range.
    """
    def series_columns(plan, spec, method):
        series = a.moment_series(plan, spec, method)
        columns = (series.mean, series.second_moment, series.variance)
        columns += (series.diagonal, series.cross)
        return tuple(x for column in columns for x in column.tolist())

    rng = random.Random(20011)
    rates = [0.05, 0.1, 0.0, 1e-10, 1e-5, 0.3, -0.1, -0.5, 0.9]
    for _ in range(400):
        family = rng.choice(["arithmetic", "geometric"])
        j = rng.choice(rates + [rng.uniform(-0.5, 1.0)])
        s2 = rng.choice([0.0, 1e-12, 1e-6, 0.0025, 0.04, rng.uniform(0.0, 0.1)])
        p = rng.choice([1.0, 2.0, rng.uniform(0.1, 5.0)])
        if family == "arithmetic":
            q = rng.choice([0.0, 1.0, -0.07, p, rng.uniform(-1.0, 2.0)])
        else:
            q = rng.choice([1.05, 0.9, 1.0 + j, (1.0 + j) * (1.0 + 1e-8), rng.uniform(0.5, 2.0)])
        n = rng.choice([1, 2, 3, 7, 20, 60, rng.randint(1, 400)])
        plan = a.PaymentPlan(family=family, p=p, q=q, n=n, strict=False)
        spec = a.stochastic_rate(j, s2)
        for method in ("closed", "recursive"):
            yield _line("moment_series", series_columns, plan, spec, method)
        for k in sorted({1, (n + 1) // 2, n}):
            for name in (
                "mean_closed",
                "second_moment_closed",
                "mean_squared_closed",
                "variance_closed",
                "second_moment_diagonal",
                "second_moment_cross",
            ):
                yield _line(name, getattr(a, name), plan, spec, k)
    for _ in range(200):
        j = rng.choice(rates + [rng.uniform(-0.3, 0.5)])
        spec = a.stochastic_rate(j, rng.choice([0.0, 1e-8, 0.01, 0.04]))
        k = rng.choice([0, 1, 2, 5, 30, 100])
        u = rng.choice([0.03, 0.1, j, -0.02])
        yield _line("level_moments", a.level_moments, spec, k)
        yield _line("increasing_moments", a.increasing_moments, spec, k)
        yield _line("decreasing_moments", a.decreasing_moments, spec, k + 3, k)
        yield _line("growth_moments", a.growth_moments, spec, a.geometric_aux(spec, u), k)
    for _ in range(600):
        j = rng.choice(rates + [rng.uniform(-0.9, 1.0)])
        rate = a.fixed_rate(j)
        k = rng.choice([0, 1, 2, 10, 100, 400, rng.randint(0, 400)])
        p = rng.choice([1.0, 2.5, -1.0])
        q = rng.choice([0.0, 1.0, 1.05, 1.5, 1.0 + j, -0.5])
        for mode in ("auto", "closed", "recursive", "sum"):
            yield _line("level_due", a.level_due, k, rate, mode)
            yield _line("increasing_due", a.increasing_due, k, rate, mode)
            yield _line("increasing_squared_due", a.increasing_squared_due, k, rate, mode)
            yield _line("decreasing_due", a.decreasing_due, k + 2, k, rate, mode)
            yield _line("arithmetic_due", a.arithmetic_due, p, q, k, rate, mode, False)
            yield _line("geometric_due", a.geometric_due, p, q, k, rate, mode, False)
            yield _line("growth_due", a.growth_due, q - 0.9, k, rate, mode)
        yield _line("increasing_squared_due", a.increasing_squared_due, k, rate, "relation")


def test_library_grid_digest():
    text = "\n".join(_library_grid())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LIBRARY_GRID_DIGEST


def _plan_ratio(*args):
    return a.PaymentPlan(*args).q


def _edge_grid():
    """Every fixed-rate accumulator where its argument checks meet.

    Yields one line per call, as _library_grid does.  The grid crosses every
    mode, with "relation" and an invalid one; strict and non-strict payments,
    some of which turn nonpositive only after the first year; an invalid
    rate and horizon; horizons 0, 1 and 5, and 1746 and 1800, which leave
    double range at j = 0.5; the singular bands j = 0 and q = 1+j; and growth
    rates u = -1 and nan.  So it pins which check raises first, and with what
    message, as well as every value.  Payment plans built from the same
    payments and growth rates follow.
    """
    modes = ("auto", "closed", "recursive", "sum", "relation", "bogus")
    for j in (0.0, 1e-10, 0.05, 0.5, -0.1, -1.0):
        for k in (0, 1, 5, 1746, 1800, -1):
            for mode in modes:
                yield _line("level_due", a.level_due, k, j, mode)
                yield _line("increasing_due", a.increasing_due, k, j, mode)
                yield _line("increasing_squared_due", a.increasing_squared_due, k, j, mode)
                for n in (k + 2, 3):
                    yield _line("decreasing_due", a.decreasing_due, n, k, j, mode)
                for strict in (True, False):
                    for p in (1.0, 0.0, -1.0):
                        for q in (0.0, 0.5, -0.5):
                            args = (p, q, k, j, mode, strict)
                            yield _line("arithmetic_due", a.arithmetic_due, *args)
                        for q in (1.5, 0.0, -0.5, 1.0 + j):
                            args = (p, q, k, j, mode, strict)
                            yield _line("geometric_due", a.geometric_due, *args)
                for u in (-1.0, math.nan, 0.05, j, 0.5):
                    yield _line("growth_due", a.growth_due, u, k, j, mode)
    # a payment plan applies the same strict and growth-rate checks to its n
    for n in (0, 1, 5):
        for strict in (True, False):
            for family in ("arithmetic", "geometric"):
                for p in (1.0, 0.0, -1.0):
                    for q in (0.0, 0.5, -0.5, 1.5):
                        yield _line("PaymentPlan", _plan_ratio, family, p, q, n, strict)
        for u in (-1.0, math.nan, 0.05):
            yield _line("PaymentPlan.growth", lambda *args: a.PaymentPlan.growth(*args).q, u, n)


def test_edge_grid_digest():
    text = "\n".join(_edge_grid())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EDGE_GRID_DIGEST


if __name__ == "__main__":
    # print a grid's lines, one per call, so that a diff between two
    # checkouts names every line a re-recorded digest moved:
    #   PYTHONPATH=src python3 tests/test_golden.py library|edge
    import sys

    grids = {"library": _library_grid, "edge": _edge_grid}
    if len(sys.argv) != 2 or sys.argv[1] not in grids:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(grids)}")
    for line in grids[sys.argv[1]]():
        print(line)
