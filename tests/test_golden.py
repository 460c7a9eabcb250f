"""Golden CLI outputs: the SHA-256 of stdout and the exit code of fixed commands.

A digest changes with any byte of the report, so a refactor that claims to
leave results alone must keep every digest.  A change of output that is
intended updates the digest together with a note of why it moved.

The digests were recorded with numpy 2.4.6 on Linux x86-64 (glibc).  The
closed forms go through the platform's libm, and the Monte Carlo part of the
verify report follows numpy's Generator streams, which numpy does not promise
to keep from one release to the next; the CI workflow pins numpy for that
reason.  A digest that moves only with such an upgrade is re-recorded, not
a regression.

Four digests were re-recorded when the arithmetic closed forms began to read
their increasing and squared-increasing annuity values from exact prefix
sums rounded once (fixed._sum_tables) instead of an fsum of rounded
products: the increasing, arithmetic and decreasing moments tables and the
increasing verify report.  Those entries differ from the old ones by at most
1 ulp, which moves some second moments by up to 8 ulps and some variances,
which cancel, by up to 6e-13 of themselves.  No mean moved, and the worst
error against the exact rational recursion, over these commands and the
identity grids, is the same before and after.  The identities report did
not move: its audit evaluates the closed formulas on fixed's per-year sums.
"""

import hashlib

import pytest

from annurates.cli import main

GOLDEN = [
    (
        "moments --family increasing --n 30 --j 0.1 --s2 0.04",
        "03b3b7ac7214fe832869907c5500778393b26c3e77b5948ea192b9b7b21bfa22",
        0,
    ),
    (
        "moments --family arithmetic --p 2 --q 0.3 --n 60 --j 0.05 --s2 0.0025"
        " --method both --output json",
        "71be82bf7bafa1c34b2e97d9dcc8189fc875b57e2f62aa134565b5673a5b463a",
        0,
    ),
    (
        "moments --family geometric --p 1 --q 1.05 --n 40 --j 0.05 --s2 0.01 --method both",
        "8d06c11f747c7f45ddde3361e2a04d46a5877f3aad63b5179e92a7be27473a9f",
        0,
    ),
    (
        "moments --family level --n 50 --j 0 --s2 0.04 --method both",
        "4553710ff958f32bdef0aab275d27415dfecc14b328bd5302094e5f7fc0a36de",
        0,
    ),
    (
        "moments --family decreasing --n 25 --j 0.07 --s2 0.001",
        "d6dc3c9f56d246106e0c6aab1564b2457c7bab8686a0071a930e1ae3820abfbd",
        0,
    ),
    (
        "moments --family growth --u 0.03 --n 25 --j 0.07 --s2 0.001 --output json",
        "8eb6980fdb4ad2a80e6a4942b55c96182a94692be74ac8d1c9c37f3b1e9e97e3",
        0,
    ),
    (
        "fixed --n 30 --j 0.07 --family all --q 0.1",
        "a31788cfe9a294fd43b00852c28cdf997f43518707806af14725e4a8d3507e94",
        0,
    ),
    (
        "verify --family increasing --n 8 --j 0.1 --s2 0.04 --paths 2e4",
        "fbffe9e4c2666605d64047cc1a69ebfcd5cf32e55f1ba91f3e8a18fbadfd09f3",
        0,
    ),
    (
        "identities",
        "ab405fbc62ad1260ed7ac929956aaaf68bd05bfdab571c58cbdb6c615da37816",
        0,
    ),
    (
        "fixed --n 30 --j 0 --family all --p 1.5 --q 0.1",
        "ef30801aae89ed1c9a976ad62c098fbccbe340fa49212480f125d6766c344284",
        0,
    ),
]


@pytest.mark.parametrize("command, digest, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(command, digest, code, capsys):
    assert main(command.split()) == code
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == digest
