"""Every pvalues function is bit-identical to its scipy.stats counterpart.

So is montecarlo's Wilson-interval quantile, kept as a constant.  scipy.stats
is imported here only as the oracle.  The inputs reach every
branch of each algorithm: both sides of the binomial mode and the support
ends, and each of the KS survival function's methods and cut-offs from its
smallest sample, pvalues.KS_MIN_SIZE values, up.  Smaller samples, which
reach SciPy's small-sample paths, must be refused.
"""

import numpy as np
import pytest
from scipy import stats

from poset_secretary import montecarlo, pvalues


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_wilson_z_is_the_normal_quantile():
    assert same_bits(montecarlo._Z, stats.norm.ppf((1 + montecarlo.CONFIDENCE_DEFAULT) / 2))


@pytest.mark.parametrize(
    "k, n, p",
    [
        (5, 20, 0.25),  # k == p*n
        (2, 20, 0.25), (3, 20, 0.25), (1, 7, 1 / 3),  # k < p*n
        (9, 20, 0.25), (3, 7, 1 / 3), (7, 7, 1 / 3),  # k > p*n
        (0, 20, 0.25), (20, 20, 0.25), (0, 1, 0.5), (1, 1, 0.5),  # k = 0 and k = n
        (0, 10, 0.0), (10, 10, 1.0), (3, 10, 0.0), (3, 10, 1.0),  # p on the edge
        (125000, 10**6, 1 / 8), (124000, 10**6, 1 / 8), (126500, 10**6, 1 / 8),
        (200000, 200000, 1.0 / 1), (66480, 200000, 1 / 3), (66900, 200000, 1 / 3),
        # a far-side term lies within 1e-5 of d, but not within the 1e-7 tolerance
        (39, 102, 0.25), (141, 227, 0.3),
        # a far-side term lies within the 1e-7 tolerance, but not within 1e-8
        (198, 950, 0.25), (450, 1202, 1 / 3),
    ],
)
def test_binom_two_sided(k, n, p):
    assert same_bits(pvalues.binom_two_sided(k, n, p), stats.binomtest(k, n, p).pvalue)


def test_binom_two_sided_dense_grid():
    for n in (1, 2, 5, 13, 100, 1000):
        for p in (0.1, 1 / 3, 0.5, 0.9):
            for k in range(0, n + 1, max(1, n // 40)):
                assert same_bits(pvalues.binom_two_sided(k, n, p),
                                 stats.binomtest(k, n, p).pvalue), (k, n, p)


@pytest.mark.parametrize("k, n, p", [(-1, 5, 0.5), (6, 5, 0.5), (0, 0, 0.5), (1, 5, 1.5)])
def test_binom_two_sided_rejects_what_binomtest_rejects(k, n, p):
    with pytest.raises(ValueError):
        pvalues.binom_two_sided(k, n, p)
    with pytest.raises(ValueError):
        stats.binomtest(k, n, p)


def test_chi2_2x2():
    rng = np.random.default_rng(11)
    for trials in (20, 1000, 200000, 10**6):
        for _ in range(50):
            a, b = (int(v) for v in rng.integers(1, trials, 2))
            both = int(rng.integers(max(0, a + b - trials), min(a, b) + 1))
            table = np.array([[both, a - both], [b - both, trials - a - b + both]], dtype=np.int64)
            stat, pval, _, _ = stats.chi2_contingency(table, correction=False)
            got = pvalues.chi2_2x2(table)
            assert same_bits(got[0], stat) and same_bits(got[1], pval), table


def test_chi2_2x2_rejects_a_zero_margin():
    with pytest.raises(ValueError):
        pvalues.chi2_2x2(np.array([[0, 0], [3, 4]]))


def assert_ks_matches(values):
    ks, pval = stats.kstest(values, "uniform")
    got = pvalues.ks_uniform(values)
    assert same_bits(got[0], ks) and same_bits(got[1], pval)
    return got[0]


def assert_ks_matches_or_is_refused(values):
    """assert_ks_matches, or, below pvalues.KS_MIN_SIZE values, where SciPy
    takes the small-sample paths this module does not carry, a refusal.
    Returns kstest's D either way."""
    if values.size >= pvalues.KS_MIN_SIZE:
        return assert_ks_matches(values)
    with pytest.raises(ValueError, match="at least 141 values"):
        pvalues.ks_uniform(values)
    return stats.kstest(values, "uniform").statistic


def sample_with_d(n, d):
    """n sorted values in [0, 1] whose KS distance from Uniform[0, 1] is d (up to rounding)."""
    return np.clip((np.arange(n) + 0.5) / n + (d - 0.5 / n), 0.0, 1.0)


# (n, n*x^2) pairs around each cut-off of the survival function's method choice
KS_CUTS = [
    (n, c)
    for n in (140, 141, 100000, 100001)
    for c in (0.03, 0.7, 0.8, 2.1, 2.3, 3.9, 4.1, 17.0, 19.0, 369.0, 371.0)
    if 1.0 / n < (c / n) ** 0.5 < 0.5
]
# n*x^1.5 on each side of 1.4, where n > 140 switches from DMTW to Pelz-Good
KS_CUTS += [(141, 141 * (a / 141) ** (4 / 3)) for a in (1.35, 1.45)]


@pytest.mark.parametrize("n, c", KS_CUTS, ids=[f"n={n}-nx2={c}" for n, c in KS_CUTS])
def test_ks_each_method_cut(n, c):
    d = assert_ks_matches_or_is_refused(sample_with_d(n, (c / n) ** 0.5))
    assert abs(n * d * d - c) < 1e-6 * c  # the sample sits on the intended side


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 140, 141, 100000, 100001])
@pytest.mark.parametrize(
    "where",
    ["t<=1", "t>=n-1", "x>=0.5", "tiny-z"],
)
def test_ks_edge_branches(n, where):
    d = {
        "t<=1": 0.75 / n,  # Ruben-Gambino: 1/(2n) < x <= 1/n
        "t>=n-1": (n - 0.5) / n,  # Ruben-Gambino: x >= (n-1)/n
        "x>=0.5": 0.55,
        "tiny-z": 2.0 / n,  # Pelz-Good's underflow exit when n > 100000
    }[where]
    assert_ks_matches_or_is_refused(sample_with_d(n, d))


def test_ks_support_ends():
    assert_ks_matches((np.arange(256) + 0.5) / 256)  # D = 1/(2n), exact in binary: p = 1
    assert_ks_matches(np.zeros(141))  # D = 1: p = 0
    assert_ks_matches(np.ones(142))


def test_ks_random_samples():
    rng = np.random.default_rng(13)
    for n in (141, 142, 500, 3000):
        for shape in (1.0, 0.7, 1.5):
            assert_ks_matches(rng.random(n) ** shape)
        assert_ks_matches(np.round(rng.random(n) * 8) / 8)  # ties and exact 0 and 1


def test_ks_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="at least 141 values"):
        pvalues.ks_uniform(np.array([]))
    with pytest.raises(ValueError, match="at least 141 values"):
        pvalues.ks_uniform_sorted(np.array([]))


@pytest.mark.parametrize("n", [pvalues._KS_BLOCK + k for k in (-1, 0, 1)] + [2 * pvalues._KS_BLOCK + 3])
def test_ks_sorted_core_across_its_blocks(n):
    # D is taken block by block; on each side of the block size it must give
    # kstest's bits, values outside [0, 1] included (the core clips them)
    rng = np.random.default_rng(n)
    for values in (rng.random(n), rng.random(n) ** 1.01, rng.random(n) * 1.0001 - 0.00005):
        ks, pval = stats.kstest(values, "uniform")
        x = np.sort(values)
        got = pvalues.ks_uniform_sorted(x)
        assert same_bits(got[0], ks) and same_bits(got[1], pval)
        assert np.array_equal(x, np.clip(np.sort(values), 0.0, 1.0))  # clipped in place


def test_ks_uniform_leaves_its_argument_unchanged():
    values = np.random.default_rng(3).random(1000) * 1.2 - 0.1
    kept = values.copy()
    pvalues.ks_uniform(values)
    assert np.array_equal(values.view(np.uint64), kept.view(np.uint64))
