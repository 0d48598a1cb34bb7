"""P-values for the verification tests, from numpy and scipy.special alone.

Importing SciPy's stats subpackage costs about a second, more than a whole
desk-scale verify run, while the few tests verify makes need only a handful
of special functions.  Each function here returns, bit for bit, what its
counterpart in that subpackage returns in SciPy 1.17, by running the same
algorithm on the same scipy.special kernels:

  * binom_two_sided(k, n, p)    = binomtest(k, n, p).pvalue
  * chi2_2x2(table)             = chi2_contingency(table, correction=False)[:2]
  * ks_uniform(values)          = kstest(values, "uniform")[:2]

ks_uniform_sorted is ks_uniform on values already sorted, tested in place.

The binomial test reads the private scipy.special._ufuncs._binom_* kernels
that SciPy's binom distribution calls; the public bdtr family differs in the
last bits.  The KS p-value is the exact kstwo.sf of Simard & L'Ecuyer
(2011), which kstest always uses since SciPy 1.17; its module, _ksstats,
cannot be imported without the whole stats subpackage, so its
survival-function path for n > 140 is carried over here, and both KS
functions refuse fewer than KS_MIN_SIZE values.

The binomial search and the Kolmogorov-Smirnov code are adapted from SciPy
(_binomtest.py and _ksstats.py in its stats subpackage), Copyright (c)
2001-2002 Enthought, Inc. and 2003-2025 SciPy Developers, under the BSD
3-Clause License.
"""

from __future__ import annotations

import numpy as np
from scipy import special
from scipy.special import _ufuncs as _scu

__all__ = ["KS_MIN_SIZE", "binom_two_sided", "chi2_2x2", "ks_uniform", "ks_uniform_sorted"]


# -- exact binomial test ------------------------------------------------------


def _binom_pmf(k, n, p):
    # only asked inside [0, n]: both searches stay within their bounds
    return np.clip(_scu._binom_pmf(k, n, p), 0, 1)


def _binom_cdf(k, n, p):
    if k >= n:
        return 1.0
    if k < 0:
        return 0.0
    return np.clip(_scu._binom_cdf(np.floor(k), n, p), 0, 1)


def _binom_sf(k, n, p):
    if k < 0:
        return 1.0
    if k >= n:
        return 0.0
    return np.clip(_scu._binom_sf(np.floor(k), n, p), 0, 1)


def _binary_search(a, d, lo, hi):
    """The index i in [lo, hi] with a(i) <= d < a(i+1), a ascending on it."""
    while lo < hi:
        mid = lo + (hi - lo) // 2
        midval = a(mid)
        if midval < d:
            lo = mid + 1
        elif midval > d:
            hi = mid - 1
        else:
            return mid
    return lo if a(lo) <= d else lo - 1


def binom_two_sided(k: int, n: int, p: float) -> float:
    """Two-sided exact binomial test of k successes in n trials at rate p.

    The p-value sums the probabilities of all outcomes no more likely than
    k, up to a relative tolerance of 1e-7, found by a binary search on the
    far side of the mode.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k}, n={n}")
    if not 0 <= p <= 1:
        raise ValueError(f"p ({p}) must lie in [0, 1]")
    d = _binom_pmf(k, n, p)
    rerr = 1 + 1e-7
    if k == p * n:
        return 1.0
    if k < p * n:
        ix = _binary_search(lambda x1: -_binom_pmf(x1, n, p), -d * rerr, np.ceil(p * n), n)
        # y counts the terms between the mode and n that are <= d*rerr
        y = n - ix + int(d * rerr == _binom_pmf(ix, n, p))
        pval = _binom_cdf(k, n, p) + _binom_sf(n - y, n, p)
    else:
        ix = _binary_search(lambda x1: _binom_pmf(x1, n, p), d * rerr, 0, np.floor(p * n))
        # y counts the terms between 0 and the mode that are <= d*rerr
        y = ix + 1
        pval = _binom_cdf(y - 1, n, p) + _binom_sf(k - 1, n, p)
    return float(min(1.0, pval))


# -- Pearson chi-square ---------------------------------------------------------


def chi2_2x2(table) -> tuple[float, float]:
    """Pearson chi-square test of independence on a 2x2 table, no continuity correction."""
    observed = np.asarray(table, dtype=np.float64)
    if observed.shape != (2, 2) or np.any(observed < 0):
        raise ValueError("need a 2x2 table of nonnegative counts")
    expected = (
        observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
    ) / observed.sum()
    if np.any(expected == 0):
        raise ValueError("a margin of the table is zero")
    stat = np.sum((observed - expected) ** 2 / expected)
    return float(stat), float(special.chdtrc(1, stat))


# -- one-sample Kolmogorov-Smirnov ---------------------------------------------

KS_MIN_SIZE = 141  # the smallest sample ks_uniform tests: SciPy's exact small-n paths end at 140
_KS_BLOCK = 1 << 15  # values per step of ks_uniform_sorted's D

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _kolmogn_dmtw(n, d):
    """Pr(D_n <= d) for 1/n < d < 1 by the Durbin matrix.

    H^n is evaluated as Marsaglia, Tsang & Wang (2003) do: by squaring, with
    powers of 2^128 split off against overflow.
    """
    nd = n * d
    # d = (k-h)/n with k a positive integer and 0 <= h < 1; H is (2k-1) square
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip_prob(p)


def _kolmogn_pelz_good(n, x):
    """Pelz & Good's (1976) approximation to Pr(D_n <= x), 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 at z = x*sqrt(n), each K rewritten through Jacobi theta
    functions for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.0417
        return _clip_prob(0.0)
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme for sum c_i q^(i^2) over odd i
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sums over all integers k in K_2 and K_3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _kolmogn_sf(n: int, x) -> float:
    """Pr(D_n >= x) for n > 140, 1/(2n) < x < 1, choosing the method as Simard & L'Ecuyer do.

    x is a 0-d float64 array, as scipy passes it, so every operation on it
    runs the same numpy loop.
    """
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: the CDF n!/n^n (2t-1)^n is below 2^-54 from n = 41 on
        return 1.0
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: the two one-sided tails cannot meet
        return _clip_prob(2 * special.smirnov(n, x))

    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip_prob(2 * special.smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw(n, x)
    else:
        cdfprob = _kolmogn_pelz_good(n, x)
    return _clip_prob(1.0 - cdfprob)


def ks_uniform(values) -> tuple[float, float]:
    """Two-sided one-sample KS test of KS_MIN_SIZE or more values against Uniform[0, 1]."""
    return ks_uniform_sorted(np.sort(np.asarray(values, dtype=np.float64)))


def ks_uniform_sorted(x: np.ndarray) -> tuple[float, float]:
    """ks_uniform of an ascending float64 array, which it clips to [0, 1] in place.

    D is taken _KS_BLOCK values at a time, so no temporary grows with the
    sample; each block's terms are those of the whole-array formula.
    """
    n = x.size
    if n < KS_MIN_SIZE:
        raise ValueError(f"need at least {KS_MIN_SIZE} values, got {n}")
    np.clip(x, 0.0, 1.0, out=x)
    dplus = dminus = -np.inf
    for lo in range(0, n, _KS_BLOCK):
        cdfvals = x[lo:lo + _KS_BLOCK]
        hi = lo + cdfvals.size
        dplus = max(dplus, np.max(np.arange(lo + 1.0, hi + 1) / n - cdfvals))
        dminus = max(dminus, np.max(cdfvals - np.arange(float(lo), hi) / n))
    d = dplus if dplus > dminus else dminus
    if d <= 0.5 / n:
        prob = 1.0
    elif d >= 1.0:
        prob = 0.0
    else:
        prob = _kolmogn_sf(n, np.asarray(d, dtype=np.float64))
    return float(d), float(prob)
