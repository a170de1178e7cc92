"""Per-path chop-down binomial sampler: the reference for the table sampler.

Walks every path outward from its mode, one piece of the unit interval per
side per round, until the farthest draw is found, so a call costs
O(paths x max offset).  ``_kernels.binomial_inverse`` must return the
same draws bitwise; it is kept here only to check that.
"""

import math

import numpy as np


def binomial_inverse_loop(n, s, u, lgam):
    n = np.asarray(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    if s <= 0.0:
        return np.zeros_like(n)
    if s >= 1.0:
        return n.copy()
    ls = math.log(s)
    l1s = math.log1p(-s)
    m = np.minimum(np.floor((n + 1) * s).astype(np.int64), n)
    pm = np.exp(lgam[n] - lgam[m] - lgam[n - m] + m * ls + (n - m) * l1s)
    acc = pm.copy()
    res = np.where(u < acc, m, np.int64(-1))
    pr = pm.copy()
    pl = pm.copy()
    for j in range(1, int(n.max()) + 2):
        ir = m + j
        pr = np.where(ir <= n, pr * (((n - ir + 1) * s) / (ir * (1.0 - s))), 0.0)
        acc = acc + pr
        res = np.where((res < 0) & (u < acc), ir, res)
        il = m - j
        with np.errstate(over="ignore", invalid="ignore"):  # past the row's end, at s = 5e-324
            pl = np.where(il >= 0, pl * (((il + 1) * (1.0 - s)) / ((n - il) * s)), 0.0)
        acc = acc + pl
        res = np.where((res < 0) & (u < acc), il, res)
        if np.all(res >= 0):
            break
    return np.where(res < 0, m, res)


def chop_down_sums(n, s, lgam, rounds):
    """The running sums the sampler compares u against, for one count n:
    pm, pm + p(m+1), pm + p(m+1) + p(m-1), ... over ``rounds`` rounds,
    computed with the same array operations as the loop above."""
    n = np.array([n], dtype=np.int64)
    ls = math.log(s)
    l1s = math.log1p(-s)
    m = np.minimum(np.floor((n + 1) * s).astype(np.int64), n)
    pm = np.exp(lgam[n] - lgam[m] - lgam[n - m] + m * ls + (n - m) * l1s)
    acc = pr = pl = pm
    sums = [acc[0]]
    for j in range(1, rounds + 1):
        ir = m + j
        pr = np.where(ir <= n, pr * (((n - ir + 1) * s) / (ir * (1.0 - s))), 0.0)
        acc = acc + pr
        sums.append(acc[0])
        il = m - j
        with np.errstate(over="ignore", invalid="ignore"):  # past the row's end, at s = 5e-324
            pl = np.where(il >= 0, pl * (((il + 1) * (1.0 - s)) / ((n - il) * s)), 0.0)
        acc = acc + pl
        sums.append(acc[0])
    return sums
