"""Hot numeric kernels.

Two operations dominate runtime and live here:

* ``log_survivor_mixture`` - the binomial survivor mixture at the heart of
  one backward step of the finite-collective value recursion (see
  ``solver._backward``), evaluated in log space so z^alpha stays
  representable for large |alpha|.  Each survivor-count row is summed only
  over a window of O(sqrt(n)) terms around its mean, with a proven bound on
  the dropped mass, so a step costs O(n^1.5) time and O(n + chunk * window)
  memory instead of O(n^2) for both.  Each term costs a few float
  operations on row copies of per-index vectors, not per-term gathers.
* ``binomial_inverse`` - exact binomial sampling from a single uniform by
  chop-down inversion starting at the mode.  It is a table sampler: it
  builds the cumulative chop-down sums once per distinct count among the
  draws, only as far as the call's largest uniform needs, and
  binary-searches every uniform in its row.  A call costs
  O(draws log window + distinct * window) time and O(draws + distinct *
  window) memory, window being the pieces a row needs, O(sqrt(n s (1-s)))
  for moderate uniforms.  Its draws are those of a per-draw loop, bit for
  bit.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "lgamma_table",
    "log_survivor_mixture",
    "binomial_inverse",
]


def lgamma_table(nmax: int) -> np.ndarray:
    """lgam[k] = log(k!) for k = 0..nmax."""
    return np.array([math.lgamma(k + 1.0) for k in range(nmax + 1)])


# ---------------------------------------------------------------------------
# finite-collective survivor mixture
# ---------------------------------------------------------------------------
#
# For each current survivor count m = 1..n, with z' the next-step values:
#
#   lam_m = sum_{i=1..m} (i/m)^(1-alpha) C(m,i) s^i (1-s)^(m-i) z'_i^alpha
#
# computed throughout as log lam from log z'.  The backward step turns it
# into the continuation theta_m = beta^(1/rho) exp(kappa dt) lam_m^(1/alpha).
# s == 1 collapses the sum to the i = m term.
#
# Row m of lam sums the terms B_i g_i h_i, with B_i the Binomial(m, s) pmf
# at i, g_i = (i/m)^(1-alpha) and h_i = z'_i^alpha.  It is summed only over
# i in [lo, hi], a window that holds every i with |i - ms| < t.  The terms
# left out are at most max(g h) P(|X - ms| >= t) and the terms kept at least
# min_window(g h) (P(X >= 1) - P(|X - ms| >= t)).  With
#
#   max(g h) / min_window(g h) <= (m/lo)^(1-alpha) * exp(range_{i<=m} alpha log z'_i)
#
# (g is increasing in i and at most 1 for alpha < 1), the dropped mass is
# below exp(-TAIL_NATS) < 1e-17 of the kept mass once
#
#   P(|X - ms| >= t) <= exp(-L),
#   L = TAIL_NATS + (1-alpha) log(m/lo) + range alpha log z' - log P(X >= 1).
#
# Bernstein's inequality, P(|X - ms| >= t) <= 2 exp(-t^2 / (2 (v + t/3))) with
# v = m s (1-s), gives t = L'/3 + sqrt((L'/3)^2 + 2 L' v), L' = L + log 2.  So
# the window is O(sqrt(m)) wide wherever z' varies by a bounded factor.  L
# depends on lo and lo on t; _row_windows iterates lo down to a fixed point,
# where the bound holds for the window actually used.  Rows whose bound
# covers all of 1..m (small m, or an infinite log z') get lo = 1, hi = m.
#
# Rows are evaluated CHUNK_ROWS at a time on a (rows x widest window) block,
# so memory is O(n + CHUNK_ROWS * window), never O(n^2).  Every operand of a
# term depends on m alone, on i alone or on d = m - i alone, so each call
# tabulates the i- and d-operands once as vectors, and a block row, which
# runs over consecutive i (and consecutive d), is a contiguous slice of each
# vector: a block costs one row copy per operand plus the per-term
# arithmetic, with no per-term gathers or index arithmetic.  The block shape
# and the left-to-right order of the additions fix every rounding, and the
# masked cells are -inf, as if the block had been evaluated term by term.

TAIL_NATS = 40.0  # exp(-40) = 4.2e-18: the dropped/kept mass bound per row
CHUNK_ROWS = 128


def _row_windows(alpha_logw, s, alpha):
    """Per-row window bounds lo, hi (1-based, inclusive) for 0 < s < 1."""
    m = np.arange(1, alpha_logw.shape[0] + 1, dtype=np.float64)
    ms = m * s
    v = ms * (1.0 - s)
    with np.errstate(invalid="ignore", divide="ignore"):
        base = (
            TAIL_NATS
            + math.log(2.0)
            + (np.maximum.accumulate(alpha_logw) - np.minimum.accumulate(alpha_logw))
            - np.log(-np.expm1(m * math.log1p(-s)))
        )
        # lo only moves down, and a lower lo only widens t, so this ends;
        # fmax/fmin map a NaN bound (inf - inf, inf * 0) to the whole row
        lo = np.fmax(1.0, np.floor(ms))
        while True:
            big_l = base + (1.0 - alpha) * np.log(m / lo)
            t = big_l / 3.0 + np.sqrt((big_l / 3.0) ** 2 + 2.0 * big_l * v)
            new_lo = np.fmax(1.0, np.floor(ms - t))
            if np.array_equal(new_lo, lo):
                break
            lo = new_lo
        hi = np.fmin(m, np.ceil(ms + t))
    return lo.astype(np.int64), hi.astype(np.int64)


def _log_sum_exp_rows(t):
    """Row-wise log-sum-exp of a C-contiguous block, overwriting the block."""
    mx = t.max(axis=1)
    # rows whose max is +-inf are exact limits (lam = inf or 0); bypass the
    # log-sum-exp there to avoid inf - inf
    finite = np.isfinite(mx)
    with np.errstate(over="ignore", divide="ignore"):
        t -= np.where(finite, mx, 0.0)[:, None]
        np.exp(t, out=t)
        adj = t.sum(axis=1)
        return np.where(finite, mx + np.log(adj), mx)


def log_survivor_mixture(logw, s, lgam, alpha):
    """log lam_m for m = 1..n, where

        lam_m = sum_{i=1..m} (i/m)^(1-alpha) C(m,i) s^i (1-s)^(m-i) exp(alpha logw_i)

    via a row-wise log-sum-exp over each row's certified window of i.
    """
    n = logw.shape[0]
    if s >= 1.0:
        return alpha * logw
    ls = math.log(s)
    l1s = math.log1p(-s)
    logi = np.log(np.arange(1, n + 1, dtype=np.float64))
    lo, hi = _row_windows(alpha * logw, s, alpha)
    span = hi - lo
    width = int(span.max(initial=0)) + 1
    # the operands of term (m, i) that depend on i alone sit at column i - 1,
    # those of d = m - i at column n - d, zero-padded by the widest window, so
    # the operands of a block row i = lo..lo+w-1 are one row of each view
    ops = np.zeros((6, n + 1 + width))
    ops[0, :n] = lgam[1 : n + 1]
    ops[1, :n] = np.arange(1, n + 1) * ls
    ops[2, :n] = logi
    ops[3, :n] = alpha * logw
    ops[4, : n + 1] = lgam[n::-1]
    ops[5, : n + 1] = np.arange(n, -1, -1) * l1s
    lgam_i, ls_i, logi_i, aw_i, lgam_d, l1s_d = sliding_window_view(ops, width, axis=1)
    out = np.empty(n)
    for start in range(0, n, CHUNK_ROWS):
        rows = slice(start, min(start + CHUNK_ROWS, n))
        m0 = np.arange(rows.start, rows.stop)  # m - 1
        at_i = lo[rows] - 1
        at_d = n - 1 - m0 + lo[rows]
        w = int(span[rows].max()) + 1
        t = lgam[m0 + 1, None] - lgam_i[at_i, :w]
        t -= lgam_d[at_d, :w]
        t += ls_i[at_i, :w]
        t += l1s_d[at_d, :w]
        g = logi_i[at_i, :w]
        g -= logi[m0, None]
        g *= 1.0 - alpha
        t += g
        t += aw_i[at_i, :w]
        np.copyto(t, -np.inf, where=np.arange(w) > span[rows, None])
        out[rows] = _log_sum_exp_rows(t)
    return out


# ---------------------------------------------------------------------------
# binomial sampling by chop-down inversion from the mode
# ---------------------------------------------------------------------------
#
# The unit interval is partitioned into pieces of length pmf(k) in the fixed
# order mode, mode+1, mode-1, mode+2, mode-2, ...; the draw is the k whose
# piece contains u.  This is an exact sampler for any u ~ Uniform(0,1); the
# (~1e-15) residual rounding mass at the end of the interval maps to the mode.
#
# The pieces depend only on the count n, and a call's counts take few
# distinct values (at most n0 + 1 in a simulation), so the sampler
# builds each distinct count's cumulative sums once, as one row of a table,
# with the per-draw recurrences and float additions; the draws are therefore
# those of a per-draw loop, bit for bit.  The table stops growing once each
# row's sum exceeds the call's largest uniform, or both of the row's tails
# are exactly 0, after which further pieces add nothing.  Each draw is the
# first entry of its row greater than u; entries past it do not change it.


def _chop_down_table(counts, s, umax, lgam):
    """(cumulative piece sums, draw of each piece) per row, for 0 < s < 1.

    Row r holds the running sums pm, pm + p(m+1), pm + p(m+1) + p(m-1), ...
    for n = counts[r] with mode m, padded by repeating the last sum to a
    width 2^k - 1, plus one final column; ``draws`` maps every column past
    the row's real pieces (residual mass) to the mode.
    """
    ls = math.log(s)
    l1s = math.log1p(-s)
    m = np.minimum(np.floor((counts + 1) * s).astype(np.int64), counts)
    pm = np.exp(lgam[counts] - lgam[m] - lgam[counts - m] + m * ls + (counts - m) * l1s)
    acc = pr = pl = pm
    sums = [acc]
    j = 0
    while not np.all((umax < acc) | ((pr == 0.0) & (pl == 0.0))):
        j += 1
        ir = m + j
        pr = np.where(ir <= counts, pr * (((counts - ir + 1) * s) / (ir * (1.0 - s))), 0.0)
        acc = acc + pr
        sums.append(acc)
        il = m - j
        pl = np.where(il >= 0, pl * (((il + 1) * (1.0 - s)) / ((counts - il) * s)), 0.0)
        acc = acc + pl
        sums.append(acc)
    width = (1 << len(sums).bit_length()) - 1
    sums.extend([acc] * (width + 1 - len(sums)))
    offset = np.zeros(width + 1, dtype=np.int64)
    offset[1 : 2 * j + 1 : 2] = np.arange(1, j + 1)
    offset[2 : 2 * j + 1 : 2] = -np.arange(1, j + 1)
    return np.stack(sums, axis=1), m[:, None] + offset


def binomial_inverse(n, s, u, lgam):
    n = np.asarray(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    if s <= 0.0:
        return np.zeros_like(n)
    if s >= 1.0:
        return n.copy()
    flat_n, flat_u = n.ravel(), u.ravel()
    present = np.bincount(flat_n) > 0
    counts = np.flatnonzero(present)
    row = (np.cumsum(present) - 1)[flat_n]
    sums, draws = _chop_down_table(counts, s, flat_u.max(initial=0.0), lgam)
    # binary search: advance each draw's position while the entry it would
    # step over is <= u, so it stops at the first entry greater than u
    width = sums.shape[1]
    pos = row * width
    sums = sums.ravel()
    step = width // 2
    while step:
        pos += (sums.take(pos + (step - 1)) <= flat_u) * step
        step //= 2
    return draws.ravel()[pos].reshape(n.shape)


binomial_inverse_numpy = binomial_inverse  # the name perfbench/tests still imports
