"""Hot numeric kernels: the finite value step and the survivor sampler.

Their share of a run depends on the workload.  Measured in process on a
loaded 2-CPU host (Python 3.11, numpy 2.4), median of 9 runs: the fund size
study up to n = 2048 spends about 35 of 48 ms in the value step, and a
100,000-path simulation of a fund of 100 about 42 of 236 ms in the sampler
(10 ms of it building tables), against about 120 ms in ``_rng``'s hashing
and inverse normal.

* ``log_survivor_mixture`` - the binomial survivor mixture at the heart of
  one backward step of the finite-collective value recursion (see
  ``solver._backward``), evaluated in log space so z^alpha stays
  representable for large |alpha|.  Each survivor-count row is summed only
  over a window of O(sqrt(n)) terms around its mean, with a proven bound on
  the dropped mass, so a step costs O(n^1.5) time and O(n + block)
  memory instead of O(n^2) for both.  Each term is one addition of row
  copies of two per-index vectors, not per-term gathers.  Its caller
  passes every date's rows and windows as a ``step``.
* ``binomial_inverse`` - exact binomial sampling from a single uniform by
  chop-down inversion starting at the mode.  It is a table sampler in two
  parts.  ``binomial_table`` builds the cumulative chop-down sums once per
  distinct count, out to the last piece that still changes a sum in
  float64, plus a guide table of ``GUIDE_BUCKETS`` start positions per row,
  in O(distinct * (window + buckets)) time and memory, window being the
  O(sqrt(n s (1-s))) pieces that a Bernstein bound allows a row.
  ``binomial_draws`` finds each uniform in its row by indexed search: one
  guide lookup and one compare settle most draws, and only the rest are
  binary-searched, in O(draws) expected time.  It reads the counts in their
  own integer type, one byte wide in a fund of up to 255, and holds about
  three draw-sized arrays at a time.  A simulation step builds one table,
  which serves every uniform, before it draws a block of paths at a time
  from it;
  ``binomial_inverse(n, s, u, lgam)`` is the two in one call.  The draws are
  those of a per-draw loop, bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "lgamma_table",
    "log_survivor_mixture",
    "BinomialTable",
    "binomial_table",
    "binomial_draws",
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
# depends on lo and lo on t; _windows iterates lo down to a fixed point,
# where the bound holds for the window actually used.  Rows whose bound
# covers all of 1..m (small m, or an infinite log z') get lo = 1, hi = m.
# _windows takes the range of alpha log z' as an argument: the exact prefix
# range (_row_windows), or any bound on it, which widens the windows.
#
# Rows are grouped in chunks of CHUNK_ROWS counts, and a chunk is evaluated
# on (rows x widest window) blocks of at most BLOCK_CELLS cells (one row, if
# wider), so memory is O(n + BLOCK_CELLS + window), never O(n^2).  A row's
# sum depends on its chunk's width, not on the rows beside it in the block.
# Each term's log is A_i + D_d with d = m - i and
#
#   A_i = i log s - log i! + (1-alpha) log i + alpha log z'_i
#   D_d = d log(1-s) - log d!,
#
# and its row adds the constant log m! - (1-alpha) log m, which comes out of
# the row's log-sum-exp exactly.  Each call tabulates A and D once as
# vectors; a block row runs over consecutive i (and consecutive d), so it is
# one row copy of each plus one addition, with no per-term gathers.  Each
# term rounds at the scale of its largest operand, |log m!| or m |log s|,
# not after log m! - log i! cancels, so log lam_m carries a few ulp of
# log m!; each lgam entry already carries one.  The block shape and these
# operations fix every rounding, and the masked cells are -inf, as if the
# block had been evaluated term by term.

TAIL_NATS = 40.0  # exp(-40) = 4.2e-18: the dropped/kept mass bound per row
CHUNK_ROWS = 128
BLOCK_CELLS = 32_768  # cells of one (rows x chunk width) block: 256 KiB


def _row_windows(alpha_logw, s, alpha):
    """Exact window bounds lo, hi (1-based, inclusive) of the rows m = 1..n,
    alpha_logw holding alpha log z' at the counts 1..n."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, a whole row below
        spread = np.maximum.accumulate(alpha_logw) - np.minimum.accumulate(alpha_logw)
    return _windows(np.arange(1, alpha_logw.shape[0] + 1), spread, s, alpha)


def _windows(rows, spread, s, alpha):
    """Window bounds lo, hi (1-based, inclusive) of the survivor counts
    ``rows``, ``spread`` bounding each row's range of alpha log z' over the
    counts 1..m (one bound for every row, or one per row).  At s >= 1 each
    row's window is the row itself."""
    if s >= 1.0:
        return rows, rows
    m = np.asarray(rows, dtype=np.float64)
    ms = m * s
    v = ms * (1.0 - s)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base = TAIL_NATS + math.log(2.0) + spread - np.log(-np.expm1(m * math.log1p(-s)))
        # lo only moves down, and a lower lo only widens t, so this ends;
        # fmax/fmin map an infinite reach (L^2 overflows at large |alpha|)
        # or a NaN bound (inf - inf, inf * 0) to the whole row
        lo = np.fmax(1.0, np.floor(ms))
        while True:
            big_l = base + (1.0 - alpha) * np.log(m / lo)
            t = _bernstein_reach(big_l, v)
            new_lo = np.fmax(1.0, np.floor(ms - t))
            if np.array_equal(new_lo, lo):
                break
            lo = new_lo
        hi = np.fmin(m, np.ceil(ms + t))
    return lo.astype(np.int64), hi.astype(np.int64)


def _bernstein_reach(big_l, v):
    """t = L/3 + sqrt((L/3)^2 + 2 L v), where Bernstein's exponent
    t^2 / (2 (v + t/3)) reaches ``big_l`` for a sum of variance ``v``."""
    return big_l / 3.0 + np.sqrt((big_l / 3.0) ** 2 + 2.0 * big_l * v)


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


def log_survivor_mixture(logw, s, lgam, alpha, step):
    """log lam_m per survivor count m of the date, where

        lam_m = sum_{i=1..m} (i/m)^(1-alpha) C(m,i) s^i (1-s)^(m-i) exp(alpha logw_i)

    via a row-wise log-sum-exp over each row's window of i.

    ``step`` is (rows, lo, hi, given): the counts m to evaluate, each one's
    window lo..hi, and the counts i whose logw is given, which hold every
    window; all ascending.  The exact windows (``_row_windows``), or any
    that hold them, keep the dropped mass within the bound.  A row's bits
    depend only on its window and its 128-count chunk's width, so two steps
    that give a row the same window and chunk width agree on it to the bit.
    """
    rows, lo, hi, given = step
    at = np.searchsorted(given, lo)  # the position of each window's first logw
    if s >= 1.0:
        return alpha * logw[at]
    i = given.astype(np.float64)
    logi = np.log(i)
    span = hi - lo
    width = int(span.max(initial=0)) + 1
    back = rows - lo  # d = m - i at a block row's first column
    top = int(back.max(initial=0))
    # A_i sits at the position of i in ``given`` and D_d at column top - d,
    # zero-padded by the widest window, so a block row i = lo..lo+w-1 is one
    # row of each view
    ops = np.zeros((2, max(given.size, top + 1) + width))
    ops[0, : given.size] = i * math.log(s) - lgam[given] + (1.0 - alpha) * logi + alpha * logw
    ops[1, : top + 1] = np.arange(top, -1, -1) * math.log1p(-s) - lgam[top::-1]
    a_i, d_d = sliding_window_view(ops, width, axis=1)
    row_const = lgam[rows] - (1.0 - alpha) * np.log(rows.astype(np.float64))
    edges = np.flatnonzero(np.diff((rows - 1) // CHUNK_ROWS, prepend=-1, append=-1))
    out = np.empty(rows.size)
    for start, stop in zip(edges[:-1].tolist(), edges[1:].tolist()):
        w = int(span[start:stop].max()) + 1
        per = max(1, BLOCK_CELLS // w)
        for first in range(start, stop, per):
            part = slice(first, min(first + per, stop))
            t = a_i[at[part], :w]
            t += d_d[top - back[part], :w]
            np.copyto(t, -np.inf, where=np.arange(w) > span[part, None])
            out[part] = _log_sum_exp_rows(t) + row_const[part]
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
# builds each distinct count's cumulative sums once, as one row of a table.
# Each side's pieces are one running product of the per-draw recurrence's
# ratios, the first premultiplied by the mode's pmf, and the sums one
# running sum in the order above; both run in sequence, so the sums and the
# draws are those of a per-draw loop, bit for bit.  The pieces shrink away
# from the mode on each side and float addition is monotone, so once a pair
# of pieces leaves a row's sum as it is, every later pair does too.  The
# rows run out to the last pair that changes some row's sum, so one table
# serves every uniform, up to 1 - 2^-53.  Bernstein's inequality bounds
# that reach: a piece more than t = L/3 + sqrt((L/3)^2 + 2 L v) from n s,
# with v = n s (1-s) and L = TAIL_NATS, is below exp(-L) < 2^-54, which a
# sum above 1/2 rounds away.  Every pair past ceil(t) is such a piece, so
# the table forms ceil(t) pairs per row and keeps those up to the last
# that grows a sum.  Each draw is the first entry of its row greater than
# u, i.e. its position is the number of the row's entries <= u; entries
# past it do not change it, so a table built for more counts gives the
# same draws.
#
# That position is found by indexed search (Chen & Asau 1974; Devroye 1986,
# III.2.4).  Each row gets a guide of G = GUIDE_BUCKETS entries, guide[r, b]
# = the number of row-r sums <= b/G.  With b = min(floor(u G), G - 1),
# b/G <= u, so the guide entry is a lower bound on the position, and it is
# the position unless a sum lies in [b/G, u]: one gather and one compare
# settle most draws, and only the rest are binary-searched in their row.
# G is a power of two, so sums * G and u * G are exact and "sum <= b/G" is
# "ceil(sum G) <= b": the guide is one histogram of those ceilings and its
# running count.  Drawing costs O(draws + distinct * (window + G)) expected
# time, against O(draws log window + distinct * window) for binary search.

GUIDE_BUCKETS = 256  # guide entries per table row; a power of two


def _chop_down_table(counts, s, lgam):
    """(cumulative piece sums, draw of each piece) per row, for 0 < s < 1.

    Row r holds the running sums pm, pm + p(m+1), pm + p(m+1) + p(m-1), ...
    for n = counts[r] with mode m, out to the last pair of pieces that
    changes some row's sum, padded by repeating the last sum to a width
    2^k - 1, plus a final +inf column that no u reaches, so every search
    ends inside its row; ``draws`` maps every column past the row's real
    pieces (residual mass) to the mode.
    """
    ls = math.log(s)
    l1s = math.log1p(-s)
    m = np.minimum(np.floor((counts + 1) * s).astype(np.int64), counts)
    pm = np.exp(lgam[counts] - lgam[m] - lgam[counts - m] + m * ls + (counts - m) * l1s)
    # pairs past ceil(t) are rounded away (see above), and pairs past both
    # n - m and m are empty
    t = _bernstein_reach(TAIL_NATS, counts.max(initial=0) * s * (1.0 - s))
    pairs = np.arange(1, min(math.ceil(t), int(np.maximum(counts - m, m).max(initial=0))) + 1)
    n = counts[:, None]
    ir = m[:, None] + pairs
    il = m[:, None] - pairs
    with np.errstate(over="ignore"):  # a ratio past a row's end, at s = 5e-324
        right = np.where(ir <= n, ((n - ir + 1) * s) / (ir * (1.0 - s)), 0.0)
        left = np.where(il >= 0, ((il + 1) * (1.0 - s)) / ((n - il) * s), 0.0)
    del ir, il
    right[:, :1] *= pm[:, None]
    left[:, :1] *= pm[:, None]
    sums = np.empty((counts.size, 2 * pairs.size + 1))
    sums[:, 0] = pm
    np.cumprod(right, axis=1, out=sums[:, 1::2])
    np.cumprod(left, axis=1, out=sums[:, 2::2])
    del right, left
    np.cumsum(sums, axis=1, out=sums)
    grows = np.flatnonzero(np.any(sums[:, 2::2] != sums[:, :-2:2], axis=0))
    j = int(grows[-1]) + 1 if grows.size else 0  # the last pair that grows a sum
    width = (1 << (2 * j + 1).bit_length()) - 1
    table = np.full((counts.size, width + 1), np.inf)
    table[:, :width] = sums[:, 2 * j : 2 * j + 1]
    table[:, : 2 * j + 1] = sums[:, : 2 * j + 1]
    offset = np.zeros(width + 1, dtype=np.int64)
    offset[1 : 2 * j + 1 : 2] = np.arange(1, j + 1)
    offset[2 : 2 * j + 1 : 2] = -np.arange(1, j + 1)
    return table, m[:, None] + offset


def _guide_table(sums):
    """Flat guide: entry r * G + b is the flat index of row r's first sum > b/G."""
    rows, width = sums.shape
    g = GUIDE_BUCKETS
    # a sum > (G-1)/G, the +inf column included, is counted in no bucket
    key = np.minimum(np.ceil(sums * g), g).astype(np.int64)
    key += np.arange(0, rows * (g + 1), g + 1)[:, None]
    hist = np.bincount(key.ravel(), minlength=rows * (g + 1)).reshape(rows, g + 1)
    guide = np.cumsum(hist[:, :g], axis=1)
    guide += np.arange(0, rows * width, width)[:, None]
    return guide.ravel()


class BinomialTable(NamedTuple):
    """The chop-down table of one survival probability, for the counts present.

    ``rank[c]`` is the row of count c (meaningless for a count the table was
    not built for); ``sums``, ``draws`` and ``guide`` are the flat table.  At
    ``s`` >= 1 every member survives, which needs no table and leaves the
    arrays ``None``.
    """

    s: float
    rank: Optional[np.ndarray] = None
    sums: Optional[np.ndarray] = None
    draws: Optional[np.ndarray] = None
    guide: Optional[np.ndarray] = None
    width: int = 0


def binomial_table(n, s, lgam) -> BinomialTable:
    """The table ``binomial_draws`` reads for counts among ``n``.

    ``n`` holds 1-D counts of any integer type, per path or distinct, and
    ``s`` > 0, as a ``MortalityTable``'s s is at every date a step starts
    from.  One row per distinct count, out to the last piece that changes a
    sum, so one table built from a step's counts at its start serves every
    uniform of every block of it.
    """
    if s >= 1.0:
        return BinomialTable(s)
    present = np.zeros(int(n.max(initial=0)) + 1, dtype=bool)  # no intp copy of the counts
    present[n] = True
    sums, draws = _chop_down_table(np.flatnonzero(present), s, lgam)
    return BinomialTable(s, np.cumsum(present) - 1, sums.ravel(), draws.ravel(),
                         _guide_table(sums), sums.shape[1])


def binomial_draws(table: BinomialTable, n, u) -> np.ndarray:
    """Binomial(n, table.s) int64 draws of the 1-D counts ``n``, one per
    uniform of the 1-D float64 ``u``.

    Every count in ``n`` must be one the table was built for.  The counts are read in their own integer
    type, and each index array is dropped once it has been read, so a call
    holds about three draw-sized arrays besides ``n`` and ``u`` and costs
    O(draws) time.
    """
    if table.s >= 1.0:
        return n.astype(np.int64)
    sums = table.sums
    # start each draw at its bucket's guide entry, a lower bound on its
    # position; the draws whose start entry is still <= u are unsettled
    bucket = (u * GUIDE_BUCKETS).astype(np.int64)
    np.minimum(bucket, GUIDE_BUCKETS - 1, out=bucket)
    row = table.rank.take(n)
    row *= GUIDE_BUCKETS
    bucket += row
    del row
    pos = table.guide.take(bucket)
    del bucket
    unsettled = np.flatnonzero(sums.take(pos) <= u)
    if unsettled.size:
        # binary search in the row: advance while the entry stepped over is
        # <= u, so the search stops at the first entry greater than u
        u_open = u[unsettled]
        at = table.rank.take(n[unsettled]) * table.width
        step = table.width // 2
        while step:
            at += (sums.take(at + (step - 1)) <= u_open) * step
            step //= 2
        pos[unsettled] = at
    return table.draws.take(pos)


def binomial_inverse(n, s, u, lgam):
    """Binomial(n, s) draws of the 1-D uniforms ``u``: one table, then its draws."""
    return binomial_draws(binomial_table(n, s, lgam), n, u)


binomial_inverse_numpy = binomial_inverse  # the name perfbench/tests still imports
