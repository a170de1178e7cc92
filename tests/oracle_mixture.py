"""Reference survivor mixtures for the banded kernel.

``log_survivor_mixture_full`` sums every term i = 1..m of every row m, with
no window, so it costs O(n^2) time and memory.
``_kernels.log_survivor_mixture`` must match it to within rounding.

``log_survivor_mixture_gather`` is the banded kernel as it was first
written: the same windows and (rows x widest window) blocks, with every
term's operands gathered element by element and summed from log m! - log i!
on.  The kernel, which sums each term as A_i + D_(m-i) and adds the row's
constant after the log-sum-exp, must match it to within a few ulp of the
largest operand.

``log_survivor_mixture_split_gather`` gathers every term's operands the
same way but groups them as the kernel does, so the kernel must match it
bit for bit.  All three are kept here only to check the kernel.
"""

import math

import numpy as np

from pensionlab._kernels import CHUNK_ROWS, _row_windows


def mixture_terms(logw, s, lgam, alpha):
    """log of every term (i/m)^(1-alpha) C(m,i) s^i (1-s)^(m-i) exp(alpha logw_i)
    of the (m, i) triangle, rows m = 1..n, columns i = 1..n, -inf for i > m."""
    n = logw.shape[0]
    idx = np.arange(1, n + 1)
    ls = math.log(s)
    l1s = math.log1p(-s)
    logi = np.log(idx.astype(np.float64))
    m_col = idx[:, None]
    i_row = idx[None, :]
    mask = i_row <= m_col
    d = np.where(mask, m_col - i_row, 0)
    t = (
        lgam[m_col]
        - lgam[i_row]
        - lgam[d]
        + i_row * ls
        + d * l1s
        + (1.0 - alpha) * (logi[None, :] - logi[:, None])
        + alpha * logw[None, :]
    )
    return np.where(mask, t, -np.inf)


def log_sum_exp_rows(t):
    mx = t.max(axis=1)
    # rows whose max is +-inf are exact limits (lam = inf or 0); bypass the
    # log-sum-exp there to avoid inf - inf
    finite = np.isfinite(mx)
    with np.errstate(over="ignore", divide="ignore"):
        adj = np.exp(t - np.where(finite, mx, 0.0)[:, None]).sum(axis=1)
        return np.where(finite, mx + np.log(adj), mx)


def log_survivor_mixture_full(logw, s, lgam, alpha):
    """log lam_m for m = 1..n, where

        lam_m = sum_{i=1..m} (i/m)^(1-alpha) C(m,i) s^i (1-s)^(m-i) exp(alpha logw_i)

    via a row-wise log-sum-exp over the masked (m, i) triangle.
    """
    if s >= 1.0:
        return alpha * logw
    return log_sum_exp_rows(mixture_terms(logw, s, lgam, alpha))


def log_survivor_mixture_gather(logw, s, lgam, alpha):
    """log lam_m for m = 1..n over each row's certified window, with the
    block's operands gathered per term by integer index arithmetic."""
    n = logw.shape[0]
    if s >= 1.0:
        return alpha * logw
    ls = math.log(s)
    l1s = math.log1p(-s)
    logi = np.log(np.arange(1, n + 1, dtype=np.float64))
    lo, hi = _row_windows(alpha * logw, s, alpha)
    out = np.empty(n)
    for start in range(0, n, CHUNK_ROWS):
        rows = slice(start, min(start + CHUNK_ROWS, n))
        m_col = np.arange(rows.start + 1, rows.stop + 1)[:, None]
        lo_col, hi_col = lo[rows, None], hi[rows, None]
        i_row = lo_col + np.arange(int((hi_col - lo_col).max()) + 1)[None, :]
        mask = i_row <= hi_col
        i_row = np.where(mask, i_row, lo_col)
        d = m_col - i_row
        t = (
            lgam[m_col]
            - lgam[i_row]
            - lgam[d]
            + i_row * ls
            + d * l1s
            + (1.0 - alpha) * (logi[i_row - 1] - logi[m_col - 1])
            + alpha * logw[i_row - 1]
        )
        out[rows] = log_sum_exp_rows(np.where(mask, t, -np.inf))
    return out


def log_survivor_mixture_split_gather(logw, s, lgam, alpha):
    """log lam_m for m = 1..n over each row's certified window, every term
    gathered by index as A_i + D_d, d = m - i, with

        A_i = i log s - log i! + (1-alpha) log i + alpha logw_i
        D_d = d log(1-s) - log d!

    and log m! - (1-alpha) log m added after each row's log-sum-exp."""
    n = logw.shape[0]
    if s >= 1.0:
        return alpha * logw
    ls = math.log(s)
    l1s = math.log1p(-s)
    logi = np.log(np.arange(1, n + 1, dtype=np.float64))
    lo, hi = _row_windows(alpha * logw, s, alpha)
    out = np.empty(n)
    for start in range(0, n, CHUNK_ROWS):
        rows = slice(start, min(start + CHUNK_ROWS, n))
        m_col = np.arange(rows.start + 1, rows.stop + 1)[:, None]
        lo_col, hi_col = lo[rows, None], hi[rows, None]
        i_row = lo_col + np.arange(int((hi_col - lo_col).max()) + 1)[None, :]
        mask = i_row <= hi_col
        i_row = np.where(mask, i_row, lo_col)
        d = m_col - i_row
        a = (
            i_row.astype(np.float64) * ls
            - lgam[i_row]
            + (1.0 - alpha) * logi[i_row - 1]
            + alpha * logw[i_row - 1]
        )
        t = a + (d.astype(np.float64) * l1s - lgam[d])
        row_const = lgam[m_col[:, 0]] - (1.0 - alpha) * logi[m_col[:, 0] - 1]
        out[rows] = log_sum_exp_rows(np.where(mask, t, -np.inf)) + row_const
    return out
