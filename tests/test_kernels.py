import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pensionlab._kernels import (
    TAIL_NATS,
    _row_windows,
    _windows,
    binomial_draws,
    binomial_inverse,
    binomial_table,
    lgamma_table,
    log_survivor_mixture,
)
from pensionlab._rng import (
    _BELOW_ONE,
    _mix,
    _unit_interval,
    inverse_normal_cdf,
    path_keys,
    step_hash,
    stream_uniforms,
)

from oracle_binomial import binomial_inverse_loop, chop_down_sums
from oracle_mixture import (
    all_rows,
    log_sum_exp_rows,
    log_survivor_mixture_full,
    log_survivor_mixture_gather,
    log_survivor_mixture_split_gather,
    mixture_terms,
)
from oracle_normal import inverse_normal_cdf_all_branches
from oracle_rng import key as key_scalar
from oracle_rng import mix as mix_scalar
from oracle_rng import uniform as uniform_scalar


def chain_uniforms(seed, paths, step, stream, block=None):
    """The uniforms of paths 0..paths-1 as ``montecarlo._draw`` draws them:
    each block's path keys, then its step hash and its stream."""
    block = block or paths
    return np.concatenate([
        stream_uniforms(step_hash(path_keys(seed, lo, min(lo + block, paths)), step), stream)
        for lo in range(0, paths, block)
    ])


class TestUniforms:
    def test_open_interval_and_determinism(self):
        u1 = chain_uniforms(12345, 10_000, step=3, stream=1)
        u2 = chain_uniforms(12345, 10_000, step=3, stream=1)
        assert np.array_equal(u1, u2)
        assert np.all((u1 > 0.0) & (u1 < 1.0))

    def test_streams_and_steps_decorrelate(self):
        base = chain_uniforms(1, 1000, step=0, stream=0)
        assert not np.array_equal(base, chain_uniforms(1, 1000, step=0, stream=1))
        assert not np.array_equal(base, chain_uniforms(1, 1000, step=1, stream=0))
        assert not np.array_equal(base, chain_uniforms(2, 1000, step=0, stream=0))

    def test_value_depends_only_on_path_key(self):
        # a path's draws do not depend on the run's size or its blocks
        full = chain_uniforms(99, 1000, step=5, stream=0)
        assert np.array_equal(full[:422], chain_uniforms(99, 422, step=5, stream=0))
        assert np.array_equal(full, chain_uniforms(99, 1000, step=5, stream=0, block=64))

    def test_golden_values(self):
        # pinned from the implementation that hashed the seed once per path
        assert chain_uniforms(12345, 8, step=3, stream=1).tolist() == [
            0.6077405153369708, 0.4744116663223192, 0.253264101149189, 0.7887265065971674,
            0.5524181681024696, 0.8277142129465946, 0.8798613262080888, 0.8370982829321414,
        ]
        assert chain_uniforms(0, 1, 7, 0).tolist() == [0.7304758844200925]
        assert chain_uniforms(-1, 6, 2**63, 2**32)[5] == 0.46342369398685573

    def test_roughly_uniform(self):
        u = chain_uniforms(7, 200_000, step=0, stream=0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.001

    def test_extreme_hashes_stay_inside_unit_interval(self):
        # (2^53 - 1) 2^-53 + 2^-54 rounds to 1.0; the clamp keeps it below
        h = np.array([0, 2**64 - 1], dtype=np.uint64)
        u = _unit_interval(h)
        assert u.tolist() == [2.0**-54, 1.0 - 2.0**-53]
        assert u[1] < 1.0
        assert np.all(np.isfinite(inverse_normal_cdf(u)))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.integers(-(2**64), -1), st.integers(2**63, 2**64 - 1), st.just(0)),
        step=st.integers(0, 2**63),
        stream=st.integers(0, 2**63),
        paths=st.integers(1, 200),
        block=st.integers(1, 200),
    )
    def test_split_chain_matches_scalar_reference(self, seed, step, stream, paths, block):
        # path keys -> step hash -> stream, a block at a time, is how simulate
        # draws; every draw must match the scalar reference
        u = chain_uniforms(seed, paths, step, stream, block)
        assert u.tolist() == [uniform_scalar(seed, i, step, stream) for i in range(paths)]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**70), st.integers(0, 2**64)),
        lo=st.integers(0, 2**64 - 300),
        size=st.integers(0, 200),
    )
    def test_keys_of_any_range_match_scalar_reference(self, seed, lo, size):
        # a block forms the keys of its own range [lo, hi); seeds reduce modulo 2^64
        keys = path_keys(seed, lo, lo + size)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [key_scalar(seed, path) for path in range(lo, lo + size)]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1), max_size=50))
    def test_mix_in_place_matches_scalar_reference(self, values):
        x = np.array(values, dtype=np.uint64)
        out = _mix(x)
        assert out is x
        assert x.tolist() == [mix_scalar(v) for v in values]


class TestInverseNormal:
    def test_against_scipy(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        p = np.concatenate(
            [[1e-300, 1e-20, 1e-9], np.linspace(1e-6, 1.0 - 1e-6, 2001), [1.0 - 1e-9]]
        )
        ours = inverse_normal_cdf(p)
        ref = ndtri(p)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-13)

    def test_roundtrip_through_erfc(self):
        p = np.linspace(1e-8, 1.0 - 1e-8, 4001)
        x = inverse_normal_cdf(p)
        back = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
        assert np.allclose(back, p, atol=2e-15)

    def test_symmetry_and_median(self):
        assert inverse_normal_cdf(np.array([0.5]))[0] == 0.0
        p = np.array([0.01, 0.2, 0.43])
        assert np.allclose(inverse_normal_cdf(p), -inverse_normal_cdf(1.0 - p), atol=1e-13)

    # the central/tail switch, the near/far tail switch at r = 5, and the
    # extremes 2^-54 and 1 - 2^-53 (1 - 2^-54 itself rounds to 1.0)
    SWITCHES = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 2.0**-54, 1.0 - 2.0**-53]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                st.sampled_from(SWITCHES),
                st.sampled_from(SWITCHES).map(lambda p: np.nextafter(p, 0.0)),
                st.sampled_from(SWITCHES).map(lambda p: np.nextafter(p, 1.0)),
            ).filter(lambda p: 0.0 < p < 1.0),
            max_size=64,
        )
    )
    def test_matches_all_branch_formula(self, p):
        p = np.array(p, dtype=np.float64)
        assert np.array_equal(inverse_normal_cdf(p), inverse_normal_cdf_all_branches(p))

    def test_block_holds_at_most_three_arrays(self):
        # besides its input, a block of simulate's draws holds q, r and the
        # central rational, then r, the rational and one polynomial, plus
        # the tail draws' index and sign: at most 3.5 block arrays
        p = chain_uniforms(5, 2**14, step=0, stream=0)
        inverse_normal_cdf(p)  # warm
        tracemalloc.start()
        try:
            inverse_normal_cdf(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * p.nbytes, f"peak traced allocation {peak / 1024:.1f} KiB"


def _exact_binomial_pmf(n, s_frac):
    return [
        float(Fraction(math.comb(n, k)) * s_frac**k * (1 - s_frac) ** (n - k))
        for k in range(n + 1)
    ]


class TestBinomialInverse:
    def test_partition_reproduces_pmf(self):
        # feeding a fine grid of uniforms must allocate each outcome a share
        # of cells proportional to its probability
        n, s = 20, 0.3
        grid_n = 400_000
        u = (np.arange(grid_n) + 0.5) / grid_n
        k = binomial_inverse(np.full(grid_n, n, dtype=np.int64), s, u, lgamma_table(n))
        counts = np.bincount(k, minlength=n + 1) / grid_n
        pmf = _exact_binomial_pmf(n, Fraction(3, 10))
        assert np.max(np.abs(counts - pmf)) < 2.0 / grid_n * (n + 1)

    def test_degenerate_probabilities(self):
        n = np.array([4, 7, 0], dtype=np.int64)
        u = np.array([0.3, 0.9, 0.5])
        lg = lgamma_table(7)
        assert np.array_equal(binomial_inverse(n, 1.0, u, lg), [4, 7, 0])

    def test_whole_support_reachable(self):
        # the partition is ordered mode-outward, so edges are reached by the
        # uniforms falling in the last-accumulated intervals
        n = 10
        grid_n = 200_000
        u = (np.arange(grid_n) + 0.5) / grid_n
        k = binomial_inverse(np.full(grid_n, n, dtype=np.int64), 0.5, u, lgamma_table(n))
        assert set(np.unique(k)) == set(range(n + 1))

    def test_large_n_small_survival_no_underflow(self):
        # pmf(0) underflows in linear space; mode-start inversion must not care
        n = np.full(1000, 10_000, dtype=np.int64)
        u = chain_uniforms(3, 1000, step=0, stream=0)
        k = binomial_inverse(n, 0.5, u, lgamma_table(10_000))
        assert np.all((k > 4600) & (k < 5400))
        assert abs(k.mean() - 5000.0) < 4 * 50.0 / math.sqrt(1000)

    def test_moments_on_hashed_stream(self):
        n0, s, draws = 1000, 0.97, 100_000
        u = chain_uniforms(99, draws, step=0, stream=1)
        k = binomial_inverse(np.full(draws, n0, dtype=np.int64), s, u, lgamma_table(n0))
        mean_se = math.sqrt(n0 * s * (1 - s) / draws)
        assert abs(k.mean() - n0 * s) < 4 * mean_se
        var = n0 * s * (1 - s)
        assert abs(k.var() - var) < 5 * var * math.sqrt(2.0 / (draws - 1))

    def test_empty_input(self):
        out = binomial_inverse(np.array([], dtype=np.int64), 0.5, np.array([]), lgamma_table(3))
        assert out.shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_table_matches_per_path_loop(self, data):
        n0 = data.draw(st.integers(1, 10_000), label="n0")
        s = data.draw(st.floats(1e-12, 1.0 - 1e-12), label="s")
        size = data.draw(st.integers(1, 40), label="size")
        n = np.array(data.draw(st.lists(st.integers(0, n0), min_size=size, max_size=size)))
        n[data.draw(st.integers(0, size - 1))] = 0
        lgam = lgamma_table(n0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        kinds = rng.integers(0, 3, size)
        u = rng.uniform(0.0, 1.0, size)
        # u within 2^-54 .. 2^-20 of 1
        near_one = 1.0 - 2.0 ** -rng.integers(20, 55, size)
        u = np.where(kinds == 1, near_one, u)
        # u exactly equal to one of the running sums of its count
        for i in np.flatnonzero(kinds == 2):
            sums = chop_down_sums(n[i], s, lgam, rounds=6)
            u[i] = sums[rng.integers(0, len(sums))]
        u = np.clip(u, 2.0**-54, 1.0 - 2.0**-54)
        assert np.array_equal(binomial_inverse(n, s, u, lgam), binomial_inverse_loop(n, s, u, lgam))

    @pytest.mark.parametrize("s", [1e-12, 0.5, 1.0 - 1e-12])
    def test_guide_edges_match_per_path_loop(self, s):
        # 50k draws over counts from 0 to 10,000, with uniforms on the guide's
        # bucket edges b/256 and on running sums, whose guide start is still
        # <= u, so the binary search of the unsettled draws runs as well
        n0, draws = 10_000, 50_000
        lgam = lgamma_table(n0)
        rng = np.random.default_rng(11)
        values = np.concatenate([[0, 1, n0 - 1, n0], rng.integers(2, n0 - 1, 44)])
        n = rng.choice(values, draws)
        n[:2] = 0, n0
        u = rng.uniform(0.0, 1.0, draws)
        edges = rng.choice(draws, 5000, replace=False)
        u[edges] = rng.integers(0, 256, edges.size) / 256.0
        on_sums = rng.choice(np.setdiff1d(np.arange(draws), edges), 5000, replace=False)
        for c in np.unique(n[on_sums]):
            sums = np.array(chop_down_sums(c, s, lgam, rounds=8))
            sums = sums[sums < sums[-1]]  # exceeded within 8 rounds, so the loop stays short
            at = on_sums[n[on_sums] == c]
            if sums.size:
                u[at] = rng.choice(sums, at.size)
        assert np.array_equal(binomial_inverse(n, s, u, lgam), binomial_inverse_loop(n, s, u, lgam))
        # u at and just below 1, where the per-draw loop may run to n0 rounds
        n = np.repeat(values, 2)
        u = np.tile([1.0, 1.0 - 2.0**-53], values.size)
        assert np.array_equal(binomial_inverse(n, s, u, lgam), binomial_inverse_loop(n, s, u, lgam))

    @pytest.mark.parametrize("dtype, n0", [(np.uint8, 255), (np.uint16, 10_000)],
                             ids=["uint8", "uint16"])
    @pytest.mark.parametrize("s", [0.3, 1.0])
    def test_narrow_counts_give_int64_draws(self, dtype, n0, s):
        # simulate passes its counts in their own one- or two-byte type
        rng = np.random.default_rng(29)
        n = rng.integers(0, n0 + 1, 500)
        n[:2] = 0, n0
        u = rng.uniform(0.0, 1.0, 500)
        table = binomial_table(n, s, lgamma_table(n0))
        want = binomial_draws(table, n, u)
        got = binomial_draws(table, n.astype(dtype), u)
        assert want.dtype == got.dtype == np.int64
        assert np.array_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_one_table_drawn_in_blocks(self, data):
        # a table built from all counts gives every block the draws of a
        # table built for that block alone
        n0 = data.draw(st.integers(1, 2000), label="n0")
        s = data.draw(st.sampled_from([1e-9, 0.3, 0.97, 1.0]), label="s")
        size = data.draw(st.integers(1, 300), label="size")
        block = data.draw(st.integers(1, 64), label="block")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        n = rng.integers(0, n0 + 1, size)
        u = rng.uniform(0.0, 1.0, size)
        lgam = lgamma_table(n0)
        table = binomial_table(n, s, lgam)
        got = [binomial_draws(table, n[lo : lo + block], u[lo : lo + block])
               for lo in range(0, size, block)]
        want = [binomial_inverse(n[lo : lo + block], s, u[lo : lo + block], lgam)
                for lo in range(0, size, block)]
        assert np.array_equal(np.concatenate(got), np.concatenate(want))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_reaches_every_uniform(self, data):
        # one table per count set, then draws at the uniforms at its reach:
        # the largest and smallest a stream returns, each row's last sums,
        # and random ones, against the per-path loop
        n0 = data.draw(st.integers(1, 10_000), label="n0")
        s = data.draw(st.just(5e-324) | st.floats(1e-12, 1.0 - 1e-12), label="s")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        counts = np.unique(np.append(rng.integers(0, n0 + 1, data.draw(st.integers(1, 8))), n0))
        lgam = lgamma_table(n0)
        table = binomial_table(counts, s, lgam)
        rows = table.sums.reshape(counts.size, table.width)[:, :-1]
        u = np.array([_BELOW_ONE, 2.0**-54, *rng.uniform(0.0, 1.0, 4),
                      *(x for row in rows for x in np.unique(row)[-3:])])
        n = np.repeat(counts, u.size)
        u = np.tile(u, counts.size)
        got = binomial_draws(table, n, u)
        assert np.array_equal(got, binomial_inverse_loop(n, s, u, lgam))

    def test_one_table_serves_uniforms_far_in_the_tails(self):
        # a row built only out to the uniforms up to 0.5 would draw the mode,
        # 90, for each of these
        lgam = lgamma_table(100)
        table = binomial_table(np.array([100]), 0.9, lgam)
        u = np.array([0.6, 0.99, 0.999999])
        assert binomial_draws(table, np.full(3, 100), u).tolist() == [93, 82, 73]

    @pytest.mark.parametrize("n0, s", [(1, 0.5), (100, 0.9), (10_000, 0.3), (10_000, 1e-9)])
    def test_table_ends_at_the_last_growing_pair(self, n0, s):
        # each row holds the loop's sums out to the last pair of pieces that
        # changes some row's sum, then repeats its last sum to the next
        # 2^k - 1 columns, then +inf; later pairs change no sum
        lgam = lgamma_table(n0)
        counts = np.unique(np.linspace(0, n0, 12).astype(np.int64))
        table = binomial_table(counts, s, lgam)
        rows = table.sums.reshape(counts.size, table.width)
        loop = np.array([chop_down_sums(c, s, lgam, rounds=table.width) for c in counts])
        grows = np.flatnonzero(np.any(loop[:, 2::2] != loop[:, :-2:2], axis=0))
        real = 2 * (int(grows[-1]) + 1 if grows.size else 0) + 1
        assert table.width == 1 << real.bit_length()
        assert np.array_equal(rows[:, :real], loop[:, :real])
        assert np.all(rows[:, real:-1] == loop[:, -1:]) and np.all(rows[:, -1] == np.inf)


class TestFiniteValueStep:
    def test_lgamma_table(self):
        lg = lgamma_table(20)
        assert lg[0] == 0.0
        for k in (1, 5, 20):
            assert lg[k] == pytest.approx(math.lgamma(k + 1.0), rel=1e-15)


survival = st.one_of(
    st.just(1.0),
    st.floats(1e-12, 1.0 - 1e-12),
    st.floats(-12.0, 0.0).map(lambda e: max(10.0**e, 1e-12)),
    st.floats(-12.0, -0.5).map(lambda e: 1.0 - 10.0**e),
)


@st.composite
def mixture_inputs(draw, max_n=400, survival=survival):
    """(logw, s, alpha): smooth or rough log z', optionally with +-inf entries."""
    n = draw(st.integers(1, max_n))
    alpha = draw(st.floats(-20.0, 0.95).filter(lambda a: a != 0.0))
    s = draw(survival)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        logw = rng.uniform(-5.0, 5.0, n)
    else:
        x = np.linspace(0.0, 1.0, n)
        a, b, c = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(0.0, 6.0)
        logw = a + b * np.sin(c * x)
    infinite = draw(st.sampled_from(["none", "one", "prefix"]))
    if infinite != "none":
        j = draw(st.integers(1, n))
        value = draw(st.sampled_from([-np.inf, np.inf]))
        if infinite == "one":
            logw[j - 1] = value
        else:
            logw[:j] = value
    return logw, s, alpha


def operand_ulps(logw, s, lgam, alpha, ulps=8):
    """ulps units in the last place of row m's largest operand: log m!,
    m |log s|, m |log(1-s)|, (1-alpha) log m or the largest finite
    |alpha logw_i|, i <= m.  The kernel rounds each term at that scale."""
    m = np.arange(1, logw.shape[0] + 1, dtype=np.float64)
    aw = np.abs(alpha * logw)
    scale = np.maximum.reduce([
        lgam[1:],
        m * abs(math.log(s)),
        m * abs(math.log1p(-s)) if s < 1.0 else np.zeros_like(m),
        (1.0 - alpha) * np.log(m),
        np.maximum.accumulate(np.where(np.isfinite(aw), aw, 0.0)),
    ])
    return ulps * np.spacing(scale)


def assert_within_operand_ulps(got, want, logw, s, lgam, alpha):
    limit = ~np.isfinite(want)
    assert np.array_equal(got[limit], want[limit])
    bound = operand_ulps(logw, s, lgam, alpha)
    assert np.all(np.abs(got[~limit] - want[~limit]) <= bound[~limit])


class TestBandedMixture:
    @settings(max_examples=300, deadline=None)
    @given(mixture_inputs())
    def test_matches_full_triangle(self, inputs):
        logw, s, alpha = inputs
        lgam = lgamma_table(logw.shape[0])
        got = log_survivor_mixture(logw, s, lgam, alpha, all_rows(logw, s, alpha))
        want = log_survivor_mixture_full(logw, s, lgam, alpha)
        assert_within_operand_ulps(got, want, logw, s, lgam, alpha)

    @settings(max_examples=300, deadline=None)
    @given(mixture_inputs())
    def test_matches_old_grouping_within_operand_ulps(self, inputs):
        # the kernel once summed each term from log m! - log i! on; summing
        # it as A_i + D_(m-i) moves log lam by a few ulp of the largest operand
        logw, s, alpha = inputs
        lgam = lgamma_table(logw.shape[0])
        got = log_survivor_mixture(logw, s, lgam, alpha, all_rows(logw, s, alpha))
        want = log_survivor_mixture_gather(logw, s, lgam, alpha)
        assert_within_operand_ulps(got, want, logw, s, lgam, alpha)

    @settings(max_examples=300, deadline=None)
    @given(mixture_inputs().filter(lambda inputs: inputs[1] < 1.0))
    def test_dropped_mass_is_certified(self, inputs):
        # the terms outside each row's window, summed exactly over the full
        # triangle, stay below exp(-TAIL_NATS) of the terms inside it
        logw, s, alpha = inputs
        n = logw.shape[0]
        t = mixture_terms(logw, s, lgamma_table(n), alpha)
        lo, hi = _row_windows(alpha * logw, s, alpha)
        i = np.arange(1, n + 1)[None, :]
        inside = (i >= lo[:, None]) & (i <= hi[:, None])
        assert np.all((lo >= 1) & (hi <= np.arange(1, n + 1)) & (lo <= hi))
        kept = log_sum_exp_rows(np.where(inside, t, -np.inf))
        dropped = log_sum_exp_rows(np.where(inside, -np.inf, t))
        rows = np.isfinite(kept)
        assert np.all(dropped[rows] - kept[rows] <= -TAIL_NATS + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        mixture_inputs(
            max_n=700, survival=st.sampled_from([1e-12, 0.3, 0.6, 0.99, 1.0 - 1e-12, 1.0])
        )
    )
    def test_matches_gathered_block_bitwise(self, inputs):
        # row copies of per-index vectors give the same terms, in the same
        # block shape, as gathering every term's operands by index
        logw, s, alpha = inputs
        lgam = lgamma_table(logw.shape[0])
        got = log_survivor_mixture(logw, s, lgam, alpha, all_rows(logw, s, alpha))
        want = log_survivor_mixture_split_gather(logw, s, lgam, alpha)
        assert np.array_equal(got, want, equal_nan=True)

    def test_matches_gathered_block_bitwise_on_banded_rows(self):
        n, s, alpha = 2048, 0.5, -1.0
        logw = np.linspace(0.7, 3.0, n)
        lo, hi = _row_windows(alpha * logw, s, alpha)
        assert np.any(hi < np.arange(1, n + 1)) and np.any(lo > 1)
        lgam = lgamma_table(n)
        got = log_survivor_mixture(logw, s, lgam, alpha, all_rows(logw, s, alpha))
        want = log_survivor_mixture_split_gather(logw, s, lgam, alpha)
        assert np.array_equal(got, want)

    def test_one_call_allocates_two_operand_vectors_and_one_block(self):
        # six operand rows and seven (rows x window) temporaries per block
        # once peaked at 2.90 MiB here; two vectors and one block: 1.69 MiB;
        # blocks of at most BLOCK_CELLS cells: 1.44 MiB
        n = 10_000
        logw = np.linspace(0.7, 3.0, n)
        lgam = lgamma_table(n)
        tracemalloc.start()
        try:
            log_survivor_mixture(logw, 0.93, lgam, -1.0, all_rows(logw, 0.93, -1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"

    def test_windows_at_certain_survival_are_the_rows(self):
        # s = 1 leaves each count where it is, whatever the spread
        rows = np.array([1, 7, 128, 300])
        for spread in (0.0, 5.0, np.inf):
            lo, hi = _windows(rows, spread, 1.0, -1.0)
            assert lo is rows and hi is rows

    def test_window_is_a_band_at_large_n(self):
        # on a smooth z' the windows hold O(sqrt(m)) terms, not O(m)
        n = 4096
        logw = np.linspace(0.7, 3.0, n)
        for s, kept in ((0.95, 0.11), (0.6, 0.25), (8.8e-10, 0.03)):
            lo, hi = _row_windows(-1.0 * logw, s, -1.0)
            assert (hi - lo + 1).sum() < kept * n * (n + 1) / 2
