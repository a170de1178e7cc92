import dataclasses
import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pensionlab._kernels import binomial_inverse, lgamma_table
from pensionlab.core import ConfigurationError, DivergenceError, make_time_grid
from pensionlab.mortality import (
    IngestionError,
    MortalityTable,
    annuity_factor,
    gompertz_makeham,
    load_mortality_csv,
)

from conftest import BUNDLED_GOMPERTZ, random_mortality


class TestSurvivalProb:
    def test_certain_death_at_last_date(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable(g, [0.0, 1.0])
        assert t.s[0] == 1.0
        assert t.s[1] == 0.0

    def test_ratio_of_tails(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable(g, [0.5, 0.5])
        assert t.s[0] == pytest.approx(0.5, abs=1e-15)

    def test_uniform_four_dates(self):
        g = make_time_grid(0, 1, 4)
        t = MortalityTable(g, [0.25] * 4)
        # third date: remaining tail 0.5, surviving tail 0.25
        assert t.s[2] == pytest.approx(0.5, abs=1e-12)

    def test_tail_product_identity(self):
        g = make_time_grid(0, 1, 12)
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = random_mortality(rng, g)
            prod = 1.0
            for k in range(g.n_steps):
                assert abs(prod - t.tail[k]) < 1e-12
                prod *= t.s[k]

    def test_validation(self):
        g = make_time_grid(0, 1, 3)
        with pytest.raises(ConfigurationError):
            MortalityTable(g, [0.5, 0.6, -0.1])
        with pytest.raises(ConfigurationError):
            MortalityTable(g, [0.5, 0.4, 0.2])
        with pytest.raises(ConfigurationError):
            MortalityTable(g, [0.5, 0.5, 0.0])  # no mass at final date
        with pytest.raises(ConfigurationError):
            MortalityTable(g, [0.5, 0.5])

    def test_caller_array_is_copied(self):
        p = np.array([0.25, 0.75])
        t = MortalityTable(make_time_grid(0, 1, 2), p)
        assert t.p is not p and p.flags.writeable and not t.p.flags.writeable
        p[0] = 0.5
        assert t.p.tolist() == [0.25, 0.75]

    @settings(max_examples=200, deadline=None)
    @given(
        interior=st.lists(st.floats(0.0, 1.0) | st.just(0.0), max_size=30),
        last=st.just(5e-324) | st.floats(5e-324, 1.0),
    )
    def test_survival_is_positive_before_the_last_date(self, interior, last):
        # s[k] = tail[k+1] / tail[k] with tail[k+1] >= p[-1] > 0, so the
        # survivor sampler never meets s <= 0 at a date a step starts from
        w = np.array([1.0, *interior])
        p = np.append(w / w.sum() * (1.0 - last), last)
        t = MortalityTable(make_time_grid(0, 1, p.size), p)
        assert np.all(t.s[:-1] > 0.0)

    def test_sampler_at_the_smallest_survival_draws_no_survivor(self):
        t = MortalityTable(make_time_grid(0, 1, 4), [1.0, 0.0, 0.0, 5e-324])
        assert t.s.tolist() == [5e-324, 1.0, 1.0, 0.0]
        n = np.array([0, 1, 7, 100])
        u = np.array([0.5, 2.0**-54, 0.999, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = binomial_inverse(n, float(t.s[0]), u, lgamma_table(100))
        assert draws.tolist() == [0, 0, 0, 0]


class TestTableIsCheckedWhereBuilt:
    # MortalityTable(grid, p) is the one way in: the pmf is checked, and s and
    # tail are derived from it, never taken from the caller
    GRID = make_time_grid(0, 1, 5)
    PMF = [0.2, 0.2, 0.2, 0.2, 0.2]

    def test_pmf_is_the_only_settable_array(self):
        assert [f.name for f in dataclasses.fields(MortalityTable) if f.init] == ["grid", "p"]
        assert not hasattr(MortalityTable, "from_pmf")

    def test_survival_cannot_be_passed(self):
        # a survival probability of 2 was once accepted, and solve priced it
        bad_s = np.array([2.0, 0.5, 0.5, 0.5, 0.0])
        with pytest.raises(TypeError):
            MortalityTable(self.GRID, self.PMF, bad_s, np.ones(5))
        with pytest.raises(TypeError):
            MortalityTable(self.GRID, self.PMF, s=bad_s)
        with pytest.raises(TypeError):
            MortalityTable(self.GRID, self.PMF, tail=np.ones(5))

    @pytest.mark.parametrize("grid", ["grid", None, (0, 1, 5)])
    def test_grid_must_be_a_time_grid(self, grid):
        with pytest.raises(ConfigurationError, match=r"^mortality grid must be a TimeGrid, got "):
            MortalityTable(grid, [1.0])

    def test_arrays_are_read_only_copies(self):
        p = np.array(self.PMF)
        t = MortalityTable(self.GRID, p)
        assert p.flags.writeable and not np.shares_memory(t.p, p)
        for arr in (t.p, t.s, t.tail):
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert t.s.tolist() == pytest.approx([0.8, 0.75, 2 / 3, 0.5, 0.0], abs=1e-15)

    def test_replace_checks_the_new_pmf(self):
        t = MortalityTable(self.GRID, self.PMF)
        moved = dataclasses.replace(t, p=[0.0, 0.0, 0.0, 0.0, 1.0])
        assert moved.s.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0]
        assert moved.tail.tolist() == [1.0] * 5
        with pytest.raises(ConfigurationError, match="sum to 1"):
            dataclasses.replace(t, p=[0.5, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ConfigurationError, match="does not match grid"):
            dataclasses.replace(t, grid=make_time_grid(0, 1, 4))


class TestCSVIngestion:
    def _load(self, text, grid, **kw):
        return load_mortality_csv(io.StringIO(text), grid, **kw)

    def test_forced_certain_death(self):
        g = make_time_grid(65, 1, 67)
        t = self._load("age,qx\n65,0.0\n66,1.0\n", g)
        assert np.allclose(t.p, [0.0, 1.0], atol=1e-15)

    def test_certain_death_before_horizon_rejected(self):
        g = make_time_grid(65, 1, 68)
        with pytest.raises(ConfigurationError, match="force certain death"):
            self._load("age,qx\n65,1.0\n66,0.1\n67,0.1\n", g)

    def test_death_only_at_horizon(self):
        g = make_time_grid(65, 1, 70)
        t = self._load("age,qx\n65,0\n66,0\n67,0\n68,0\n69,1\n", g)
        assert np.allclose(t.p, [0, 0, 0, 0, 1.0], atol=1e-15)

    def test_constant_hazard_chain(self):
        g = make_time_grid(65, 1, 68)
        t = self._load("age,qx\n65,0.1\n66,0.1\n67,0.1\n", g)
        assert np.allclose(t.p, [0.1, 0.09, 0.81], atol=1e-12)
        # blank and whitespace-only lines are skipped
        blank = self._load("age,qx\n65,0.1\n\n66,0.1\n \n67,0.1\n", g)
        assert blank.p.tobytes() == t.p.tobytes()

    def test_fractional_step_geometric_interpolation(self):
        g = make_time_grid(65, 0.5, 68)
        t = self._load("age,qx\n65,0.1\n66,0.1\n67,0.1\n", g)
        # each half-year survives (1-q)^(1/2); annual survival preserved
        assert t.s[0] == pytest.approx(0.9**0.5, rel=1e-14)
        assert t.s[0] * t.s[1] == pytest.approx(0.9, rel=1e-12)

    def test_age_offset(self):
        g = make_time_grid(0, 1, 3)
        t = self._load("age,qx\n65,0.1\n66,0.1\n67,0.1\n", g, age_at_t0=65.0)
        assert np.allclose(t.p, [0.1, 0.09, 0.81], atol=1e-12)

    def test_errors_name_the_problem(self):
        g = make_time_grid(65, 1, 68)
        with pytest.raises(IngestionError, match="header"):
            self._load("age,rate\n65,0.1\n", g)
        with pytest.raises(IngestionError, match="row 3"):
            self._load("age,qx\n65,0.1\n66,oops\n67,0.1\n", g)
        with pytest.raises(IngestionError, match="row 3"):
            self._load("age,qx\n65,0.1\n66,1.7\n67,0.1\n", g)
        with pytest.raises(IngestionError, match="increasing"):
            self._load("age,qx\n65,0.1\n65,0.1\n67,0.1\n", g)
        with pytest.raises(IngestionError, match="age 66"):
            self._load("age,qx\n65,0.1\n67,0.1\n", g)
        with pytest.raises(IngestionError, match="empty"):
            self._load("", g)
        with pytest.raises(IngestionError, match="row 3: expected 2 fields, got 3"):
            self._load("age,qx\n65,0.1\n66,0.1,x\n67,0.1\n", g)
        with pytest.raises(IngestionError, match="no data rows"):
            self._load("age,qx\n", g)
        # a NaN age once surfaced as a coverage gap "from age nan to nan"
        for age in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(IngestionError, match="age_at_t0 must be a finite number"):
                self._load("age,qx\n65,0.1\n66,0.1\n67,0.1\n", g, age_at_t0=age)
        # ages past 2^53 were once stepped through one at a time, never ending
        far = make_time_grid(0, 1e307, 1e308)
        with pytest.raises(IngestionError, match="ages above 67"):
            self._load("age,qx\n65,0.1\n66,0.1\n67,0.1\n", far, age_at_t0=1.7e308)
        with pytest.raises(IngestionError, match="ages below 65"):
            self._load("age,qx\n65,0.1\n66,0.1\n67,0.1\n", far, age_at_t0=-1.7e308)

    def test_roundtrip_through_text(self):
        g = make_time_grid(65, 1, 80)
        rng = np.random.default_rng(5)
        rows = "".join(f"{a},{rng.uniform(0.01, 0.2):.3f}\n" for a in range(65, 80))
        t = self._load("age,qx\n" + rows, g)
        again = np.array([float(repr(float(x))) for x in t.p])
        assert np.all(np.abs(again - t.p) <= 1e-12 * np.maximum(t.p, 1.0))


class TestGompertzMakeham:
    def test_zero_hazard_death_at_horizon(self):
        g = make_time_grid(65, 1, 70)
        t = gompertz_makeham(0.0, 0.0, 0.0, g)
        assert np.allclose(t.p, [0, 0, 0, 0, 1.0], atol=1e-15)

    def test_large_base_hazard_front_loads(self):
        g = make_time_grid(65, 1, 70)
        t = gompertz_makeham(5.0, 0.0, 0.0, g)
        assert t.p[0] > 0.99
        assert np.all(np.diff(t.p[:-1]) < 0)

    def test_female_style_parameters(self, mild_table):
        _, t = mild_table
        assert t.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(t.s[:-1]) < 1e-12)  # survival worsens with age
        assert t.s[-1] == 0.0

    def test_negative_parameters_rejected(self):
        g = make_time_grid(65, 1, 70)
        with pytest.raises(ConfigurationError):
            gompertz_makeham(-1e-4, 3e-5, 0.09, g)

    def test_underflow_before_horizon_rejected(self):
        g = make_time_grid(65, 1, 110)
        with pytest.raises(ConfigurationError, match="underflow"):
            gompertz_makeham(0.0, 1e-10, 0.9, g)


# SHA-256 of p, s and tail, taken while the Gompertz and CSV builders each
# ended in their own copy of the step-survival -> pmf tail
QX_TEXT = "age,qx\n" + "".join(
    f"{a},{min(1.0, 0.004 * 1.11 ** (a - 65)):.6f}\n" for a in range(65, 96)
)
TABLE_DIGESTS = {
    "gompertz": "a437d67be5bd8b9ad8740983ac5f44f36bbd2d9cced040668f8f9e0548ca3a83",
    "csv-dt1": "da32bc782cfb3a9192110512948f203deb119444c2a9d116d81f1b267a40c9dd",
    "csv-dt0.25": "40698e87d949c7e4e4014b8b66210652d177a4d8a47c22054c88e11b40d1190e",
}


class TestStepSurvivalTail:
    @pytest.mark.parametrize("source", TABLE_DIGESTS)
    def test_tables_match_golden_digest(self, source):
        if source == "gompertz":
            t = gompertz_makeham(**BUNDLED_GOMPERTZ, grid=make_time_grid(65.0, 1.0, 95.0))
        else:
            dt = float(source.removeprefix("csv-dt"))
            t = load_mortality_csv(io.StringIO(QX_TEXT), make_time_grid(65.0, dt, 95.0))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (t.p, t.s, t.tail))).hexdigest()
        assert digest == TABLE_DIGESTS[source]


class TestAnnuityFactor:
    def test_certain_survival_k_periods(self):
        g = make_time_grid(0, 1, 6)
        t = MortalityTable(g, [0, 0, 0, 0, 0, 1.0])
        assert annuity_factor(t, 0.0) == pytest.approx(6.0, abs=1e-12)

    def test_single_date(self):
        g = make_time_grid(0, 1, 1)
        t = MortalityTable(g, [1.0])
        assert annuity_factor(t, 0.0) == 1.0
        assert annuity_factor(t, 0.5) == 1.0  # t0 payment is undiscounted

    def test_half_half(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable(g, [0.5, 0.5])
        assert annuity_factor(t, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_discounting_lowers_price(self, mild_table):
        _, t = mild_table
        assert annuity_factor(t, 0.03) < annuity_factor(t, 0.0)

    def test_overflowing_price_raises(self, default_table):
        # exp(800 k) overflows: the price once came back inf, with numpy's
        # RuntimeWarning, and every outperformance priced with it was inf
        _, t = default_table
        with pytest.raises(DivergenceError, match=r"^annuity price inf is not finite at r = -800\.0$"):
            annuity_factor(t, -800.0)
