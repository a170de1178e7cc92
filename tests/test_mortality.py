import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from pensionlab.core import ConfigurationError, make_time_grid
from pensionlab.mortality import (
    DEFAULT_GRID,
    GOMPERTZ_DEFAULT,
    IngestionError,
    MortalityTable,
    annuity_factor,
    binomial_transition,
    gompertz_makeham,
    load_mortality_csv,
    survival_prob,
)

from conftest import random_mortality


class TestSurvivalProb:
    def test_certain_death_at_last_date(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable.from_pmf(g, [0.0, 1.0])
        assert survival_prob(t, 0) == 1.0
        assert survival_prob(t, 1) == 0.0

    def test_ratio_of_tails(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable.from_pmf(g, [0.5, 0.5])
        assert survival_prob(t, 0) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_four_dates(self):
        g = make_time_grid(0, 1, 4)
        t = MortalityTable.from_pmf(g, [0.25] * 4)
        # third date: remaining tail 0.5, surviving tail 0.25
        assert survival_prob(t, 2) == pytest.approx(0.5, abs=1e-12)

    def test_index_range(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable.from_pmf(g, [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            survival_prob(t, 2)

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
            MortalityTable.from_pmf(g, [0.5, 0.6, -0.1])
        with pytest.raises(ConfigurationError):
            MortalityTable.from_pmf(g, [0.5, 0.4, 0.2])
        with pytest.raises(ConfigurationError):
            MortalityTable.from_pmf(g, [0.5, 0.5, 0.0])  # no mass at final date
        with pytest.raises(ConfigurationError):
            MortalityTable.from_pmf(g, [0.5, 0.5])


class TestBinomialTransition:
    def test_symmetric_coin(self):
        assert binomial_transition(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_all_survive(self):
        for n, s in [(3, 0.9), (10, 0.4), (100, 0.99)]:
            assert binomial_transition(n, n, s) == pytest.approx(s**n, rel=1e-13)

    def test_large_n_matches_exact_rational(self):
        # frozen from Fraction(comb(1000,900)) * (9/10)^900 * (1/10)^100
        expected = 0.04201679086108544
        got = binomial_transition(1000, 900, 0.9)
        assert got == pytest.approx(expected, rel=1e-12)
        exact = Fraction(math.comb(1000, 900)) * Fraction(9, 10) ** 900 * Fraction(1, 10) ** 100
        assert float(exact) == expected

    def test_domain_error(self):
        with pytest.raises(ConfigurationError):
            binomial_transition(5, 6, 0.5)
        with pytest.raises(ConfigurationError):
            binomial_transition(5, -1, 0.5)
        with pytest.raises(ConfigurationError):
            binomial_transition(5, 2, 1.5)

    def test_degenerate_probabilities(self):
        assert binomial_transition(5, 0, 0.0) == 1.0
        assert binomial_transition(5, 3, 0.0) == 0.0
        assert binomial_transition(5, 5, 1.0) == 1.0

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_rows_sum_to_one(self, n):
        for s in (0.03, 0.42, 0.5, 0.97):
            total = sum(binomial_transition(n, i, s) for i in range(n + 1))
            assert abs(total - 1.0) < 1e-10


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
            t = gompertz_makeham(**GOMPERTZ_DEFAULT, grid=make_time_grid(*DEFAULT_GRID))
        else:
            dt = float(source.removeprefix("csv-dt"))
            t = load_mortality_csv(io.StringIO(QX_TEXT), make_time_grid(65.0, dt, 95.0))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (t.p, t.s, t.tail))).hexdigest()
        assert digest == TABLE_DIGESTS[source]


class TestAnnuityFactor:
    def test_certain_survival_k_periods(self):
        g = make_time_grid(0, 1, 6)
        t = MortalityTable.from_pmf(g, [0, 0, 0, 0, 0, 1.0])
        assert annuity_factor(t, 0.0) == pytest.approx(6.0, abs=1e-12)

    def test_single_date(self):
        g = make_time_grid(0, 1, 1)
        t = MortalityTable.from_pmf(g, [1.0])
        assert annuity_factor(t, 0.0) == 1.0
        assert annuity_factor(t, 0.5) == 1.0  # t0 payment is undiscounted

    def test_half_half(self):
        g = make_time_grid(0, 1, 2)
        t = MortalityTable.from_pmf(g, [0.5, 0.5])
        assert annuity_factor(t, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_discounting_lowers_price(self, mild_table):
        _, t = mild_table
        assert annuity_factor(t, 0.03) < annuity_factor(t, 0.0)
