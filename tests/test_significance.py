import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import (
    DegeneracyError,
    InsufficientDataError,
    UndefinedCorrelationError,
    min_significant_r,
    pearson_zero_test,
    significance_matrix,
    student_t_sf,
    williams_test,
    winner_set,
)
from metricval.report import render_table, significance_rows
from metricval.significance import matrix_to_text

from oracles import min_r_quad, t_sf_quad

r_values = st.floats(min_value=-0.99, max_value=0.99)


class TestStudentTSf:
    @pytest.mark.parametrize("df", [1, 2, 5, 17, 30])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 3.5])
    def test_matches_quadrature(self, t, df):
        assert student_t_sf(t, df) == pytest.approx(t_sf_quad(t, df), abs=1e-9)

    def test_zero_is_half(self):
        assert student_t_sf(0.0, 7) == 0.5

    def test_reflection(self):
        assert student_t_sf(-1.7, 9) == pytest.approx(
            1.0 - student_t_sf(1.7, 9), abs=1e-14
        )

    def test_infinities(self):
        assert student_t_sf(math.inf, 4) == 0.0
        assert student_t_sf(-math.inf, 4) == 1.0

    def test_nan_passthrough(self):
        assert math.isnan(student_t_sf(math.nan, 4))

    def test_bad_df(self):
        with pytest.raises(ValueError):
            student_t_sf(1.0, 0)

    @given(st.floats(-30, 30), st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_and_bounded(self, t, df):
        p = student_t_sf(t, df)
        assert 0.0 <= p <= 1.0
        assert student_t_sf(t + 0.5, df) <= p


class TestPearsonZeroTest:
    def test_two_sided_shape(self):
        out = pearson_zero_test(0.7, 10)
        assert out.sidedness == "two"
        assert out.df == 8
        expected = 0.7 * math.sqrt(8 / (1 - 0.49))
        assert out.statistic == pytest.approx(expected, abs=1e-12)
        assert out.p_value == pytest.approx(2 * t_sf_quad(expected, 8), abs=1e-9)

    def test_perfect_correlation_degenerate_not_error(self):
        out = pearson_zero_test(1.0, 5)
        assert out.p_value == 0.0
        assert out.degenerate
        out = pearson_zero_test(-1.0, 5)
        assert out.p_value == 0.0
        assert out.statistic == -math.inf

    def test_needs_four(self):
        with pytest.raises(InsufficientDataError):
            pearson_zero_test(0.5, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pearson_zero_test(1.5, 10)

    @given(st.floats(0, 0.99), st.integers(4, 100))
    @settings(max_examples=100, deadline=None)
    def test_sign_symmetric(self, r, n):
        assert pearson_zero_test(r, n).p_value == pytest.approx(
            pearson_zero_test(-r, n).p_value, abs=1e-14
        )


class TestMinSignificantR:
    def test_five_systems_floor(self):
        assert min_significant_r(5) == pytest.approx(0.878, abs=1e-3)

    @pytest.mark.parametrize("n", [5, 6, 10, 25])
    def test_matches_quadrature_quantile(self, n):
        assert min_significant_r(n) == pytest.approx(min_r_quad(n, 0.05), abs=1e-6)

    def test_threshold_property(self):
        for n in (5, 8, 17):
            r = min_significant_r(n)
            assert pearson_zero_test(r + 1e-6, n).p_value < 0.05
            assert pearson_zero_test(r - 1e-6, n).p_value >= 0.05

    def test_decreases_with_n(self):
        values = [min_significant_r(n) for n in range(4, 40)]
        assert values == sorted(values, reverse=True)

    def test_needs_four(self):
        with pytest.raises(InsufficientDataError):
            min_significant_r(3)


class TestWilliams:
    def test_equal_correlations_half(self):
        out = williams_test(0.6, 0.6, 0.3, 20)
        assert out.statistic == 0.0
        assert out.p_value == 0.5
        assert out.df == 17

    def test_equal_correlations_beat_degeneracy_checks(self):
        # identical metrics correlate perfectly with each other
        out = williams_test(0.8, 0.8, 1.0, 12)
        assert out.p_value == 0.5
        out = williams_test(0.8, 0.8, 1.0, 12, two_sided=True)
        assert out.p_value == 1.0

    def test_perfect_correlation_raises(self):
        with pytest.raises(DegeneracyError):
            williams_test(1.0, 0.5, 0.5, 10)
        with pytest.raises(DegeneracyError):
            williams_test(0.5, 0.4, -1.0, 10)

    def test_inconsistent_matrix_raises(self):
        # r13 and r23 strongly opposite while the metrics agree strongly
        with pytest.raises(DegeneracyError):
            williams_test(0.9, -0.9, 0.9, 10)

    def test_needs_four(self):
        with pytest.raises(InsufficientDataError):
            williams_test(0.5, 0.3, 0.2, 3)

    def test_known_direction(self):
        # a clearly better first metric must give p well below 0.5
        out = williams_test(0.95, 0.5, 0.4, 50)
        assert out.statistic > 0
        assert out.p_value < 0.01

    @given(r_values, r_values, r_values, st.integers(4, 200))
    @settings(max_examples=200, deadline=None)
    def test_swap_negates_t_exactly(self, r13, r23, r12, n):
        try:
            a = williams_test(r13, r23, r12, n)
            b = williams_test(r23, r13, r12, n)
        except DegeneracyError:
            return
        assert a.statistic == -b.statistic

    @given(r_values, r_values, r_values, st.integers(4, 200))
    @settings(max_examples=200, deadline=None)
    def test_one_sided_halves_sum_to_one(self, r13, r23, r12, n):
        try:
            a = williams_test(r13, r23, r12, n)
            b = williams_test(r23, r13, r12, n)
        except DegeneracyError:
            return
        assert a.p_value + b.p_value == pytest.approx(1.0, abs=1e-9)

    @given(r_values, r_values, r_values, st.integers(4, 200))
    @settings(max_examples=100, deadline=None)
    def test_two_sided_doubles_smaller_tail(self, r13, r23, r12, n):
        try:
            one = williams_test(r13, r23, r12, n)
            two = williams_test(r13, r23, r12, n, two_sided=True)
        except DegeneracyError:
            return
        if one.statistic == 0.0:
            assert two.p_value == 1.0
        else:
            assert two.p_value == pytest.approx(
                2 * min(one.p_value, 1 - one.p_value), abs=1e-9
            )


def _correlated_scores(rng, n, noise):
    human = [rng.gauss(0, 1) for _ in range(n)]
    return human, [h + rng.gauss(0, noise) for h in human]


class TestMatrix:
    def test_ordering_by_correlation_then_name(self):
        da = [1.0, 2.0, 3.0, 4.0, 5.0]
        scores = {
            "b": [1.0, 2.1, 2.9, 4.2, 5.0],
            "a": [1.0, 2.1, 2.9, 4.2, 5.0],
            "weak": [2.0, 1.0, 3.5, 3.0, 5.5],
        }
        matrix = significance_matrix(scores, da)
        assert matrix.metric_ids[:2] == ("a", "b")
        assert matrix.metric_ids[2] == "weak"

    def test_single_metric_trivial(self):
        da = [1.0, 2.0, 3.0, 4.0]
        matrix = significance_matrix({"only": [1.1, 1.9, 3.2, 3.8]}, da)
        assert matrix.p == {}
        assert winner_set(matrix) == ("only",)

    def test_cells_match_direct_williams(self):
        rng = random.Random(3)
        da, s1 = _correlated_scores(rng, 12, 0.3)
        s2 = [h + rng.gauss(0, 0.8) for h in da]
        matrix = significance_matrix({"m1": s1, "m2": s2}, da)
        from metricval import pearson

        r1 = pearson(s1, da)
        r2 = pearson(s2, da)
        r12 = pearson(s1, s2)
        first, second = matrix.metric_ids
        expected = williams_test(
            matrix.correlations[first], matrix.correlations[second], r12, 12
        ).p_value
        assert matrix.p[(first, second)] == pytest.approx(expected, abs=1e-15)
        assert {matrix.correlations[first], matrix.correlations[second]} == {r1, r2}

    def test_bonferroni_scales_alpha(self):
        da = [1.0, 2.0, 3.0, 4.0, 5.0]
        scores = {
            "a": [1.0, 2.1, 2.9, 4.2, 5.0],
            "b": [1.1, 1.9, 3.3, 4.0, 4.8],
            "c": [2.0, 1.0, 3.5, 3.0, 5.5],
        }
        matrix = significance_matrix(scores, da, alpha=0.06, bonferroni=True)
        assert matrix.effective_alpha == pytest.approx(0.06 / 3)
        plain = significance_matrix(scores, da, alpha=0.06)
        assert plain.effective_alpha == 0.06

    def test_constant_metric_named(self):
        da = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(UndefinedCorrelationError) as exc:
            significance_matrix({"flat": [5.0, 5.0, 5.0, 5.0]}, da)
        assert exc.value.variable == "flat"

    def test_constant_da_named(self):
        with pytest.raises(UndefinedCorrelationError) as exc:
            significance_matrix({"m": [1.0, 2.0, 3.0, 4.0]}, [2.0, 2.0, 2.0, 2.0])
        assert exc.value.variable == "da"

    def test_misaligned_lengths(self):
        with pytest.raises(ValueError):
            significance_matrix({"m": [1.0, 2.0]}, [1.0, 2.0, 3.0])

    def test_winner_contains_argmax(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(6, 30)
            da = [rng.gauss(0, 1) for _ in range(n)]
            scores = {}
            for m in range(rng.randint(2, 4)):
                noise = rng.uniform(0.2, 2.0)
                scores[f"m{m}"] = [h + rng.gauss(0, noise) for h in da]
            matrix = significance_matrix(scores, da)
            winners = winner_set(matrix)
            assert matrix.metric_ids[0] in winners
            assert all(w in matrix.metric_ids for w in winners)

    def test_clear_winner_excludes_loser(self):
        rng = random.Random(23)
        n = 200
        da = [rng.gauss(0, 1) for _ in range(n)]
        good = [h + rng.gauss(0, 0.05) for h in da]
        bad = [h + rng.gauss(0, 3.0) for h in da]
        matrix = significance_matrix({"good": good, "bad": bad}, da)
        assert winner_set(matrix) == ("good",)


class TestRendering:
    def _matrix(self):
        da = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        scores = {
            "alpha": [1.0, 2.1, 2.9, 4.2, 5.0, 6.1],
            "beta": [2.0, 1.0, 3.5, 3.0, 6.5, 5.5],
        }
        return significance_matrix(scores, da)

    def test_csv(self):
        matrix = self._matrix()
        lines = render_table(significance_rows(matrix)).split("\r\n")
        assert lines[0] == "metric,r,alpha,beta"
        first = lines[1].split(",")
        assert first[0] == "alpha"
        assert first[2] == ""  # diagonal empty
        assert float(first[3]) == matrix.p[("alpha", "beta")]

    def test_text_grid(self):
        matrix = self._matrix()
        text = matrix_to_text(matrix)
        rows = text.strip("\n").split("\n")
        assert len(rows) == 2
        assert rows[0].startswith("alpha")
        cells = rows[0][-2:]
        assert cells[0] == " "  # diagonal
        assert cells[1] in "*."
        assert rows[1][-1] == " "  # second row's diagonal is last
