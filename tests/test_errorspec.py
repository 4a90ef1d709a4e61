"""Tests for error specs and the self-contained distribution quantiles.

The quantile implementations are validated against scipy (available in
the test environment, deliberately not a library dependency).
"""

import math

import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as st_h

from repro import ErrorSpec, ErrorSpecError
from repro.core.errorspec import (
    chi2_cdf,
    chi2_ppf,
    normal_cdf,
    normal_ppf,
    student_t_cdf,
    student_t_ppf,
    z_value,
)


class TestErrorSpec:
    def test_valid(self):
        spec = ErrorSpec(0.05, 0.95)
        assert spec.failure_probability == pytest.approx(0.05)

    @pytest.mark.parametrize("err", [0.0, 1.0, -0.1, 2.0])
    def test_invalid_error(self, err):
        with pytest.raises(ErrorSpecError):
            ErrorSpec(err, 0.95)

    @pytest.mark.parametrize("conf", [0.0, 1.0, -0.5])
    def test_invalid_confidence(self, conf):
        with pytest.raises(ErrorSpecError):
            ErrorSpec(0.05, conf)

    def test_invalid_group_size(self):
        with pytest.raises(ErrorSpecError):
            ErrorSpec(0.05, 0.95, min_group_size=0)

    def test_split_confidence_union_bound(self):
        spec = ErrorSpec(0.05, 0.9)
        per = spec.split_confidence(5)
        assert per.failure_probability == pytest.approx(0.02)
        assert per.relative_error == spec.relative_error

    def test_split_error(self):
        spec = ErrorSpec(0.1, 0.95)
        assert spec.split_error(2).relative_error == pytest.approx(0.05)

    def test_split_validation(self):
        with pytest.raises(ErrorSpecError):
            ErrorSpec(0.05, 0.95).split_confidence(0)

    def test_str(self):
        assert "5%" in str(ErrorSpec(0.05, 0.95))


class TestNormalQuantiles:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.975, 0.999])
    def test_ppf_matches_scipy(self, p):
        assert normal_ppf(p) == pytest.approx(st.norm.ppf(p), abs=1e-7)

    @pytest.mark.parametrize("conf", [0.5, 0.9, 0.95, 0.99, 0.999])
    def test_z_value_two_sided(self, conf):
        assert z_value(conf) == pytest.approx(st.norm.ppf(0.5 + conf / 2), abs=1e-7)

    def test_z_value_common_constant(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-4)

    def test_cdf_matches_scipy(self):
        for x in (-3.0, -1.0, 0.0, 0.5, 2.5):
            assert normal_cdf(x) == pytest.approx(st.norm.cdf(x), abs=1e-12)

    @given(st_h.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_ppf_cdf_round_trip(self, p):
        assert normal_cdf(normal_ppf(p)) == pytest.approx(p, abs=1e-8)

    def test_ppf_domain(self):
        with pytest.raises(ErrorSpecError):
            normal_ppf(0.0)


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 5, 10, 30, 100])
    @pytest.mark.parametrize("p", [0.9, 0.95, 0.975, 0.995])
    def test_ppf_matches_scipy(self, df, p):
        assert student_t_ppf(p, df) == pytest.approx(st.t.ppf(p, df), rel=1e-4, abs=1e-4)

    def test_large_df_converges_to_normal(self):
        assert student_t_ppf(0.975, 500) == pytest.approx(normal_ppf(0.975), abs=1e-3)

    def test_cdf_matches_scipy(self):
        for df in (3, 12):
            for t_val in (-2.0, 0.0, 1.5):
                assert student_t_cdf(t_val, df) == pytest.approx(
                    st.t.cdf(t_val, df), abs=1e-6
                )

    def test_invalid_df(self):
        with pytest.raises(ErrorSpecError):
            student_t_ppf(0.95, 0)


class TestChiSquared:
    @pytest.mark.parametrize("df", [1, 3, 10, 50])
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.5, 0.95, 0.99])
    def test_ppf_matches_scipy(self, df, p):
        assert chi2_ppf(p, df) == pytest.approx(st.chi2.ppf(p, df), rel=1e-4, abs=1e-5)

    def test_cdf_matches_scipy(self):
        for df in (2, 7):
            for x in (0.5, 3.0, 12.0):
                assert chi2_cdf(x, df) == pytest.approx(st.chi2.cdf(x, df), abs=1e-8)

    def test_cdf_at_zero(self):
        assert chi2_cdf(0.0, 5) == 0.0

    def test_invalid_df(self):
        with pytest.raises(ErrorSpecError):
            chi2_ppf(0.5, -1)


class TestQuantileMemo:
    """The quantile functions are memoised; a hit must be the very float
    a fresh computation returns, and errors must not be cached."""

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_cached_equals_uncached(self, confidence):
        p = 0.5 + confidence / 2.0
        for df in range(1, 201):
            for fn in (student_t_ppf, chi2_ppf):
                fresh = fn.__wrapped__(p, df)
                assert fn(p, df) == fresh  # fills the memo (or hits it)
                assert fn(p, df) == fresh  # certainly a hit
        assert normal_ppf(p) == normal_ppf.__wrapped__(p)
        assert z_value(confidence) == normal_ppf.__wrapped__(p)

    def test_memo_is_bounded_and_skips_errors(self):
        assert student_t_ppf.cache_info().maxsize is not None
        assert chi2_ppf.cache_info().maxsize is not None
        assert normal_ppf.cache_info().maxsize is not None
        for _ in range(2):
            with pytest.raises(ErrorSpecError):
                student_t_ppf(0.95, 0)
