"""Bound evaluators: exact anchors, windows, and cross-checks."""

import math
import sys
from fractions import Fraction

import pytest

from pairflip.bounds import (
    BoundValue,
    entropy_bound_curve,
    entropy_offset,
    mean_depth_fraction,
    n2_gap_window,
    thm1_gap_upper,
    thm2_entropy_time_lower,
    thm3_charge_time_lower,
)
from pairflip.census import cone_stats, k0_asymptotic, sector_dim
from pairflip.chains import build_lumped
from pairflip.errors import UsageError
from pairflip.spectra import spectral_gap


class TestMeanDepthFraction:
    def test_values(self):
        assert mean_depth_fraction(2) == 0
        assert mean_depth_fraction(3) == Fraction(1, 3)
        assert mean_depth_fraction(5) == Fraction(3, 5)
        with pytest.raises(UsageError):
            mean_depth_fraction(1)


class TestGapUpper:
    def test_exact_fraction(self):
        b = thm1_gap_upper(3, 4)
        assert b.valid
        assert b.meta["exact"] == Fraction(15, 81)
        assert b.value == pytest.approx(15 / 81)

    def test_matches_census_ratio(self):
        for n, length in [(2, 6), (3, 8), (4, 6), (5, 4)]:
            b = thm1_gap_upper(n, length)
            assert b.meta["exact"] == Fraction(
                sector_dim(n, length, 0), n**length
            )

    def test_dominates_measured_gap(self):
        # the nonzero nonlocal spectrum equals the lumped spectrum, so
        # the lumped gap is the right thing to compare against
        for length in (4, 6, 8, 10, 12):
            bound = thm1_gap_upper(3, length).value
            gap = spectral_gap(build_lumped(3, length)).gap
            assert gap <= bound

    def test_asymptotic_tracks_exact_in_fit_window(self):
        for length in (40, 60, 80):
            b = thm1_gap_upper(3, length)
            assert 0.8 < b.meta["asymptotic"] / b.value < 1.25

    def test_asymptotic_in_logs_matches_the_ratio(self):
        # the ratio k0_asymptotic / n**L is finite up to L = 600 at N=3,
        # and L = 700 passes the largest double in both its parts
        for length in (2, 40, 100, 300, 600):
            old = k0_asymptotic(3, length) / 3**length
            new = thm1_gap_upper(3, length).meta["asymptotic"]
            assert new == pytest.approx(old, rel=1e-12, abs=0)
        far = thm1_gap_upper(3, 700)
        assert math.isfinite(far.value) and far.value > 0
        assert math.isfinite(far.meta["asymptotic"]) and far.meta["asymptotic"] > 0

    def test_below_the_float_range_keeps_logs(self):
        # |K_0| / n^L is near 1e-327 at N=10^6, L=120: the float rounds to
        # 0, and the logs come from the exact fraction and the fitted form
        b = thm1_gap_upper(1000000, 120)
        exact = b.meta["exact"]
        assert b.value == 0.0 and b.meta["asymptotic"] == 0.0
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert b.meta["log_value"] == pytest.approx(log_exact, rel=1e-14)
        assert b.meta["log_value"] < math.log(sys.float_info.min)
        assert b.meta["asymptotic_log"] == pytest.approx(log_exact, rel=1e-3)
        # inside the range neither log is added
        assert set(thm1_gap_upper(3, 700).meta) == {"exact", "asymptotic"}

    def test_two_symbols_skip_asymptotic(self):
        b = thm1_gap_upper(2, 8)
        assert b.meta["asymptotic"] is None
        assert b.meta["exact"] == Fraction(70, 256)

    def test_rejects(self):
        with pytest.raises(UsageError):
            thm1_gap_upper(3, 5)  # odd length
        with pytest.raises(UsageError):
            thm1_gap_upper(1, 4)
        with pytest.raises(UsageError):
            thm1_gap_upper(3, 0)


class TestN2GapWindow:
    def test_frozen_values(self):
        lo, hi = n2_gap_window(7)
        assert lo == pytest.approx(0.045473, abs=1e-6)
        assert hi == pytest.approx(0.603144, abs=1e-6)

    def test_contains_measured_gap(self):
        # the measured two-symbol nonlocal gap sits at 1/L exactly
        from pairflip.chains import build_full_nonlocal

        for length in (4, 5, 6):
            gap = spectral_gap(build_full_nonlocal(2, length)).gap
            assert gap == pytest.approx(1 / length, abs=1e-12)
            lo, hi = n2_gap_window(length)
            assert lo < gap < hi

    def test_rejects(self):
        with pytest.raises(UsageError):
            n2_gap_window(0)


class TestChargeTimeLower:
    def test_exact_at_gamma_zero(self):
        b = thm3_charge_time_lower(3, 4, 0.0)
        assert b.valid
        assert b.meta["exact"] == Fraction(33, 5)
        assert b.meta["flow"] == Fraction(5, 33)
        assert b.value == pytest.approx(6.6)

    def test_gamma_zero_inverts_the_flow(self):
        for n, length in [(2, 4), (2, 8), (3, 6), (4, 4)]:
            b = thm3_charge_time_lower(n, length, 0.0)
            assert b.meta["exact"] == 1 / cone_stats(n, length, 2).boundary_flow

    def test_frozen_magnitudes(self):
        # gamma = 0.1, n = 3: per-site rate (2/10 - 1/3)^2 / 2 = 1/112.5
        b8 = thm3_charge_time_lower(3, 8, 0.1)
        b24 = thm3_charge_time_lower(3, 24, 0.1)
        assert b8.valid and b24.valid
        assert b8.value == pytest.approx(1.560, abs=0.01)
        assert b24.value == pytest.approx(3.115, abs=0.01)
        assert b8.meta["exponent"] == pytest.approx(8 * (0.2 - 1 / 3) ** 2 / 2)

    def test_growth_is_monotone_in_length(self):
        vals = [thm3_charge_time_lower(3, L, 0.05).value for L in (8, 16, 32, 64)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_window_boundary_flagged(self):
        sixth = float(mean_depth_fraction(3)) / 2
        assert not thm3_charge_time_lower(3, 8, sixth).valid
        assert not thm3_charge_time_lower(3, 8, 0.4).valid
        assert thm3_charge_time_lower(3, 8, 0.16).valid
        assert thm3_charge_time_lower(3, 8, 0.4).value > 0

    def test_two_symbols_always_flagged_for_positive_gamma(self):
        b = thm3_charge_time_lower(2, 8, 0.1)
        assert not b.valid
        assert b.meta["window"] == (0.0, 0.0)
        assert b.value > 0

    def test_comparison_constant_reported(self):
        b = thm3_charge_time_lower(3, 8, 0.1)
        d = b.meta["D"]
        comp = b.meta["comparison_D"]
        # the two normalizations multiply to (1+eta)^-something near 1;
        # both must be positive and finite
        assert d > 0 and comp > 0
        assert math.isfinite(d * comp)

    def test_log_value(self):
        b = thm3_charge_time_lower(3, 24, 0.1)
        assert b.meta["log_value"] == pytest.approx(math.log(b.value), rel=1e-14)

    def test_log_value_past_the_float_range(self):
        # L (2 gamma - v)^2 / 2 is 2154 here: the value is inf, its log is not
        b = thm3_charge_time_lower(3, 2000, 0.9)
        assert b.value == math.inf
        expected = math.log(0.9 * b.meta["D"] * math.sqrt(2000)) + b.meta["exponent"]
        assert b.meta["log_value"] == pytest.approx(expected, rel=1e-14)

    def test_exponential_past_the_float_range_with_a_small_prefactor(self):
        # e**exponent alone overflows, but the prefactor brings the value
        # back under the largest double
        b = thm3_charge_time_lower(3, 12800, 1e-4)
        assert b.meta["exponent"] > math.log(sys.float_info.max)
        assert b.meta["log_value"] < math.log(sys.float_info.max)
        assert b.value == pytest.approx(math.exp(b.meta["log_value"]), rel=1e-12)

    def test_rejects(self):
        with pytest.raises(UsageError):
            thm3_charge_time_lower(3, 5, 0.0)  # odd length at gamma 0
        with pytest.raises(UsageError):
            thm3_charge_time_lower(3, 8, -0.1)
        with pytest.raises(UsageError):
            thm3_charge_time_lower(3, 8, 1.0)
        with pytest.raises(UsageError):
            thm3_charge_time_lower(1, 8, 0.1)


class TestEntropyTimeLower:
    def test_gamma_star_frozen_values(self):
        b5 = thm2_entropy_time_lower(5, 10, 0.98)
        assert b5.meta["gamma_star"] == pytest.approx(0.966376, abs=1e-5)
        assert b5.valid
        b3 = thm2_entropy_time_lower(3, 10, 0.9)
        assert b3.meta["gamma_star"] == pytest.approx(1.579380, abs=1e-5)
        assert not b3.valid  # window empty for n = 3

    def test_depth_fraction_hits_drift_at_gamma_star(self):
        # at gamma = gamma_* the target depth fraction equals v_n
        for n in (5, 6, 8):
            probe = thm2_entropy_time_lower(n, 10, 0.99)
            gs = probe.meta["gamma_star"]
            x = (1 - gs / 2) * math.log(n) / math.log(n - 1)
            assert x == pytest.approx(float(mean_depth_fraction(n)))

    def test_value_grows_with_length(self):
        a = thm2_entropy_time_lower(5, 20, 0.98)
        b = thm2_entropy_time_lower(5, 40, 0.98)
        assert b.value > a.value > 0

    def test_log_value(self):
        b = thm2_entropy_time_lower(5, 40, 0.98)
        assert b.meta["log_value"] == pytest.approx(math.log(b.value), rel=1e-14)

    @pytest.mark.parametrize("length,gamma", [(1200, 0.1), (1000, 0.05)])
    def test_log_value_past_the_float_range(self, length, gamma):
        b = thm2_entropy_time_lower(3, length, gamma)
        assert b.value == math.inf
        expected = (
            math.log(b.meta["C"] * math.sqrt(length)) + length * b.meta["rate"]
        )
        assert b.meta["log_value"] == pytest.approx(expected, rel=1e-14)
        assert math.log(sys.float_info.max) < b.meta["log_value"] < math.inf

    def test_two_symbols_flagged(self):
        b = thm2_entropy_time_lower(2, 10, 0.5)
        assert not b.valid
        assert b.value == math.inf
        assert b.meta["gamma_star"] == 2.0

    def test_rejects(self):
        with pytest.raises(UsageError):
            thm2_entropy_time_lower(3, 10, 0.0)
        with pytest.raises(UsageError):
            thm2_entropy_time_lower(3, 10, 1.0)
        with pytest.raises(UsageError):
            thm2_entropy_time_lower(3, 0, 0.5)


class TestEntropyCurve:
    def test_zero_time_zero_depth_anchor(self):
        b = entropy_bound_curve(3, 10, 0, 0.0)
        assert b.value == pytest.approx(10 * math.log(3) + entropy_offset(3))
        assert b.valid

    def test_offset_constant(self):
        assert entropy_offset(3) == pytest.approx(
            1 / math.e + 2 * math.log(2) - math.log(3)
        )
        assert entropy_offset(3) == pytest.approx(0.65556, abs=1e-5)

    def test_monotone_in_time(self):
        vals = [entropy_bound_curve(3, 12, 2, t).value for t in (0, 1, 5, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bipartite_doubles_the_time_term(self):
        base = entropy_bound_curve(3, 12, 2, 0.0).value
        single = entropy_bound_curve(3, 12, 2, 3.0).value
        double = entropy_bound_curve(3, 12, 2, 3.0, bipartite=True).value
        assert double - base == pytest.approx(2 * (single - base))

    def test_depth_reduces_the_static_term(self):
        shallow = entropy_bound_curve(3, 12, 0, 0.0).value
        deep = entropy_bound_curve(3, 12, 6, 0.0).value
        assert deep < shallow

    def test_crossover_validity(self):
        # v L - d >= sqrt(L): at n=3, L=16 the crossover sits at 4/3
        assert entropy_bound_curve(3, 16, 1, 1.0).valid
        assert not entropy_bound_curve(3, 16, 2, 1.0).valid
        assert entropy_bound_curve(3, 16, 2, 1.0).meta[
            "crossover_depth"
        ] == pytest.approx(16 / 3 - 4)

    def test_two_symbols_never_valid(self):
        for d in (0, 1, 4):
            assert not entropy_bound_curve(2, 16, d, 1.0).valid

    def test_two_symbols_have_no_depth_deficit(self):
        # ln(n-1) = 0 for n = 2: the static term ignores depth entirely
        a = entropy_bound_curve(2, 12, 0, 0.0).value
        b = entropy_bound_curve(2, 12, 6, 0.0).value
        assert a == pytest.approx(b)

    def test_rejects(self):
        with pytest.raises(UsageError):
            entropy_bound_curve(3, 10, -1, 0.0)
        with pytest.raises(UsageError):
            entropy_bound_curve(3, 10, 11, 0.0)
        with pytest.raises(UsageError):
            entropy_bound_curve(3, 10, 2, -0.5)


class TestBoundValueType:
    def test_defaults_and_immutability(self):
        b = BoundValue(value=1.0, valid=True)
        assert b.meta == {}
        with pytest.raises(AttributeError):
            b.value = 2.0
