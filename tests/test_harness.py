"""Sup-error measurement, convergence-rate fitting, the central-coefficient
ratio, and the first-order cross check."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from extbinom import (
    approximate_scaled,
    central_ratio,
    compute_row,
    exact_scaled_value,
    first_order_cross_check,
    rate_sweep,
    uniform_correction,
    uniform_error,
)
from extbinom.harness import _half_row

SQRT_2PI = math.sqrt(2 * math.pi)


class TestExactScaledValue:
    def test_against_comb(self):
        for k in (0, 10, 25, 37):
            expected = math.comb(50, k) / 2**50 * math.sqrt(3 * 50 / 12)
            assert exact_scaled_value(50, k, 1) == pytest.approx(expected, rel=1e-14)

    def test_outside_support(self):
        assert exact_scaled_value(10, -1, 2) == 0.0


class TestUniformError:
    def test_hand_checked_smallest_case(self):
        # n=1, q=1: both support points sit at x = +-1 with exact value 1/4
        sup, argmax = uniform_error(1, 1, 0)
        assert sup == pytest.approx(0.25 - math.exp(-0.5) / SQRT_2PI, abs=1e-14)
        assert argmax in (0, 1)

    def test_magnitude_at_n100(self):
        sup, _ = uniform_error(100, 2, 0)
        assert 1e-4 < sup < 1e-2

    def test_correction_improves(self):
        sup0, _ = uniform_error(100, 2, 0)
        sup1, _ = uniform_error(100, 2, 1)
        assert sup1 < sup0

    @pytest.mark.parametrize("q", range(1, 9))
    def test_equals_scalar_loop(self, q):
        # the per-k scan uniform_error replaced: strict > keeps the first
        # k attaining the sup
        for n in (1, 7, 50, 400):
            scale = math.sqrt(q * (q + 2) * n / 12)
            coeffs = compute_row(n, q).coeffs
            expected = []
            for order in range(4):
                sup, argmax = -1.0, -1
                for k, c in enumerate(coeffs):
                    exact = (c / (q + 1) ** n) * scale
                    err = abs(exact - approximate_scaled(n, k, q, order))
                    if err > sup:
                        sup, argmax = err, k
                expected.append((sup, argmax))
            # from a cold cache filled by order 0, then by order 3
            for orders in (range(4), range(3, -1, -1)):
                _half_row.cache_clear()
                for order in orders:
                    result = uniform_error(n, q, order)
                    assert result == expected[order]
                    assert type(result[0]) is float and type(result[1]) is int

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            uniform_error(50, 2, -1)

    def test_cached_arrays_are_read_only(self):
        for a in _half_row(50, 2):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_sweep_converts_each_row_once(self):
        _half_row.cache_clear()
        for order in range(4):
            rate_sweep(2, order, [50, 100, 200, 400])
        info = _half_row.cache_info()
        assert (info.misses, info.hits) == (4, 12)


class TestRateSweep:
    def test_slope_near_minus_one(self):
        report = rate_sweep(2, 0, [40, 80, 160])
        assert report.fitted_slope == pytest.approx(-1.0, abs=0.3)
        assert report.slope_stderr >= 0
        assert [r.n for r in report.records] == [40, 80, 160]

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rate_sweep(2, 0, [50, 100])

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            rate_sweep(2, 0, [50, 100, 100])
        with pytest.raises(ValueError):
            rate_sweep(2, 0, [100, 50, 200])


class TestCentralRatio:
    def test_small_exact_case(self):
        # 3 / (9 / sqrt(2*pi*2*(2*4)/12)), assembled independently
        expected = 3 * math.sqrt(2 * math.pi * 2 * 2 * 4 / 12) / 9
        assert central_ratio(2, 2) == pytest.approx(expected, rel=1e-14)

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            central_ratio(101, 1)

    def test_tends_to_unity_from_below(self):
        gaps = [abs(central_ratio(n, 2) - 1) for n in (50, 100, 200)]
        assert gaps[0] > gaps[1] > gaps[2]
        # leading correction at the centre is 0.1875/n for q=2
        assert gaps[1] == pytest.approx(0.1875 / 100, rel=0.1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            central_ratio(0, 2)

    def test_expansion_values_at_the_centre(self):
        assert uniform_correction(1, 2).poly.coeffs[0] == Fraction(-3, 16)
        assert uniform_correction(2, 2).poly.coeffs[0] == Fraction(1, 512)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_expansion_at_the_centre(self, q, order):
        # x = 0 at k = nq/2, so the ratio is 1 + sum_v P_v(0) n^-v: after
        # `order` exact terms the residual decays like n^-(order+1)
        p0 = [uniform_correction(v, q).poly.coeffs[0] for v in range(1, order + 1)]
        ns = [100, 200, 400, 800]
        residuals = [
            abs(float(Fraction(central_ratio(n, q)) - 1
                      - sum(c / n**v for v, c in enumerate(p0, 1))))
            for n in ns
        ]
        slope = np.polyfit(np.log(ns), np.log(residuals), 1)[0]
        assert slope == pytest.approx(-(order + 1), abs=0.3)


class TestFirstOrderCrossCheck:
    @pytest.mark.parametrize("n,k,q", [(10, 10, 2), (25, 30, 3), (7, 0, 4)])
    def test_routes_agree(self, n, k, q):
        series, closed = first_order_cross_check(n, k, q)
        assert abs(series - closed) <= 1e-12
