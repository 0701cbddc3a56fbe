"""Sup-error measurement, convergence-rate fitting, the central-coefficient
ratio, and the first-order cross check."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import (
    approximate_scaled,
    central_ratio,
    coefficient,
    compute_row,
    exact_scaled_value,
    first_order_cross_check,
    harness,
    rate_sweep,
    uniform_correction,
    uniform_error,
)
from extbinom.harness import SweepRecord, _half_row, _ols_loglog

SQRT_2PI = math.sqrt(2 * math.pi)


def clear_sweep_caches():
    _half_row.cache_clear()
    harness._joined.cache_clear()
    harness._partial_sum.cache_clear()


class TestExactScaledValue:
    def test_against_comb(self):
        for k in (0, 10, 25, 37):
            expected = math.comb(50, k) / 2**50 * math.sqrt(3 * 50 / 12)
            assert exact_scaled_value(50, k, 1) == pytest.approx(expected, rel=1e-14)

    def test_outside_support(self):
        assert exact_scaled_value(10, -1, 2) == 0.0

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n", [1, 7, 50, 400])
    def test_bits(self, n, q):
        # the exact integer ratio first, then the float scale
        for k in (-1, 0, 1, n * q // 3, n * q // 2, n * q, n * q + 1):
            expected = (coefficient(n, k, q) / (q + 1) ** n) * math.sqrt(
                q * (q + 2) * n / 12
            )
            assert exact_scaled_value(n, k, q) == expected


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
        clear_sweep_caches()
        for order in range(4):
            rate_sweep(2, order, [50, 100, 200, 400])
        info = _half_row.cache_info()
        # orders 1..3 read the joined rows, not _half_row
        assert (info.misses, info.hits) == (4, 0)


def scalar_record(n: int, q: int, order: int) -> SweepRecord:
    """The sup error over the whole row and its first argmax, by a scalar
    scan of approximate_scaled: the per-n loop rate_sweep replaced."""
    scale = math.sqrt(q * (q + 2) * n / 12)
    total = (q + 1) ** n
    sup, argmax = -1.0, -1
    for k, c in enumerate(compute_row(n, q).coeffs):
        err = abs((c / total) * scale - approximate_scaled(n, k, q, order))
        if err > sup:
            sup, argmax = err, k
    return SweepRecord(n, sup, argmax)


class TestOnePassSweep:
    @pytest.mark.parametrize(
        "q, order, ns",
        [(q, order, [50, 100, 200, 400]) for q in range(1, 9) for order in range(4)]
        # n**v passes 2**53 and 2**63
        + [(q, 8, [1250, 5000, 20000]) for q in (1, 2)]
        + [(2, 40, ns) for ns in ([1, 2, 3], [7, 77, 777])],
    )
    def test_equals_per_n_loop(self, q, order, ns):
        report = rate_sweep(q, order, ns)
        expected = tuple(scalar_record(n, q, order) for n in ns)
        assert report.records == expected
        for r in report.records:
            assert type(r.sup_error) is float and type(r.argmax_k) is int
        fit = _ols_loglog(ns, [r.sup_error for r in expected])
        assert (report.fitted_slope, report.slope_stderr) == fit

    def test_negative_order_rejected_before_any_row(self):
        misses = compute_row.cache_info().misses
        with pytest.raises(ValueError):
            rate_sweep(2, -1, [50, 100, 200])
        assert compute_row.cache_info().misses == misses


class TestCachedSums:
    """A sweep keeps the joined half rows of its (ns, q) and each order's
    sum S_o = S_(o-1) + P_o(x) / n**o; in any order of orders, from cold
    caches or warm, every report equals a fresh one."""

    @pytest.mark.parametrize(
        "q, top, ns",
        [(q, 3, [50, 100, 200, 400]) for q in range(1, 9)]
        + [(q, 8, [1250, 5000, 20000]) for q in (1, 2)]
        + [(2, 40, ns) for ns in ([1, 2, 3], [7, 77, 777])],
    )
    def test_any_order_of_orders_equals_fresh(self, q, top, ns):
        fresh = {}
        for order in range(top + 1):
            clear_sweep_caches()
            fresh[order] = rate_sweep(q, order, ns)
            if top == 3:  # TestOnePassSweep pins the other cases' top order
                assert fresh[order].records == tuple(
                    scalar_record(n, q, order) for n in ns)
        orders = list(range(top + 1))
        shuffled = random.Random(q * top).sample(orders, len(orders))
        for visit in (orders, orders[::-1], shuffled):
            clear_sweep_caches()
            for _ in ("cold", "warm"):
                for order in visit:
                    assert rate_sweep(q, order, ns) == fresh[order]

    def test_next_order_evaluates_only_its_polynomial(self, monkeypatch):
        evaluated = []

        def counted(v, q):
            evaluated.append(v)
            return uniform_correction(v, q)

        monkeypatch.setattr(harness, "uniform_correction", counted)
        ns = [50, 100, 200, 400]
        clear_sweep_caches()
        for order in range(6):
            evaluated.clear()
            rate_sweep(3, order, ns)
            assert evaluated == ([order] if order else [])
        # the highest order first evaluates each lower polynomial once
        clear_sweep_caches()
        evaluated.clear()
        for order in (3, 2, 1, 0):
            rate_sweep(3, order, ns)
        assert evaluated == [1, 2, 3]

    def test_cached_arrays_are_read_only(self):
        ns = (50, 100, 200)
        rate_sweep(2, 2, ns)
        exact, x, base, _ = harness._joined(ns, 2)
        sums = harness._partial_sum(ns, 2, 1), harness._partial_sum(ns, 2, 2)
        for a in (exact, x, base, *sums):
            with pytest.raises(ValueError):
                a[0] = 0.0


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_sup_error_not_positive_and_finite(self, monkeypatch, bad):
        # no real input has reached this; inside the fit,
        # float.as_integer_ratio would raise on nan and inf
        monkeypatch.setattr(
            harness, "_sup_errors",
            lambda ns, q, order: [(bad if n == 100 else 1e-3, 0) for n in ns],
        )
        with pytest.raises(ValueError, match=r"^sup_error at n=100 is "):
            rate_sweep(2, 0, [50, 100, 200])


def fraction_fit(ns, errors):
    """The textbook least-squares line through (log n, log error), in exact
    rationals on the float logs: slope, then the stderr from the residuals
    of the exact line, each rounded to float once."""
    xs = [Fraction(math.log(n)) for n in ns]
    ys = [Fraction(math.log(e)) for e in errors]
    m = len(xs)
    xbar, ybar = sum(xs) / m, sum(ys) / m
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    ssr = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return float(slope), math.sqrt(float(ssr / (m - 2) / sxx))


@st.composite
def fit_points(draw):
    ns = sorted(draw(st.sets(st.integers(1, 10**6), min_size=3, max_size=8)))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return ns, draw(st.lists(positive, min_size=len(ns), max_size=len(ns)))


class TestExactFit:
    @given(fit_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_fraction_oracle(self, points):
        ns, errors = points
        fit = _ols_loglog(ns, errors)
        assert fit == fraction_fit(ns, errors)
        assert all(type(v) is float for v in fit)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_sweep_grid(self, q):
        ns = [50, 100, 200, 400]
        for order in range(4):
            report = rate_sweep(q, order, ns)
            errors = [r.sup_error for r in report.records]
            assert (report.fitted_slope, report.slope_stderr) == fraction_fit(ns, errors)


class TestCentralRatio:
    def test_small_exact_case(self):
        # 3 / (9 / sqrt(2*pi*2*(2*4)/12)), assembled independently
        expected = 3 * math.sqrt(2 * math.pi * 2 * 2 * 4 / 12) / 9
        assert central_ratio(2, 2) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n", [2, 8, 50, 400])
    def test_bits(self, n, q):
        # the exact integer ratio first, then the float prefactor
        c = coefficient(n, n * q // 2, q)
        expected = (c / (q + 1) ** n) * math.sqrt(2 * math.pi * n * q * (q + 2) / 12)
        assert central_ratio(n, q) == expected

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
