"""Sup-error measurement, convergence-rate fitting, the central-coefficient
ratio, and the first-order cross check."""

from __future__ import annotations

import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import (
    _recurrence,
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
from extbinom.harness import SweepRecord, _ols_loglog
from extbinom.special import uniform_polynomial

SQRT_2PI = math.sqrt(2 * math.pi)


def clear_sweep_caches():
    harness._table.cache_clear()


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

    @given(data=st.data(), n=st.integers(1, 2000), q=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_bits_near_the_ends_of_long_rows(self, data, n, q):
        # near either end of a long row the ratio rounds to 0.0, which is
        # returned before (q + 1)**n is formed
        top = n * q
        k = data.draw(st.one_of(st.integers(-1, 30), st.integers(top - 30, top + 1),
                                st.integers(0, top)))
        expected = (_recurrence.coefficient(n, k, q) / (q + 1) ** n) * math.sqrt(
            q * (q + 2) * n / 12
        )
        assert repr(exact_scaled_value(n, k, q)) == repr(expected)

    def test_bits_where_the_ratio_leaves_the_subnormals(self):
        # C(n, k) / 2**n falls through the subnormals to 0.0 over these n
        for n in range(1068, 1130):
            for k in (0, 1, 2):
                expected = (math.comb(n, k) / 2**n) * math.sqrt(3 * n / 12)
                assert repr(exact_scaled_value(n, k, 1)) == repr(expected), (n, k)

    def test_huge_n_memory(self):
        # the quotient rounds to 0.0, so (q + 1)**n, 200 KB here, is never formed
        tracemalloc.start()
        try:
            value = exact_scaled_value(10**6, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 0.0
        assert peak < 64 * 1024


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

    # n^(order+1) * sup error at n = 100, measured for q = 1, 2, 4, ..., 64:
    # order 0 falls 0.0996 -> 0.0599, order 1 0.0425 -> 0.0172, order 2
    # 0.0565 -> 0.0144; the bands add about 10% on either side
    @pytest.mark.parametrize("order,low,high", [
        (0, 0.054, 0.110), (1, 0.0155, 0.047), (2, 0.013, 0.062)])
    def test_rate_uniform_in_q(self, order, low, high):
        # the expansion does not get worse as q grows: only the row does
        scaled = [100 ** (order + 1) * uniform_error(100, 2**i, order)[0]
                  for i in range(7)]
        assert all(low <= s <= high for s in scaled)
        assert scaled == sorted(scaled, reverse=True)

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
                clear_sweep_caches()
                for order in orders:
                    result = uniform_error(n, q, order)
                    assert result == expected[order]
                    assert type(result[0]) is float and type(result[1]) is int

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            uniform_error(50, 2, -1)

    def test_cached_arrays_are_read_only(self):
        # a one-row table is joined from its row's arrays, as every table is
        uniform_error(50, 2, 2)
        exact, x, base, _, _ = harness._table((50,), 2, 0)
        sums = harness._table((50,), 2, 1)[-1], harness._table((50,), 2, 2)[-1]
        for a in (exact, x, base, *sums):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_sweep_converts_each_row_once(self):
        clear_sweep_caches()
        rate_sweep(2, 0, [50, 100, 200, 400])
        row_calls = compute_row.cache_info()
        for order in range(1, 4):
            rate_sweep(2, order, [50, 100, 200, 400])
        info = harness._table.cache_info()
        # each of orders 1..3 adds its sum to the entry of the order below
        assert (info.misses, info.hits) == (4, 3)
        assert compute_row.cache_info() == row_calls


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
        + [(2, 40, ns) for ns in ([1, 2, 3], [7, 77, 777])]
        + [(2, 3, [50, 100, 200])],
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
            return uniform_polynomial(v, q)

        monkeypatch.setattr(harness, "uniform_polynomial", counted)
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
        exact, x, base, _, _ = harness._table(ns, 2, 0)
        sums = harness._table(ns, 2, 1)[-1], harness._table(ns, 2, 2)[-1]
        for a in (exact, x, base, *sums):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_mixed_n_lists_equal_cold(self):
        # one-row tables and another n list's orders evict some of the
        # entries of a's orders and leave others
        a, b = (50, 100, 200, 400), (7, 77, 777)
        calls = (
            [(rate_sweep, (3, 2, a))]
            + [(uniform_error, (n, 3, 1)) for n in a]
            + [(rate_sweep, (3, 3, b)), (rate_sweep, (3, 3, a)), (rate_sweep, (3, 1, a))]
        )
        cold = []
        for f, args in calls:
            clear_sweep_caches()
            cold.append(f(*args))
        clear_sweep_caches()
        assert [f(*args) for f, args in calls] == cold

    def test_one_row_query_between_orders_keeps_the_table(self):
        # the next order reads its own entry below, not the rows again
        ns = [50, 100, 200, 400]
        clear_sweep_caches()
        rate_sweep(3, 2, ns)
        uniform_error(50, 3, 0)
        hits = compute_row.cache_info().hits
        rate_sweep(3, 3, ns)
        assert compute_row.cache_info().hits == hits


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

    @pytest.mark.parametrize(
        "q, ns",
        [pytest.param(q, [50, 100, 200, 400], id=str(q)) for q in range(1, 9)]
        + [pytest.param(2, [50, 100, 200], id="2-50,100,200")],
    )
    def test_sweep_grid(self, q, ns):
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


def decimal_pi():
    """pi at the context's precision: the recipe in the documentation of
    Python's decimal module."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def top_bits(x, bits=400):
    """x's leading bits and the shift that drops the rest."""
    shift = max(x.bit_length() - bits, 0)
    return x >> shift, shift


class TestCentralExpansion:
    """The complete expansion at the centre, x = 0, in exact arithmetic:
    central_ratio(n, q) = 1 + sum_v P_v(0) n^-v, with P_v(0) the constant
    coefficient of uniform_correction(v, q).poly.  After V terms the
    residual R_V(n) is P_{V+1}(0) n^-(V+1) to leading order, so
    t_V(n) = R_V(n) n^(V+1) / P_{V+1}(0) tends to 1 like 1/n.  The ratio is
    formed from the top 400 bits of the central coefficient and of
    (q+1)**n, and sqrt(2 pi n sigma^2) at 100 digits: at V = 12 and
    n = 4000 the residual is P_13(0) times 4000^-13 = 1.5e-47, where a
    float ratio would hold only rounding noise."""

    C = 60  # max |t_V - 1| * n over the grid is 44.3

    @staticmethod
    def t(n, q, v_top):
        with localcontext() as ctx:
            ctx.prec = 100
            c, c_shift = top_bits(_recurrence.coefficient(n, n * q // 2, q))
            total, total_shift = top_bits((q + 1) ** n)
            ratio = Decimal(c) / Decimal(total) * Decimal(2) ** (c_shift - total_shift)
            ratio *= (2 * decimal_pi() * n * q * (q + 2) / 12).sqrt()
            p0 = [uniform_correction(v, q).poly.coeffs[0] for v in range(1, v_top + 2)]
            p0 = [Decimal(p.numerator) / p.denominator for p in p0]
            series = sum(p / Decimal(n) ** v for v, p in enumerate(p0[:-1], 1))
            residual = ratio - 1 - series
            return residual * Decimal(n) ** (v_top + 1) / p0[-1]

    @pytest.mark.parametrize("v_top", [3, 6, 10, 12])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    def test_next_term_leads_the_residual(self, q, v_top):
        ns = [1000, 2000, 4000]
        gaps = [abs(self.t(n, q, v_top) - 1) for n in ns]
        assert all(gap <= self.C / n for gap, n in zip(gaps, ns)), gaps
        assert gaps[0] > gaps[1] > gaps[2]


def decimal_value(poly, x):
    """poly at a Decimal x by Horner's scheme, at the context's precision."""
    acc = Decimal(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + Decimal(c.numerator) / c.denominator
    return acc


@lru_cache(maxsize=None)
def off_centre_point(n, q, j):
    """At k = nq/2 + round(j sigma sqrt(n)): the exact scaled value, phi(x)
    and P_1(x)..P_11(x), in 100-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 100
        k = n * q // 2 + round(j * math.sqrt(q * (q + 2) * n / 12))
        c, c_shift = top_bits(_recurrence.coefficient(n, k, q))
        total, total_shift = top_bits((q + 1) ** n)
        scale = (Decimal(n * q * (q + 2)) / 12).sqrt()  # sqrt(n sigma^2)
        scaled = Decimal(c) / Decimal(total) * Decimal(2) ** (c_shift - total_shift) * scale
        x = (k - Decimal(n * q) / 2) / scale
        phi = (-x * x / 2).exp() / (2 * decimal_pi()).sqrt()
        return scaled, phi, [decimal_value(uniform_polynomial(v, q), x) for v in range(1, 12)]


class TestOffCentreExpansion:
    """The complete expansion off the centre, where the odd Hermite terms
    count too: at k = nq/2 + round(j sigma sqrt(n)), x is about j, and
    after V terms the residual

        R_V = ratio * sqrt(n sigma^2) - phi(x) (1 + sum_{v<=V} P_v(x) n^-v)

    is phi(x) P_{V+1}(x) n^-(V+1) to leading order, so
    t_V(n) = R_V / (phi(x) P_{V+1}(x) / n^(V+1)) tends to 1 like 1/n.  As at
    the centre, the ratio is formed from the top 400 bits and the rest at
    100 digits; the terms beyond all orders, exponentially small in n, are
    below 3^-1000 at these n.  Rounding k moves x with n, so |t_V - 1| need
    not fall at each doubling, only from n = 1000 to 4000; and t_V is
    ill-conditioned near a root of P_{V+1}, so |P_{V+1}(x)| must clear a
    floor at every point read."""

    C = 180  # max |t_V - 1| * n over the grid is 135.9, at q = 2, j = 3, V = 10
    FLOOR = 0.01  # min |P_{V+1}(x)| over the grid is 0.019, at q = 1, j = 1, V = 3

    @pytest.mark.parametrize("v_top", [3, 6, 10])
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    def test_next_term_leads_the_residual(self, q, j, v_top):
        ns = [1000, 2000, 4000]
        gaps = []
        for n in ns:
            scaled, phi, p = off_centre_point(n, q, j)
            assert abs(p[v_top]) > self.FLOOR, (n, p[v_top])
            with localcontext() as ctx:
                ctx.prec = 100
                series = 1 + sum(pv / Decimal(n) ** v for v, pv in enumerate(p[:v_top], 1))
                residual = scaled - phi * series
                t = residual * Decimal(n) ** (v_top + 1) / (phi * p[v_top])
            gaps.append(abs(t - 1))
        assert all(gap <= self.C / n for gap, n in zip(gaps, ns)), gaps
        assert gaps[2] < gaps[0], gaps


class TestBeyondAllOrders:
    """The terms beyond all orders at q = 2 and 3.  Write M(e^{i theta}),
    with M(z) = (1 + z + ... + z^q)/Q and Q = q + 1, as e^{i q theta/2}
    g(theta), where g(theta) = sin(Q theta/2) / (Q sin(theta/2)) is real.
    Besides theta = 0, |g| peaks on side lobes theta_j, and each peak adds
    to P(S_n = k) a term that oscillates in k and that no order of the
    series in 1/n captures.  At a peak g' = 0, so the tilted law there has
    mean q/2 and variance -g''/g = (Q^2 - 1)/4 = 3 sigma^2, the second
    equality by the peak condition Q tan(theta/2) = tan(Q theta/2).  By the
    saddle point, the peak adds to the scaled value

        g(theta_j)^n cos((k - nq/2) theta_j) exp(-x^2/6) / sqrt(6 pi)

    to leading order, a conjugate pair twice and theta = pi once; with
    h = cos(theta_j/2), the cosine is the Chebyshev T_{|2k - nq|}(h).

    - q = 2: the one peak is theta = pi, so h = 0 and g = -1/3:
      S = (-1)^k 3^-n exp(-x^2/6) / sqrt(6 pi).
    - q = 3: |M| = |cos(theta/2) cos(theta)| peaks on the pair with
      cos(theta_1) = -2/3, so h = 1/sqrt(6) and g = -2h/3:
      S = 2 g^n T_{|2k - 3n|}(h) exp(-x^2/6) / sqrt(6 pi).

    At n = 8..33 the series' own error after 40 terms is below S, so the
    residual R after 40 terms, as in TestOffCentreExpansion, over S tends
    to 1 like 1/n.  At the centre k = floor(nq/2), R/S runs from 0.9625 at
    n = 8 to 0.9906 at n = 33 for q = 2, and from 0.9654 to 0.9895 for
    q = 3, between 0.963 and 0.992.  At k = floor(nq/2) + round(sigma
    sqrt(n)), where x is about 1, it runs from 0.9786 to 0.9971 for q = 2,
    and stays between 0.962 and 1.068 for q = 3.  The ratios read the same
    at 40, 60 and 90 digits."""

    # max |R/S - 1| * n is 0.310 at the centre and 0.184 off it for q = 2,
    # and 0.347 and 1.038 for q = 3; each C is the larger times 1.25,
    # rounded up to a tenth
    C = {2: 0.4, 3: 1.3}

    @staticmethod
    def peak(q):
        """h = cos(theta_j/2), g(theta_j) and the number of peaks."""
        if q == 2:
            return Decimal(0), Decimal(-1) / 3, 1
        h = 1 / Decimal(6).sqrt()
        return h, -2 * h / 3, 2

    @pytest.mark.parametrize(
        "q,off_centre", [(2, False), (2, True), (3, False), (3, True)],
        ids=["centre", "off-centre", "q3-centre", "q3-off-centre"],
    )
    def test_secondary_peak_leads_the_residual(self, q, off_centre):
        polys = [uniform_polynomial(v, q) for v in range(1, 41)]
        for n in range(8, 34):
            k = n * q // 2
            if off_centre:
                k += round(math.sqrt(n * q * (q + 2) / 12))
            with localcontext() as ctx:
                ctx.prec = 60
                scale = (Decimal(n * q * (q + 2)) / 12).sqrt()  # sqrt(n sigma^2)
                x = Decimal(2 * k - n * q) / 2 / scale
                phi = (-x * x / 2).exp() / (2 * decimal_pi()).sqrt()
                series = 1 + sum(decimal_value(p, x) / Decimal(n) ** v
                                 for v, p in enumerate(polys, 1))
                scaled = Decimal(_recurrence.coefficient(n, k, q)) / (q + 1) ** n * scale
                h, g, peaks = self.peak(q)
                t, t_next = Decimal(1), h  # T_0(h), T_1(h)
                for _ in range(abs(2 * k - n * q)):
                    t, t_next = t_next, 2 * h * t_next - t
                secondary = (peaks * g**n * t * (-x * x / 6).exp()
                             / (6 * decimal_pi()).sqrt())
                ratio = (scaled - phi * series) / secondary
            assert abs(ratio - 1) <= self.C[q] / n, (n, k, ratio)


def predicted_ratio(n: int, q: int, order: int) -> float:
    """sup_err over the first dropped term's sup, max_k |phi(x) P_{order+1}(x)|
    / n**(order+1), both over the same half row of the sweep cache."""
    sup, _ = uniform_error(n, q, order)
    _, x, phi, _, _ = harness._table((n,), q, order)
    term = np.abs(phi * uniform_polynomial(order + 1, q)(x)).max() / n ** (order + 1)
    return sup / float(term)


class TestPredictedLeadingTerm:
    """With ``order`` terms, the sup error is the first dropped term plus a
    smaller remainder, so its ratio r to that term's sup tends to 1."""

    # |r - 1| <= C[order] / n; the largest |r - 1| * n over q 1..8 and
    # n 50..400 is 0.128, 0.874, 1.586 and 2.471 for orders 0 to 3, and
    # each C is that times 1.25, rounded up to a tenth
    C = (0.2, 1.1, 2.0, 3.1)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", range(1, 9))
    def test_ratio_tends_to_one(self, q, order):
        for n in (50, 100, 200, 400):
            r = predicted_ratio(n, q, order)
            assert abs(r - 1) <= self.C[order] / n, (n, r)

    def test_rounding_floor_leaves_the_band(self):
        # at order 6 the float evaluation's rounding error outgrows the
        # dropped term: r is about 2.46, 234, 3.0e4 and 5.1e6
        for n in (200, 400, 800, 1600):
            r = predicted_ratio(n, 2, 6)
            assert abs(r - 1) > max(self.C) / n, (n, r)


class TestFirstOrderCrossCheck:
    @pytest.mark.parametrize("n,k,q", [(10, 10, 2), (25, 30, 3), (7, 0, 4)])
    def test_routes_agree(self, n, k, q):
        series, closed = first_order_cross_check(n, k, q)
        assert abs(series - closed) <= 1e-12
