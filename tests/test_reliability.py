import gc
import math
import weakref

import numpy as np
import pytest
from scipy import integrate

from reliatree.reliability import (
    Exponential,
    Product,
    Sampled,
    Weibull,
    constant_one,
    draw_count,
    mttf,
    reliability_at,
    sample_failure_times,
)


def quad_mttf(rf, upper):
    """Independent quadrature oracle for the mean time to failure."""
    value, _ = integrate.quad(lambda t: reliability_at(rf, t), 0.0, upper, limit=400)
    return value


class TestForms:
    def test_exponential_at_zero(self):
        assert reliability_at(Exponential(1e-3), 0.0) == 1.0

    def test_exponential_closed_form(self):
        assert reliability_at(Exponential(1e-3), 1000.0) == pytest.approx(math.exp(-1.0))

    def test_sampled_log_linear_midpoint(self):
        # Hand oracle: exp(0.5 * ln 0.5) = sqrt(0.5).
        s = Sampled((0.0, 100.0), (1.0, 0.5))
        assert reliability_at(s, 50.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_sampled_constant_hazard_tail(self):
        s = Sampled((0.0, 100.0), (1.0, 0.5))
        # Final-segment hazard ln2/100 extrapolates: R(200) = 0.25.
        assert reliability_at(s, 200.0) == pytest.approx(0.25, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            reliability_at(Exponential(1.0), -0.1)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Exponential(0.0),
            lambda: Exponential(-1.0),
            lambda: Weibull(0.0, 1.0),
            lambda: Weibull(1.0, -2.0),
            lambda: Sampled((0.0, 1.0), (1.0, 1.1)),
            lambda: Sampled((0.0, 1.0), (0.9, 0.5)),
            lambda: Sampled((1.0, 2.0), (1.0, 0.5)),
            lambda: Sampled((0.0, 1.0), (1.0, -0.1)),
            lambda: Sampled((0.0, 1.0, 1.0), (1.0, 0.5, 0.4)),
            lambda: Sampled((0.0, 1.0), (1.0, 1.0 + 1e-9)),
            lambda: Product(()),
        ],
    )
    def test_invalid_constructions(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_sampled_non_increasing_required(self):
        with pytest.raises(ValueError):
            Sampled((0.0, 1.0, 2.0), (1.0, 0.4, 0.5))


GRID = np.linspace(0.0, 50_000.0, 257)

FORMS = [
    Exponential(1e-4),
    Exponential(3.3e-3),
    Weibull(1000.0, 2.0),
    Weibull(5000.0, 0.7),
    Sampled((0.0, 10.0, 400.0, 2000.0), (1.0, 0.99, 0.8, 0.3)),
    constant_one(),
    Product((Exponential(1e-4), Weibull(2000.0, 1.5))),
    Product((Product((Exponential(2e-4), Exponential(1e-4))), constant_one())),
]


class TestInvariants:
    @pytest.mark.parametrize("rf", FORMS)
    def test_starts_at_one(self, rf):
        assert reliability_at(rf, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rf", FORMS)
    def test_non_increasing_and_bounded(self, rf):
        values = [reliability_at(rf, float(t)) for t in GRID]
        for v in values:
            assert 0.0 <= v <= 1.0
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_single_factor_product_matches_factor(self):
        rf = Weibull(1234.0, 1.7)
        prod = Product((rf,))
        for t in GRID:
            assert reliability_at(prod, float(t)) == reliability_at(rf, float(t))


class TestCombine:
    """Independent competing risks: the product of the fault-mode survivals."""

    def test_identity_factor(self):
        r = Exponential(1e-4)
        combined = Product((r, constant_one()))
        for t in (0.0, 100.0, 1e4, 3e5):
            assert reliability_at(combined, t) == reliability_at(r, t)

    def test_rate_addition(self):
        combined = Product((Exponential(1e-4), Exponential(4e-4)))
        target = Exponential(5e-4)
        for t in (0.0, 123.0, 9999.0):
            assert reliability_at(combined, t) == pytest.approx(
                reliability_at(target, t), abs=1e-12
            )
        assert mttf(combined) == pytest.approx(2000.0, rel=1e-3)

    def test_domination(self):
        a = Exponential(2e-4)
        b = Product((Exponential(1e-4), Exponential(3e-4)))
        combined = Product((a, b))
        for t in np.linspace(0.0, 2e4, 33):
            va = reliability_at(a, float(t))
            vb = reliability_at(b, float(t))
            assert reliability_at(combined, float(t)) <= min(va, vb) + 1e-12

    def test_grouping_and_order_equivalence(self):
        x, y, z = Exponential(1e-4), Exponential(2e-4), Exponential(3e-4)
        left = Product((Product((x, y)), z))
        right = Product((x, Product((y, z))))
        swapped = Product((z, Product((y, x))))
        for t in np.linspace(0.0, 3e4, 17):
            v = reliability_at(left, float(t))
            assert reliability_at(right, float(t)) == pytest.approx(v, abs=1e-15)
            assert reliability_at(swapped, float(t)) == pytest.approx(v, abs=1e-15)


class TestMttf:
    def test_exponential(self):
        assert mttf(Exponential(1e-3)) == pytest.approx(1000.0)

    def test_weibull_closed_form(self):
        # eta * Gamma(1.5); Gamma(1.5) = 0.8862269254527580.
        assert mttf(Weibull(1000.0, 2.0)) == pytest.approx(886.2269254527580, rel=1e-12)

    def test_product_of_exponentials_rate_addition(self):
        got = mttf(Product((Exponential(1e-4), Exponential(4e-4))))
        assert got == pytest.approx(2000.0, rel=1e-3)

    def test_product_against_quadrature_oracle(self):
        rf = Product((Weibull(1000.0, 2.0), Exponential(1e-4)))
        expected = quad_mttf(rf, 30_000.0)
        assert mttf(rf) == pytest.approx(expected, rel=1e-4)
        assert mttf(rf) < min(886.23, 10_000.0)

    def test_sampled_exponential_grid_is_exact(self):
        grid = np.linspace(0.0, 10_000.0, 512)
        s = Sampled(tuple(grid), tuple(np.exp(-1e-3 * grid)))
        assert mttf(s) == pytest.approx(1000.0, rel=1e-9)

    def test_unbounded_is_distinguished(self):
        assert math.isinf(mttf(constant_one()))
        assert math.isinf(mttf(Product((constant_one(), constant_one()))))

    def test_sampled_flat_segment(self):
        s = Sampled((0.0, 10.0, 20.0), (1.0, 1.0, 0.5))
        expected = 10.0 + (1.0 - 0.5) / (math.log(2.0) / 10.0) + 0.5 / (math.log(2.0) / 10.0)
        assert mttf(s) == pytest.approx(expected, rel=1e-12)

    def test_sampled_dropping_to_zero(self):
        # Log-linear interpolation to an exact zero collapses the segment:
        # the curve is 1 at t=0 and 0 beyond.
        s = Sampled((0.0, 10.0), (1.0, 0.0))
        assert reliability_at(s, 0.0) == 1.0
        assert reliability_at(s, 5.0) == 0.0
        assert reliability_at(s, 20.0) == 0.0
        assert mttf(s) == 0.0

    def test_sampled_curve_is_freed_after_use(self):
        # Evaluation must not keep a reference to the curve (no global cache).
        s = Sampled((0.0, 10.0, 20.0), (1.0, 0.8, 0.5))
        mttf(s)
        reliability_at(s, 15.0)
        sample_failure_times(s, np.array([[0.3]]))
        ref = weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None

    def test_segment_rates_do_not_affect_equality_or_repr(self):
        a = Sampled((0.0, 10.0), (1.0, 0.5))
        assert a == Sampled((0.0, 10.0), (1.0, 0.5))
        assert hash(a) == hash(Sampled((0.0, 10.0), (1.0, 0.5)))
        assert repr(a) == "Sampled(times=(0.0, 10.0), values=(1.0, 0.5))"
        assert a.segment_rates == ((math.log(2.0) / 10.0,), math.log(2.0) / 10.0)


class TestSampling:
    def test_draw_counts(self):
        assert draw_count(Exponential(1.0)) == 1
        nested = Product((Exponential(1.0), Product((Weibull(1.0, 1.0), constant_one()))))
        assert draw_count(nested) == 3

    def test_exponential_inversion(self):
        u = np.array([1.0, math.exp(-1.0), math.exp(-2.0)])
        t = sample_failure_times(Exponential(1e-3), u[None, :])
        assert np.allclose(t, [0.0, 1000.0, 2000.0])

    def test_weibull_inversion(self):
        u = np.array([math.exp(-1.0)])
        t = sample_failure_times(Weibull(500.0, 2.0), u[None, :])
        assert t[0] == pytest.approx(500.0)

    def test_constant_one_never_fails(self):
        u = np.linspace(0.01, 0.99, 9)
        assert np.all(np.isinf(sample_failure_times(constant_one(), u[None, :])))

    @pytest.mark.parametrize(
        "curve",
        [
            Sampled((0.0, 100.0), (1.0, 0.5)),
            Sampled((0.0, 10.0, 400.0, 2000.0), (1.0, 0.99, 0.8, 0.3)),
            Sampled((0.0, 50.0, 100.0), (1.0, 1.0, 0.25)),
        ],
    )
    def test_sampled_inverse_against_evaluation(self, curve):
        u = np.linspace(0.31, 1.0, 23)
        t = sample_failure_times(curve, u[None, :])
        for ui, ti in zip(u, t):
            assert reliability_at(curve, float(ti)) == pytest.approx(float(ui), abs=1e-9)

    def test_product_sampling_is_min_of_factors(self):
        rf = Product((Exponential(1e-3), Exponential(2e-3)))
        u = np.array([[0.5, 0.9], [0.9, 0.5]])
        t = sample_failure_times(rf, u)
        t0 = min(-math.log(0.5) / 1e-3, -math.log(0.9) / 2e-3)
        t1 = min(-math.log(0.9) / 1e-3, -math.log(0.5) / 2e-3)
        assert np.allclose(t, [t0, t1])

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError):
            sample_failure_times(Product((Exponential(1.0), Exponential(1.0))), np.ones((1, 4)))
