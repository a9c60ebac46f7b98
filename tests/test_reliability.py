import gc
import math
import weakref

import numpy as np
import pytest
from scipy import integrate

from reliatree.reliability import (
    Exponential,
    Product,
    Weibull,
    mttf,
    reliability_at,
    integrate_survival,
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

    def test_exponential_zero_rate_never_fails(self):
        for t in (0.0, 1.0, 1e9):
            assert reliability_at(Exponential(0.0), t) == 1.0

    def test_weibull_overflow_rounds_to_zero(self):
        # (2/1)^1e6 is past the largest float; exp(-that) rounds to 0.0.
        assert reliability_at(Weibull(1.0, 1e6), 2.0) == 0.0
        assert reliability_at(Weibull(1.0, 1e6), 0.5) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            reliability_at(Exponential(1.0), -0.1)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Exponential(-1.0),
            lambda: Weibull(0.0, 1.0),
            lambda: Weibull(1.0, -2.0),
            lambda: Product(()),
            # The rate check admits 0 but still nothing negative or non-finite.
            lambda: Exponential(-1e-300),
            lambda: Exponential(math.nan),
            lambda: Exponential(math.inf),
            lambda: Weibull(math.nan, 1.0),
            lambda: Weibull(1.0, math.inf),
            lambda: Product((0.5,)),
        ],
    )
    def test_invalid_constructions(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_nested_product_rejected(self):
        inner = Product((Exponential(1e-4), Exponential(2e-4)))
        with pytest.raises(ValueError, match="factor must be an Exponential or a Weibull"):
            Product((inner, Weibull(1000.0, 2.0)))


GRID = np.linspace(0.0, 50_000.0, 257)

FORMS = [
    Exponential(1e-4),
    Exponential(3.3e-3),
    Weibull(1000.0, 2.0),
    Weibull(5000.0, 0.7),
    Exponential(0.0),
    Product((Exponential(1e-4), Weibull(2000.0, 1.5))),
    Product((Exponential(2e-4), Exponential(1e-4), Exponential(0.0))),
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
        combined = Product((r, Exponential(0.0)))
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
        combined = Product((a,) + b.factors)
        for t in np.linspace(0.0, 2e4, 33):
            va = reliability_at(a, float(t))
            vb = reliability_at(b, float(t))
            assert reliability_at(combined, float(t)) <= min(va, vb) + 1e-12

    def test_factor_order_equivalence(self):
        x, y, z = Exponential(1e-4), Weibull(2000.0, 1.5), Exponential(3e-4)
        forward = Product((x, y, z))
        for t in np.linspace(0.0, 3e4, 17):
            v = reliability_at(forward, float(t))
            assert reliability_at(Product((z, y, x)), float(t)) == pytest.approx(v, abs=1e-15)
            assert reliability_at(Product((y, x, z)), float(t)) == pytest.approx(v, abs=1e-15)


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

    @pytest.mark.parametrize(
        "rf",
        [
            Product((Weibull(1000.0, 2.0), Exponential(1e-4))),
            Product((Weibull(5000.0, 0.7), Exponential(3e-5))),
            Product((Weibull(40.0, 4.0), Weibull(60.0, 1.5))),
            Product((Exponential(1e-4), Exponential(0.0))),
        ],
    )
    def test_gauss_legendre_against_scipy(self, rf):
        # scipy.integrate.quad on the same doubling panels, far past R = 1e-9.
        expected = 0.0
        lo, hi = 0.0, 1.0
        while hi < 1e7:
            expected += integrate.quad(
                lambda t: reliability_at(rf, t), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200
            )[0]
            lo, hi = hi, 2.0 * hi
        assert mttf(rf) == pytest.approx(expected, rel=1e-9)

    def test_gauss_legendre_rule(self):
        # The Newton-iterated rule equals numpy's eigenvalue-based one and
        # integrates polynomials up to degree 63 exactly.
        from reliatree.reliability import _GAUSS_NODES, _GAUSS_WEIGHTS

        nodes, weights = np.polynomial.legendre.leggauss(32)
        order = np.argsort(_GAUSS_NODES)
        assert np.allclose(np.asarray(_GAUSS_NODES)[order], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(np.asarray(_GAUSS_WEIGHTS)[order], weights, rtol=0.0, atol=1e-15)
        for degree in (0, 2, 62):
            got = math.fsum(w * x**degree for x, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS))
            assert got == pytest.approx(2.0 / (degree + 1), rel=1e-13)

    @pytest.mark.parametrize("beta, rel", [(1.0, 1e-10), (2.0, 1e-10), (8.0, 1e-10), (0.5, 5e-7)])
    def test_sub_hour_lifetimes_against_closed_form(self, beta, rel):
        # The first panel is halved until R at its end is >= 1/2, so a
        # lifetime far below an hour still spans many panels.
        for eta in (1e-300, 1e-8, 1e-3, 1.0, 1e4):
            rf = Product((Weibull(eta, beta), Exponential(0.0)))
            assert mttf(rf) == pytest.approx(eta * math.gamma(1.0 + 1.0 / beta), rel=rel)

    def test_subnormal_scale_terminates(self):
        # R is below 1/2 already at the smallest normal float; the halving stops there.
        assert 0.0 <= mttf(Product((Weibull(5e-324, 2.0), Exponential(0.0)))) <= 1e-300

    def test_unbounded_is_distinguished(self):
        assert math.isinf(mttf(Exponential(0.0)))
        assert math.isinf(mttf(Product((Exponential(0.0), Exponential(0.0)))))

    def test_negligible_hazard_is_unbounded(self):
        # R(1e9 h) = exp(-1e-13) is above 1 - 1e-12: no failure within the cap.
        assert math.isinf(mttf(Product((Exponential(1e-22), Exponential(0.0)))))

    def test_truncated_at_horizon_cap(self):
        # R(1e9 h) = exp(-1e-3): finite, integrated up to the cap and no further.
        lam = 1e-12
        expected = -math.expm1(-lam * 1e9) / lam
        assert mttf(Product((Exponential(lam), Exponential(0.0)))) == pytest.approx(
            expected, rel=1e-12
        )

    def test_integrate_survival_reads_the_survival_once(self):
        calls = []

        def survival(times):
            calls.append(list(times))
            return [math.exp(-1e-3 * t) for t in times]

        got = integrate_survival(survival)
        ladder, nodes = calls
        assert ladder == [2.0**k for k in range(30)] + [1e9]
        # The last panel, [end/2, end], ends at the first doubling end below 1e-9.
        end = 32768.0
        assert end / 2 < max(nodes) < end
        assert math.exp(-1e-3 * end) < 1e-9 <= math.exp(-1e-3 * end / 2)
        assert got == pytest.approx(1000.0, rel=1e-12)

    def test_integrate_survival_of_sub_hour_lifetime_reads_three_times(self):
        calls = []

        def survival(times):
            calls.append(list(times))
            return [math.exp(-1e4 * t) for t in times]

        got = integrate_survival(survival)
        ladder, halvings, nodes = calls
        assert ladder == [2.0**k for k in range(30)] + [1e9]
        assert halvings == [2.0**-k for k in range(1, 65)]
        # h is the first halving with R(h) >= 1/2: 2^-14 hours, as R(2^-13) = exp(-1.22).
        assert max(nodes[:32]) < 2.0**-14 < min(nodes[32:64])
        assert got == pytest.approx(1e-4, rel=1e-12)

    def test_integrate_survival_reads_the_deep_halvings_only_when_needed(self):
        # R < 1/2 at 2^-64 hours too, so the halvings down to 2^-1022 are read;
        # h is 2^-84 hours, and seven doubling panels reach R < 1e-9.
        calls = []

        def survival(times):
            calls.append(list(times))
            return [math.exp(-1e25 * t) for t in times]

        got = integrate_survival(survival)
        assert [len(c) for c in calls] == [31, 64, 958, 224]
        assert calls[2] == [2.0**-k for k in range(65, 1023)]
        assert got == pytest.approx(1e-25, rel=1e-12)

    def test_product_is_freed_after_use(self):
        # Evaluation must not keep a reference to the function (no global cache).
        rf = Product((Weibull(1000.0, 2.0), Exponential(1e-4)))
        mttf(rf)
        reliability_at(rf, 15.0)
        ref = weakref.ref(rf)
        del rf
        gc.collect()
        assert ref() is None


class TestSampling:
    def test_exponential_inversion(self):
        u = np.array([1.0, math.exp(-1.0), math.exp(-2.0)])
        t = sample_failure_times(Exponential(1e-3), u)
        assert np.allclose(t, [0.0, 1000.0, 2000.0])

    def test_weibull_inversion(self):
        u = np.array([math.exp(-1.0)])
        t = sample_failure_times(Weibull(500.0, 2.0), u)
        assert t[0] == pytest.approx(500.0)

    def test_zero_rate_never_fails(self):
        rf = Exponential(0.0)
        for t in (0.0, 1.0, 1e9):
            assert reliability_at(rf, t) == 1.0
        assert math.isinf(mttf(rf))
        # u = 1.0 would give -log(1.0) / 0 = NaN without the special case.
        u = np.array([1.0, 0.5, 2.0**-53])
        t = sample_failure_times(rf, u)
        assert np.all(np.isposinf(t))
