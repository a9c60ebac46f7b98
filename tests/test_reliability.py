import gc
import math
import random
import sys
import weakref

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx

from reliatree.errors import InputError
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
        # At t = inf too, as mttf gives inf: 0 * inf is not a hazard of NaN.
        for t in (0.0, 1.0, 1e9, math.inf):
            assert reliability_at(Exponential(0.0), t) == 1.0

    def test_weibull_overflow_rounds_to_zero(self):
        # (2/1)^1e6 is past the largest float; exp(-that) rounds to 0.0.
        assert reliability_at(Weibull(1.0, 1e6), 2.0) == 0.0
        assert reliability_at(Weibull(1.0, 1e6), 0.5) == 1.0

    @pytest.mark.parametrize("t, eta, beta, decades", [(1e10, 1e-300, 0.001, 310), (1e-300, 1e100, 0.0059, -400)])
    def test_weibull_ratio_outside_normal_floats_keeps_its_power(self, t, eta, beta, decades):
        # t/eta overflows, or underflows to 0, where (t/eta)^beta for a small
        # beta is still a moderate number: R is neither 0 nor 1 there.
        expected = math.exp(-(10.0 ** (beta * decades)))
        assert 0.0 < expected < 1.0
        assert reliability_at(Weibull(eta, beta), t) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            reliability_at(Exponential(1.0), -0.1)

    @pytest.mark.parametrize(
        "rf", [Exponential(1.0), Exponential(0.0), Weibull(10.0, 2.0), Product((Exponential(1.0),))]
    )
    def test_nan_time_rejected(self, rf):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            reliability_at(rf, math.nan)

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


class TestColumns:
    """A column of times gives the number calls' survivals, bit for bit."""

    @staticmethod
    def seeded_forms():
        rnd = random.Random(30)

        def elementary():
            if rnd.random() < 0.5:
                return Exponential(rnd.choice([0.0, 10.0 ** rnd.uniform(-9.0, 3.0)]))
            beta = rnd.choice([0.5, 1.0, 2.0, 60.0, rnd.uniform(0.3, 12.0)])
            return Weibull(10.0 ** rnd.uniform(-3.0, 6.0), beta)

        forms = [Exponential(0.0), Weibull(1e-3, 2.0)]
        forms += [elementary() for _ in range(40)]
        forms += [Product(tuple(elementary() for _ in range(rnd.randint(1, 4)))) for _ in range(40)]
        return forms, rnd

    def test_entries_have_the_bits_of_the_number_calls(self):
        forms, rnd = self.seeded_forms()
        for rf in forms:
            # 1e300 overflows (t / eta) ** beta for most Weibulls; inf with lam = 0 is 1.
            times = [0.0, 1e-9, 1.0, 1e300, math.inf] + [10.0 ** rnd.uniform(-6.0, 8.0) for _ in range(20)]
            column = reliability_at(rf, np.array(times))
            assert column.dtype == np.float64 and column.shape == (len(times),)
            assert [v.hex() for v in column.tolist()] == [reliability_at(rf, t).hex() for t in times]
        assert reliability_at(Weibull(1e-3, 2.0), np.array([1e300]))[0] == 0.0  # the overflow branch
        assert reliability_at(Exponential(0.0), np.array([math.inf]))[0] == 1.0

    # Factors whose columns take every path: lam = 0 and lam > 0 at t = inf;
    # t / eta zero, subnormal or past the largest float (the log path, whose
    # power may round to 0 or overflow it); and a power past the largest
    # float at a finite t, where R rounds to 0.
    EXP0, EXP, TINY_T_OVER_ETA, HUGE_T_OVER_ETA, STEEP = (
        Exponential(0.0),
        Exponential(2.5e-4),
        Weibull(1e10, 0.01),
        Weibull(1e-5, 0.005),
        Weibull(2.0, 60.0),
    )

    def test_ten_thousand_seeded_times(self):
        times = 10.0 ** np.random.default_rng(37).uniform(-12.0, 14.0, 10_000)
        special = [0.0, math.inf, 5e-324, 1e-310, 2.0**1023, 1e6]
        times[: len(special)] = special
        three = (self.TINY_T_OVER_ETA, self.EXP, self.STEEP)
        forms = [self.EXP0, self.EXP, self.TINY_T_OVER_ETA, self.HUGE_T_OVER_ETA, self.STEEP,
                 Weibull(1e-5, 3.0), Weibull(3e4, 0.5), Product(three), Product(three[::-1])]
        for rf in forms:
            column = reliability_at(rf, times)
            assert column.dtype == np.float64 and column.shape == times.shape
            assert [v.hex() for v in column.tolist()] == [reliability_at(rf, t).hex() for t in times.tolist()]

    def test_special_entries_take_their_paths(self):
        assert (reliability_at(self.EXP0, math.inf), reliability_at(self.EXP, math.inf)) == (1.0, 0.0)
        # t / eta is 0 or subnormal: the power of the rounded quotient is not the log path's.
        rf = self.TINY_T_OVER_ETA
        for t in (5e-324, 1e-310):
            z = t / rf.eta
            assert z < sys.float_info.min and reliability_at(rf, t) != math.exp(-(z**rf.beta))
        rf = self.HUGE_T_OVER_ETA  # t / eta overflows, its 0.005th power does not
        assert 2.0**1023 / rf.eta == math.inf and reliability_at(rf, 2.0**1023) > 0.0
        assert reliability_at(Weibull(1e-5, 3.0), 2.0**1023) == 0.0  # the log path's power overflows
        with pytest.raises(OverflowError):
            (1e6 / self.STEEP.eta) ** self.STEEP.beta
        assert reliability_at(self.STEEP, 1e6) == 0.0

    def test_empty_column(self):
        got = reliability_at(Product((Exponential(1.0), Weibull(2.0, 3.0))), np.array([]))
        assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("bad, shown", [(-0.1, "-0.1"), (math.nan, "nan"), (-math.inf, "-inf")])
    @pytest.mark.parametrize(
        "rf",
        [
            Exponential(0.0),
            Weibull(10.0, 2.0),
            Product((Exponential(1.0), Weibull(2.0, 3.0))),
            Product((Weibull(2.0, 3.0), Exponential(1.0), Weibull(1e-5, 60.0))),
        ],
    )
    def test_bad_entry_is_named(self, rf, bad, shown):
        with pytest.raises(ValueError, match=f"time must be nonnegative, got {shown}$"):
            reliability_at(rf, np.array([0.0, 5.0, bad, 1.0, -7.0, math.nan]))


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
        # scipy.integrate.quad on the same doubling panels, up to 1e7 hours,
        # where every R here is below 1e-100.
        expected = 0.0
        lo, hi = 0.0, 1.0
        while hi < 1e7:
            expected += integrate.quad(
                lambda t: reliability_at(rf, t), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200
            )[0]
            lo, hi = hi, 2.0 * hi
        assert mttf(rf) == pytest.approx(expected, rel=1e-13)

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

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 8.0])
    def test_sub_hour_lifetimes_against_closed_form(self, beta):
        # The first panel is halved until R at its end is >= 1/2, so a
        # lifetime far below an hour still spans many panels.
        for eta in (1e-300, 1e-150, 1e-20, 1e-8, 1e-3, 1.0, 1e4):
            rf = Product((Weibull(eta, beta), Exponential(0.0)))
            assert mttf(rf) == pytest.approx(eta * math.gamma(1.0 + 1.0 / beta), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [0.2, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 5.0, 12.0, 30.0, 60.0, 100.0])
    @pytest.mark.parametrize("eta", [1e-307, 4.96e-307, 1e-303, 1e-6, 1e-3, 1.0, 1e3, 5e3, 1e6, 1e12])
    def test_steep_and_shallow_wear_out_against_closed_form(self, eta, beta):
        # A steep wear-out drops inside one doubling panel; the panels over the
        # drop are split until their halves agree with them. A shallow one
        # (beta < 1) keeps a long tail, and the panels run on until R underflows.
        # A lifetime near the smallest normal float is read in units of its
        # first panel end, so its panels split as a long one's do.
        got = mttf(Product((Weibull(eta, beta), Exponential(0.0))))
        assert got == pytest.approx(eta * math.gamma(1.0 + 1.0 / beta), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("eta, beta", [(1e-150, 0.006), (1e-150, 0.008), (1e-100, 0.008)])
    def test_long_tail_after_a_sub_hour_start_against_closed_form(self, eta, beta):
        # R(1 h) < 1/2, so h is below an hour, and R is above 0 at 2^1023 h:
        # that last end over h would overflow, so the panels are read in
        # units of 2^-1023 of it. Most of the MTTF lies where t/eta is past
        # the largest float. lgamma(1 + 1/beta), near 700, carries 1e-13 of
        # its own.
        got = mttf(Product((Weibull(eta, beta), Exponential(0.0))))
        assert got == pytest.approx(math.exp(math.lgamma(1.0 + 1.0 / beta) + math.log(eta)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eta, beta", [(1.0, 0.005), (1.0, 0.0065), (1.0, 0.007), (1e307, 1.0)])
    def test_a_tail_past_the_largest_power_of_two_hours_is_an_input_error(self, eta, beta):
        # R is still above 0 at T = 2^1023 h, the last panel end. The integral
        # up to T, eta Gamma(1 + 1/beta) P(1/beta, (T/eta)^beta), would read
        # the MTTF 99.99996% (beta 0.0065), 48% (0.007) and 1.2e-4 (1e307 h,
        # an exponential) low; at beta 0.005 the MTTF, Gamma(201) h, is past
        # the largest float.
        with pytest.raises(InputError, match=r"^survival is .* at 2\^1023 hours"):
            mttf(Product((Weibull(eta, beta), Exponential(0.0))))

    @pytest.mark.parametrize("k", range(-12, 4))
    def test_exponential_lifetimes_against_closed_form(self, k):
        # The tail past a panel end T is R(T) times the MTTF, so the panels
        # must run on until R(T) is below the MTTF's last bit.
        for m in (1.0, 1.7, 3.3):
            lam = m * 10.0**k
            got = mttf(Product((Exponential(lam), Exponential(0.0))))
            assert got == pytest.approx(1.0 / lam, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3, 1e6, 1e9])
    def test_wear_out_beside_soft_errors_against_closed_form(self, eta):
        # The integral of exp(-(t/eta)^2 - lam t) is eta (sqrt(pi)/2) erfcx(lam eta/2).
        for a in (1e-6, 0.1, 1.0, 10.0, 100.0):
            rf = Product((Weibull(eta, 2.0), Exponential(a / eta)))
            expected = eta * 0.5 * math.sqrt(math.pi) * erfcx(0.5 * a)
            assert mttf(rf) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_subnormal_scale_terminates(self):
        # R is below 1/2 already at the smallest normal float; the halving stops there.
        assert 0.0 <= mttf(Product((Weibull(5e-324, 2.0), Exponential(0.0)))) <= 1e-300

    def test_unbounded_is_distinguished(self):
        assert math.isinf(mttf(Exponential(0.0)))
        assert math.isinf(mttf(Product((Exponential(0.0), Exponential(0.0)))))

    def test_negligible_hazard_is_unbounded(self):
        # R(2^1023 h) = exp(-9e-14) is above 1 - 1e-12: no failure in any float time.
        assert math.isinf(mttf(Product((Exponential(1e-321), Exponential(0.0)))))

    def test_integrate_survival_reads_the_far_ladder_only_when_needed(self):
        # R(2^63 h) = exp(-0.09) is above 0, so the doubling ends 2^64 ... 2^1023
        # hours are read too; R underflows at 2^76 hours, the last panel end.
        calls = []

        def survival(times):
            calls.append(times.tolist())
            return [math.exp(-1e-20 * t) for t in times]

        got = integrate_survival(survival)
        assert [len(c) for c in calls] == [64, 960, 77 * 96]
        assert calls[1] == [2.0**k for k in range(64, 1024)]
        assert max(calls[2]) < 2.0**76
        assert got == pytest.approx(1e20, rel=1e-15, abs=0.0)

    def test_integrate_survival_reads_the_survival_once(self):
        calls = []

        def survival(times):
            calls.append(times)
            return [math.exp(-1e-3 * t) for t in times]

        got = integrate_survival(survival)
        ladder, nodes = calls
        assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 1 for c in calls)
        # R(2^63 h) is 0.0, so the doubling ends past it are not read.
        assert ladder.tolist() == [2.0**k for k in range(64)]
        # The last panel, [end/2, end], ends at the first doubling end where R is 0.0.
        end = 2.0**20
        assert end / 2 < max(nodes) < end
        assert math.exp(-1e-3 * end) == 0.0 < math.exp(-1e-3 * end / 2)
        # One call carries each panel's 32 nodes and those of its two halves.
        ends = [0.0] + [2.0**k for k in range(21)]
        assert len(nodes) == 3 * 32 * (len(ends) - 1)
        # No panel splits, so the value is the one fsum of the panels' own
        # terms, to the bit.
        from reliatree.reliability import _gauss_legendre

        terms = []
        for lo, hi in zip(ends, ends[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            terms += [half * w * math.exp(-1e-3 * (mid + half * x)) for x, w in zip(*_gauss_legendre(32))]
        assert got == math.fsum(terms)
        assert got == pytest.approx(1000.0, rel=1e-12)

    def test_integrate_survival_of_sub_hour_lifetime_reads_three_times(self):
        calls = []

        def survival(times):
            calls.append(times.tolist())
            return [math.exp(-1e4 * t) for t in times]

        got = integrate_survival(survival)
        ladder, halvings, nodes = calls
        assert ladder == [2.0**k for k in range(64)]
        assert halvings == [2.0**-k for k in range(1, 65)]
        # h is the first halving with R(h) >= 1/2: 2^-14 hours, as R(2^-13) = exp(-1.22).
        # The first panel's nodes and its halves' come first.
        assert max(nodes[:96]) < 2.0**-14 < min(nodes[96:192])
        assert got == pytest.approx(1e-4, rel=1e-12)

    def test_integrate_survival_reads_the_deep_halvings_only_when_needed(self):
        # R < 1/2 at 2^-64 hours too, so the halvings down to 2^-1022 are read;
        # h is 2^-84 hours, and R underflows at 2^-73 hours, the end of the
        # twelfth panel.
        calls = []

        def survival(times):
            calls.append(times.tolist())
            return [math.exp(-1e25 * t) for t in times]

        got = integrate_survival(survival)
        assert [len(c) for c in calls] == [64, 64, 958, 12 * 96]
        assert calls[2] == [2.0**-k for k in range(65, 1023)]
        assert got == pytest.approx(1e-25, rel=1e-12)

    def test_a_steep_drop_splits_only_the_panels_around_it(self):
        # Weibull(700, 60) falls from 0.99 to 1e-9 between 650 and 790 hours,
        # all inside the doubling panel [512, 1024]; each split reads the 4 x 32
        # nodes of one panel's quarters, and only panels over the drop split.
        rf = Product((Weibull(700.0, 60.0), Exponential(0.0)))
        calls = []

        def survival(times):
            calls.append(times)
            return reliability_at(rf, times)

        got = integrate_survival(survival)
        ladder, nodes, *splits = calls
        assert len(nodes) == 3 * 32 * 11  # ten panels [2^k, 2^(k+1)] after [0, 1]
        assert 0 < len(splits) < 10
        for quarters in splits:
            assert len(quarters) == 128
            assert 512.0 < quarters.min() and quarters.max() < 1024.0
        assert got == pytest.approx(700.0 * math.gamma(1.0 + 1.0 / 60.0), rel=1e-12)

    def test_panels_are_not_split_on_the_rounding_of_subnormal_times(self):
        # R(2^-73 h) >= 1/2, so h = 2^-73 h and the panels are read in units of
        # it. The first panel splits toward t = 0, where t^0.0059 has an
        # infinite slope, until a quarter's half-width in hours is below the
        # smallest normal float. Split on in units, the subnormal times of the
        # nodes round, and that noise split every panel there: 16,900 calls.
        rf = Product((Weibull(1e5, 0.0059), Exponential(1e-6)))
        calls = []

        def survival(times):
            calls.append(times)
            return reliability_at(rf, times)

        integrate_survival(survival)
        assert len(calls) < 1000

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
