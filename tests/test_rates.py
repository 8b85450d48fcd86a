import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehmac as eh
from ehmac.errors import DomainError, NumericOverflowError, UsageError


class TestRateValues:
    def test_zero_power(self, rf):
        assert eh.rate(rf, 0.0) == 0.0

    def test_total_power_two(self, rf):
        assert eh.rate(rf, 2.0) == pytest.approx(0.7925, abs=5e-5)

    def test_mean_energy_argument(self, rf):
        x = 2.0 * (1.0 - math.exp(-3.0))
        assert eh.rate(rf, x) == pytest.approx(0.7681, abs=5e-5)

    def test_other_noise_level(self):
        rf2 = eh.RateFunction(n0=2.0)
        assert eh.rate(rf2, 2.0) == pytest.approx(0.5)

    def test_negative_power_rejected(self, rf):
        with pytest.raises(DomainError):
            eh.rate(rf, -0.1)

    def test_array_input(self, rf):
        out = eh.rate(rf, np.array([0.0, 1.0, 3.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == pytest.approx(1.0)

    def test_power_over_a_tiny_noise_level_overflows(self):
        rf_tiny = eh.RateFunction(n0=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (2.0, np.array([0.0, 2.0])):
                with pytest.raises(NumericOverflowError, match="n0 = 1e-320"):
                    eh.rate(rf_tiny, x)
            # an infinite power stays an infinite rate, and zero power a zero one
            assert eh.rate(rf_tiny, math.inf) == math.inf
            assert eh.rate(rf_tiny, 0.0) == 0.0

    def test_bad_noise_level(self):
        with pytest.raises(DomainError):
            eh.RateFunction(n0=0.0)

    @pytest.mark.parametrize("n0", [math.inf, math.nan])
    def test_non_finite_noise_level(self, n0):
        # an infinite n0 made rate(rf, inf) NaN
        with pytest.raises(DomainError, match="finite") as err:
            eh.RateFunction(n0=n0)
        assert err.value.field == "n0"


class TestRateDerivatives:
    def test_first_at_zero(self, rf):
        assert eh.rate_deriv(rf, 0.0, 1) == pytest.approx(1.0 / (2.0 * math.log(2.0)))

    def test_second_at_zero(self, rf):
        assert eh.rate_deriv(rf, 0.0, 2) == pytest.approx(-1.0 / (2.0 * math.log(2.0)))

    def test_first_matches_finite_difference(self, rf):
        h = 1e-5
        fd = (eh.rate(rf, 3.0 + h) - eh.rate(rf, 3.0 - h)) / (2.0 * h)
        assert eh.rate_deriv(rf, 3.0, 1) == pytest.approx(fd, rel=1e-6)

    def test_numeric_vs_analytic_on_samples(self, rf):
        h = 1e-5
        h2 = 1e-4  # second difference needs a wider step against roundoff
        for x in (0.1, 0.7, 1.9, 4.2, 11.0):
            fd1 = (eh.rate(rf, x + h) - eh.rate(rf, x - h)) / (2.0 * h)
            fd2 = (eh.rate(rf, x + h2) - 2.0 * eh.rate(rf, x)
                   + eh.rate(rf, x - h2)) / h2**2
            assert eh.rate_deriv(rf, x, 1) == pytest.approx(fd1, rel=1e-6)
            assert eh.rate_deriv(rf, x, 2) == pytest.approx(fd2, rel=1e-4)

    def test_unsupported_order(self, rf):
        with pytest.raises(UsageError):
            eh.rate_deriv(rf, 1.0, 3)

    def test_monotone_and_concave_samples(self, rf):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 50.0, size=500)
        assert np.all(eh.rate_deriv(rf, xs, 1) > 0.0)
        assert np.all(eh.rate_deriv(rf, xs, 2) < 0.0)
        a, b = np.sort(rng.uniform(0.0, 40.0, size=(2, 200)), axis=0)
        grow = eh.rate(rf, b + 1e-9) > eh.rate(rf, a)
        assert np.all(grow)


LN2 = math.log(2.0)

# The rate and its derivatives as the plain numpy expressions; a scalar goes
# through numpy's scalar arithmetic, an array through its array loops.
CLOSED_FORMS = {
    "rate": lambda n0, x: 0.5 * np.log1p(x / n0) / LN2,
    "d1": lambda n0, x: 1.0 / (2.0 * LN2 * (n0 + x)),
    "d2": lambda n0, x: -1.0 / (2.0 * LN2 * (n0 + x) ** 2),
}


def _kernel(name, rf, x):
    if name == "rate":
        return eh.rate(rf, x)
    return eh.rate_deriv(rf, x, int(name[1]))


powers = st.floats(0.0, 1e300, allow_subnormal=True)


class TestRateKernels:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(1e-3, 1e3), st.lists(powers, min_size=1, max_size=30),
           st.sampled_from(sorted(CLOSED_FORMS)))
    # (1 + x) ** 2 through pow and (1 + x) * (1 + x) differ here in the last bit
    @example(1.0, [2.0807510040562063], "d2")
    def test_bit_identical_to_closed_form(self, n0, values, name):
        rf = eh.RateFunction(n0)
        arr = np.array(values)
        kept = arr.copy()
        with np.errstate(over="ignore"):
            want = CLOSED_FORMS[name](n0, arr)
            want_scalar = CLOSED_FORMS[name](n0, np.float64(values[0]))
            got = _kernel(name, rf, arr)
            got_2d = _kernel(name, rf, arr.reshape(1, -1))
            got_list = _kernel(name, rf, values)
            got_0d = _kernel(name, rf, np.array(values[0]))
            got_scalar = _kernel(name, rf, values[0])
        assert np.array_equal(arr, kept) and got is not arr
        for out in (got, got_2d.ravel(), got_list):
            assert isinstance(out, np.ndarray)
            assert out.tobytes() == want.tobytes()
        for out in (got_0d, got_scalar):
            assert type(out) is float
            assert out.hex() == float(want_scalar).hex()

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_negative_power_rejected(self, rf, name):
        for x in (-1e-300, [0.0, -2.0], np.array([[1.0], [-0.5]]), np.array(-3.0)):
            with pytest.raises(DomainError):
                _kernel(name, rf, x)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_nan_power_rejected(self, rf, name):
        for x in (math.nan, [1.0, math.nan], np.array([[0.0], [np.nan]]), np.array(np.nan)):
            with pytest.raises(DomainError):
                _kernel(name, rf, x)

    def test_integer_scalar_returns_float(self, rf):
        assert type(eh.rate(rf, 3)) is float
        assert eh.rate(rf, 3) == eh.rate(rf, 3.0)


class TestMixtureInequality:
    def test_single_term_equality(self, rf):
        assert eh.mixture_rate_inequality_check(1.0, 1.0, [1.0], [1.0])
        lhs = 1.0 * eh.rate(rf, 1.0 * 1.0 / 1.0 + 1.0)
        rhs = 1.0 * eh.rate(rf, 1.0 * 1.0 / 1.0 + 1.0)
        assert lhs == rhs

    def test_two_terms(self):
        assert eh.mixture_rate_inequality_check(1.0, 0.5, [1.0, 2.0], [3.0, 1.0])

    def test_symmetric_equality(self, rf):
        a = [1.0, 1.0, 1.0]
        assert eh.mixture_rate_inequality_check(2.0, 1.0, a, a)
        lhs = sum(ai * eh.rate(rf, 2.0 * bi / ai + 1.0) for ai, bi in zip(a, a))
        rhs = 3.0 * eh.rate(rf, 2.0 * 3.0 / 3.0 + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_holds_on_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.05, 5.0))
            beta = float(rng.uniform(0.05, 5.0))
            a = rng.uniform(0.05, 5.0, size=n)
            b = rng.uniform(0.05, 5.0, size=n)
            assert eh.mixture_rate_inequality_check(gamma, beta, a, b)

    def test_empty_sequences_rejected(self):
        with pytest.raises(DomainError):
            eh.mixture_rate_inequality_check(1.0, 1.0, [], [])

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(DomainError):
            eh.mixture_rate_inequality_check(1.0, 1.0, [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            eh.mixture_rate_inequality_check(-1.0, 1.0, [1.0], [1.0])
