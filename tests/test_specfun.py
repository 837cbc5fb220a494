import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special

from ductpml.errors import DomainError
from ductpml.specfun import hankel0

mpmath.mp.dps = 64


def mp_hankel(order, z):
    return complex(mpmath.hankel1(order, mpmath.mpf(z)))


def leading_asymptotic(z):
    """Leading-order large-argument form sqrt(2/(pi z)) exp(i(z - pi/4))."""
    return math.sqrt(2.0 / (math.pi * z)) * cmath.exp(1j * (z - 0.25 * math.pi))


class TestHankel0:
    def test_reference_value_at_one(self):
        # J0(1) + i Y0(1), frozen from the 64-digit oracle
        ref = 0.7651976865579666 + 0.08825696421567696j
        assert hankel0(1.0) == pytest.approx(ref, abs=1e-12)

    def test_against_high_precision_oracle(self):
        for z in np.logspace(-3, 3, 20):
            assert abs(hankel0(float(z)) - mp_hankel(0, z)) < 1e-9

    def test_against_scipy(self):
        z = np.logspace(-2, 4, 50)
        got = hankel0(z)
        ref = scipy.special.hankel1(0, z)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_accuracy_contract_envelope(self):
        zs = np.logspace(-8, 4, 240)
        worst = max(abs(hankel0(float(z)) - mp_hankel(0, z)) for z in zs)
        assert worst < 1e-10

    def test_small_argument_behavior(self):
        # Re -> 1 and Im -> -inf like (2/pi) ln(z/2) (the Euler-gamma shift
        # is subleading at this argument)
        z = 1e-8
        h = hankel0(z)
        assert h.real == pytest.approx(1.0, abs=1e-10)
        assert h.imag < 0.0
        assert h.imag == pytest.approx(2.0 / math.pi * math.log(z / 2.0), rel=0.05)
        assert h.imag == pytest.approx(
            2.0 / math.pi * (math.log(z / 2.0) + 0.5772156649015329), rel=1e-10
        )

    def test_agreement_with_leading_asymptotic(self):
        # leading-order truncation error is ~ 1/(8 z) = 1.25e-2 at z = 10
        h = hankel0(10.0)
        a = leading_asymptotic(10.0)
        rel = abs(h - a) / abs(h)
        assert 0.8e-2 < rel < 1.4e-2

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hankel0(0.0)
        with pytest.raises(DomainError):
            hankel0(-1.0)

    def test_vectorized_matches_scalar(self):
        z = np.array([0.5, 3.0, 12.0, 40.0])
        vec = hankel0(z)
        assert type(hankel0(0.5)) is complex
        for i, zi in enumerate(z):
            assert vec[i] == hankel0(float(zi))


class TestHankel0Asymptotic:
    def test_relative_error_at_hundred(self):
        h = hankel0(100.0)
        assert abs(h - leading_asymptotic(100.0)) / abs(h) < 1e-2
        # leading-order error is ~ 1/(8 z)
        assert abs(h - leading_asymptotic(100.0)) / abs(h) > 1e-4

    @pytest.mark.parametrize("z", [12.5, 20.0, 50.0, 200.0, 1000.0])
    def test_asymptotic_envelope_beyond_crossover(self, z):
        # |h0 - leading asymptotic| <= 0.2/z * |h0| for z > 12
        h = hankel0(z)
        assert abs(h - leading_asymptotic(z)) <= 0.2 / z * abs(h)


class TestWronskian:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    def test_wronskian_identity(self, z):
        # J0 Y0' - J0' Y0 = 2/(pi z) with J0' = -J1, Y0' = -Y1
        h0 = hankel0(z)
        j0, y0 = h0.real, h0.imag
        j1, y1 = scipy.special.j1(z), scipy.special.y1(z)
        w = j1 * y0 - j0 * y1
        assert w == pytest.approx(2.0 / (math.pi * z), rel=1e-9)
