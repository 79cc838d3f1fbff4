"""Accuracy of the unit-circle routine behind every pointwise evaluation.

`_unit_circle` forms u = e^{-i pi x}, the one point every series is
evaluated at, from a table of double-double precision and a short series,
with no complex exp.  The reference is the np.exp call it replaced; each
component must lie within 2^-53 of it, and nearly all must equal it bit for
bit (a table without its low part gives about 56%).
"""
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circfourier import random_density
from circfourier.model import _J, _PI_PIECES, _unit_circle

TOL = 2.0**-53


def unit(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    u, w, v = (np.empty(x.size, complex) for _ in range(3))
    _unit_circle(x, u, w, v)
    return u


def exp_reference(x):
    return np.exp(-1j * np.pi * np.asarray(x, dtype=float).reshape(-1))


def _knots():
    """Table knots j/J on [-2, 2], their float neighbours, +-0 and +-1."""
    k = np.arange(-2 * _J, 2 * _J + 1) / _J
    return np.concatenate([k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf),
                           [0.0, -0.0, 1.0, -1.0]])


def test_pi_pieces_are_exact_enough():
    with localcontext(prec=60):
        pi = Fraction(Decimal(
            "3.14159265358979323846264338327950288419716939937510582097494"))
    assert abs(sum(map(Fraction, _PI_PIECES)) - pi) < Fraction(1, 2**100)
    # m/J times each of the first two pieces is exact for |m| <= 2^30
    for piece in _PI_PIECES[:2]:
        mantissa = Fraction(piece) / Fraction(2) ** math.frexp(piece)[1]
        assert (mantissa * 2**23).denominator == 1


def test_knots_within_2_pow_minus_53():
    x = _knots()
    u, ref = unit(x), exp_reference(x)
    assert np.all(np.abs(u.real - ref.real) <= TOL)
    assert np.all(np.abs(u.imag - ref.imag) <= TOL)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.0**20, 2.0**20), min_size=1, max_size=64))
@example([2.0**20, -2.0**20, 2.0**20 - 2.0**-32, 1e-300, 5e-324])
def test_drawn_points_within_2_pow_minus_53(xs):
    u, ref = unit(xs), exp_reference(xs)
    assert np.all(np.abs(u.real - ref.real) <= TOL)
    assert np.all(np.abs(u.imag - ref.imag) <= TOL)


@pytest.mark.parametrize("reach", [1.0, 2.0**20])
def test_nearly_all_bit_identical(reach):
    x = np.random.default_rng(20).uniform(-reach, reach, 2**20)
    u, ref = unit(x), exp_reference(x)
    same = (u.real == ref.real) & (u.imag == ref.imag)
    assert same.mean() >= 0.98, same.mean()


def test_non_finite_gives_nan():
    with np.errstate(invalid="ignore"):
        u = unit([np.nan, np.inf, -np.inf])
    assert np.all(np.isnan(u.real)) and np.all(np.isnan(u.imag))


def test_evaluations_nan_at_non_finite_points():
    # with no warning: the reduction by the period, fmod, is invalid at
    # +-inf, but NaN is what the evaluations promise there
    m = random_density(7, 3)
    x = np.array([0.25, np.nan, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, s = m.pdf_and_score(x)
        evaluations = [m.pdf(x), p, s, m.score(x), m.cdf(x),
                       *(m.deriv(x, order) for order in (-1, 1, 2))]
        scalars = [f(v) for f in (m.pdf, m.score, m.cdf, m.deriv)
                   for v in (np.nan, np.inf, -np.inf)]
    for vals in evaluations:
        assert np.isfinite(vals[0]) and np.all(np.isnan(vals[1:]))
    assert np.all(np.isnan(scalars))


def test_far_points_reduced_by_the_period():
    # beyond |x| = 2^20 the argument is reduced mod 2 first, exactly
    m = random_density(7, 3)
    x = np.array([0.25, -0.75, 0.5])
    far = x + np.array([2.0**40, -(2.0**50), 2.0**21])
    assert np.array_equal(m.pdf(far), m.pdf(x))
    assert np.all(np.isfinite(m.pdf(np.array([1e300, -1e300]))))
