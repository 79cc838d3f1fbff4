"""The pruned grid transform behind pdf_grid and the Taylor tables, held
through pdf_grid to the plain zero-padded FFT of (-1)^n a_n that it
replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circfourier import random_density
from circfourier.model import _least_divisor, _table_shape, _taylor_table

MAX_K = 2**17


def reference_grid(s, K):
    """sum_n s_n u^n on the K grid points, by the full zero-padded FFT."""
    return np.fft.fft(s * (-1.0) ** np.arange(s.size), K)


def _primes(limit):
    sieve = np.ones(limit + 1, bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


_PRIMES = _primes(MAX_K // 2)
# K of each kind: prime K is the plain FFT (P = 1); 2 * prime splits into a
# large Q and P = 2; powers of two and 3^a 5^b split into Q near N+1.
_KINDS = {
    "power of two": [2**e for e in range(17)],
    "prime": [int(p) for p in _PRIMES if p <= 2**16],
    "2 * prime": [2 * int(p) for p in _PRIMES],
    "3^a 5^b": sorted(3**a * 5**b for a in range(11) for b in range(8)
                      if 3**a * 5**b <= MAX_K),
}


def check_pdf_grid(model, K):
    a = model.amplitudes
    c0 = float(np.sum(np.abs(a) ** 2))
    want = np.abs(reference_grid(a, K)) ** 2 / (2.0 * c0)
    scale = np.sum(np.abs(a)) ** 2 / (2.0 * c0)  # the largest |A|^2/(2 c_0)
    got = model.pdf_grid(K)
    assert got.shape == (K,)
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 200), kind=st.sampled_from(["2N+1", *_KINDS]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_matches_zero_padded_fft(n, kind, seed, data):
    model = random_density(n, seed)
    if kind == "2N+1":
        K = 2 * n + 1
    else:
        K = data.draw(st.sampled_from(
            [k for k in _KINDS[kind] if k >= 2 * n + 1]))
    check_pdf_grid(model, K)


def test_fine_grid_matches_zero_padded_fft():
    # the sample-fine grid: N = 200, K = 2^21 = 256 * 8192
    model = random_density(200, 7)
    check_pdf_grid(model, 2**21)


def one_shot_grid(s, K):
    """The pruned transform as one (Q, P) array, twiddled whole and then
    transformed down every column at once: the form that _grid's blocks of
    R columns replaced, kept as the reference for bit-equality."""
    Q = _least_divisor(K, s.size)
    P = K // Q
    R = _least_divisor(P, math.isqrt(P))
    n = np.arange(s.size)[:, None]
    coarse = np.exp(n * np.arange(0, P, R) * (-2j * np.pi / K))
    coarse *= s[:, None] * (-1.0) ** n
    fine = np.exp(n * np.arange(R) * (-2j * np.pi / K))
    Y = np.zeros((Q, P), complex)
    np.multiply(coarse[:, :, None], fine[:, None, :],
                out=Y[: s.size].reshape(s.size, P // R, R))
    return np.fft.fft(Y, axis=0, out=Y).reshape(-1)


# (N, K): the sample-fine grid 2^21 = 256 * 8192, a prime, 2 * prime,
# 3^a 5^b and 2N+1
_BLOCKED_CASES = [(200, 2**21), (100, 65537), (150, 2 * 1009),
                  (30, 3**4 * 5**3), (200, 401)]


@pytest.mark.parametrize("n, K", _BLOCKED_CASES)
def test_blocked_grid_bit_equal_to_one_shot(n, K):
    model = random_density(n, K)
    A = one_shot_grid(model.amplitudes, K)
    c0 = float(np.real(model.coefficients[0]))
    want = (np.square(A.real) + np.square(A.imag)) / (2.0 * c0)
    assert model.pdf_grid(K).tobytes() == want.tobytes()
    size, order = _table_shape(n)
    step = np.arange(n + 1) * -1j
    for real in (False, True):
        rows = _taylor_table(model.amplitudes, real)
        term = model.amplitudes.copy()
        for m in range(order + 1):
            if m:
                term *= step
                term /= m
            row = one_shot_grid(term, size)
            assert rows[m].tobytes() == (row.real if real else row).tobytes()
