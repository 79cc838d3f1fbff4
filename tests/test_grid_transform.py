"""The pruned grid transform behind pdf_grid and the Taylor tables, held
through pdf_grid to the plain zero-padded FFT of (-1)^n a_n that it
replaced."""
import numpy as np
from hypothesis import given, settings, strategies as st

from circfourier import random_density

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
