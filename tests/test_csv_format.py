"""SampleBatch.write_csv writes the bytes of "%.17g\n" % v for every float64,
whether a row takes the array formatter (1e-4 <= |v| < 1) or Python's own."""
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circfourier import SampleBatch
from circfourier.model import _BLOCK


def written(samples) -> str:
    """The sample rows that write_csv writes, without the manifest."""
    batch = SampleBatch(samples=np.asarray(samples, dtype=float))
    fh = io.StringIO()
    batch.write_csv(fh)
    head = "".join(line + "\n" for line in batch.manifest_lines())
    text = fh.getvalue()
    assert text.startswith(head)
    return text[len(head) :]


def expected(samples) -> str:
    return "".join("%.17g\n" % v for v in np.asarray(samples, dtype=float).tolist())


def assert_same(samples):
    got, want = written(samples), expected(samples)
    if got != want:
        bad = next(
            (g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w
        )
        pytest.fail(f"written {bad[0]!r}, %.17g gives {bad[1]!r}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=64))
def test_any_floats_match_percent_g(values):
    # st.floats() draws NaN, infinities, signed zeros and subnormals too
    assert_same(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=64))
def test_circle_coordinates_match_percent_g(values):
    assert_same(values)


@pytest.mark.parametrize("q", range(17, 25))
def test_dyadic_ties_round_half_to_even(q):
    """m / 2^q has q decimals.  Where 17 significant digits need fewer, a
    last digit 5 is an exact tie: every odd m at q = 18 in [0.1, 1), and
    odd m at q = 19, 20, 21 in the next decades down."""
    rng = np.random.default_rng(q)
    parts = []
    for lo in (0.1, 0.01, 0.001, 0.0001):
        first, stop = int(np.ceil(lo * 2**q)), int(np.ceil(10 * lo * 2**q))
        m = np.arange(first, stop) if stop - first <= 20000 else (
            rng.integers(first, stop, 20000)
        )
        parts.append(m / 2.0**q)
    x = np.concatenate(parts)
    assert_same(np.concatenate([x, -x]))


def test_ties_present_at_q18():
    # the rows above are real ties: the 18th decimal of odd m / 2^18 is 5
    m = np.arange(26215, 2**18, 2)
    assert all(m * 5**18 % 10 == 5)
    assert_same(m / 2.0**18)


def test_neighbours_of_powers_of_ten():
    rows = []
    for p in (1e-1, 1e-2, 1e-3, 1e-4, 1.0):
        for toward in (0.0, np.inf):
            v = p
            for _ in range(64):
                v = np.nextafter(v, toward)
                rows.append(v)
        rows.append(p)
    rows = np.array(rows)
    assert_same(np.concatenate([rows, -rows]))


def test_special_values():
    assert_same([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308, 9.9999999999999991e-05, 1e-05, 1.0, -1.0,
        1e16, 1e17, 123456789.0, -1.7976931348623157e308,
        np.nan, -np.nan, np.inf, -np.inf,
    ])


def test_mixed_blocks_across_a_boundary():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 2 * _BLOCK + 5)
    specials = [0.0, -0.0, 1e-5, -3e-7, 1.0, -1.0, np.nan, np.inf, 1e300, 5e-324]
    for at in (0, _BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 4):
        x[at] = specials[at % len(specials)]
    x[_BLOCK - 50 : _BLOCK + 50] = rng.choice(specials, 100)
    assert_same(x)


@pytest.mark.parametrize("size", [1, 7, _BLOCK + 1])
def test_whole_blocks_of_one_kind(size):
    rng = np.random.default_rng(size)
    assert_same(rng.uniform(1.0, 100.0, size))  # every row falls back
    assert_same(rng.uniform(1e-4, 1.0, size) * rng.choice([-1, 1], size))
