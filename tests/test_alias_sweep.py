"""Property tests of the sweeping alias construction in build_alias."""
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circfourier import (
    AliasTable,
    AncestorPmf,
    BSplineKernel,
    build_alias,
    build_ancestor,
    grid_ancestral_sample,
    random_density,
    reconstruct_pmf,
)
from circfourier.ancestor import _sweep
from circfourier.model import _BLOCK

FINE_K = 2**21  # tv_bound(200, FINE_K) = 3e-6


def vose_reference(probs):
    """Vose's worklist construction, kept as the reference the sweep replaced."""
    k = probs.size
    scaled = probs * (k / probs.sum())
    prob = np.ones(k)
    alias = np.arange(k)
    small = [i for i, w in enumerate(scaled) if w < 1.0]
    large = [i for i, w in enumerate(scaled) if w >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        (large if scaled[g] >= 1.0 else small).append(g)
    for i in small + large:
        prob[i] = 1.0
        alias[i] = i
    return prob, alias


def masked_sweep_reference(pmf: AncestorPmf) -> AliasTable:
    """The sweep with int64 index lists, boolean masks for the filled
    lights and drained heavies, and a fresh prob array: the form that
    build_alias replaced, kept as the reference for bit-equality."""
    probs = np.asarray(pmf.probs, dtype=float)
    k = probs.size
    scaled = probs * (k / probs.sum())
    is_light = scaled < 1.0
    lights = np.flatnonzero(is_light)
    heavies = np.flatnonzero(~is_light)
    # deficit[i] = P_L(i-1): the deficit of the lights before light i.
    deficit = np.zeros(lights.size + 1)
    np.cumsum(1.0 - scaled[lights], out=deficit[1:])
    surplus = np.cumsum(scaled[heavies] - 1.0)
    prob = np.ones(k)
    alias = np.arange(k)

    j = np.searchsorted(surplus, deficit[:-1], side="right")
    filled = j < heavies.size
    prob[lights[filled]] = scaled[lights[filled]]
    alias[lights[filled]] = heavies[j[filled]]

    i_star = np.searchsorted(deficit, surplus, side="left")
    drained = i_star < deficit.size
    prob[heavies[drained]] = 1.0 + surplus[drained] - deficit[i_star[drained]]
    # The last heavy has no successor; it keeps 1 up to rounding.
    successor = np.append(heavies[1:], heavies[-1:])
    alias[heavies[drained]] = successor[drained]
    np.clip(prob, 0.0, 1.0, out=prob)
    return AliasTable(prob=prob, alias=alias)


def assert_bit_equal(table, ref):
    """prob bit for bit, alias by value: alias takes the index type of the
    sweep's lists, int32 while K < 2^31, where the reference's is int64."""
    assert table.prob.dtype == ref.prob.dtype
    assert table.prob.tobytes() == ref.prob.tobytes()
    assert table.alias.dtype == (np.int32 if table.size < 2**31 else np.int64)
    assert np.array_equal(table.alias, ref.alias)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@st.composite
def weights(draw, max_k=2**16):
    """Cell weights of K cells: float, dyadic, one-hot or uniform.

    build_alias normalizes by K / sum.  Dyadic weights are integers summing
    to K * U with U a power of two, so that factor is exactly 1/U: cells of
    weight U scale to exactly 1, and the sweep's prefix sums are exact.
    Float weights are a PMF summing to 1 up to rounding.
    """
    k = draw(st.one_of(st.integers(1, 64), st.integers(1, max_k)))
    kind = draw(st.sampled_from(["float", "dyadic", "one-hot", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one-hot":
        w = np.zeros(k)
        w[rng.integers(k)] = 1.0
        return w
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    # role of each cell: 0 zero, 1 unit (dyadic only), 2 free
    mix = draw(st.sampled_from([(0.2, 0.2, 0.6), (0.6, 0.3, 0.1),
                                (0.0, 0.0, 1.0), (0.0, 0.5, 0.5)]))
    role = rng.choice(3, size=k, p=mix)
    role[rng.integers(k)] = 2  # at least one free cell
    free = role == 2
    shape = (1.0 - rng.random(int(free.sum()))) ** draw(st.floats(0.0, 12.0))
    w = np.zeros(k)
    if kind == "float":
        w[free] = shape / shape.sum()
        return w
    unit = 2 ** draw(st.integers(0, 20))
    ones = role == 1
    w[ones] = unit
    w[free] = rng.multinomial(unit * (k - int(ones.sum())), shape / shape.sum())
    return w


def check_table(w):
    table = build_alias(AncestorPmf(w))
    assert np.all((table.prob >= 0.0) & (table.prob <= 1.0))
    assert np.all((table.alias >= 0) & (table.alias < w.size))
    return table


@settings(max_examples=300, deadline=None)
@given(weights())
# one-hot at large K: K - 1 zero cells alias the one heavy cell
@example(np.eye(1, 54991, 46776).ravel())
def test_reconstruction_matches_pmf(w):
    table = check_table(w)
    assert np.max(np.abs(reconstruct_pmf(table) - w / w.sum())) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(weights())
def test_zero_cells_never_drawn(w):
    table = check_table(w)
    zero = w == 0.0
    assert np.all(table.prob[zero] == 0.0)
    # no cell aliases a zero cell, unless it keeps probability 1
    assert not np.any(zero[table.alias] & (table.prob < 1.0))


@settings(max_examples=100, deadline=None)
@given(weights(max_k=2**10))
def test_agrees_with_vose_reference(w):
    prob, alias = vose_reference(w)
    ref = reconstruct_pmf(AliasTable(prob, alias))
    assert np.max(np.abs(reconstruct_pmf(check_table(w)) - ref)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(weights())
@example(np.eye(1, 54991, 46776).ravel())
# uniform weights that round to all lights (K=20) and all heavies (K=7)
@example(np.full(20, 1.0 / 20))
@example(np.full(7, 1.0 / 7))
# the last light's deficit 2^-53 rounds away, so the light before it has a
# prefix deficit equal to the total surplus, 1: that light is not filled
@example(np.array([0.0, 1.0 - 2.0**-53, 2.0]))
# a heavy's surplus prefix equals a light's deficit prefix, exactly (0.5
# and 1, then 0.75 and 1): the side of the one search decides the alias
@example(np.array([0.5, 1.5, 0.5, 1.5]))
@example(np.array([0.25, 1.75, 0.75, 1.25]))
def test_bit_equal_to_masked_reference(w):
    pmf = AncestorPmf(w)
    assert_bit_equal(build_alias(pmf), masked_sweep_reference(pmf))


class SweepShape(NamedTuple):
    """Which parts of the blocked sweep a case reaches."""

    filled: int   # lights that find a heavy
    drained: int  # heavies that find an i*
    heavies: int
    last: int     # i* of the last drained heavy, 0 if none


def sweep_shape(w):
    """The SweepShape of w, from the masked reference's prefix sums."""
    scaled = w * (w.size / w.sum())
    is_light = scaled < 1.0
    deficit = np.concatenate([[0.0], np.cumsum(1.0 - scaled[is_light])])
    surplus = np.cumsum(scaled[~is_light] - 1.0)
    filled = (np.searchsorted(deficit[:-1], surplus[-1], side="left")
              if surplus.size else 0)
    drained = np.searchsorted(surplus, deficit[-1], side="right")
    last = (np.searchsorted(deficit, surplus[drained - 1], side="left")
            if drained else 0)
    return SweepShape(filled, drained, surplus.size, last)


def uniform_random(k, seed):
    return np.random.default_rng(seed).random(k)


def one_hot(k, cell):
    return np.eye(1, k, cell % k).ravel()


def heavy_first(seed):
    """A heavy at cell 0, then _BLOCK random lights."""
    w = uniform_random(_BLOCK + 1, seed)
    w[0] = _BLOCK / 2
    return w


def big_heavy():
    """Weights uniform on [0, 2) with one cell of 2 * _BLOCK, at
    7 * _BLOCK."""
    w = 2.0 * uniform_random(8 * _BLOCK, 1)
    w[7 * _BLOCK] = 2.0 * _BLOCK
    return w


# name: (weights, what the case must reach, from its SweepShape s and the
# reference table ref).  The sweep gathers its lists and takes its drained
# heavies one _BLOCK at a time; each case sits at one edge of that.  Which
# part a random case reaches depends on rounding, so each is checked.
BLOCK_CASES = {
    **{f"random-K={k}": (lambda k=k: uniform_random(k, k),
                         lambda s, ref: True)
       for k in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 2**17)},
    # lights 0.5 and heavies 1.5, alternating: n of each, all drained
    **{f"balanced-n={n}": (lambda n=n: np.tile([0.5, 1.5], n),
                           lambda s, ref, n=n: s.drained == s.heavies == n)
       for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1)},
    # one heavy fills every other cell, a run longer than a block
    **{f"one-hot-{end}": (lambda cell=cell: one_hot(3 * _BLOCK + 7, cell),
                          lambda s, ref: s.drained == 1
                          and s.last == 3 * _BLOCK + 6)
       for end, cell in (("first", 0), ("last", -1))},
    # the run of one heavy among many is longer than a block
    "big-heavy-run": (big_heavy, lambda s, ref: s.drained > _BLOCK
                      and np.count_nonzero(ref.alias == 7 * _BLOCK)
                      > _BLOCK + 1),
    # lights left after the last drained heavy's i*: they alias the first
    # heavy not drained
    "tail-after-drained": (lambda: uniform_random(3 * _BLOCK + 7, 0),
                           lambda s, ref: s.drained < s.heavies
                           and s.last < s.filled),
    # the one heavy is not drained: every light aliases it
    "no-drained-heavy": (lambda: heavy_first(0), lambda s, ref:
                         s.drained == 0 < s.heavies and s.filled == _BLOCK),
    "no-drained-heavy-small": (lambda: np.array([0.75, 0.5]),
                               lambda s, ref: s[:3] == (1, 0, 1)),
}


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_sweep_bit_equal_at_block_edges(name):
    make, reaches = BLOCK_CASES[name]
    w = make()
    ref = masked_sweep_reference(AncestorPmf(w.copy()))
    assert reaches(sweep_shape(w), ref)
    assert_bit_equal(_sweep(w), ref)


def test_fine_grid_model_pmf():
    pmf = build_ancestor(random_density(200, 7), FINE_K)
    table = build_alias(pmf)
    assert np.max(np.abs(reconstruct_pmf(table) - pmf.probs)) <= 1e-12
    assert_bit_equal(table, masked_sweep_reference(pmf))


def test_fine_grid_memory():
    """Peak memory beyond the input, per grid cell: the table itself is 12
    bytes a cell, and the masked reference's build peaked at 59.  The grid
    is one float buffer, 8 bytes a cell, which the grid path sweeps in
    place beside alias, the index lists and the prefix sums (20 bytes a
    cell), and the draws go in blocks; the peaks measured were 8.6, 24.3
    and 24.3."""
    model = random_density(200, 7)
    grid, peak = traced_peak(model.pdf_grid, FINE_K)
    assert peak <= 10 * FINE_K, peak / FINE_K
    del grid
    pmf = build_ancestor(model, FINE_K)
    table, peak = traced_peak(build_alias, pmf)
    assert peak <= 25 * FINE_K, peak / FINE_K
    del pmf, table
    batch, peak = traced_peak(grid_ancestral_sample, model, FINE_K,
                              BSplineKernel(1), 10**6, 5)
    assert batch.samples.size == 10**6
    assert peak <= 25 * FINE_K, peak / FINE_K
