"""Property tests of the sweeping alias construction in build_alias."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from circfourier import (
    AliasTable,
    AncestorPmf,
    build_alias,
    build_ancestor,
    random_density,
    reconstruct_pmf,
)


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


def test_fine_grid_model_pmf():
    # K = 2^21 grid of an N=200 model: tv_bound(200, K) = 3e-6
    pmf = build_ancestor(random_density(200, 7), 2**21)
    table = build_alias(pmf)
    assert np.max(np.abs(reconstruct_pmf(table) - pmf.probs)) <= 1e-12
