"""Discrete ancestor distribution on the sampling grid and alias tables.

The ancestor PMF is the band-limited density evaluated at K equally spaced
grid points and scaled by 2/K.  Its values sum to 1 for any K >= N+1: at
x_k = -1 + 2k/K, sum_k e^{i pi n x_k} vanishes unless K divides n, so each
term n = 1..N drops out and the constant 1/2 is left, K times.  The
stronger guard K >= 2N+1, checked where the grid is built
(FourierDensity.pdf_grid), is what the grid values need to determine the
density, a trigonometric polynomial of degree N, and what the TV bound
assumes.  Alias tables give O(1) draws after an O(K log K) numpy setup.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _BLOCK, EvalCounter, FourierDensity


@dataclass(frozen=True)
class AncestorPmf:
    """PMF p[k] on the grid x_k = -1 + 2k/K, k = 0..K-1."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs.setflags(write=False)

    @property
    def size(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class AliasTable:
    """Walker/Vose alias table: cell k keeps prob[k], else aliases.  alias
    is int32 while K < 2^31, else int64."""

    prob: np.ndarray
    alias: np.ndarray

    def __post_init__(self):
        self.prob.setflags(write=False)
        self.alias.setflags(write=False)

    @property
    def size(self) -> int:
        return self.prob.size


def _grid_pmf(model: FourierDensity, K: int,
              counter: EvalCounter | None) -> np.ndarray:
    """probs[k] = (2/K) * p(x_k) in a fresh, writable buffer.  Bills K
    evals."""
    vals = model.pdf_grid(K, counter)
    vals *= 2.0 / K
    return vals


def build_ancestor(model: FourierDensity, K: int,
                   counter: EvalCounter | None = None) -> AncestorPmf:
    """Discretize the density: probs[k] = (2/K) * p(x_k).  Bills K evals."""
    return AncestorPmf(probs=_grid_pmf(model, K, counter))


def build_alias(pmf: AncestorPmf) -> AliasTable:
    """Sweeping alias construction in O(K log K), with no per-cell loop
    (_sweep), on a copy of the PMF.  alias is int32 while K < 2^31, else
    int64.  Raises ValueError unless the weights have a finite, positive
    sum."""
    return _sweep(np.array(pmf.probs, dtype=float))


def _sweep(w: np.ndarray) -> AliasTable:
    """The alias table of the cell weights w, built in w's own buffer,
    which becomes the table's prob.

    The cells split, in index order, into lights (scaled weight w < 1) and
    heavies (w >= 1).  A sweep hands each light, in turn, to the current
    heavy; a heavy whose weight falls below 1 becomes a light that the next
    heavy fills.  With P_L the cumulative deficit sum(1 - w) over lights and
    P_H the cumulative surplus sum(w - 1) over heavies, the sweep reduces to
    prefix sums and binary searches (Hubschle-Schneider and Sanders,
    "Parallel Weighted Random Sampling", 2019):

    - heavy j keeps 1 + P_H(j) - P_L(i*-1), where i* is the first light with
      P_L(i*-1) >= P_H(j) (past the last light, the total deficit), and
      aliases the next heavy;
    - light i keeps w_i and aliases the first heavy j with P_H(j) > P_L(i-1),
      that is j = #{h : i*(h) <= i}: lights i*(j-1) to i*(j) - 1 (from
      light 0 for j = 0) alias heavy j, so one binary search, of the
      heavies into the deficit prefix, serves both.

    Zero cells are lights that keep 0.  A cell left over by rounding, a
    light with no heavy or a heavy with no i*, keeps 1 and aliases itself.

    The searches run over non-decreasing prefix sums with non-decreasing
    keys, so j and i* are non-decreasing: the lights that find a heavy
    (j < number of heavies, that is P_L(i-1) < P_H(last)) and the heavies
    that find an i* (P_H(j) <= P_L(last)) are each a prefix of their list,
    whose length one binary search gives.  The index lists and alias are
    int32 while K < 2^31; the lists are compressed from alias's arange.

    Beyond w, the sweep holds alias, the two index lists and the two
    prefix sums (20 bytes a cell at int32) and arrays of one _BLOCK: it
    gathers into the prefix sums, and takes the drained heavies, one block
    at a time.  The one longer array holds the aliases of the lights that
    one block of heavies fills: every light, when one heavy fills them
    all.
    """
    k, total = w.size, w.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"PMF sums to {total}: cannot normalize")
    # Lights keep their scaled weight, so prob starts as the scaled weights.
    prob = w
    prob *= k / total
    alias = np.arange(k, dtype=np.int32 if k < 2**31 else np.int64)
    is_light = prob < 1.0
    lights = alias[is_light]
    heavies = alias[np.logical_not(is_light, out=is_light)]
    del is_light
    # deficit[i] = P_L(i-1): the deficit of the lights before light i.
    # np.take copies int32 indices to intp, so it gathers a block at a
    # time; the lists index prob, so mode "clip" clips nothing and, unlike
    # "raise", writes straight into out.
    deficit = np.zeros(lights.size + 1)
    surplus = np.empty(heavies.size)
    for cells, out in ((lights, deficit[1:]), (heavies, surplus)):
        for lo in range(0, cells.size, _BLOCK):
            np.take(prob, cells[lo : lo + _BLOCK], out=out[lo : lo + _BLOCK],
                    mode="clip")
    np.subtract(1.0, deficit[1:], out=deficit[1:])
    np.cumsum(deficit[1:], out=deficit[1:])
    surplus -= 1.0
    np.cumsum(surplus, out=surplus)
    filled = (np.searchsorted(deficit[:-1], surplus[-1], side="left")
              if heavies.size else 0)
    drained = np.searchsorted(surplus, deficit[-1], side="right")

    # i* <= filled for every drained heavy, so the runs stay among the
    # lights that find a heavy; start is the first light not yet aliased.
    start = 0
    for lo in range(0, drained, _BLOCK):
        hi = min(lo + _BLOCK, drained)
        i_star = np.searchsorted(deficit, surplus[lo:hi], side="left")
        alias[lights[start : i_star[-1]]] = np.repeat(
            heavies[lo:hi], np.diff(i_star, prepend=start))
        start = i_star[-1]
        # 1 + P_H(j) - P_L(i*-1), summed in this order, in surplus's buffer.
        kept = surplus[lo:hi]
        kept += 1.0
        kept -= deficit[i_star]
        prob[heavies[lo:hi]] = kept
    # The lights past the last drained heavy's i* have j = drained.
    if start < filled:
        alias[lights[start:filled]] = heavies[drained]
    prob[heavies[drained:]] = 1.0
    prob[lights[filled:]] = 1.0
    # Each drained heavy aliases the next; the last heavy has no successor
    # and keeps 1 up to rounding.
    successor = heavies[1 : drained + 1]
    alias[heavies[: successor.size]] = successor
    np.clip(prob, 0.0, 1.0, out=prob)
    return AliasTable(prob=prob, alias=alias)


def reconstruct_pmf(table: AliasTable) -> np.ndarray:
    """Invert the table: cell k contributes prob[k]/K to k, rest to alias[k].

    Each cell's shares are summed before the one division by K, so that
    many shares landing on one cell are not each rounded first.
    """
    shares = np.bincount(table.alias, weights=1.0 - table.prob,
                         minlength=table.size)
    return (table.prob + shares) / table.size


def alias_select(table: AliasTable, idx, u):
    """Deterministic core of a draw: cell idx with uniform u in [0, 1)."""
    idx = np.asarray(idx)
    take = np.asarray(u) < table.prob[idx]
    return np.where(take, idx, table.alias[idx])


def sample_ancestors(table: AliasTable, size: int, rng) -> np.ndarray:
    """`size` draws, each one uniform index plus one uniform real; O(1) time
    per draw."""
    rng = np.random.default_rng(rng)
    idx = rng.integers(table.size, size=size)
    u = rng.random(size)
    return alias_select(table, idx, u)
