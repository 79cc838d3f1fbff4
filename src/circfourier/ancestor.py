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

from .model import EvalCounter, FourierDensity


@dataclass(frozen=True)
class AncestorPmf:
    """PMF p[k] on the grid x_k = -1 + 2k/K, k = 0..K-1."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs.setflags(write=False)

    @property
    def size(self) -> int:
        return self.probs.size

    def grid(self) -> np.ndarray:
        return -1.0 + 2.0 * np.arange(self.size) / self.size


@dataclass(frozen=True)
class AliasTable:
    """Walker/Vose alias table: cell k keeps prob[k], else aliases."""

    prob: np.ndarray
    alias: np.ndarray

    def __post_init__(self):
        self.prob.setflags(write=False)
        self.alias.setflags(write=False)

    @property
    def size(self) -> int:
        return self.prob.size


def build_ancestor(model: FourierDensity, K: int,
                   counter: EvalCounter | None = None) -> AncestorPmf:
    """Discretize the density: probs[k] = (2/K) * p(x_k).  Bills K evals."""
    vals = model.pdf_grid(K, counter)
    vals *= 2.0 / K
    return AncestorPmf(probs=vals)


def build_alias(pmf: AncestorPmf) -> AliasTable:
    """Sweeping alias construction in O(K log K), with no per-cell loop.

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
      that is j = #{h : i*(h) <= i}, so one binary search, of the heavies
      into the deficit prefix, serves both.

    Zero cells are lights that keep 0.  A cell left over by rounding, a
    light with no heavy or a heavy with no i*, keeps 1 and aliases itself.

    The searches run over non-decreasing prefix sums with non-decreasing
    keys, so j and i* are non-decreasing: the lights that find a heavy
    (j < number of heavies, that is P_L(i-1) < P_H(last)) and the heavies
    that find an i* (P_H(j) <= P_L(last)) are each a prefix of their list,
    whose length one binary search gives.  The table is built in the
    buffer of the scaled weights, with int32 index lists while K < 2^31.
    Raises ValueError unless the weights have a finite, positive sum.
    """
    probs = np.asarray(pmf.probs, dtype=float)
    k, total = probs.size, probs.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"PMF sums to {total}: cannot normalize")
    # Lights keep their scaled weight, so prob starts as the scaled weights.
    prob = probs * (k / total)
    is_light = prob < 1.0
    index = np.int32 if k < 2**31 else np.int64
    lights = np.flatnonzero(is_light).astype(index)
    heavies = np.flatnonzero(~is_light).astype(index)
    del is_light
    # deficit[i] = P_L(i-1): the deficit of the lights before light i.
    deficit = np.zeros(lights.size + 1)
    np.subtract(1.0, prob[lights], out=deficit[1:])
    np.cumsum(deficit[1:], out=deficit[1:])
    surplus = prob[heavies]
    surplus -= 1.0
    np.cumsum(surplus, out=surplus)
    filled = (np.searchsorted(deficit[:-1], surplus[-1], side="left")
              if heavies.size else 0)
    drained = np.searchsorted(surplus, deficit[-1], side="right")
    alias = np.arange(k)

    i_star = np.searchsorted(deficit, surplus[:drained], side="left")
    # 1 + P_H(j) - P_L(i*-1), summed in this order, in surplus's buffer.
    kept = surplus[:drained]
    kept += 1.0
    kept -= deficit[i_star]
    prob[heavies[:drained]] = kept
    prob[heavies[drained:]] = 1.0

    # j(i) = #{h : i*(h) <= i}, a count of the i* and its prefix sum; the
    # heavies past drained have i* beyond every light.
    j = np.bincount(i_star, minlength=filled)[:filled]
    del i_star
    np.cumsum(j, out=j)
    alias[lights[:filled]] = heavies[j]
    del j
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
