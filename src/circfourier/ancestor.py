"""Discrete ancestor distribution on the sampling grid and alias tables.

The ancestor PMF is the band-limited density evaluated at K equally spaced
grid points and scaled by 2/K; because the grid resolves every frequency
term (K >= 2N+1) the values sum to exactly 1.  Alias tables give O(1)
draws after an O(K log K) numpy setup.
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
    return AncestorPmf(probs=(2.0 / K) * vals)


def build_alias(pmf: AncestorPmf) -> AliasTable:
    """Sweeping alias construction in O(K log K), with no per-cell loop.

    The cells split, in index order, into lights (scaled weight w < 1) and
    heavies (w >= 1).  A sweep hands each light, in turn, to the current
    heavy; a heavy whose weight falls below 1 becomes a light that the next
    heavy fills.  With P_L the cumulative deficit sum(1 - w) over lights and
    P_H the cumulative surplus sum(w - 1) over heavies, the sweep reduces to
    prefix sums and binary searches (Hubschle-Schneider and Sanders,
    "Parallel Weighted Random Sampling", 2019):

    - light i keeps w_i and aliases the first heavy j with P_H(j) > P_L(i-1);
    - heavy j keeps 1 + P_H(j) - P_L(i*-1), where i* is the first light with
      P_L(i*-1) >= P_H(j) (past the last light, the total deficit), and
      aliases the next heavy.

    Zero cells are lights that keep 0.  A cell left over by rounding, a
    light with no heavy or a heavy with no i*, keeps 1 and aliases itself.
    """
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
