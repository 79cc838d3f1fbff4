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


def _prefix(prob: np.ndarray, cells: np.ndarray, carry: float,
            sign: float) -> np.ndarray:
    """[carry, carry + d_0, carry + d_0 + d_1, ...], with d the values
    sign * (prob[cells] - 1): one block of a prefix sum, added in the order
    of one np.cumsum over the whole list.  np.take copies int32 indices to
    intp, so cells is one block; they index prob, so mode "clip" clips
    nothing and, unlike "raise", writes straight into out."""
    out = np.empty(cells.size + 1)
    out[0] = carry
    np.take(prob, cells, out=out[1:], mode="clip")
    if sign > 0.0:
        out[1:] -= 1.0
    else:
        np.subtract(1.0, out[1:], out=out[1:])
    return np.cumsum(out, out=out)


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

    Both prefix sums are non-decreasing, so i* is non-decreasing in j, and
    the search is a merge of two streams of one _BLOCK each: a window of
    the deficit prefix, P_L(a-1) to P_L(a+_BLOCK-1), and one block of the
    surplus prefix.  Each starts from the sum of the blocks before it, so
    it adds in the order of one cumsum over the whole list.  The heavies
    whose P_H is at most the window's last entry find their i* in it; at
    the first that does not, the window slides on, and the lights it
    passes alias that heavy, so a run of lights longer than a block is
    written one window at a time.  A heavy that outlasts the last window is
    never drained: it and every heavy after it keep 1, and every light
    not yet aliased aliases it.  If every heavy is drained, the lights
    past the last i* find no heavy.  The index lists and alias are int32
    while K < 2^31; the lists are compressed from alias's arange.

    Beyond w, the sweep holds alias and the two index lists (8 bytes a
    cell at int32) and arrays of one _BLOCK.  Its peak, about 9 bytes a
    cell, comes while the lists are compressed by a boolean mask.
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
    # window[i - a] = P_L(i-1) for lights a to a + _BLOCK; surplus[j - lo]
    # = P_H(j) for heavies lo to hi - 1.  start is the first light not yet
    # aliased, drained the first heavy without its i*.
    a, window = 0, _prefix(prob, lights[:_BLOCK], 0.0, -1.0)
    lo = hi = start = drained = 0
    carry = 0.0
    while drained < heavies.size:
        if drained == hi:
            lo, hi = hi, min(hi + _BLOCK, heavies.size)
            surplus = _prefix(prob, heavies[lo:hi], carry, 1.0)[1:]
            carry = surplus[-1]
        rest = surplus[drained - lo :]
        n = np.searchsorted(rest, window[-1], side="right")
        if n:
            at = np.searchsorted(window, rest[:n], side="left")
            cells = heavies[drained : drained + n]
            # 1 + P_H(j) - P_L(i*-1), summed in this order, in surplus's
            # buffer.
            kept = rest[:n]
            kept += 1.0
            kept -= window[at]
            prob[cells] = kept
            # at becomes i*: lights i*(j-1) to i*(j) - 1 alias heavy j.
            at += a
            alias[lights[start : at[-1]]] = np.repeat(
                cells, np.diff(at, prepend=start))
            start = at[-1]
            # Each drained heavy aliases the next; the last heavy has no
            # successor and keeps 1 up to rounding.
            successor = heavies[drained + 1 : drained + n + 1]
            alias[cells[: successor.size]] = successor
            drained += n
        if drained < hi:
            if a + window.size > lights.size:
                break
            # The lights the window passes alias heavy drained, whose i* is
            # past them: a run is written one window at a time.
            a += _BLOCK
            alias[lights[start:a]] = heavies[drained]
            start = a
            window = _prefix(prob, lights[a : a + _BLOCK], window[-1], -1.0)
    if drained < heavies.size:
        alias[lights[start:]] = heavies[drained]
    else:
        for i in range(start, lights.size, _BLOCK):
            prob[lights[i : i + _BLOCK]] = 1.0
    # Heavies never drained keep their weights, at least 1, which the clip
    # makes 1.
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
