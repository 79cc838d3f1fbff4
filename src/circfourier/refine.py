"""Langevin refinement of sample batches on the circle.

Samples move by discretized Langevin dynamics driven by the score of the
target density, wrapped back into [-1, 1) after every update.  The
Metropolis-adjusted variant removes discretization bias with an
accept-reject step whose proposal ratio is evaluated in the local chart:
displacements are taken as the minimal signed circular difference, which
neglects wrapped proposal images carrying negligible mass at the step
sizes used here (eps <= 1e-3 on a period-2 circle).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .batch import SampleBatch
from .model import EvalCounter, FourierDensity, wrap

SCHEDULES = ("constant", "decay")


@dataclass(frozen=True)
class LangevinConfig:
    """Step-size schedule for the refinement chain.

    schedule 'constant' keeps step_size; 'decay' uses step_size / (t + 1),
    where t counts the steps the chain has taken since its unrefined start.
    A step above 1 is rejected: its noise, of standard deviation sqrt(2)
    or more, already spans the period-2 circle, and MALA's local-chart
    proposal ratio fails long before that.
    """

    step_size: float = 1e-5
    schedule: str = "constant"
    steps: int = 0

    def __post_init__(self):
        if not 0 < self.step_size <= 1:
            raise ValueError("step_size must be in (0, 1]")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        operator.index(self.steps)  # TypeError unless an integer
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    def step_at(self, t: int) -> float:
        if self.schedule == "decay":
            return self.step_size / (t + 1)
        return self.step_size


def ula_refine(
    model: FourierDensity,
    batch: SampleBatch,
    cfg: LangevinConfig,
    rng,
    counter: EvalCounter | None = None,
) -> SampleBatch:
    """Unadjusted Langevin chain: x <- wrap(x + eps*score + sqrt(2 eps) z).

    Each step takes the Langevin proposal as it stands, scoring the
    current point.  Every score evaluation is billed where it is made, into
    `counter` or else into a copy of the batch's ledger.  The schedule
    continues from the batch's step count meta["T"], which the result
    advances by cfg.steps.  steps == 0 returns the samples unchanged.
    """
    return _refine(
        batch, cfg, rng, counter, "ula",
        lambda x, eps, rng, z, c: _propose(model, x, eps, rng, z, x, c)[0],
    )


def mala_refine(
    model: FourierDensity,
    batch: SampleBatch,
    cfg: LangevinConfig,
    rng,
    counter: EvalCounter | None = None,
) -> SampleBatch:
    """Metropolis-adjusted Langevin chain.

    Each step makes the ULA proposal and accepts it with the usual ratio,
    scoring the current point and the proposal; billed and scheduled as in
    ula_refine.  The mean acceptance rate of these steps, and the lowest
    and highest rate of any one step, go into the batch manifest.
    """
    size = batch.samples.size
    w, accept = np.empty(size), np.empty(size, dtype=bool)
    accepted = []

    def step(x, eps, rng, z, counter):
        accepted.append(_mala_step(model, x, eps, rng, z, w, accept, counter))
        return x

    out = _refine(batch, cfg, rng, counter, "mala", step)
    rates = [a / size for a in accepted] or [1.0]
    out.meta.update(
        acceptance_rate=sum(accepted) / (size * cfg.steps) if cfg.steps else 1.0,
        acceptance_min=min(rates),
        acceptance_max=max(rates),
    )
    return out


def _refine(batch, cfg, rng, counter, name: str, step):
    """The chain `name`: x = step(x, eps, rng, z, counter) from a copy of
    the batch's samples, with z as work space, scheduled and billed as
    ula_refine says."""
    rng = np.random.default_rng(rng)
    if counter is None:
        counter = replace(batch.counter)
    t0 = int(batch.meta.get("T", 0))
    x = batch.samples.copy()
    z = np.empty(x.size)
    for t in range(t0, t0 + cfg.steps):
        x = step(x, cfg.step_at(t), rng, z, counter)
    return SampleBatch(
        samples=x,
        seed=batch.seed,
        counter=counter,
        meta={**batch.meta, "T": t0 + cfg.steps, "refine": name},
    )


def _propose(model, x, eps: float, rng, z, out, counter):
    """The Langevin proposal wrap(x + eps*score(x) + sqrt(2 eps) N(0, 1)),
    summed in `out` (which may be x itself) with z as work space.  Returns
    it with p(x) and the drift eps*score(x); the score is billed to
    counter."""
    p, drift = model.pdf_and_score(x, counter)
    drift *= eps
    rng.standard_normal(out=z)
    z *= np.sqrt(2.0 * eps)
    np.add(x, drift, out=out)
    out += z
    return wrap(out), p, drift


def _mala_step(model, x, eps: float, rng, z, w, accept, counter) -> int:
    """One MALA step that moves x in place, with z, w and accept as work
    space, billing its two scores to counter; returns the number of
    proposals accepted.  The step's own arrays are freed on return, before
    the next step makes its own."""
    prop, p_cur, drift = _propose(model, x, eps, rng, z, w, counter)
    p_prop, s_prop = model.pdf_and_score(prop, counter)
    # Minimal signed circular displacement from x to the proposal.
    np.subtract(prop, x, out=w)
    delta = wrap(w)
    log_fwd = _log_kernel(np.subtract(delta, drift, out=drift), eps)
    s_prop *= eps
    np.negative(delta, out=delta)
    log_rev = _log_kernel(np.subtract(delta, s_prop, out=s_prop), eps)
    log_alpha = np.log(p_prop, out=p_prop)
    log_alpha -= np.log(p_cur, out=p_cur)
    log_alpha += log_rev
    log_alpha -= log_fwd
    rng.random(out=z)
    np.less(np.log(z, out=z), log_alpha, out=accept)
    np.copyto(x, prop, where=accept)
    return int(np.count_nonzero(accept))


def _log_kernel(v, eps: float):
    """-(v**2) / (4 eps) in place: the log density, up to a constant, of a
    Langevin proposal that lands v away from its mean."""
    np.square(v, out=v)
    np.negative(v, out=v)
    v /= 4.0 * eps
    return v
