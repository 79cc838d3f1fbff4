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

import math
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
    """

    step_size: float = 1e-5
    schedule: str = "constant"
    steps: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step_size must be finite and positive")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
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

    Bills one score evaluation (two model evaluations) per sample per step,
    into `counter` or else into a copy of the batch's ledger.  The schedule
    continues from the batch's step count meta["T"], which the result
    advances by cfg.steps.  steps == 0 returns the samples unchanged.
    """
    rng = np.random.default_rng(rng)
    if counter is None:
        counter = replace(batch.counter)
    t0 = int(batch.meta.get("T", 0))
    x = batch.samples.copy()
    for t in range(t0, t0 + cfg.steps):
        eps = cfg.step_at(t)
        s = model.score(x, counter)
        z = rng.standard_normal(x.size)
        x = wrap(x + eps * s + np.sqrt(2.0 * eps) * z)
    return SampleBatch(
        samples=x,
        seed=batch.seed,
        counter=counter,
        meta={**batch.meta, "T": t0 + cfg.steps, "refine": "ula"},
    )


def mala_refine(
    model: FourierDensity,
    batch: SampleBatch,
    cfg: LangevinConfig,
    rng,
    counter: EvalCounter | None = None,
) -> SampleBatch:
    """Metropolis-adjusted Langevin chain.

    Each step proposes via the ULA kernel and accepts with the usual ratio;
    two score evaluations (four model evaluations) per sample per step,
    billed and scheduled as in ula_refine.  The mean acceptance rate of
    these steps goes into the batch manifest.
    """
    rng = np.random.default_rng(rng)
    if counter is None:
        counter = replace(batch.counter)
    t0 = int(batch.meta.get("T", 0))
    x = batch.samples.copy()
    n_accept = 0
    for t in range(t0, t0 + cfg.steps):
        eps = cfg.step_at(t)
        p_cur, s_cur = model.pdf_and_score(x, counter)
        drift = eps * s_cur
        z = rng.standard_normal(x.size)
        prop = wrap(x + drift + np.sqrt(2.0 * eps) * z)
        p_prop, s_prop = model.pdf_and_score(prop, counter)
        # Minimal signed circular displacement from x to the proposal.
        delta = wrap(prop - x)
        log_fwd = -((delta - drift) ** 2) / (4.0 * eps)
        log_rev = -((-delta - eps * s_prop) ** 2) / (4.0 * eps)
        log_alpha = np.log(p_prop) - np.log(p_cur) + log_rev - log_fwd
        accept = np.log(rng.random(x.size)) < log_alpha
        x = np.where(accept, prop, x)
        n_accept += int(accept.sum())
    rate = n_accept / (x.size * cfg.steps) if cfg.steps else 1.0
    return SampleBatch(
        samples=x,
        seed=batch.seed,
        counter=counter,
        meta={
            **batch.meta,
            "T": t0 + cfg.steps,
            "refine": "mala",
            "acceptance_rate": rate,
        },
    )
