"""Experiment command line: deterministic CSV artifacts from the library.

Commands: sample, convergence, refinement, cost.  Every output is a pure
function of the config (flat key=value file plus flag overrides); rows are
headerless comma-separated values, with manifests in '#' comment lines.
Exit codes: 0 success, 2 config error (out of memory included), 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .batch import SampleBatch, _fmt
from .kernels import BSplineKernel, compound_pdf, grid_ancestral_sample
from .ancestor import build_ancestor
from .metrics import (
    NumericalError,
    empirical_w1,
    inverse_transform_sample,
    kl_monte_carlo,
    rejection_sample,
)
from .model import load_density, random_density
from .refine import SCHEDULES, LangevinConfig, mala_refine, ula_refine

METHODS = ("daas", "daas+ula", "daas+mala", "rejection", "inverse")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Every setting: each field is a config-file key and a flag, parsed alike."""

    seed: int = 0
    n: int = field(default=10, metadata={"help": "frequency terms"})
    k: int = field(default=50, metadata={"help": "grid points"})
    d: int = field(default=1, metadata={"help": "kernel degree"})
    s: int = field(default=100000, metadata={"help": "number of samples"})
    t: int = field(default=0, metadata={"help": "refinement steps"})
    eps_ula: float = 1e-5
    eps_mala: float = 8e-5
    schedule: str = field(default="constant",
                          metadata={"help": "one of " + ", ".join(SCHEDULES)})
    method: str = field(default="daas",
                        metadata={"help": "one of " + ", ".join(METHODS)})
    trials: int = 1
    k_sweep: tuple = field(default=(128, 256, 512, 1024, 2048),
                           metadata={"help": "comma-separated K values"})
    t_sweep: tuple = field(default=(0, 1, 5, 20, 100, 500),
                           metadata={"help": "comma-separated T values"})
    degrees: tuple = field(default=(1,),
                           metadata={"help": "comma-separated kernel degrees"})
    tol: float = 1e-10
    model_file: str = ""

    def validate(self) -> None:
        """Check every setting before any work: chains and kernels by
        building each one a command could build, whatever the method; all
        but k, which each grid checks against its model's N where it is
        built (FourierDensity.pdf_grid)."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n < 0:
            raise ConfigError("n must be >= 0")
        if self.s < 1:
            raise ConfigError("s must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("tol must be finite and positive")
        if self.tol >= 2:
            raise ConfigError("tol must be below 2, the width of the domain")
        for name in ("k_sweep", "degrees"):
            vals = getattr(self, name)
            if not vals:
                raise ConfigError(f"{name} must not be empty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        for name, (_, chain) in _chains(self).items():
            for t in (self.t, *self.t_sweep):
                _build(f"{name} chain at T={t}", chain, t)
        for d in (self.d, *self.degrees):
            _build("kernel", BSplineKernel, d)


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError raised as ConfigError at where."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _chains(cfg: ExperimentConfig) -> dict:
    """Each Langevin chain by name: (refiner, steps -> its LangevinConfig)."""
    def chain(eps):
        return lambda steps: LangevinConfig(
            step_size=eps, schedule=cfg.schedule, steps=steps)

    return {"ula": (ula_refine, chain(cfg.eps_ula)),
            "mala": (mala_refine, chain(cfg.eps_mala))}


def _parse_value(raw: str, current):
    """The text of a flag or config value, typed as the current value."""
    if isinstance(current, tuple):
        return tuple(int(v) for v in raw.split(",") if v != "")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def _set(cfg: ExperimentConfig, key: str, raw: str, where: str) -> ExperimentConfig:
    """cfg with `key` parsed from `raw`; a malformed value is a ConfigError
    naming `where` (the flag, or path:line)."""
    return _build(where, lambda: replace(
        cfg, **{key: _parse_value(raw, getattr(cfg, key))}))


def load_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    names = {f.name for f in fields(ExperimentConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in names:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg = _set(cfg, key, raw, f"{path}:{lineno}")
    return cfg


def _get_model(cfg: ExperimentConfig, rng):
    """The model file's density if one is named, else a random density of
    cfg.n terms drawn from rng."""
    if cfg.model_file:
        return load_density(cfg.model_file)
    return random_density(cfg.n, rng)


def run_sample(cfg: ExperimentConfig) -> SampleBatch:
    """Draw cfg.s samples; methods without a grid ignore cfg.k."""
    cfg.validate()
    model_rng, draw_rng = np.random.default_rng(cfg.seed).spawn(2)
    model = _get_model(cfg, model_rng)
    if cfg.method == "rejection":
        batch = rejection_sample(model, cfg.s, draw_rng)
    elif cfg.method == "inverse":
        batch = inverse_transform_sample(model, cfg.s, draw_rng, tol=cfg.tol)
    else:
        batch = grid_ancestral_sample(
            model, cfg.k, BSplineKernel(cfg.d), cfg.s, draw_rng
        )
        if cfg.method != "daas":
            refine, chain = _chains(cfg)[cfg.method.removeprefix("daas+")]
            batch = refine(model, batch, chain(cfg.t), draw_rng)
    batch.seed = cfg.seed
    batch.meta["method"] = cfg.method
    if cfg.model_file:
        batch.meta.update(scale=model.scale, offset=model.offset)
    if not np.all(np.isfinite(batch.samples)):
        raise NumericalError("non-finite samples produced")
    return batch


def run_convergence(
    cfg: ExperimentConfig,
) -> list[tuple[int, int, int, float, float]]:
    """Rows (K, trial, D, kl, std_error): Monte Carlo KL of the grid
    approximation and the standard error of that estimate.

    Every trial uses the model file's density if one is named, else a
    random density of cfg.n terms; only the reference sample differs.
    Trial t draws from stream t of default_rng(seed).spawn(trials): its
    random model (if any) first, then its reference sample.  Its grid PMFs
    are built between the two; they draw nothing, and a K below 2N+1 fails
    before the reference is drawn.
    """
    cfg.validate()
    rows, rng = [], np.random.default_rng(cfg.seed)
    for trial, trng in enumerate(rng.spawn(cfg.trials)):
        model = _get_model(cfg, trng)
        pmfs = [(k, build_ancestor(model, k)) for k in cfg.k_sweep]
        ref = rejection_sample(model, cfg.s, trng)
        p_vals = model.pdf(ref.samples)
        for k_grid, pmf in pmfs:
            for deg in cfg.degrees:
                kernel = BSplineKernel(deg)
                rep = kl_monte_carlo(
                    ref, lambda x: p_vals, lambda x: compound_pdf(pmf, kernel, x)
                )
                if not np.isfinite(rep.estimate):
                    raise NumericalError("non-finite KL estimate")
                rows.append((k_grid, trial, deg, rep.estimate, rep.std_error))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def run_refinement(cfg: ExperimentConfig) -> list[tuple[int, str, float]]:
    """Rows (T, method, W1) against a rejection-sampled reference.

    Chains advance incrementally through the sorted T sweep, so the row at
    each T is the state of one continuous chain after T steps; each batch
    says in meta["T"] how far its chain has got.
    """
    cfg.validate()
    t_sweep = sorted(t for t in set(cfg.t_sweep) if t > 0)
    chains = _chains(cfg)
    rng = np.random.default_rng(cfg.seed)
    model_rng, ref_rng, daas_rng, *chain_rngs = rng.spawn(3 + len(chains))
    model = _get_model(cfg, model_rng)
    base = grid_ancestral_sample(
        model, cfg.k, BSplineKernel(cfg.d), cfg.s, daas_rng
    )
    ref = rejection_sample(model, cfg.s, ref_rng).samples
    w1_zero = empirical_w1(base.samples, ref).estimate
    rows = [(0, "daas", w1_zero)]
    for (name, (refine, chain)), crng in zip(chains.items(), chain_rngs):
        batch = base
        for t_steps in t_sweep:
            steps = t_steps - batch.meta.get("T", 0)
            batch = refine(model, batch, chain(steps), crng)
            w1 = empirical_w1(batch.samples, ref).estimate
            if not np.isfinite(w1):
                raise NumericalError("non-finite W1 estimate")
            rows.append((t_steps, name, w1))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def run_cost(cfg: ExperimentConfig) -> list[tuple[str, int]]:
    """Rows (method, model evaluations) for drawing S samples, each named
    as its --method and measured by running it: the ledger of the batch
    run_sample returns.  The grid methods run first, so that a K too small
    for the model fails before the rejection draw."""
    def bill(method):
        return run_sample(replace(cfg, method=method)).counter.total_evals

    grid = [(m, bill(m)) for m in ("daas+ula", "daas+mala", "daas")]
    return [("rejection", bill("rejection")), *grid]


def _write_rows(rows, fh) -> None:
    """One line of comma-separated values per row, floats as %.17g."""
    fh.write("".join(",".join(map(_fmt, row)) + "\n" for row in rows))


def _commands() -> dict:
    """Each command by name: (help text, runner, writer of its result).

    Built at call time, as _chains is, so that a runner rebound on this
    module, by a tracer or a test, is the one that runs."""
    return {
        "sample": ("draw samples, one per output line", run_sample,
                   SampleBatch.write_csv),
        "convergence": ("KL of the grid approximation over a K sweep",
                        run_convergence, _write_rows),
        "refinement": ("W1 of Langevin-refined samples over a T sweep",
                       run_refinement, _write_rows),
        "cost": ("model-evaluation totals per method", run_cost, _write_rows),
    }


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError, so that main reports it on its
    error path (exit 2) instead of exiting from inside argparse."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One flag per ExperimentConfig field, each taking the value as text."""
    parser = _Parser(
        prog="circfourier",
        description="Circular Fourier density sampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _, _) in _commands().items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default="", help="key=value config file")
        p.add_argument("--output", default="", help="output path (default stdout)")
        for f in fields(ExperimentConfig):
            p.add_argument(_flag(f.name), help=f.metadata.get("help"))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values (or the defaults), overridden by flags."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            cfg = _set(cfg, f.name, raw, _flag(f.name))
    return cfg


def run_command(command: str, cfg: ExperimentConfig, output: str) -> None:
    """Run the command and write its result to the output file, or to
    stdout when none is named."""
    _, run, write = _commands()[command]
    result = run(cfg)
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            write(result, fh)
    else:
        write(result, sys.stdout)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        run_command(args.command, cfg, args.output)
    except BrokenPipeError:
        # The reader closed stdout early, as `circfourier sample | head`
        # does.  Stop quietly; point stdout at devnull so that the flush at
        # interpreter exit does not fail on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A config whose arrays do not fit, such as a huge --k or --s.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
