"""The three benchmark workloads: inputs from a seed, one timed operation,
and the output checks that run untimed after it.

Each workload is a class with
- `__init__(seed, out_dir)`: generate every input from the seed (set-up);
- `run(cf)`: one operation through the public API of the package `cf`,
  returning what the checks and the ledger need;
- `model_evals(result)`: the evaluation ledger total of that operation;
- `checks(result)`: a list of (name, passed, detail);
- `cleanup()`: remove the files the workload wrote.

Every operation of a run repeats the same calls on the same inputs, so
its counts and outputs must repeat exactly.
"""
from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

import reference as ref


def _amplitudes(rng, n: int) -> np.ndarray:
    """N+1 i.i.d. complex standard normal amplitudes (as random_density)."""
    return rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)


def _banded_amplitudes(rng, n: int, band: tuple[float, float]) -> np.ndarray:
    """Amplitudes drawn until the envelope constant M lies in `band`.

    Rejection sampling costs S*M proposals, and its chunk memory grows as
    S*M; M varies by 13% (interquartile) between random models of N=20 or
    N=50.  Holding M in a narrow band keeps the work and the peak memory of
    an operation the same whatever the seed.
    """
    while True:
        a = _amplitudes(rng, n)
        if band[0] <= ref.envelope_constant(a) <= band[1]:
            return a


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


def _w1(xs, ys) -> float:
    """W1 of two equal-size samples on an interval: mean order-statistic gap."""
    return float(np.mean(np.abs(np.sort(xs) - np.sort(ys))))


def _in_circle(x) -> bool:
    x = np.asarray(x)
    return bool(np.all(np.isfinite(x)) and np.all(x >= -1.0) and np.all(x < 1.0))


class SampleFine:
    """`circfourier sample` through `cli.main`: N=200 model file, K=2^21
    (tv_bound(200, K) = 3.0e-6), triangle kernel, S=1e6 rows to a CSV."""

    name = "sample-fine"
    N, K, D, S = 200, 2_097_152, 1, 1_000_000
    CHI_BINS = 1024    # equal bins of K/1024 grid cells each
    CHI_Z_MAX = 5.5    # one-sided, P(false alarm) ~ 2e-8

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 1])
        self.amps = _amplitudes(rng, self.N)
        (self.cli_seed,) = _seeds(rng, 1)
        self.cli_seed %= 2**31
        self.model_path = out_dir / f"{self.name}-{seed}.model"
        self.csv_path = out_dir / f"{self.name}-{seed}.csv"
        with open(self.model_path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.N} 1 0\n")
            for a in self.amps:
                fh.write(f"{a.real:.17g} {a.imag:.17g}\n")
        self._first = None  # (digest, full check results) of the first output
        self.argv = [
            "sample", "--model-file", str(self.model_path),
            "--n", str(self.N), "--k", str(self.K), "--d", str(self.D),
            "--s", str(self.S), "--seed", str(self.cli_seed),
            "--output", str(self.csv_path),
        ]

    def run(self, cf):
        return cf.cli.main(self.argv)

    def cleanup(self) -> None:
        self.csv_path.unlink(missing_ok=True)
        self.model_path.unlink(missing_ok=True)

    def _manifest(self) -> dict:
        manifest = {}
        with open(self.csv_path, encoding="utf-8") as fh:
            for ln in fh:
                if not ln.startswith("#"):
                    break
                manifest.update(re.findall(r"(\w+)=(\S*)", ln))
        return manifest

    def model_evals(self, result) -> int:
        return int(self._manifest()["total_evals"])

    def checks(self, result):
        """Full checks on the first output; later operations must write the
        same bytes, which a digest shows at a fraction of the cost."""
        data = self.csv_path.read_bytes()
        digest = hashlib.sha256(data).digest()
        if self._first is None:
            self._first = (digest, self._full_checks(data.decode("utf-8")))
        return [
            ("exit code 0", result == 0, f"exit={result}"),
            ("output identical to the first operation's",
             digest == self._first[0], ""),
            *self._first[1],
        ]

    def _full_checks(self, text: str):
        lines = text.splitlines()
        manifest = dict(re.findall(r"(\w+)=(\S*)", " ".join(
            ln for ln in lines if ln.startswith("#"))))
        body = [ln for ln in lines if not ln.startswith("#")]
        x = np.array(body, dtype=float)
        masses = ref.bin_masses(self.amps, self.CHI_BINS)
        counts = np.bincount(
            np.clip(((x + 1.0) * (self.CHI_BINS / 2.0)).astype(np.int64),
                    0, self.CHI_BINS - 1),
            minlength=self.CHI_BINS,
        )
        z = ref.chi_square_z(counts, masses)
        evals = int(manifest.get("total_evals", -1))
        return [
            ("S sample lines", len(body) == self.S, f"lines={len(body)}"),
            ("finite and in [-1, 1)", _in_circle(x), ""),
            ("manifest total_evals == K", evals == self.K, f"total_evals={evals}"),
            (f"chi-square z < {self.CHI_Z_MAX} over {self.CHI_BINS} bins",
             z < self.CHI_Z_MAX, f"z={z:.3f}"),
        ]


class RefineChain:
    """The library calls of `circfourier refinement`, with one ledger:
    N=20, K=80, D=1, S=1e5, rejection reference, ULA (eps 1e-5) and MALA
    (eps 8e-5) chains advanced to T=50 with W1 at T = 1, 5, 20, 50."""

    name = "refine-chain"
    N, K, D, S = 20, 80, 1, 100_000
    T_SWEEP = (1, 5, 20, 50)
    M_BAND = (5.75, 5.9)  # around the median M of random N=20 models
    EPS = {"ula": 1e-5, "mala": 8e-5}
    # sqrt(S) * KS distance of the rejection reference to the benchmark's
    # own CDF; P(exceeding 2.7 | correct sampler) is about 1e-6.
    KS_MAX = 2.7
    # A chain's W1 to the reference stays below 2.2 times W1(reference,
    # exact draw) on the eight seeds measured; another model's sample
    # reads 20 or more.
    W1_MULTIPLE = 8.0

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.amps = _banded_amplitudes(rng, self.N, self.M_BAND)
        self.ref_seed, self.daas_seed, self.ula_seed, self.mala_seed, \
            self.exact_seed = _seeds(rng, 5)
        self.exact_w1 = self.ks = None  # computed once, by the first check

    def run(self, cf):
        model = cf.FourierDensity(self.amps)
        counter = cf.EvalCounter()
        reference = cf.rejection_sample(model, self.S, self.ref_seed, counter)
        base = cf.grid_ancestral_sample(
            model, self.K, cf.BSplineKernel(self.D), self.S, self.daas_seed,
            counter,
        )
        w1 = {(0, "daas"): cf.empirical_w1(base.samples, reference.samples).estimate}
        final, accepted, proposed = {}, 0.0, 0
        for name, refine, seed in (("ula", cf.ula_refine, self.ula_seed),
                                   ("mala", cf.mala_refine, self.mala_seed)):
            rng = np.random.default_rng(seed)
            batch, done = base, 0
            for t in self.T_SWEEP:
                cfg = cf.LangevinConfig(step_size=self.EPS[name], steps=t - done)
                batch = refine(model, batch, cfg, rng, counter)
                if name == "mala":
                    accepted += batch.meta["acceptance_rate"] * self.S * cfg.steps
                    proposed += self.S * cfg.steps
                done = t
                w1[(t, name)] = cf.empirical_w1(
                    batch.samples, reference.samples).estimate
            final[name] = batch.samples
        return {
            "evals": counter.total_evals,
            "proposals": reference.meta["proposals"],
            "reference": reference.samples,
            "base": base.samples,
            "final": final,
            "w1": w1,
            "mala_accept": accepted / proposed,
        }

    def model_evals(self, result) -> int:
        return result["evals"]

    def cleanup(self) -> None:
        pass

    def checks(self, result):
        if self.exact_w1 is None:
            exact = ref.exact_sample(self.amps, self.S, self.exact_seed)
            self.exact_w1 = _w1(exact, result["reference"])
            self.ks = ref.ks_statistic(self.amps, result["reference"])
        T = self.T_SWEEP[-1]
        ledger = self.K + 2 * self.S * T + 4 * self.S * T + result["proposals"]
        worst = max(result["w1"].values()) / self.exact_w1
        samples = [result["reference"], result["base"], *result["final"].values()]
        return [
            ("finite and in [-1, 1)", all(_in_circle(s) for s in samples), ""),
            ("ledger == K + 2ST + 4ST + proposals", result["evals"] == ledger,
             f"evals={result['evals']} expected={ledger}"),
            ("MALA acceptance in (0, 1]", 0.0 < result["mala_accept"] <= 1.0,
             f"acceptance={result['mala_accept']:.4f}"),
            (f"reference KS statistic < {self.KS_MAX}", self.ks < self.KS_MAX,
             f"sqrt(S) KS={self.ks:.3f}"),
            (f"every W1 <= {self.W1_MULTIPLE} x W1(reference, exact)",
             worst <= self.W1_MULTIPLE,
             f"max ratio={worst:.3f} W1(reference, exact)={self.exact_w1:.3e}"),
        ]


class ReferenceKL:
    """The library calls of `circfourier convergence`, with one ledger:
    N=50, 3 trials, an S=2e5 rejection reference with pdf at its points,
    build_ancestor for K in 128..2048 and kl_monte_carlo over compound_pdf
    for D in 0, 1, 2."""

    name = "reference-kl"
    N, S, TRIALS = 50, 200_000, 3
    K_SWEEP = (128, 256, 512, 1024, 2048)
    DEGREES = (0, 1, 2)
    M_BAND = (9.0, 9.2)  # around the median M of random N=50 models
    KL_SE = 5.0        # agreement within this many standard errors ...
    KL_REL_TOL = 1e-4  # ... plus this share of the quadrature value

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 3])
        self.amps = [_banded_amplitudes(rng, self.N, self.M_BAND)
                     for _ in range(self.TRIALS)]
        self.ref_seeds = _seeds(rng, self.TRIALS)
        self.kl_ref = None  # computed once, by the first check

    def run(self, cf):
        counter = cf.EvalCounter()
        pmfs, kls, proposals = {}, {}, 0
        for trial, (amps, seed) in enumerate(zip(self.amps, self.ref_seeds)):
            model = cf.FourierDensity(amps)
            reference = cf.rejection_sample(model, self.S, seed, counter)
            proposals += reference.meta["proposals"]
            p_vals = model.pdf(reference.samples, counter)
            for k in self.K_SWEEP:
                pmf = cf.build_ancestor(model, k, counter)
                pmfs[(trial, k)] = pmf.probs
                for deg in self.DEGREES:
                    kernel = cf.BSplineKernel(deg)
                    rep = cf.kl_monte_carlo(
                        reference, lambda x: p_vals,
                        lambda x: cf.compound_pdf(pmf, kernel, x),
                    )
                    kls[(trial, k, deg)] = (rep.estimate, rep.std_error)
        return {"evals": counter.total_evals, "proposals": proposals,
                "pmfs": pmfs, "kls": kls}

    def model_evals(self, result) -> int:
        return result["evals"]

    def cleanup(self) -> None:
        pass

    def checks(self, result):
        if self.kl_ref is None:
            self.kl_ref = {
                (tr, k): ref.kl_to_linear_interpolant(self.amps[tr], k)
                for tr in range(self.TRIALS) for k in self.K_SWEEP
            }
        sums = [abs(float(np.sum(p)) - 1.0) for p in result["pmfs"].values()]
        negative = sum(int(np.any(p < 0)) for p in result["pmfs"].values())
        finite = all(math.isfinite(e) for e, _ in result["kls"].values())
        worst = 0.0
        for (tr, k), q in self.kl_ref.items():
            est, se = result["kls"][(tr, k, 1)]
            worst = max(worst, abs(est - q) / (self.KL_SE * se + self.KL_REL_TOL * q))
        return [
            ("grid PMF sums to 1 within 1e-12", max(sums) <= 1e-12,
             f"max |sum-1|={max(sums):.2e}"),
            ("grid PMF non-negative", negative == 0, f"negative pmfs={negative}"),
            ("every KL estimate finite", finite, ""),
            (f"D=1 KL within {self.KL_SE} SE + {self.KL_REL_TOL} x quadrature",
             worst <= 1.0, f"max share of tolerance={worst:.3f}"),
        ]


WORKLOADS = {w.name: w for w in (SampleFine, RefineChain, ReferenceKL)}
