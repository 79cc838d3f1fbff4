"""Show that every output check of the benchmark can fail.

    PYTHONPATH=src:perfbench python3 perfbench/selfcheck.py [--seed N]

Runs each workload's operation once, confirms that all its checks pass,
then feeds the checks deliberately wrong outputs (another model's samples,
a dropped row, a broken ledger, ...) and confirms that the named check
fails.  Exits 1 if any check passes a wrong output or fails a right one.
"""
from __future__ import annotations

import argparse
import copy
import sys
from pathlib import Path

import circfourier as cf
import circfourier.cli  # noqa: F401
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


def _failed(log) -> set[str]:
    return {name for name, ok, _ in log if not ok}


def _case(label, expect_prefix, log, problems):
    failed = _failed(log)
    hit = any(name.startswith(expect_prefix) for name in failed)
    print(f"{'ok ' if hit else 'BAD'} {label}: fails {sorted(failed)}")
    if not hit:
        problems.append(label)


def sample_fine(seed, problems):
    wl = workloads.SampleFine(seed, OUT_DIR)
    code = wl.run(cf)
    good = wl.csv_path.read_text(encoding="utf-8")
    log = wl.checks(code)
    print(f"sample-fine: correct output fails {sorted(_failed(log))}")
    problems += sorted(_failed(log))

    other = workloads.SampleFine(seed + 1, OUT_DIR)
    other.run(cf)
    rows = good.splitlines()
    manifest = [r for r in rows if r.startswith("#")]
    samples = [r for r in rows if not r.startswith("#")]
    wrong = {
        "another model's samples": ("chi-square",
            other.csv_path.read_text(encoding="utf-8")),
        "one row dropped": ("S sample lines",
            "\n".join(manifest + samples[:-1]) + "\n"),
        "a row reading 1.0": ("finite",
            "\n".join(manifest + ["1.0"] + samples[1:]) + "\n"),
        "total_evals off by one": ("manifest total_evals",
            good.replace(f"total_evals={wl.K}", f"total_evals={wl.K + 1}")),
    }
    for label, (expect, text) in wrong.items():
        wl.csv_path.write_text(text, encoding="utf-8")
        fresh = workloads.SampleFine(seed, OUT_DIR)
        _case(f"sample-fine, {label}", expect, fresh.checks(0), problems)
    _case("sample-fine, exit code 2", "exit code", wl.checks(2), problems)
    _case("sample-fine, output changed after the first operation",
          "output identical", wl.checks(0), problems)


def refine_chain(seed, problems):
    wl = workloads.RefineChain(seed, OUT_DIR)
    result = wl.run(cf)
    log = wl.checks(result)
    print(f"refine-chain: correct output fails {sorted(_failed(log))}")
    problems += sorted(_failed(log))

    other = cf.FourierDensity(workloads.RefineChain(seed + 1, OUT_DIR).amps)
    other_x = cf.rejection_sample(other, wl.S, 0).samples

    def mutated(fn):
        r = copy.deepcopy(result)
        fn(r)
        fresh = workloads.RefineChain(seed, OUT_DIR)
        return fresh.checks(r)

    def out_of_range(r):
        r["final"]["ula"][0] = 1.0

    def ledger(r):
        r["evals"] += 1

    def no_accept(r):
        r["mala_accept"] = 0.0

    def other_reference(r):
        r["reference"] = other_x

    def other_chain(r):
        r["w1"][(50, "mala")] = cf.empirical_w1(other_x, r["reference"]).estimate

    for label, expect, fn in (
        ("a sample at 1.0", "finite", out_of_range),
        ("ledger off by one", "ledger", ledger),
        ("MALA acceptance 0", "MALA acceptance", no_accept),
        ("reference drawn from another model", "reference KS", other_reference),
        ("MALA chain ends at another model", "every W1", other_chain),
    ):
        _case(f"refine-chain, {label}", expect, mutated(fn), problems)


def reference_kl(seed, problems):
    wl = workloads.ReferenceKL(seed, OUT_DIR)
    result = wl.run(cf)
    log = wl.checks(result)
    print(f"reference-kl: correct output fails {sorted(_failed(log))}")
    problems += sorted(_failed(log))
    other = workloads.ReferenceKL(seed + 1, OUT_DIR)
    other_result = other.run(cf)
    key = (0, wl.K_SWEEP[0])

    def mutated(fn):
        r = copy.deepcopy(result)
        fn(r)
        return wl.checks(r)

    def scaled(r):
        r["pmfs"][key] = r["pmfs"][key] * (1.0 + 1e-9)

    def negative(r):
        p = r["pmfs"][key].copy()
        p[1] += p[0] + 1e-9
        p[0] = -1e-9
        r["pmfs"][key] = p

    def nan_kl(r):
        r["kls"][(0, wl.K_SWEEP[0], 2)] = (float("nan"), 0.0)

    def other_model(r):
        r["kls"] = other_result["kls"]

    for label, expect, fn in (
        ("PMF scaled by 1 + 1e-9", "grid PMF sums", scaled),
        ("PMF with a cell at -1e-9", "grid PMF non-negative", negative),
        ("a KL estimate of nan", "every KL estimate finite", nan_kl),
        ("KL estimates of other models", "D=1 KL", other_model),
    ):
        _case(f"reference-kl, {label}", expect, mutated(fn), problems)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    for fn in (sample_fine, refine_chain, reference_kl):
        fn(args.seed, problems)
    print("all checks behave" if not problems else f"problems: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
