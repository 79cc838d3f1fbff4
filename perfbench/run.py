"""circfourier benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: sample-fine, refine-chain, reference-kl (see perfbench/README.md).
Runs from the root of a source checkout: the package is imported from
./src, never from an installed copy.  Each workload runs in fresh child
processes with one thread; set-up is timed over several of them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("sample-fine", "refine-chain", "reference-kl")
SETUP_RUNS = 8  # set-up-only processes, besides the measuring one
CHILD_TIMEOUT_S = 150


def _child(args, mode: str, env: dict) -> tuple[float, dict]:
    """Start a worker; return its start time and its last-line JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return start, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "circfourier" / "__init__.py").is_file():
        print(f"error: no circfourier package under {src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(src), str(HERE)]),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })

    setups = []
    for _ in range(SETUP_RUNS):
        start, res = _child(args, "setup", env)
        setups.append(res["ready"] - start)
    start, res = _child(args, "run", env)
    setups.append(res["ready"] - start)

    walls = res["wall_s"]
    print(f"workload={args.workload} seed={args.seed} operations={res['attempted']}"
          f" failed={res['failed']} correct={res['correct']}")
    print("operation times (s):", " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "model_evals": {"value": res["model_evals"], "unit": "count"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
