"""One workload in one fresh process; started by run.py, not by hand.

--mode setup: generate the inputs, print the monotonic clock at the moment
  the first timed operation would start, and exit.
--mode run: the same set-up, then timed operations until --seconds of them
  have run, each followed by its output checks (untimed).  With --trace 1,
  traced and untraced operations alternate and the per-layer numbers come
  from the traced ones.

Prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import circfourier as cf
    import circfourier.cli  # noqa: F401  (cf.cli for sample-fine, and traced)
    import workloads
    from tracing import Tracer, layer_metrics

    out_dir = Path(args.out_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    evals, check_log, failed, attempted = [], [], 0, 0
    peak_kib = None
    timed = 0.0
    # a traced run needs one untraced and one traced operation at least
    while timed < args.seconds or attempted < (2 if tracer else 1):
        traced = bool(tracer) and attempted % 2 == 1
        if traced:
            tracer.run_id = attempted
            tracer.install()
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = wl.run(cf)
        except Exception:
            traceback.print_exc()
            failed += 1
            result = None
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        timed += wall
        if peak_kib is None:
            # before any check runs, so only set-up and the program count
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if result is None:
            continue
        walls[traced].append(wall)
        evals.append(wl.model_evals(result))
        check_log.append(wl.checks(result))

    wl.cleanup()
    correct = bool(check_log) and all(ok for log in check_log for _, ok, _ in log)
    repeat = len(set(evals)) <= 1
    for i, log in enumerate(check_log):
        for name, ok, detail in log:
            if i == 0 or not ok:
                print(f"check {'PASS' if ok else 'FAIL'}: {name} {detail}",
                      file=sys.stderr)
    print(f"check {'PASS' if repeat else 'FAIL'}: model_evals repeats exactly "
          f"{sorted(set(evals))}", file=sys.stderr)

    out = {
        "ready": ready,
        "correct": correct and repeat,
        "attempted": attempted,
        "failed": failed,
        "wall_s": walls[False],
        "model_evals": evals[0] if evals else 0,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if tracer:
        runs = sorted({s[4] for s in tracer.spans})
        per_run = [layer_metrics(tracer.spans, r) for r in runs]
        layers = {}
        for key, (_, unit) in per_run[0].items():
            layers[key] = (statistics.median(m[key][0] for m in per_run), unit)
            if unit != "s" and len({m[key][0] for m in per_run}) != 1:
                print(f"check FAIL: {key} repeats exactly", file=sys.stderr)
                out["correct"] = False
        traced_wall = statistics.median(walls[True])
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (
            traced_wall - statistics.median(walls[False]), "s")
        out["layers"] = layers
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
