"""kmspec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh process with
the checkout's ``src`` first on the import path and BLAS/OpenMP pinned to one
thread: a closed loop with a single client, each item (one
``kmspec.cli.execute`` plus ``emit``, or one exhaustive oracle check) started
after the previous one finished.  Every output is checked against an
independent oracle (see workloads.py).  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` a traced run reports per-layer self
times and counts (see spans.py).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

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
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 2      # set-up-only processes before and again after the run
TIME_LIMIT = 170.0    # the whole command must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline: float):
    """Run the worker; return (seconds from spawn to its ready mark, report)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)] + args, env=worker_env(),
                          cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - spawned, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or "
                             "free-product-full-domain (see README.md)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "kmspec" / "__init__.py").is_file():
        print(f"no kmspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    out = OUT / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(out)]
    # setup_s is the median over the workload process and set-up-only
    # processes spread before and after it, so a slow spell of the host
    # moves it less
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [spawn(common + ["--setup-only"], deadline)[0] for _ in range(probes)]
        setup, report = spawn(common + ["--trace", str(args.trace)], deadline)
        setups += [setup] + [spawn(common + ["--setup-only"], deadline)[0]
                             for _ in range(probes)]
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    failures = report["failures"]
    attempted = report["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {report['items']} items, "
          f"{len(report['passes'])} passes of {report['passes']} s, closed loop, "
          "1 client, 1 BLAS thread")
    for pass_index, item, reason in failures:
        print(f"FAILED pass {pass_index} item {item}: {reason}")
    print(f"oracle verdict: {'PASS' if not failures else 'FAIL'}; "
          f"failed_share = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}")
    print(f"item_s_p50 = {report['item_s_p50']!r} s (median time of one item)")
    if "certified_error" in report["extras"]:
        print(f"certified_error = {report['extras']['certified_error']!r} "
              "(largest staged-approximation-error certificate)")
    if args.trace:
        metrics = report["layers"]
        print(f"traced wall_s = {report['traced_wall_s']:.4f} s, untraced "
              f"wall_s = {report['wall_s']:.4f} s, layer self times sum to "
              f"{report['self_time_total_s']:.4f} s")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
