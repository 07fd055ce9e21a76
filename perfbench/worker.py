"""One workload in one process: generate inputs, run timed passes, check.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Prints one JSON
object on its last stdout line.  With ``--setup-only`` it stops once kmspec
is imported and the inputs are generated and parsed, and reports that
moment on the monotonic clock so the parent can time set-up from process
start.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import kmspec
import kmspec.cli as kc
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_item(item, out_dir: Path):
    """One execute plus emit, or one oracle check: (seconds, output)."""
    start = time.perf_counter()
    if item.check is not None:
        output = item.check()
    else:
        artifacts, manifest = kc.execute(item.config)
        kc.emit(str(out_dir / item.name), artifacts, time.perf_counter() - start)
        output = (artifacts, manifest)
    return time.perf_counter() - start, output


def verify(item, output, digests: dict):
    """None if the item's output is correct and repeatable, else a reason."""
    if item.check is not None:
        reason = workloads.check_values(output)
        key = json.dumps(output, sort_keys=True)
    else:
        artifacts, manifest = output
        reason = workloads.check_cli(item, artifacts, manifest)
        key = workloads.digest(artifacts)
    first = digests.setdefault(item.name, key)
    if reason is None and key != first:
        reason = "output differs from an earlier repetition of the same item"
    return reason


def run_passes(items, seconds: float, out_dir: Path, tracer=None,
               min_passes: int = 2):
    """Repeat the item list for about `seconds` (at least min_passes times).

    A further pass starts only if it would end within half a pass of the
    deadline, so a run measures about `seconds` whatever the pass length.

    With a tracer, passes alternate untraced and traced, starting untraced.
    Every item run is attempted; one that raises, fails a certificate,
    disagrees with the oracle or repeats differently is counted as failed.
    """
    passes = []        # (traced, wall seconds)
    item_seconds = []  # untraced item times
    failures = []      # (pass, item, reason)
    digests = {}
    extras = {}
    attempted = 0
    start = last = time.monotonic()
    pass_span = 0.0
    while len(passes) < min_passes or last - start + pass_span / 2 < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        try:
            for item in items:
                attempted += 1
                item_start = time.perf_counter()
                try:
                    dt, output = run_item(item, out_dir)
                    reason = None
                except Exception as exc:
                    dt = time.perf_counter() - item_start
                    reason = f"raised {type(exc).__name__}: {exc}"
                wall += dt
                if not traced:
                    item_seconds.append(dt)
                if reason is None:
                    reason = verify(item, output, digests)
                if reason is not None:
                    failures.append((len(passes), item.name, reason))
                elif item.check is None and item.config["mode"] == "wreath":
                    certs = {c["name"]: float(c["value"])
                             for c in output[1]["certificates"]}
                    extras["certified_error"] = max(
                        extras.get("certified_error", 0.0),
                        certs["staged-approximation-error"])
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, wall))
        now = time.monotonic()
        pass_span, last = now - last, now
    return {"passes": passes, "item_seconds": item_seconds,
            "failures": failures, "attempted": attempted, "extras": extras}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if ROOT not in Path(kmspec.__file__).resolve().parents:
        print(f"kmspec imported from {kmspec.__file__}, outside the checkout",
              file=sys.stderr)
        return 2
    out = Path(args.out)
    items = workloads.build_items(args.workload, args.seed, out / "configs")
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    # a traced run needs an untraced pass after the cold first one, so that
    # the tracing overhead compares warm passes
    result = run_passes(items, args.seconds, out / "artifacts", tracer,
                        min_passes=3 if tracer else 2)
    untraced = [w for traced, w in result["passes"] if not traced]
    report = {
        "ready": ready,
        "attempted": result["attempted"],
        "failures": result["failures"],
        "passes": [round(w, 4) for _, w in result["passes"]],
        "items": len(items),
        "extras": result["extras"],
        "wall_s": statistics.median(untraced),
        "item_s_p50": statistics.median(result["item_seconds"]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_walls = [w for traced, w in result["passes"] if traced]
        n = len(traced_walls)
        overhead = statistics.median(traced_walls) - statistics.median(untraced[1:])
        self_times = tracer.self_times()
        report["layers"] = spans.layer_metrics(self_times, tracer.counts,
                                               tracer.maxima, n, overhead)
        report["self_time_total_s"] = sum(self_times.values()) / n
        report["traced_wall_s"] = statistics.median(traced_walls)
        tracer.write(out / "spans.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
