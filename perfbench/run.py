"""phaseseek benchmark: ``train``, ``infer_fi`` and ``infer_rmi`` workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload infer_fi --seed 1 --seconds 45 --trace 0

``BENCHMARK.json`` lists ``train`` and ``infer_fi``; ``infer_rmi`` runs the
same way but is left out there as too unsteady (see README.md).

One process, BLAS pinned to one thread.  The run generates its inputs from
``--seed`` (see ``workloads.py``), sets them up ``SETUP_REPEATS`` times
(``setup_s`` is the median), then repeats the workload's operation for
``--seconds`` and prints every end-to-end metric.  With ``--trace 1`` it
runs every operation twice, untraced and traced, for twice ``--seconds``,
and prints the per-layer metrics instead (see ``layers.py``).  The last line of standard output is
the result object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the environment.  Both, with every operation's
record, are also written to ``.perfbench_work/result-<workload>-seed<n>-trace<t>.json``
and the spans of a traced run to ``.perfbench_work/trace-<workload>.npz``.

Exit codes: 0 after a complete run (``correct`` tells whether every gate
held), 2 when the run cannot start or crashes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from envinfo import REPO_ROOT, env_block, pin_blas_threads

WORKLOADS = ("train", "infer_fi", "infer_rmi")
SETUP_REPEATS = 3
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "steps_per_s": "1/s",
    "videos_per_s": "1/s",
    "accuracy": "frac",
    "ward_event_ratio": "frac",
    "transition_error_clips": "clips",
    "clips_read_frac": "frac",
    "converged_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="phaseseek benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, default=Path(".perfbench_work"))
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and networks, for the harness's smoke test")
    return p.parse_args(argv)


def _op(workload, k: int):
    try:
        return workload.op(k)
    except Exception:  # a crashed operation is a failed one; keep measuring
        from workloads import OpResult

        traceback.print_exc()
        return OpResult(0.0, 0, 0, failures=[f"op {k} raised"])


def timed_loop(workload, seconds: float, tracer=None) -> tuple[list, list]:
    """Run operations until ``seconds`` have passed and every input was used once.

    With a tracer, each operation runs twice on the same input, untraced and
    then traced, so that drift in machine speed cancels in the overhead ratio.
    Returns the untraced and the traced results.
    """
    untraced, traced = [], []
    start = perf_counter()
    k = 0
    while True:
        untraced.append(_op(workload, k))
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span("bench.op"):
                    traced.append(_op(workload, k))
            finally:
                tracer.uninstall()
        k += 1
        if perf_counter() - start >= seconds and workload.covered(k):
            return untraced, traced


def rate(results, unit: str) -> float:
    """Work per second over the operations that passed their gates.

    Total work over total time, not a median of per-operation rates: on a
    shared host the CPU speed can flip between two levels every few seconds,
    and a median jumps between them while the time-weighted mean moves
    smoothly.
    """
    ok = [r for r in results if not r.failures]
    seconds = sum(r.seconds for r in ok)
    return sum(getattr(r, unit) for r in ok) / seconds if seconds else 0.0


def end_to_end(results, quality: dict, setup_s: float, peak_rss_mb: float) -> dict:
    values = {"setup_s": setup_s, "steps_per_s": rate(results, "steps"),
              "videos_per_s": rate(results, "videos"), "peak_rss_mb": peak_rss_mb,
              **quality}
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in END_TO_END.items()}


def scored_videos(results) -> list[dict]:
    """Per-video quality records, one per held-out video (first pass of each chunk)."""
    seen, videos = set(), []
    for r in results:
        if r.videos_scored and r.digest not in seen:
            seen.add(r.digest)
            videos += r.videos_scored
    return videos


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO_ROOT / "src" / "phaseseek" / "__init__.py").is_file():
        print(f"error: no phaseseek sources under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    import layers
    import workloads as wl
    from tracer import Tracer

    sizes = wl.TINY if args.tiny else wl.FULL
    work = args.work_dir.resolve()
    env = env_block()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = wl.setup(work / "inputs", args.seed, sizes)
        setup_times.append(perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    workload = wl.make_workload(args.workload, inputs, args.seed, sizes)
    try:
        guard = []
        if args.trace:
            tracer = Tracer()
            results, traced = timed_loop(workload, 2 * args.seconds, tracer)
            tracer.save(work / f"trace-{args.workload}.npz")
            alloc = wl.replay_alloc_mb(inputs, sizes) if args.workload == "train" else 0.0
            metrics = layers.per_layer(tracer, results, traced, sizes, alloc)
            results += traced
        else:
            results, _ = timed_loop(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.workload == "train":
                # Score the fixture policy too, so that every workload reports
                # search quality; its time is not part of this workload's rates.
                scorer = wl.InferWorkload(inputs, "fi")
                guard = [scorer.op(k) for k in range(min(sizes.guard_chunks, len(inputs.chunks)))]
            q = wl.quality(scored_videos(results + guard))
            metrics = end_to_end(results, q, setup_s, peak_rss_mb)
    finally:
        workload.close()

    ops = results + guard
    failed = sum(1 for r in ops if r.failures)
    for r in ops:
        for msg in r.failures:
            print(f"gate failed: {msg}", file=sys.stderr)
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
               "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_times_s": setup_times,
              "ops": [{"seconds": r.seconds, "videos": r.videos, "steps": r.steps,
                       "failures": r.failures, "digest": r.digest} for r in ops],
              **summary}
    result_path = work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
