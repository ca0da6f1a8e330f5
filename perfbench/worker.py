"""Runs one in-process workload in a process of its own.

The parent (``run.py``) measures this process's peak memory, so nothing but
the workload runs here: no correctness check, no oracle. Each call's input,
latency and output go to a JSON-lines file as soon as the call returns, so
memory does not grow with the number of calls. The last line is a summary.

Untraced: calls run until ``--seconds`` have passed and at least ``--calls``
calls have returned. Traced: a fixed list of
calls runs twice, first without hooks and then with them, so that the pair
gives the tracing overhead; the spans of the traced pass go to ``--spans``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from time import perf_counter


def _run(call, inp):
    try:
        return call(inp)
    except Exception as exc:  # any failure is counted by the check
        return {"error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--calls", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import tracing
    import workloads

    call = workloads.in_process_call(args.workload)
    _run(call, workloads.warmup_input(args.workload))
    stream = workloads.inputs(args.workload, args.seed)
    summary = {}
    with open(args.out, "w", encoding="utf-8") as fh:
        def record(inp, latency, output):
            fh.write(json.dumps({"input": inp, "latency_s": latency,
                                 "output": output}) + "\n")

        if not args.trace:
            start = perf_counter()
            done = 0
            while perf_counter() - start < args.seconds or done < args.calls:
                done += 1
                inp = next(stream)
                t0 = perf_counter()
                output = _run(call, inp)
                record(inp, perf_counter() - t0, output)
        else:
            batch = list(itertools.islice(stream, args.calls))
            wall = 0.0
            for inp in batch:
                t0 = perf_counter()
                _run(call, inp)
                wall += perf_counter() - t0
            summary["untraced_wall_s"] = wall
            tracer = tracing.Tracer()
            summary["layers"] = tracing.install(tracer)
            wall = 0.0
            for i, inp in enumerate(batch):
                tracer.call_id = i
                t0 = perf_counter()
                output = _run(call, inp)
                latency = perf_counter() - t0
                wall += latency
                record(inp, latency, output)
            summary["traced_wall_s"] = wall
            tracer.dump(args.spans)
        summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        fh.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
