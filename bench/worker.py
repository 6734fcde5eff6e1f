"""One pass of one workload, in the fresh interpreter that ``run.py``
starts for it.

Usage: python3 bench/worker.py --workload W --seed S --pass-index K
       --launched-ns T [--trace]

T is CLOCK_MONOTONIC in ns when the parent launched this process; set-up
time runs from T to the start of the first timed operation and covers the
interpreter, ``import quadsums`` and input generation.  After the timed
loop every answer goes through the exact answer gate, untimed.  The pass
prints one JSON object as its last line of output.  A ``QuadsumsError``
other than the ``SearchBudgetExceeded`` that ``workloads.run_op`` answers
by its fallback is a gate mismatch, since no workload input should raise
one.  Any other exception ends the pass with a traceback and a nonzero
exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import time

PROBE_ITERATIONS = 10_000


def _probe(clock) -> int:
    """Time of a fixed pure-Python loop, in ns.  Run between operations
    (outside their timing) to follow the CPU speed, which drifts by up to
    a factor of two over seconds on a shared machine."""
    t0 = clock()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) % 1000003
    return clock() - t0


def _meta(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--launched-ns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import quadsums as q

    import spans
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index)
    tracer = spans.Tracer()
    originals = spans.install(tracer) if args.trace else {}
    profile_cache = originals.get("nullity.nullity_profile", q.nullity.nullity_profile)
    ctx_cache = q.fieldcore._ctx_cached  # the lru_cache behind build_field_ctx
    hits0 = profile_cache.cache_info().hits
    misses0 = ctx_cache.cache_info().misses

    answers, latencies, errors = [], [], {}
    fallbacks = 0
    clock = time.perf_counter_ns
    first_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    probes = [_probe(clock)]
    tracer.active = args.trace
    for op in inputs:
        t0 = clock()
        try:
            answer = workloads.run_op(q, op)
        except q.errors.QuadsumsError as exc:
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            answer = ["error", type(exc).__name__]
        latencies.append(clock() - t0)
        answers.append(answer)
        fallbacks += answer[0] == "fallback"
        probes.append(_probe(clock))
    tracer.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "ops": len(inputs),
        "failed": sum(errors.values()),
        "fallbacks": fallbacks,
        "errors": errors,
        "setup_s": (first_ns - args.launched_ns) / 1e9,
        "timed_s": sum(latencies) / 1e9,
        "latencies_s": [x / 1e9 for x in latencies],
        "probes_s": [x / 1e9 for x in probes],
        "peak_rss_mb": rss_mb,
        "profile_cache_hits": profile_cache.cache_info().hits - hits0,
        "ctx_cold": ctx_cache.cache_info().misses - misses0,
        "digest": hashlib.sha256(json.dumps(answers).encode()).hexdigest(),
    }
    if args.trace:
        out["spans"] = tracer.summary()
    t0 = clock()
    checks, mismatches = 0, []
    for op, answer in zip(inputs, answers):
        if answer[0] == "error":
            mismatches.append(f"{op}: raised {answer[1]}")
        else:
            c, bad = workloads.gate(q, op, answer)
            checks += c
            mismatches += bad
    out["gate"] = {"checks": checks, "mismatches": mismatches, "seconds": (clock() - t0) / 1e9}
    out["meta"] = _meta(np)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
