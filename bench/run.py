"""Benchmark entry point.

    python3 bench/run.py --workload {tower,profiles,oracle} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout.  The package is imported from
``src/``; nothing is installed or built.

``--trace 0`` measures the end-to-end metrics.  It runs passes of the
workload back to back, each in a fresh interpreter with BLAS and OpenMP
pinned to one thread, until S seconds of passes have elapsed.  Pass k
draws its own inputs from (seed, k), so no input repeats within a process.
Operation latencies of all passes are pooled, after scaling each to a
reference CPU speed (see ``scaled_latencies``); ``setup_s`` and
``peak_rss_mb`` are medians over passes.  Every pass ends with the exact
answer gate, untimed.  Gate time counts against S, so the run's wall time
stays near S; ``tower`` spends about a third of it in the gate.

``--trace 1`` measures the per-layer metrics.  It runs pass 0 untraced,
then twice with span wrappers installed, each pass gated.  It checks that
traced and untraced answers are equal, that both traced passes give
identical counts, and that every span the layer table assigns to the
workload fired.  The
reported values come from the first traced pass; ``trace.overhead_s`` is
its summed operation time minus the untraced one, both scaled.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
run's metadata.  A failed check still prints the result, with
``correct: false``, and exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("tower", "profiles", "oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "answered_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans each workload must fire, and spans it must bypass (zero calls).
FIRES = {
    "tower": (
        "fieldcore.build_field_ctx", "primepoly.is_irreducible", "fieldcore.FieldElem.frobenius",
        "fieldcore.embed_element", "fieldcore.FrobeniusLadder.step", "fieldcore.linearized_gcd_deg",
        "nullity.nullity_profile", "nullity.nullity_at", "quadform.gram_matrix",
        "quadform.diagonalize", "quadform.smallest_nonsquare", "quadform.type_direct",
        "lifts.twist", "lifts.lift_two", "lifts.lift_odd_prime", "lifts.lift_p",
        "lifts.type_balanced", "lifts.monomial_eval", "evaluator.plan", "evaluator.evaluate",
    ),
    "profiles": (
        "fieldcore.FieldElem.frobenius", "fieldcore.FrobeniusLadder.step",
        "fieldcore.linearized_gcd_deg", "nullity.nullity_profile", "nullity.nullity_at",
        "tabulate.generate_table", "tabulate.diff_reference",
    ),
    "oracle": (
        "fieldcore.build_field_ctx", "fieldcore.FieldElem.frobenius", "fieldcore.FieldElem.trace",
        "fieldcore.FrobeniusLadder.step", "nullity.nullity_profile", "quadform.gram_matrix",
        "quadform.diagonalize", "quadform.brute_force_sum", "cyclotomic.ExpSumValue.to_cyclotomic",
        "evaluator.plan", "evaluator.evaluate", "evaluator.verify",
    ),
}
BYPASSES = {
    "tower": ("quadform.brute_force_sum", "tabulate.generate_table"),
    "profiles": ("quadform.brute_force_sum", "quadform.gram_matrix", "evaluator.evaluate"),
    "oracle": ("tabulate.generate_table",),
}
# Latencies are reported at the CPU speed where the worker's probe loop
# takes PROBE_REF_S (its typical time on a 2.0 GHz Xeon vCPU); see
# scaled_latencies.
PROBE_REF_S = 0.00125
PROBE_WINDOW = 8
# Every workload draws distinct functions, so no profile is a cache hit.
EXPECTED_PROFILE_CACHE_HITS = 0


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for mod_name, path in spans.TARGETS:
        name = spans.span_name(mod_name, path)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in spans.TOTALS:
            units[f"{name}.total_s"] = "s"
    units.update({
        "fieldcore.build_field_ctx.cold": "count",
        "nullity.nullity_profile.cache_hits": "count",
        "nullity.nullity_profile.failed": "count",
        "quadform.gram_matrix.entries": "count",
        "quadform.brute_force_sum.elements": "count",
        "quadform.brute_force_sum.elems_per_s": "1/s",
    })
    for step in spans.ROUTE_STEPS:
        units[f"evaluator.route.{step}.count"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.env.update({k: "1" for k in THREAD_VARS})

    def run_pass(self, index: int, trace=False) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunFailed("deadline reached before the pass started")
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--pass-index", str(index)]
        cmd += ["--trace"] * trace
        launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        cmd += ["--launched-ns", str(launched)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"pass {index} exceeded the {DEADLINE_S} s deadline") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RunFailed(f"pass {index} exited with status {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8]


def scaled_latencies(r: dict) -> list[float]:
    """Operation latencies scaled to the reference CPU speed.

    The worker times a fixed loop (the probe) before the first operation
    and after each one.  Operation i is scaled by PROBE_REF_S over the
    median of the PROBE_WINDOW probes around it, so a stretch where the
    shared CPU runs slow or fast does not move the metrics.  A change to
    the package does not change the probe, so it still shows in full.
    """
    lat, probes = r["latencies_s"], r["probes_s"]
    half = PROBE_WINDOW // 2
    out = []
    for i, x in enumerate(lat):
        lo = max(0, min(i + 1 - half, len(probes) - PROBE_WINDOW))
        out.append(x * PROBE_REF_S / statistics.median(probes[lo:lo + PROBE_WINDOW]))
    return out


def check_pass(r: dict, problems: list[str]) -> None:
    if r["profile_cache_hits"] != EXPECTED_PROFILE_CACHE_HITS:
        problems.append(f"nullity_profile cache hits {r['profile_cache_hits']}, "
                        f"expected {EXPECTED_PROFILE_CACHE_HITS}")
    problems.extend(r["gate"]["mismatches"])
    if r["gate"]["checks"] == 0:
        problems.append("the answer gate made no comparison")


def src_summary() -> tuple[int, str]:
    """Line count (``wc -l src/quadsums/*.py``) and SHA-256 of the package
    sources, for checkouts that are not git repositories."""
    pkg = os.path.join(SRC, "quadsums")
    lines, h = 0, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                text = fh.read()
            lines += text.count(b"\n")
            h.update(name.encode() + b"\0" + text)
    return lines, h.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def measure(runner: Runner, seconds: float, problems: list[str]) -> tuple[dict, int, int, dict]:
    passes, gate_s = [], 0.0
    while not passes or time.monotonic() - runner.started < seconds:
        r = runner.run_pass(len(passes))
        gate_s += r["gate"]["seconds"]
        check_pass(r, problems)
        passes.append(r)
    # Latencies of all passes are pooled: each pass has its own inputs, so
    # pooling averages over several input sets as well as over time.
    scaled = [x for r in passes for x in scaled_latencies(r)]
    raw = [x for r in passes for x in r["latencies_s"]]
    attempted = sum(r["ops"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    fallbacks = sum(r["fallbacks"] for r in passes)
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_p90_ms": 1000 * _quantile90(scaled),
        "answered_frac": (attempted - failed - fallbacks) / attempted,
        # The first probe runs right after set-up and scales it likewise.
        "setup_s": statistics.median(r["setup_s"] * PROBE_REF_S / r["probes_s"][0] for r in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    info = dict(passes[0]["meta"], passes=len(passes),
                gate={"checks": sum(r["gate"]["checks"] for r in passes), "seconds": gate_s},
                errors=_sum_errors(passes), fallbacks=fallbacks,
                unscaled={"ops_per_s": len(raw) / sum(raw),
                          "latency_p50_ms": 1000 * statistics.median(raw),
                          "latency_p90_ms": 1000 * _quantile90(raw),
                          "setup_s": statistics.median(r["setup_s"] for r in passes)})
    return {k: (metrics[k], u) for k, u in END_TO_END.items()}, attempted, failed, info


def trace(runner: Runner, problems: list[str]) -> tuple[dict, int, int, dict]:
    base = runner.run_pass(0)
    check_pass(base, problems)
    first = runner.run_pass(0, trace=True)
    second = runner.run_pass(0, trace=True)
    for r in (first, second):
        check_pass(r, problems)
        if r["digest"] != base["digest"]:
            problems.append("traced answers differ from untraced answers")
    cold = "fieldcore.build_field_ctx.cold"
    s1 = dict(first["spans"], **{cold: first["ctx_cold"]})
    s2 = dict(second["spans"], **{cold: second["ctx_cold"]})
    counts = sorted(k for k in set(s1) | set(s2) if not k.endswith("_s"))
    for k in counts:
        if s1.get(k) != s2.get(k):
            problems.append(f"count {k} differs between traced runs: {s1.get(k)} vs {s2.get(k)}")
    for name in FIRES[runner.workload]:
        if not s1.get(f"{name}.calls"):
            problems.append(f"span {name} did not fire on {runner.workload}")
    for name in BYPASSES[runner.workload]:
        if s1.get(f"{name}.calls"):
            problems.append(f"span {name} fired on {runner.workload}, which bypasses it")

    values = dict(s1)
    values["nullity.nullity_profile.cache_hits"] = first["profile_cache_hits"]
    self_s = values.get("quadform.brute_force_sum.self_s", 0.0)
    elements = values.get("quadform.brute_force_sum.elements", 0)
    values["quadform.brute_force_sum.elems_per_s"] = elements / self_s if self_s else 0.0
    values["trace.overhead_s"] = sum(scaled_latencies(first)) - sum(scaled_latencies(base))
    metrics = {k: (values.get(k, 0), u) for k, u in per_layer_units().items()}
    info = dict(base["meta"], gate=base["gate"], errors=_sum_errors([first]),
                untraced_timed_s=base["timed_s"], traced_timed_s=first["timed_s"],
                failed_by_span={k: v for k, v in s1.items() if ".failed." in k})
    return metrics, first["ops"], first["failed"], info


def _sum_errors(passes: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in passes:
        for k, v in r["errors"].items():
            out[k] = out.get(k, 0) + v
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quadsums", "__init__.py")):
        print(f"no package sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    problems: list[str] = []
    try:
        if args.trace:
            metrics, attempted, failed, info = trace(runner, problems)
        else:
            metrics, attempted, failed, info = measure(runner, args.seconds, problems)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    lines, digest = src_summary()
    meta = dict(info, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, git_sha=git_sha(), src_digest=digest,
                src_lines=lines, src_lines_definition="wc -l src/quadsums/*.py",
                wall_s=time.monotonic() - runner.started, problems=problems)
    print(json.dumps({"meta": meta}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
