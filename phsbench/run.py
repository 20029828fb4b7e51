#!/usr/bin/env python3
"""phs benchmark: one workload, measured for a fixed time, checked for
correctness.

    python3 phsbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the repository root; phs is imported from ``src/``.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
separate run records spans around the calls into each phs module and
reports the per-layer metrics, plus the tracing overhead against untraced
jobs of the same run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit, and the run's
metadata.  Spans and a full result record are written under
``.phsbench_out/``.  See phsbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".phsbench_out"
# Expected outputs of the reference seed, per workload (workloads.REFERENCE_SEED).
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread (at most nproc): the matrices are tiny and a
# single thread keeps the timings steady on a shared machine.
BLAS_THREADS = "1"
# Share of the measured window given to jobs; latency segments get the rest.
JOB_SHARE = {"campaign": 0.4, "sim-network": 0.7, "sim-string": 0.7}

# simulator.setup.self_s leaves out these spans below phs.setup.
SETUP_CHILDREN = {"classifier.classify", "classifier.diagonalize_field"}

RHS_NOTE = ("simulator.rhs.flops_computed and simulator.rhs.bytes_computed are "
            "computed from array shapes, not measured")

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_systems_per_s": "1/s",
    "classify_p50_ms": "ms",
    "classify_p99_ms": "ms",
    "sim_wall_s": "s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "cell_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("campaign", "sim-network", "sim-string"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy as np
    import scipy

    import phs

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phs").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "phs_file": str(Path(phs.__file__).relative_to(ROOT)),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loop": "closed loop, one caller, one process",
    }


def end_to_end(workload, jobs, gauge) -> tuple[dict, dict]:
    """The end-to-end metrics from gauge-scaled timings (README.md); the
    unscaled ones are kept in the record.  p50 pools all samples of a kind;
    p99 is the median over segments of each segment's p99."""
    import numpy as np

    from gauge import NOMINAL_S
    from workloads import median

    ok = [j for j in jobs if not j.get("failed")]

    def pooled(arrays):
        return np.concatenate(arrays) if arrays else np.empty(0)

    tables = {"scaled": gauge.scale,
              "raw": lambda samples: np.asarray([d for _, d in samples], dtype=float)}
    out = {}
    for label, timed in tables.items():
        walls = [float(timed(j["parts"]).sum()) for j in ok]
        stepping = sum(float(timed(j["stepping"]).sum()) for j in ok)
        segments = {kind: [timed(seg) * 1e3 for seg in segs if seg]
                    for kind, segs in workload.samples.items()}

        def p50(kind):
            samples = pooled(segments[kind])
            return float(np.percentile(samples, 50)) if samples.size else math.nan

        def p99(kind):
            return median([float(np.percentile(seg, 99)) for seg in segments[kind]])

        out[label] = {
            "setup_s": median(list(pooled(segments["setup"]) / 1e3)),
            "campaign_systems_per_s": sum(j["systems"] for j in ok) / sum(walls) if ok else math.nan,
            "classify_p50_ms": p50("classify"),
            "classify_p99_ms": p99("classify"),
            "sim_wall_s": sum(walls) / len(walls) if walls else math.nan,
            "step_p50_ms": p50("step"),
            "step_p99_ms": p99("step"),
            "cell_updates_per_s": sum(j["components"] for j in ok) / stepping if ok else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    kernel = np.asarray(gauge.kernel_s)  # at least the two forced readings
    samples = {kind: {"segments": len(segs), "samples": sum(map(len, segs)),
                      "min_per_segment": min(map(len, segs), default=0),
                      "min_beyond_p99_per_segment": min(map(len, segs), default=0) // 100}
               for kind, segs in workload.samples.items()}
    samples["jobs"] = len(ok)
    samples["gauge_readings"] = int(kernel.size)
    gauge_info = {"nominal_s": NOMINAL_S, "kernel_s_median": float(np.median(kernel)),
                  "kernel_s_min": float(kernel.min()), "kernel_s_max": float(kernel.max()),
                  "spent_s": gauge.spent}
    segment_p99 = {kind: [float(np.percentile(gauge.scale(seg), 99)) * 1e3 for seg in segs if seg]
                   for kind, segs in workload.samples.items() if kind != "setup"}
    return out["scaled"], {"samples": samples, "unscaled": out["raw"], "gauge": gauge_info,
                           "segment_p99_ms": segment_p99}


def per_layer(table, untraced, traced_jobs, gauge) -> dict:
    """Per-layer metrics from the traced jobs' spans; see README.md.  Span
    times are not scaled; the tracing overhead compares scaled job times."""
    traced_jobs = [j for j in traced_jobs if not j.get("failed")]
    untraced = [j for j in untraced if not j.get("failed")]
    systems = sum(j["systems"] for j in traced_jobs) or 1
    steps = table.calls.get("simulator.step", 0)
    records = sum(j.get("records", 0) for j in traced_jobs)
    rhs_calls = table.calls.get("simulator.rhs", 0)
    sim_time = table.total.get("simulator.setup", 0.0) + table.total.get("simulator.step", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_system(name):
        return table.calls.get(name, 0) / systems

    def walls(js):
        return [float(gauge.scale(j["parts"]).sum()) for j in js]

    def mean_wall(js):
        return sum(walls(js)) / len(js) if js else math.nan

    def rate(js):
        seconds = sum(walls(js))
        return sum(j["systems"] for j in js) / seconds if seconds else math.nan

    return {
        "model.validate_system.ms": (table.mean("model.validate_system") * 1e3, "ms"),
        "model.validate_system.calls": (per_system("model.validate_system"), "count"),
        "model.eval_many.points": (table.work("model.eval_many", "points") / systems, "count"),
        "model.load_system.ms": (table.mean("model.load_system") * 1e3, "ms"),
        "classifier.classify.ms": (table.mean("classifier.classify") * 1e3, "ms"),
        "classifier.direct_sum_check.ms": (table.mean("classifier.direct_sum_check") * 1e3, "ms"),
        "classifier.compute_wb.calls_per_system": (per_system("classifier.compute_wb"), "count"),
        "classifier.check_contraction.calls_per_system":
            (per_system("classifier.check_contraction"), "count"),
        "classifier.eigensplit.calls_per_system": (per_system("classifier.eigensplit"), "count"),
        "classifier.diagonalize_field.s": (table.mean("classifier.diagonalize_field"), "s"),
        "classifier.diagonalize_field.points":
            (ratio(table.work("classifier.diagonalize_field", "points"),
                   table.calls.get("classifier.diagonalize_field", 0)), "count"),
        "classifier.eigensplit.us": (table.mean("classifier.eigensplit") * 1e6, "us"),
        "oracle.random_system.ms": (table.mean("oracle.random_system") * 1e3, "ms"),
        "oracle.check_contraction_via_c.ms": (table.mean("oracle.check_contraction_via_c") * 1e3, "ms"),
        "oracle.boundary_form_on_kernel.ms": (table.mean("oracle.boundary_form_on_kernel") * 1e3, "ms"),
        "oracle.kernel_basis.calls_per_system": (per_system("oracle.kernel_basis"), "count"),
        "oracle.agreement_campaign.self_s": (table.mean_self("oracle.agreement_campaign"), "s"),
        "simulator.setup.s": (table.mean("simulator.setup"), "s"),
        "simulator.setup.self_s":
            (table.mean_without("simulator.setup", SETUP_CHILDREN), "s"),
        "simulator.step.ms": (table.mean("simulator.step") * 1e3, "ms"),
        "simulator.step.self_ms": (table.mean_self("simulator.step") * 1e3, "ms"),
        "simulator.rhs.ms": (table.mean("simulator.rhs") * 1e3, "ms"),
        "simulator.rhs.calls_per_step":
            (ratio(table.count_below("simulator.rhs", "simulator.step", direct=True), steps), "count"),
        "simulator.rhs.flops_computed": (ratio(table.work("simulator.rhs", "flops"), rhs_calls), "flop"),
        "simulator.rhs.bytes_computed": (ratio(table.work("simulator.rhs", "bytes"), rhs_calls), "B"),
        "simulator.close.us": (table.mean("simulator.close") * 1e6, "us"),
        "simulator.close.calls_per_step":
            (ratio(table.count_below("simulator.close", "simulator.step", direct=True), steps), "count"),
        "simulator.energy.ms": (table.mean("simulator.energy") * 1e3, "ms"),
        "simulator.lp_norm.ms": (table.mean("simulator.lp_norm") * 1e3, "ms"),
        "simulator.x.calls_per_record":
            (ratio(table.count_below("simulator.x", "simulator.record"), records), "count"),
        "simulator.record.share": (ratio(table.total.get("simulator.record", 0.0), sim_time), "ratio"),
        "trace.overhead.sim_wall_s":
            (mean_wall(traced_jobs) - mean_wall(untraced), "s"),
        "trace.overhead.campaign_systems_per_s": (rate(traced_jobs) - rate(untraced), "1/s"),
    }


def _run_window(workload, until: float, job_share: float, first_job: int = 0) -> list[dict]:
    """Alternate jobs and latency segments until ``until``, giving jobs
    ``job_share`` of the time; at least one job and one segment of each kind
    run.  Segments rotate over the workload's kinds, so that each kind is
    sampled across the whole window."""
    from workloads import clock

    kinds = workload.latency_kinds if job_share < 1.0 else ()
    jobs: list[dict] = []
    segments = 0
    segment_time = 0.0
    start = clock()
    while True:
        now = clock()
        owed = segments < len(kinds)
        if jobs and now >= until and not owed:
            return jobs
        if jobs and kinds and (owed and now >= until
                               or segment_time < (1.0 - job_share) * (now - start)):
            workload.segment(kinds[segments % len(kinds)])
            segments += 1
            segment_time += clock() - now
        else:
            jobs.append(workload.job(first_job + len(jobs)))


def measure(args) -> tuple[dict, dict]:
    from gauge import Gauge
    from tracing import SpanTable, Tracer, leftover_wrappers
    from workloads import clock, make_workload

    leftover = leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")
    gauge = Gauge()
    reference = json.loads(REFERENCE_PATH.read_text())[args.workload]
    workload = make_workload(args.workload, ROOT, args.seed, reference, gauge)
    workload.prepare()
    gauge.tick(force=True)
    start = clock()
    record: dict = {}
    if args.trace:
        untraced = _run_window(workload, start + args.seconds / 2, 1.0)
        with Tracer() as tracer:
            traced = _run_window(workload, start + args.seconds, 1.0, len(untraced))
        gauge.tick(force=True)
        leftover = leftover_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers survived the traced run: {leftover}")
        workload.finish()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        table = SpanTable(tracer)
        metrics = per_layer(table, untraced, traced, gauge)
        record["untraced_jobs"] = len(untraced)
        record["traced_jobs"] = len(traced)
        record["spans"] = len(tracer.spans)
        record["untraced_targets"] = tracer.missing
        record["calls"] = table.calls
    else:
        jobs = _run_window(workload, start + args.seconds, JOB_SHARE[args.workload])
        gauge.tick(force=True)
        workload.finish()
        values, stats = end_to_end(workload, jobs, gauge)
        record |= stats
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    record["measured_s"] = clock() - start
    record["outputs"] = workload.result_values()
    record["failures"] = workload.outcome.reasons[:50]
    return metrics, record | {"attempted": workload.outcome.attempted,
                              "failed": workload.outcome.failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "phs" / "__init__.py").is_file():
        print(f"phsbench: no phs sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

    meta = metadata(args)
    metrics, record = measure(args)
    meta["samples"] = record.get("samples")
    if args.trace:
        meta["note"] = RHS_NOTE

    attempted, failed = record["attempted"], record["failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(f"{'failed_fraction':48s} {failed / max(attempted, 1):16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for reason in record["failures"]:
        print(f"FAILED: {reason}")
    if args.trace:
        print(f"# {RHS_NOTE}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "record": record, "result": result,
                                    "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
                                   indent=1, default=str))
    print("# meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
