"""Layer-attributed benchmark of the PacketLab reproduction.

Usage, from the repository root:

    python3 perfbench/run.py --workload ping-star --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload (same seed, fresh program state each
time) for about ``--seconds`` seconds and reports the end-to-end metrics
of BENCHMARK.json: ``setup_s`` as the median over the repetitions, the
other host-time figures (``jobs_per_s``, each query's latency, the
ingest) from their best over the repetitions. ``--trace 1`` runs the
workload once plain and once under cProfile with telemetry on, and
reports the per-layer metrics. Every run checks the program's outputs
and exits 1 if any check fails. The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3
MAX_MEASURE_S = 120.0  # stay inside the 180 s limit whatever --seconds says


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def contract_metrics(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def emit(kind: str, values: dict, attempted: int, failed: int) -> None:
    """Print the table and the result line for the metrics of ``kind``.

    Only runs whose checks all passed get here; a failed check exits
    before printing a result.
    """
    metrics = {}
    for spec in contract_metrics(kind):
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<40} {value:>16.6g} {spec['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(workload, seconds: float) -> list:
    """Fresh repetitions until the next one would overrun ``seconds``."""
    from workloads import CheckFailed

    reps = []
    began = time.perf_counter()
    while True:
        gc.collect()
        rep = workload.run_once()
        if reps and rep.exact != reps[0].exact:
            first = reps[0]
            raise CheckFailed(
                f"repetition {len(reps)} of seed {workload.seed} "
                f"differs from the first ({rep.digest[:12]} vs "
                f"{first.digest[:12]})")
        reps.append(rep)
        elapsed = time.perf_counter() - began
        if elapsed >= MAX_MEASURE_S:
            break
        if (len(reps) >= MIN_REPS
                and elapsed + elapsed / len(reps) > seconds):
            break
    return reps


def end_to_end(workload, seconds: float) -> int:
    from workloads import percentile

    reps = repeat(workload, seconds)
    last = reps[-1]
    # This shared host slows down in spells of under a second to minutes
    # (see NOTES.md). Interference only ever adds time, so a host time is
    # its best over the repetitions. The measured phase is split into
    # parts that do the same work every time, and its time is the sum of
    # every part's best: a short slow spell then spoils one part of one
    # repetition, not the whole phase. Simulated figures are equal in
    # every repetition anyway.
    work_s = sum(min(times) for times in zip(*(r.parts_s for r in reps)))
    best = [min(times) for times in zip(*(r.job_s for r in reps))]
    if workload.host_timed_jobs:
        makespan_s = min(r.ingest_s for r in reps) + work_s
    else:
        makespan_s = last.makespan_s
    values = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "jobs_per_s": last.jobs / work_s,
        "job_p50_s": percentile(best, 0.50),
        "job_p90_s": percentile(best, 0.90),
        "makespan_s": makespan_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"{workload.name} seed={workload.seed}: {len(reps)} repetitions, "
          f"{last.jobs}/{last.attempted} done, failed_frac="
          f"{last.failed / last.attempted:g}, report sha256 {last.digest}")
    for key in sorted(last.extra):
        value = statistics.fmean(r.extra[key] for r in reps)
        print(f"  {key:<40} {value:>16.6g}")
    emit("end_to_end", values, last.attempted, last.failed)
    return 0


def traced(workload) -> int:
    from layers import LAYERS, OTHER, TraceProbe
    from workloads import CheckFailed, percentile

    gc.collect()
    plain = workload.run_once()
    probe = TraceProbe()
    gc.collect()
    with probe.counts.installed():
        rep = workload.run_once(probe)
    if rep.digest != plain.digest:
        raise CheckFailed(f"traced report {rep.digest[:12]} differs from "
                          f"untraced {plain.digest[:12]}")

    self_s = probe.layer_self_s()
    wall = probe.wall_s
    values = {f"{layer}.self_s": self_s[layer] for layer in LAYERS
              if layer != "warehouse"}
    query = probe.phase_stats.get("query", {}).get("warehouse", 0.0)
    values["warehouse.ingest_self_s"] = self_s["warehouse"] - query
    values["warehouse.query_self_s"] = query
    values["other.self_s"] = wall - sum(
        seconds for layer, seconds in self_s.items() if layer != OTHER)

    jobs = rep.jobs
    per_job = {
        "netsim.kernel.events_per_job": "kernel.events",
        "netsim.kernel.procs_per_job": "kernel.processes_spawned",
        "netsim.links.tx_per_job": "links.tx",
        "netsim.links.bytes_per_job": "links.bytes_sent",
        "netsim.node.route_lookups_per_job": "route_lookups",
        "netsim.stack.tcp_segments_per_job": "tcp_segments",
        "packet.checksums_per_job": "checksums",
        "packet.checksum_bytes_per_job": "checksum_bytes",
        "packet.codec_calls_per_job": "codec_calls",
        "proto.messages_per_job": "messages",
        "controller.rpcs_per_job": "controller.rpcs",
        "endpoint.captured_per_job": "endpoint.captured",
        "filtervm.invocations_per_job": "filtervm.invocations",
        "filtervm.instructions_per_job": "filtervm.instructions",
    }
    totals = probe.totals()
    for name, key in per_job.items():
        values[name] = totals[key] / jobs
    rpcs = probe.counts.rpc_sim_s
    values.update({
        "controller.rpc_sim_p50_s": percentile(rpcs, 0.5) if rpcs else 0.0,
        "endpoint.capture_dropped": totals["endpoint.capture_dropped"],
        "filtervm.verifies": totals["filtervm.verify_ok"]
        + totals["filtervm.verify_rejected"],
        "crypto.sig_verifies": totals["sig_verifies"],
        "fleet.admission_wait_sim_p50_s":
            rep.extra.get("admission_wait_p50_s", 0.0),
        "fleet.retries": rep.extra.get("retries", 0),
        "warehouse.bytes_written": rep.extra.get("bytes_written", 0),
        "warehouse.segments_scanned": rep.extra.get("segments_scanned", 0),
        "warehouse.pruned_frac": rep.extra.get("pruned_frac", 0.0),
        "trace.overhead": wall / plain.wall_s,
    })

    print(f"{workload.name} seed={workload.seed}: traced {wall:.3f} s, "
          f"untraced {plain.wall_s:.3f} s, report sha256 {rep.digest} "
          "(same traced and untraced)")
    table = dict(self_s, other=values["other.self_s"])
    print(f"  {'layer':<16} {'self_s':>10} {'share':>7}")
    for layer in sorted(table, key=lambda name: -table[name]):
        print(f"  {layer:<16} {table[layer]:>10.4f} "
              f"{table[layer] / wall:>7.1%}")
    print(f"  {'sum':<16} {sum(table.values()):>10.4f} {1:>7.1%}")
    emit("per_layer", values, rep.attempted, rep.failed)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, CheckFailed, make_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        workload = make_workload(args.workload, args.seed, scratch)
        if args.trace:
            return traced(workload)
        return end_to_end(workload, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
