"""The four benchmark workloads: seeded inputs, one timed repetition, checks.

A workload object is built once per run from the seed; ``run_once`` then
performs one complete repetition (set-up, measured phase, output checks)
and returns a :class:`Rep`. Repetitions of one seed must agree exactly:
the caller compares their digests and simulated-time figures.

Campaign workloads drive :class:`~repro.fleet.FleetTestbed` through its
public ``run_campaign``; the set-up and job phases are bracketed by
wrapping ``EndpointPool.populate`` and ``CampaignScheduler.run``, and each
job's simulated duration by wrapping its ``CampaignJob.run``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.cpf import figure2_monitor
from repro.crypto import keys
from repro.crypto.certificate import Restrictions
from repro.experiments.campaign import bandwidth_job, ping_job, traceroute_job
from repro.fleet import CampaignScheduler, EndpointPool, FleetTestbed
from repro.fleet.aggregate import QuantileSketch
from repro.warehouse import Query, Warehouse, build_rollups, rollup_percentiles

ACCESS_BPS = 10e6  # FleetTestbed's default access-link rate


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Rep:
    """One repetition's figures.

    ``job_s`` (each job's latency, in a fixed job order) and
    ``makespan_s`` are in the workload's own time base: simulated seconds
    for a campaign (exact for a seed), host seconds for the warehouse.
    ``parts_s`` splits the host time of the measured phase into parts that
    do the same work in every repetition: the stretches between job
    completions of a campaign, the queries of the warehouse.
    """

    wall_s: float  # host seconds of the whole repetition
    setup_s: float
    parts_s: list[float]
    jobs: int  # completed jobs (campaign) or queries (warehouse)
    attempted: int
    failed: int
    job_s: list[float]
    makespan_s: float
    digest: str
    # What every repetition of one seed must reproduce exactly.
    exact: tuple = ()
    extra: dict = field(default_factory=dict)
    ingest_s: float = 0.0  # warehouse only: host seconds of the ingest


class NullProbe:
    """Phase hooks; the traced run substitutes a recording probe."""

    @contextmanager
    def phase(self, name: str):
        yield

    def testbed_built(self, fleet) -> None:
        pass


# -- campaigns ---------------------------------------------------------------


@dataclass
class Outcome:
    """A job's successful attempt, as seen from its wrapped ``run``."""

    job: str
    endpoint: str
    dispatched: float  # simulated seconds
    finished: float
    result: object
    host_finished: float  # host perf_counter() seconds


@contextmanager
def _brackets(marks: dict[str, float]):
    """Stamp host time when ``EndpointPool.populate`` returns and around
    ``CampaignScheduler.run``."""
    populate, run = EndpointPool.populate, CampaignScheduler.run

    def populate_bracketed(self, *args, **kwargs):
        count = yield from populate(self, *args, **kwargs)
        marks["populated"] = time.perf_counter()
        return count

    def run_bracketed(self):
        marks["jobs_start"] = time.perf_counter()
        report = yield from run(self)
        marks["jobs_end"] = time.perf_counter()
        return report

    EndpointPool.populate = populate_bracketed
    CampaignScheduler.run = run_bracketed
    try:
        yield
    finally:
        EndpointPool.populate = populate
        CampaignScheduler.run = run


def _timed(job, outcomes: list[Outcome]):
    """Record the simulated dispatch-to-result time of ``job``."""
    run = job.run

    def run_timed(handle, ctx):
        dispatched = ctx.sim.now
        result = yield from run(handle, ctx)
        outcomes.append(Outcome(job.name, handle.endpoint_name, dispatched,
                                ctx.sim.now, result, time.perf_counter()))
        return result

    job.run = run_timed
    return job


class CampaignWorkload:
    """A closed-loop campaign: ``slots`` concurrent jobs, by default one
    per endpoint."""

    host_timed_jobs = False  # job latencies are simulated seconds
    topology = "star"
    fanout = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @property
    def jobs(self) -> int:
        return self.endpoints

    @property
    def slots(self) -> int:
        # A quarter of the jobs (256 slots for 1k jobs), so each slot runs
        # four jobs in turn and the closed loop shapes the load.
        return self.jobs // 4

    def make_job(self, index: int):
        raise NotImplementedError

    def restrictions(self) -> Optional[Restrictions]:
        return None

    def check(self, report, outcomes: list[Outcome], fleet) -> None:
        """Workload-specific output checks."""

    def run_once(self, probe=None) -> Rep:
        probe = probe or NullProbe()
        marks: dict[str, float] = {}
        outcomes: list[Outcome] = []
        restrictions = self.restrictions()
        jobs = [_timed(self.make_job(index), outcomes)
                for index in range(self.jobs)]
        # Each repetition stands for a fresh controller process: forget
        # the signature verifications an earlier repetition memoized.
        keys._VERIFY_CACHE.clear()
        with _brackets(marks), probe.phase("campaign"):
            started = time.perf_counter()
            fleet = FleetTestbed(
                endpoint_count=self.endpoints, topology=self.topology,
                fanout=self.fanout, seed=self.seed,
            )
            probe.testbed_built(fleet)
            report = fleet.run_campaign(
                jobs, campaign_name=self.name, max_concurrency=self.slots,
                experiment_restrictions=restrictions,
            )
            ended = time.perf_counter()

        report_json = report.to_json()
        check(report.jobs_total == len(jobs),
              f"report counts {report.jobs_total} jobs, expected {len(jobs)}")
        check(report.jobs_completed + report.jobs_failed == report.jobs_total,
              "a job ended in no terminal state: completed "
              f"{report.jobs_completed} + failed {report.jobs_failed} != "
              f"total {report.jobs_total}")
        check(len(outcomes) == report.jobs_completed,
              f"{len(outcomes)} job results for {report.jobs_completed} "
              "completed jobs")
        self.check(report, outcomes, fleet)

        durations = [o.finished - o.dispatched
                     for o in sorted(outcomes, key=lambda o: o.job)]
        # Jobs complete in the same order in every repetition of a seed.
        stamps = ([marks["jobs_start"]] + [o.host_finished for o in outcomes]
                  + [marks["jobs_end"]])
        waits = [o.dispatched - report.started for o in outcomes]
        return Rep(
            wall_s=ended - started,
            setup_s=marks["populated"] - started,
            parts_s=[b - a for a, b in zip(stamps, stamps[1:])],
            jobs=report.jobs_completed,
            attempted=report.jobs_total,
            failed=report.jobs_failed,
            job_s=durations,
            makespan_s=report.makespan,
            digest=digest(report_json),
            exact=(digest(report_json), durations, report.makespan),
            extra={"retries": report.retries,
                   "admission_wait_p50_s": percentile(waits, 0.50)},
        )


class PingStar(CampaignWorkload):
    name = "ping-star"
    endpoints = 256

    def make_job(self, index: int):
        return ping_job(f"ping-{index}", count=3)

    def check(self, report, outcomes, fleet) -> None:
        counters = report.aggregator.total.counters.to_dict()
        check(counters.get("probes_lost", -1) == 0,
              f"ping-star lost probes: {counters}")
        check(counters.get("probes_sent") == 3 * self.jobs,
              f"ping-star sent {counters.get('probes_sent')} probes")


class TracerouteTree(CampaignWorkload):
    name = "traceroute-tree"
    topology = "tree"
    # 160 endpoints hang off 20 fanout-8 leaf routers: 8 reach the target
    # in 2 hops, 56 in 4 and 96 in 6, so the p50 and p90 job durations
    # fall inside the 6-hop class instead of on a class boundary.
    endpoints = 160

    def make_job(self, index: int):
        return traceroute_job(f"trace-{index}")

    def restrictions(self) -> Restrictions:
        return Restrictions(monitor=figure2_monitor(corrected=True).encode())

    def check(self, report, outcomes, fleet) -> None:
        counters = report.aggregator.total.counters.to_dict()
        check(counters.get("destinations_reached") == report.jobs_total,
              f"traceroute-tree reached {counters.get('destinations_reached')}"
              f" of {report.jobs_total} destinations")
        for outcome in outcomes:
            # path_to lists both ends; a traceroute reports every hop
            # after the source, the destination included.
            expected = len(fleet.net.path_to(outcome.endpoint,
                                             fleet.target_host)) - 1
            hops = len(outcome.result.hops)
            check(hops == expected,
                  f"{outcome.job} on {outcome.endpoint}: {hops} hops, "
                  f"topology path has {expected}")


class BulkBandwidth(CampaignWorkload):
    name = "bulk-bw"
    # 16 jobs; the spare endpoints give set-up enough work to time.
    endpoints = 128
    jobs = 16
    datagrams = 200
    payload = 1000
    # 200 awaited nsend round trips must reach the endpoint before the
    # block's send time. They take up to 7.6 s here, so the 0.5 s default
    # leaves no room, and 20 s leaves a 2.6x margin (see NOTES.md).
    lead_time = 20.0

    def make_job(self, index: int):
        return bandwidth_job(f"bw-{index}", packet_count=self.datagrams,
                             payload_size=self.payload,
                             lead_time=self.lead_time)

    def check(self, report, outcomes, fleet) -> None:
        check(len(outcomes) == report.jobs_total,
              f"bulk-bw measured {len(outcomes)} of {report.jobs_total} "
              "uplinks")
        for outcome in outcomes:
            result = outcome.result
            check(result.packets_received == self.datagrams,
                  f"{outcome.job}: {result.packets_received} of "
                  f"{self.datagrams} datagrams arrived")
            error = abs(result.measured_bps - ACCESS_BPS) / ACCESS_BPS
            check(error <= 0.01,
                  f"{outcome.job} on {outcome.endpoint}: measured "
                  f"{result.measured_bps:.0f} b/s, access rate "
                  f"{ACCESS_BPS:.0f} b/s")


# -- warehouse ---------------------------------------------------------------


class WarehouseScan:
    """Ingest seeded sample rows into a fresh warehouse, then query it."""

    name = "warehouse-scan"
    host_timed_jobs = True  # query latencies are host seconds
    rows = 30_000
    endpoints = 64
    segments = 32
    queries = 100
    streams = ("rtt_s", "hop_rtt_s", "uplink_s")
    campaign = "scan"
    # Query mix by latency class, fastest first (30 % rollups, 55 %
    # selective, 15 % full scans): the p50 lands inside the selective
    # class and the p90 inside the full scans, away from class boundaries.
    mix = ("rollup",) * 6 + ("selective",) * 11 + ("full",) * 3

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        rng = random.Random(seed ^ 0x5EED)
        kinds = [self.mix[i % len(self.mix)] for i in range(self.queries)]
        rng.shuffle(kinds)
        self.plan = []
        for kind in kinds:
            if kind == "selective":
                first = rng.randrange(self.endpoints - self.endpoints // 4)
                self.plan.append((kind, {
                    "lo": f"ep{first:03d}",
                    "hi": f"ep{first + self.endpoints // 4:03d}",
                    "stream": rng.choice(self.streams),
                }))
            elif kind == "full":
                self.plan.append((kind, {"fn": rng.choice(("p50", "p90",
                                                           "p99"))}))
            else:
                self.plan.append((kind, {"stream": rng.choice(self.streams)}))
        self._reference: Optional[list] = None

    def generate_rows(self) -> list[dict]:
        """Endpoint-partitioned rows: each endpoint owns a value band, so
        zone maps make endpoint predicates prunable."""
        rng = random.Random(self.seed)
        per_endpoint = self.rows // self.endpoints
        rows = []
        for ep in range(self.endpoints):
            endpoint = f"ep{ep:03d}"
            base = 0.010 + ep * 0.002
            for k in range(per_endpoint):
                rows.append({
                    "campaign": self.campaign, "job": f"job-{ep}-{k % 50}",
                    "endpoint": endpoint,
                    "stream": self.streams[rng.randrange(len(self.streams))],
                    "seq": len(rows), "value": base + rng.random() * 0.004,
                })
        return rows

    def _query(self, warehouse: Warehouse, kind: str, args: dict):
        if kind == "selective":
            result = (Query(warehouse, "samples")
                      .where("endpoint", ">=", args["lo"])
                      .where("endpoint", "<", args["hi"])
                      .where("stream", "==", args["stream"])
                      .group_by("endpoint")
                      .agg(n="count", p99=("p99", "value"))
                      .run())
            return result.rows, result.stats
        if kind == "full":
            result = (Query(warehouse, "samples")
                      .group_by("stream")
                      .agg(n="count", mean=("mean", "value"),
                           q=(args["fn"], "value"))
                      .run())
            return result.rows, result.stats
        return rollup_percentiles(warehouse, self.campaign,
                                  args["stream"]), None

    def run_once(self, probe=None) -> Rep:
        probe = probe or NullProbe()
        directory = os.path.join(self.scratch, "warehouse")
        shutil.rmtree(directory, ignore_errors=True)
        answers, latencies = [], []
        scanned = pruned = total = 0
        with probe.phase("load"):
            started = time.perf_counter()
            rows = self.generate_rows()
            warehouse = Warehouse(directory)
            loaded = time.perf_counter()
            writer = warehouse.begin_campaign(
                self.campaign, segment_rows=self.rows // self.segments)
            writer.add_rows("samples", rows)
            writer.commit(close=True)
            build_rollups(warehouse, self.campaign)
            ingested = time.perf_counter()
        with probe.phase("query"):
            for kind, args in self.plan:
                began = time.perf_counter()
                answer, stats = self._query(warehouse, kind, args)
                latencies.append(time.perf_counter() - began)
                answers.append(answer)
                if stats is not None:
                    total += stats.segments_total
                    pruned += stats.segments_pruned
                    scanned += stats.segments_scanned
            ended = time.perf_counter()
        written = sum(os.path.getsize(os.path.join(base, name))
                      for base, _, names in os.walk(directory)
                      for name in names)
        shutil.rmtree(directory, ignore_errors=True)

        self.check(answers, rows)
        answers_digest = digest(json.dumps(answers, sort_keys=True))
        return Rep(
            wall_s=ended - started,
            setup_s=loaded - started,
            parts_s=latencies,
            jobs=len(answers),
            attempted=len(self.plan),
            failed=0,
            job_s=latencies,
            makespan_s=ended - loaded,
            digest=answers_digest,
            exact=(answers_digest,),
            ingest_s=ingested - loaded,
            extra={"ingest_rows_per_s": len(rows) / (ingested - loaded),
                   "bytes_written": written,
                   "segments_scanned": scanned,
                   "pruned_frac": pruned / total},
        )

    # -- brute force --------------------------------------------------------

    def check(self, answers: list, rows: list[dict]) -> None:
        """Every answer equals a recomputation over the generated rows."""
        if self._reference is None:
            self._reference = self._brute_force(rows)
        check(len(answers) == len(self._reference),
              f"{len(answers)} answers for {len(self._reference)} queries")
        for index, (got, want) in enumerate(zip(answers, self._reference)):
            check(_close(got, want),
                  f"query {index} {self.plan[index]}: warehouse answered "
                  f"{got!r}, recomputation gives {want!r}")

    def _brute_force(self, rows: list[dict]) -> list:
        def sketch(values):
            sk = QuantileSketch()
            sk.extend(values)
            return sk

        reference = []
        for kind, args in self.plan:
            if kind == "selective":
                groups: dict[str, list[float]] = {}
                for row in rows:
                    if (args["lo"] <= row["endpoint"] < args["hi"]
                            and row["stream"] == args["stream"]):
                        groups.setdefault(row["endpoint"], []).append(
                            row["value"])
                reference.append([
                    {"endpoint": name, "n": len(values),
                     "p99": sketch(values).quantile(0.99)}
                    for name, values in sorted(groups.items())
                ])
            elif kind == "full":
                groups = {}
                for row in rows:
                    groups.setdefault(row["stream"], []).append(row["value"])
                q = {"p50": 0.50, "p90": 0.90, "p99": 0.99}[args["fn"]]
                reference.append([
                    {"stream": name, "n": len(values),
                     "mean": sum(values) / len(values),
                     "q": sketch(values).quantile(q)}
                    for name, values in sorted(groups.items())
                ])
            else:
                values = [row["value"] for row in rows
                          if row["stream"] == args["stream"]]
                sk = sketch(values)
                reference.append({f"p{q * 100:g}": sk.quantile(q)
                                  for q in (0.5, 0.9, 0.99)})
        return reference


def _close(got, want) -> bool:
    """Structural equality; floats within 1e-9 relative (summation order)."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[key], want[key]) for key in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(a, b) for a, b in zip(got, want)))
    return got == want


WORKLOADS = {
    cls.name: cls
    for cls in (PingStar, TracerouteTree, BulkBandwidth, WarehouseScan)
}


def make_workload(name: str, seed: int, scratch: str):
    cls = WORKLOADS[name]
    if cls is WarehouseScan:
        return cls(seed, scratch)
    return cls(seed)
