"""Deterministic work gates and byte-identity pins for seeded campaigns.

Work counts (kernel events, processes spawned) are exact for a seed, so
their ceilings catch a regression in kernel chattiness without timing
anything. The pinned digests are ``sha256(report.to_json())`` of fixed
seeded campaigns: host-side speed-ups must leave every simulated byte
and timestamp alone, so these never change unless the simulated
behaviour does.
"""

import hashlib

from repro.experiments.campaign import bandwidth_job, ping_job
from repro.fleet import FleetTestbed

PING_ENDPOINTS = 32
PING_DIGEST = "3f61cfbbbeec48a3288a74e540df74e21694a232a3d892bd826dda1e2ce517aa"
BANDWIDTH_JOBS = 4
BANDWIDTH_DIGEST = "24955f8fe8664e2dd5ccb27bc7923b99d27e3f02f207259c3792ec7fc80ef933"

# Per-job ceilings for the ping campaign, set-up included. The event
# ceiling is the exact count, so any added kernel traffic fails here; a
# process spawned per any_of waiter would put processes near 45 per job.
MAX_PROCESSES_PER_JOB = 12
MAX_EVENTS_PER_JOB = 8726 / PING_ENDPOINTS


def digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def star_ping_campaign(telemetry: bool = False):
    fleet = FleetTestbed(endpoint_count=PING_ENDPOINTS, topology="star", seed=3)
    if telemetry:
        fleet.enable_telemetry()
    jobs = [ping_job(f"ping-{index}", count=3) for index in range(PING_ENDPOINTS)]
    report = fleet.run_campaign(jobs, campaign_name="pin-ping",
                                max_concurrency=PING_ENDPOINTS // 4)
    return fleet, report


def star_bandwidth_campaign():
    fleet = FleetTestbed(endpoint_count=8, topology="star", seed=3)
    jobs = [bandwidth_job(f"bw-{index}", packet_count=20, lead_time=5.0)
            for index in range(BANDWIDTH_JOBS)]
    return fleet.run_campaign(jobs, campaign_name="pin-bw", max_concurrency=2)


def test_star_ping_campaign_report_is_pinned():
    _, report = star_ping_campaign()
    assert report.jobs_completed == PING_ENDPOINTS
    assert digest(report) == PING_DIGEST


def test_star_bandwidth_campaign_report_is_pinned():
    report = star_bandwidth_campaign()
    assert report.jobs_completed == BANDWIDTH_JOBS
    assert digest(report) == BANDWIDTH_DIGEST


def test_ping_campaign_work_per_job():
    fleet, report = star_ping_campaign(telemetry=True)
    # Telemetry observes; it must not change the simulation.
    assert digest(report) == PING_DIGEST
    metrics = fleet.sim.obs.metrics
    procs = metrics.total("kernel.processes_spawned") / PING_ENDPOINTS
    events = metrics.total("kernel.events") / PING_ENDPOINTS
    assert procs <= MAX_PROCESSES_PER_JOB
    assert events <= MAX_EVENTS_PER_JOB
