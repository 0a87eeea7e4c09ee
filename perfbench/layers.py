"""Per-layer attribution for the traced run.

Three sources, all read from outside the program:

- **Self time** from stdlib :mod:`cProfile`, grouped by ``src/repro``
  module into layers. Time in the stdlib, builtins and shared helpers
  (``repro.util.byteio``) is charged to the repro layer that called it,
  following the profile's caller edges. Time in the benchmark's own code
  is charged to ``other``, as is whatever the profile does not cover, so
  the layer times sum to the traced wall time.
- **Work counts** from the program's obs counters (switched on with
  ``FleetTestbed.enable_telemetry``) and from counting wrappers around a
  few hot functions that have no counter. Both cover the whole traced
  run, set-up included; the kernel only flushes its event count when
  ``Simulator.run`` returns, so a job-phase-only count is not available
  from outside.
- **Simulated RPC latency** from wrappers around the ``EndpointHandle``
  Table 1 command generators.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
import sys
import time
from contextlib import contextmanager

from repro.controller.client import EndpointHandle
from repro.netsim.node import Node
from repro.netsim.stack.tcp import TcpConnection
from repro.packet.icmp import IcmpMessage
from repro.packet.ipv4 import IPv4Packet
from repro.packet.tcp import TcpSegment
from repro.packet.udp import UdpDatagram
from repro.proto.messages import Message

# Layer name -> module prefixes under src/repro. Longest prefix wins.
LAYERS = {
    "netsim.kernel": ("repro.netsim.kernel",),
    "netsim.links": ("repro.netsim.links", "repro.netsim.faults",
                     "repro.netsim.trace"),
    "netsim.node": ("repro.netsim.node", "repro.netsim.topology",
                    "repro.netsim.nat", "repro.netsim.clock"),
    "netsim.stack": ("repro.netsim.stack",),
    "util.inet": ("repro.util.inet",),
    "packet": ("repro.packet",),
    "proto": ("repro.proto",),
    "controller": ("repro.controller", "repro.experiments"),
    "endpoint": ("repro.endpoint",),
    "filtervm": ("repro.filtervm", "repro.cpf"),
    "crypto": ("repro.crypto",),
    "rendezvous": ("repro.rendezvous",),
    "fleet": ("repro.fleet", "repro.core", "repro.util.retry"),
    "warehouse": ("repro.warehouse",),
    "obs": ("repro.obs",),
}
# Helpers with no layer of their own: charged to their callers.
SHARED = ("repro.util.byteio",)
OTHER = "other"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items()
     for prefix in prefixes),
    key=lambda item: -len(item[0]),
)

# The Table 1 commands; nopen_raw/udp/tcp and read_clock go through these.
RPC_METHODS = ("nopen", "nclose", "nsend", "ncap", "npoll", "mread", "mwrite")
CODECS = [(cls, name) for cls in (IPv4Packet, TcpSegment, UdpDatagram,
                                  IcmpMessage)
          for name in ("encode", "decode")]
OBS_COUNTERS = (
    "kernel.events", "kernel.processes_spawned", "links.tx",
    "links.bytes_sent", "controller.rpcs", "endpoint.captured",
    "endpoint.capture_dropped", "filtervm.invocations",
    "filtervm.instructions", "filtervm.verify_ok", "filtervm.verify_rejected",
)


def module_of(filename: str) -> str | None:
    """Dotted ``repro.*`` module for a source path, else None."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    if index == 0 or parts[index - 1] != "src":
        return None
    module = ".".join(parts[index:])[:-3]
    return module[:-len(".__init__")] if module.endswith(".__init__") \
        else module


def layer_of(filename: str) -> str | None:
    """The layer a function's own time belongs to; None = its callers'."""
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return OTHER
    module = module_of(filename)
    if module is None:
        return None
    if any(module == p or module.startswith(p + ".") for p in SHARED):
        return None
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def attribute(stats: dict) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    shares: dict[tuple, dict[str, float]] = {}
    busy: set[tuple] = set()

    def share_of(func) -> dict[str, float]:
        """How ``func``'s self time splits over layers."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func in busy or func not in stats:
            return {OTHER: 1.0}
        busy.add(func)
        callers = stats[func][4]
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
            total = sum(weights.values())
        result: dict[str, float] = {}
        if total <= 0:
            result[OTHER] = 1.0
        else:
            for caller, weight in weights.items():
                for layer, part in share_of(caller).items():
                    result[layer] = result.get(layer, 0.0) \
                        + part * weight / total
        busy.discard(func)
        shares[func] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[OTHER] = 0.0
    for func, (_, _, tottime, _, _) in stats.items():
        for layer, part in share_of(func).items():
            self_s[layer] += tottime * part
    return self_s


class Counts:
    """Counting wrappers around functions that have no obs counter."""

    def __init__(self) -> None:
        self.values = {"route_lookups": 0, "tcp_segments": 0,
                       "checksums": 0, "checksum_bytes": 0,
                       "codec_calls": 0, "messages": 0, "sig_verifies": 0}
        self.rpc_sim_s: list[float] = []
        self._undo: list = []

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _count(self, key: str, func, size=None):
        values = self.values

        def counted(*args, **kwargs):
            values[key] += 1
            if size is not None:
                values[size] += len(args[0])
            return func(*args, **kwargs)

        return counted

    def _patch_function(self, module_name: str, name: str, key: str,
                        size=None) -> None:
        """Replace a module-level function wherever it was imported."""
        original = getattr(importlib.import_module(module_name), name)
        wrapper = self._count(key, original, size)
        for loaded, module in list(sys.modules.items()):
            if loaded.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch_method(self, cls, name: str, key: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._patch(cls, name,
                        classmethod(self._count(key, raw.__func__)))
        else:
            self._patch(cls, name, self._count(key, raw))

    def _patch_rpc(self, name: str) -> None:
        original = EndpointHandle.__dict__[name]
        samples = self.rpc_sim_s

        def timed(handle, *args, **kwargs):
            started = handle.sim.now
            result = yield from original(handle, *args, **kwargs)
            samples.append(handle.sim.now - started)
            return result

        self._patch(EndpointHandle, name, timed)

    @contextmanager
    def installed(self):
        self._patch_method(Node, "lookup_route", "route_lookups")
        self._patch_method(TcpConnection, "_emit", "tcp_segments")
        self._patch_function("repro.packet.checksum", "internet_checksum",
                             "checksums", size="checksum_bytes")
        for cls, name in CODECS:
            self._patch_method(cls, name, "codec_calls")
        self._patch_method(Message, "encode", "messages")
        self._patch_function("repro.crypto.ed25519", "verify",
                             "sig_verifies")
        for name in RPC_METHODS:
            self._patch_rpc(name)
        try:
            yield self
        finally:
            for owner, name, value in reversed(self._undo):
                setattr(owner, name, value)
            self._undo.clear()


class TraceProbe:
    """Profiles each phase; reads work counts once the run is over."""

    def __init__(self) -> None:
        self.counts = Counts()
        self.phase_stats: dict[str, dict[str, float]] = {}
        self.phase_wall: dict[str, float] = {}
        self.fleet = None

    @contextmanager
    def phase(self, name: str):
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            self.phase_wall[name] = time.perf_counter() - started
            self.phase_stats[name] = attribute(pstats.Stats(profiler).stats)

    def testbed_built(self, fleet) -> None:
        fleet.enable_telemetry()
        self.fleet = fleet

    def totals(self) -> dict[str, float]:
        """Work counts over the whole traced run."""
        totals = dict(self.counts.values)
        for name in OBS_COUNTERS:
            totals[name] = (self.fleet.sim.obs.metrics.total(name)
                            if self.fleet is not None else 0.0)
        return totals

    def layer_self_s(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for stats in self.phase_stats.values():
            for layer, seconds in stats.items():
                merged[layer] = merged.get(layer, 0.0) + seconds
        return merged

    @property
    def wall_s(self) -> float:
        return sum(self.phase_wall.values())
