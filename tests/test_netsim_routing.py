"""Tests for topology building, routing, TTL handling, and ICMP errors."""

import pytest

from repro.netsim.links import Link
from repro.netsim.node import ROUTE_CACHE_MAX
from repro.netsim.stack.ip import VERDICT_CONSUME, VERDICT_IGNORE, VERDICT_MIRROR
from repro.netsim.topology import Network, access_topology, linear_topology
from repro.packet.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    IcmpMessage,
    UNREACH_NET,
)
from repro.packet.ipv4 import PROTO_ICMP, PROTO_RAW_TEST, IPv4Packet
from repro.util.inet import parse_ip


def icmp_sink(node):
    """Collect ICMP messages arriving at a node."""
    messages = []
    node.icmp.add_listener(lambda packet, message: messages.append((node.sim.now, packet, message)))
    return messages


def test_linear_topology_is_routable_end_to_end():
    net, src, dst = linear_topology(hop_count=3)
    messages = icmp_sink(src)
    src.icmp.send_echo_request(dst.primary_address(), ident=1, seq=1)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


def test_path_ground_truth():
    net, src, dst = linear_topology(hop_count=4)
    assert net.path_to(src, dst) == ["src", "r1", "r2", "r3", "r4", "dst"]


def test_ttl_expiry_generates_time_exceeded_from_each_router():
    net, src, dst = linear_topology(hop_count=3)
    messages = icmp_sink(src)
    for ttl in (1, 2, 3):
        src.icmp.send_echo_request(dst.primary_address(), ident=9, seq=ttl, ttl=ttl)
    net.run()
    exceeded = [m for _, _, m in messages if m.icmp_type == ICMP_TIME_EXCEEDED]
    assert len(exceeded) == 3
    # Each quotes the original echo request so the sender can match it.
    for message in exceeded:
        quote = message.original_datagram()
        assert quote[9] == PROTO_ICMP  # protocol byte of quoted header


def test_ttl_sufficient_reaches_destination():
    net, src, dst = linear_topology(hop_count=3)
    messages = icmp_sink(src)
    # Path src -> r1 -> r2 -> r3 -> dst crosses 3 routers; TTL 4 suffices.
    src.icmp.send_echo_request(dst.primary_address(), ident=9, seq=1, ttl=4)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


def test_no_route_generates_net_unreachable():
    net, src, dst = linear_topology(hop_count=1)
    # Give src a default route so the packet reaches r1, which has no route
    # for the destination and must answer with net-unreachable.
    src.set_default_route(src.interfaces[0])
    messages = icmp_sink(src)
    src.send_ip(
        IPv4Packet(
            src=src.primary_address(),
            dst=parse_ip("203.0.113.99"),  # not in any routing table
            proto=PROTO_RAW_TEST,
            payload=b"lost",
        )
    )
    net.run()
    unreachable = [m for _, _, m in messages if m.icmp_type == ICMP_DEST_UNREACH]
    assert len(unreachable) == 1
    assert unreachable[0].code == UNREACH_NET


def test_no_icmp_error_about_icmp_error():
    """Routers must not generate time-exceeded for an ICMP error packet."""
    net, src, dst = linear_topology(hop_count=2)
    messages = icmp_sink(src)
    error = IcmpMessage.time_exceeded(b"\x45" + b"\x00" * 27)
    src.send_ip(
        IPv4Packet(
            src=src.primary_address(),
            dst=dst.primary_address(),
            proto=PROTO_ICMP,
            payload=error.encode(),
            ttl=1,  # expires at r1
        )
    )
    net.run()
    assert messages == []  # no error-about-error came back


def test_access_topology_shape():
    net, endpoint, controller, target = access_topology()
    assert net.path_to(endpoint, controller) == ["endpoint", "gw", "controller"]
    assert net.path_to(endpoint, target) == ["endpoint", "gw", "target"]


def test_loopback_delivery():
    net, src, dst = linear_topology(hop_count=1)
    messages = icmp_sink(src)
    src.icmp.send_echo_request(src.primary_address(), ident=5, seq=1)
    net.run()
    assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


class TestRawTaps:
    def _echo_to(self, net, src, dst):
        src.icmp.send_echo_request(dst.primary_address(), ident=3, seq=1)
        net.run()

    def test_consume_hides_packet_from_os(self):
        net, src, dst = linear_topology(hop_count=1)
        captured = []
        dst.ip.add_tap(lambda packet: (captured.append(packet), VERDICT_CONSUME)[1])
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert captured  # tap saw the echo request
        assert not any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)

    def test_mirror_duplicates_to_os(self):
        net, src, dst = linear_topology(hop_count=1)
        captured = []
        dst.ip.add_tap(lambda packet: (captured.append(packet), VERDICT_MIRROR)[1])
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert captured
        assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)

    def test_ignore_leaves_os_processing_intact(self):
        net, src, dst = linear_topology(hop_count=1)
        seen = []
        dst.ip.add_tap(lambda packet: (seen.append(packet), VERDICT_IGNORE)[1])
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert seen  # tap still observes
        assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)

    def test_removed_tap_no_longer_called(self):
        net, src, dst = linear_topology(hop_count=1)
        captured = []
        tap = dst.ip.add_tap(lambda packet: (captured.append(packet), VERDICT_CONSUME)[1])
        dst.ip.remove_tap(tap)
        messages = icmp_sink(src)
        self._echo_to(net, src, dst)
        assert captured == []
        assert any(m.icmp_type == ICMP_ECHO_REPLY for _, _, m in messages)


def test_clock_offset_and_skew():
    net = Network()
    host = net.add_host("h", clock_offset=10.0, clock_skew=100e-6)
    net.sim.schedule(5.0, lambda: None)
    net.run()
    assert net.sim.now == 5.0
    from repro.netsim.clock import CLOCK_EPOCH

    expected_local = 5.0 * (1 + 100e-6) + 10.0 + CLOCK_EPOCH
    assert host.clock.now() == pytest.approx(expected_local)
    assert host.clock.ticks() == pytest.approx(expected_local * 1e9, rel=1e-9)
    assert host.clock.to_true_time(host.clock.now()) == pytest.approx(5.0)


class TestRouteCache:
    """lookup_route memoizes its prefix scan; every change to interfaces
    or prefix routes must show in the next answer."""

    OUTSIDE = parse_ip("192.168.5.9")

    def _host(self):
        net, src, dst = linear_topology(hop_count=2)
        return net, src

    def test_add_route_longer_prefix_wins(self):
        net, host = self._host()
        first = host.interfaces[0]
        second = host.add_interface()
        assert host.lookup_route(self.OUTSIDE) is None
        host.add_route(parse_ip("192.168.0.0"), 16, first)
        assert host.lookup_route(self.OUTSIDE) is first
        host.add_route(parse_ip("192.168.5.0"), 24, second)
        assert host.lookup_route(self.OUTSIDE) is second

    def test_set_default_route(self):
        net, host = self._host()
        assert host.lookup_route(self.OUTSIDE) is None
        host.set_default_route(host.interfaces[0])
        assert host.lookup_route(self.OUTSIDE) is host.interfaces[0]

    def test_interface_configure(self):
        net, host = self._host()
        iface = host.interfaces[0]
        host.set_default_route(iface)
        spare = host.add_interface()
        peer = net.add_host("peer").add_interface()
        Link(net.sim, spare, peer)
        assert host.lookup_route(self.OUTSIDE) is iface
        spare.configure(parse_ip("192.168.5.1"), 24)
        assert host.lookup_route(self.OUTSIDE) is spare
        spare.configure(parse_ip("172.16.0.1"), 24)
        assert host.lookup_route(self.OUTSIDE) is iface

    def test_attach(self):
        net, host = self._host()
        spare = host.add_interface().configure(parse_ip("192.168.5.1"), 24)
        assert host.lookup_route(self.OUTSIDE) is None  # not connected yet
        peer = net.add_host("peer").add_interface()
        Link(net.sim, spare, peer)
        assert host.lookup_route(self.OUTSIDE) is spare

    def test_compute_routes_drops_stale_prefix_routes(self):
        net, host = self._host()
        host.set_default_route(host.interfaces[0])
        assert host.lookup_route(self.OUTSIDE) is host.interfaces[0]
        net.compute_routes()
        assert host.lookup_route(self.OUTSIDE) is None
        far = net["dst"].primary_address()
        assert host.lookup_route(far) is host.interfaces[0]

    def test_cache_is_bounded(self):
        net, host = self._host()
        host.set_default_route(host.interfaces[0])
        base = parse_ip("172.16.0.0")
        for offset in range(ROUTE_CACHE_MAX + 50):
            assert host.lookup_route(base + offset) is host.interfaces[0]
            assert len(host._route_cache) <= ROUTE_CACHE_MAX
