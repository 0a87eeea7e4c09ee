"""Unit + property tests for the packet header codecs."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.packet.checksum import internet_checksum
from repro.packet.dns import (
    FLAG_QR,
    QTYPE_A,
    RCODE_NXDOMAIN,
    DnsMessage,
    DnsRecord,
    decode_name,
    encode_name,
)
from repro.packet.icmp import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    IcmpMessage,
)
from repro.packet.ipv4 import PROTO_ICMP, PROTO_UDP, IPv4Packet
from repro.packet.tcp import FLAG_ACK, FLAG_SYN, TcpSegment
from repro.packet.udp import UdpDatagram
from repro.util.byteio import DecodeError
from repro.util.inet import parse_ip

SRC = parse_ip("10.0.0.1")
DST = parse_ip("10.0.0.2")


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_data_plus_checksum_is_zero(self):
        data = b"hello world packet"
        checksum = internet_checksum(data + b"\x00\x00")
        combined = data + bytes([checksum >> 8, checksum & 0xFF])
        assert internet_checksum(combined) == 0

    def test_odd_length_padding(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


def rfc1071_reference(data) -> int:
    """The RFC 1071 word loop with end-around carry: the test oracle."""
    data = bytes(data)
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _word_sum_multiple_of_ffff(words: list[int]) -> bytes:
    """Append one word so the 16-bit word sum is a nonzero multiple of
    0xFFFF — the residue where the big-int shortcut needs its fix-up."""
    words = list(words) + [0]
    words[-1] = (-sum(words)) % 0xFFFF or 0xFFFF
    return b"".join(w.to_bytes(2, "big") for w in words)


_BUFFERS = (bytes, bytearray, memoryview)


class TestChecksumMatchesReference:
    @pytest.mark.parametrize("kind", _BUFFERS)
    @given(data=st.binary(max_size=1600))
    def test_random_bytes(self, kind, data):
        assert internet_checksum(kind(data)) == rfc1071_reference(data)

    @pytest.mark.parametrize("kind", _BUFFERS)
    @given(size=st.integers(0, 1601))
    def test_all_ff_and_all_zero(self, kind, size):
        for fill in (b"\xff", b"\x00"):
            data = fill * size
            assert internet_checksum(kind(data)) == rfc1071_reference(data)

    @pytest.mark.parametrize("kind", _BUFFERS)
    @given(words=st.lists(st.integers(0, 0xFFFF), max_size=64))
    def test_sums_congruent_to_zero(self, kind, words):
        data = _word_sum_multiple_of_ffff(words)
        assert sum(int.from_bytes(data[i:i + 2], "big")
                   for i in range(0, len(data), 2)) % 0xFFFF == 0
        assert internet_checksum(kind(data)) == rfc1071_reference(data) == 0

    @pytest.mark.parametrize("data", [b"", b"\x00", b"\xff", b"\xff\xff",
                                      b"\x00\x00", b"\xff" * 3, b"\x01\x00\xfe"])
    def test_edge_cases(self, data):
        for kind in _BUFFERS:
            assert internet_checksum(kind(data)) == rfc1071_reference(data)


def _flip_one_byte(raw: bytes, index: int) -> bytes:
    corrupted = bytearray(raw)
    corrupted[index % len(raw)] ^= 0xFF
    return bytes(corrupted)


class TestEncodedPacketsVerify:
    """Every encoder still emits a valid checksum, and one flipped byte
    (anywhere the checksum covers) still fails decode."""

    @given(payload=st.binary(max_size=300), ttl=st.integers(0, 255),
           ident=st.integers(0, 0xFFFF), index=st.integers(0, 19))
    def test_ipv4(self, payload, ttl, ident, index):
        packet = IPv4Packet(src=SRC, dst=DST, proto=PROTO_UDP, payload=payload,
                            ttl=ttl, ident=ident)
        raw = packet.encode()
        assert IPv4Packet.decode(raw) == packet
        with pytest.raises(DecodeError):
            IPv4Packet.decode(_flip_one_byte(raw[:20], index) + raw[20:])

    @given(payload=st.binary(max_size=300), seq=st.integers(0, 0xFFFFFFFF),
           flags=st.integers(0, 0x3F), index=st.integers(0, 10_000))
    def test_tcp(self, payload, seq, flags, index):
        segment = TcpSegment(src_port=4000, dst_port=80, seq=seq, ack=7,
                             flags=flags, window=512, payload=payload)
        raw = segment.encode(SRC, DST)
        assert TcpSegment.decode(raw, SRC, DST) == segment
        # Flip outside the data-offset byte so the header still parses
        # and the checksum is what rejects the segment.
        index = index % len(raw)
        if index == 12:
            index = 13
        with pytest.raises(DecodeError, match="checksum"):
            TcpSegment.decode(_flip_one_byte(raw, index), SRC, DST)

    @given(payload=st.binary(max_size=300), index=st.integers(0, 10_000))
    def test_udp(self, payload, index):
        datagram = UdpDatagram(src_port=5000, dst_port=53, payload=payload)
        raw = datagram.encode(SRC, DST)
        assert UdpDatagram.decode(raw, SRC, DST) == datagram
        # The length field (bytes 4-5) is checked before the checksum, and
        # a checksum field flipped to zero means "no checksum" (RFC 768).
        index = index % len(raw)
        corrupted = _flip_one_byte(raw, index)
        if index in (4, 5) or corrupted[6:8] == b"\x00\x00":
            corrupted = _flip_one_byte(raw, 0)
        with pytest.raises(DecodeError, match="checksum"):
            UdpDatagram.decode(corrupted, SRC, DST)

    @given(payload=st.binary(max_size=300), rest=st.integers(0, 0xFFFFFFFF),
           index=st.integers(0, 10_000))
    def test_icmp(self, payload, rest, index):
        message = IcmpMessage(icmp_type=ICMP_ECHO_REQUEST, code=0, rest=rest,
                              body=payload)
        raw = message.encode()
        assert IcmpMessage.decode(raw) == message
        with pytest.raises(DecodeError, match="checksum"):
            IcmpMessage.decode(_flip_one_byte(raw, index))


class TestIPv4:
    def test_round_trip(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"abc", ttl=17)
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded == packet

    def test_header_checksum_verified(self):
        raw = bytearray(IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"").encode())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(DecodeError, match="checksum"):
            IPv4Packet.decode(bytes(raw))

    def test_rejects_short_buffer(self):
        with pytest.raises(DecodeError):
            IPv4Packet.decode(b"\x45\x00")

    def test_rejects_wrong_version(self):
        raw = bytearray(IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"").encode())
        raw[0] = (6 << 4) | 5
        with pytest.raises(DecodeError, match="version"):
            IPv4Packet.decode(bytes(raw))

    def test_decremented_lowers_ttl(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"", ttl=2,
                            ident=7, dscp=3, dont_fragment=False)
        hop = packet.decremented()
        assert hop == dataclasses.replace(packet, ttl=1)
        assert packet.ttl == 2  # the original is untouched
        with pytest.raises(dataclasses.FrozenInstanceError):
            hop.ttl = 5

    def test_decremented_rejects_zero(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=1, payload=b"", ttl=0)
        with pytest.raises(ValueError):
            packet.decremented()

    def test_trailing_bytes_ignored_via_total_length(self):
        packet = IPv4Packet(src=SRC, dst=DST, proto=PROTO_UDP, payload=b"xy")
        decoded = IPv4Packet.decode(packet.encode() + b"PAD")
        assert decoded.payload == b"xy"

    @given(
        payload=st.binary(max_size=64),
        ttl=st.integers(min_value=0, max_value=255),
        proto=st.integers(min_value=0, max_value=255),
        src=st.integers(min_value=0, max_value=0xFFFFFFFF),
        dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_round_trip_property(self, payload, ttl, proto, src, dst):
        packet = IPv4Packet(src=src, dst=dst, proto=proto, payload=payload, ttl=ttl)
        assert IPv4Packet.decode(packet.encode()) == packet


class TestIcmp:
    def test_echo_round_trip(self):
        message = IcmpMessage.echo_request(ident=0x1234, seq=7, payload=b"ping!")
        decoded = IcmpMessage.decode(message.encode())
        assert decoded.icmp_type == ICMP_ECHO_REQUEST
        assert decoded.echo_ident == 0x1234
        assert decoded.echo_seq == 7
        assert decoded.body == b"ping!"

    def test_echo_reply_mirrors_fields(self):
        reply = IcmpMessage.echo_reply(ident=1, seq=2, payload=b"data")
        decoded = IcmpMessage.decode(reply.encode())
        assert decoded.icmp_type == ICMP_ECHO_REPLY
        assert (decoded.echo_ident, decoded.echo_seq) == (1, 2)

    def test_time_exceeded_quotes_original(self):
        original = IPv4Packet(src=SRC, dst=DST, proto=PROTO_ICMP, payload=b"x" * 32)
        raw = original.encode()
        error = IcmpMessage.time_exceeded(raw)
        assert error.icmp_type == ICMP_TIME_EXCEEDED
        assert error.original_datagram() == raw[:28]

    def test_checksum_validation(self):
        raw = bytearray(IcmpMessage.echo_request(1, 1).encode())
        raw[-1] ^= 0x55 if len(raw) > 8 else 0
        raw[4] ^= 0x55
        with pytest.raises(DecodeError):
            IcmpMessage.decode(bytes(raw))

    def test_original_datagram_requires_error_type(self):
        with pytest.raises(ValueError):
            IcmpMessage.echo_request(1, 1).original_datagram()

    @given(ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           payload=st.binary(max_size=128))
    def test_echo_round_trip_property(self, ident, seq, payload):
        message = IcmpMessage.echo_request(ident, seq, payload)
        decoded = IcmpMessage.decode(message.encode())
        assert (decoded.echo_ident, decoded.echo_seq, decoded.body) == (
            ident, seq, payload,
        )


class TestUdp:
    def test_round_trip_with_checksum(self):
        datagram = UdpDatagram(src_port=1000, dst_port=53, payload=b"query")
        decoded = UdpDatagram.decode(datagram.encode(SRC, DST), SRC, DST)
        assert decoded == datagram

    def test_checksum_covers_pseudo_header(self):
        datagram = UdpDatagram(src_port=1, dst_port=2, payload=b"pp")
        raw = datagram.encode(SRC, DST)
        with pytest.raises(DecodeError, match="checksum"):
            UdpDatagram.decode(raw, SRC, DST + 1)

    def test_short_buffer_rejected(self):
        with pytest.raises(DecodeError):
            UdpDatagram.decode(b"\x00\x01", SRC, DST)

    @given(src_port=st.integers(0, 0xFFFF), dst_port=st.integers(0, 0xFFFF),
           payload=st.binary(max_size=256))
    def test_round_trip_property(self, src_port, dst_port, payload):
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        assert UdpDatagram.decode(datagram.encode(SRC, DST), SRC, DST) == datagram


class TestTcp:
    def test_round_trip_plain(self):
        segment = TcpSegment(
            src_port=80, dst_port=5000, seq=100, ack=200,
            flags=FLAG_ACK, window=8192, payload=b"http",
        )
        decoded = TcpSegment.decode(segment.encode(SRC, DST), SRC, DST)
        assert decoded == segment

    def test_round_trip_syn_with_mss(self):
        segment = TcpSegment(
            src_port=1, dst_port=2, seq=0, ack=0,
            flags=FLAG_SYN, window=100, mss=1400,
        )
        decoded = TcpSegment.decode(segment.encode(SRC, DST), SRC, DST)
        assert decoded.mss == 1400
        assert decoded.has(FLAG_SYN)

    def test_seg_len_counts_syn_fin(self):
        from repro.packet.tcp import FLAG_FIN

        syn = TcpSegment(1, 2, 0, 0, FLAG_SYN, 0)
        fin = TcpSegment(1, 2, 0, 0, FLAG_FIN | FLAG_ACK, 0, payload=b"abc")
        assert syn.seg_len == 1
        assert fin.seg_len == 4

    def test_checksum_validation(self):
        segment = TcpSegment(1, 2, 3, 4, FLAG_ACK, 5, payload=b"data")
        raw = bytearray(segment.encode(SRC, DST))
        raw[-1] ^= 0x01
        with pytest.raises(DecodeError, match="checksum"):
            TcpSegment.decode(bytes(raw), SRC, DST)

    @given(
        seq=st.integers(0, 0xFFFFFFFF),
        ack=st.integers(0, 0xFFFFFFFF),
        flags=st.integers(0, 0x3F),
        window=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=200),
    )
    def test_round_trip_property(self, seq, ack, flags, window, payload):
        segment = TcpSegment(
            src_port=1234, dst_port=80, seq=seq, ack=ack,
            flags=flags, window=window, payload=payload,
        )
        assert TcpSegment.decode(segment.encode(SRC, DST), SRC, DST) == segment


class TestDns:
    def test_name_round_trip(self):
        raw = encode_name("www.example.com")
        name, offset = decode_name(raw, 0)
        assert name == "www.example.com"
        assert offset == len(raw)

    def test_root_name(self):
        raw = encode_name("")
        assert raw == b"\x00"
        assert decode_name(raw, 0) == ("", 1)

    def test_compression_pointer(self):
        base = encode_name("example.com")
        # A name that is just a pointer to offset 0.
        data = base + b"\xc0\x00"
        name, offset = decode_name(data, len(base))
        assert name == "example.com"
        assert offset == len(data)

    def test_pointer_loop_rejected(self):
        data = b"\xc0\x00"
        with pytest.raises(DecodeError, match="loop"):
            decode_name(data, 0)

    def test_query_round_trip(self):
        query = DnsMessage.query(ident=99, name="probe.example.net")
        decoded = DnsMessage.decode(query.encode())
        assert decoded.ident == 99
        assert not decoded.is_response
        assert decoded.questions[0].name == "probe.example.net"
        assert decoded.questions[0].qtype == QTYPE_A

    def test_response_round_trip(self):
        query = DnsMessage.query(ident=7, name="a.example.org")
        answer = DnsRecord.a("a.example.org", parse_ip("192.0.2.55"))
        response = query.respond((answer,))
        decoded = DnsMessage.decode(response.encode())
        assert decoded.is_response
        assert decoded.flags & FLAG_QR
        assert decoded.answers[0].a_address == parse_ip("192.0.2.55")

    def test_nxdomain_rcode(self):
        query = DnsMessage.query(ident=7, name="missing.example.org")
        response = query.respond((), rcode=RCODE_NXDOMAIN)
        assert DnsMessage.decode(response.encode()).rcode == RCODE_NXDOMAIN

    @given(
        ident=st.integers(0, 0xFFFF),
        labels=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                    min_size=1, max_size=20),
            min_size=1, max_size=4,
        ),
    )
    def test_query_round_trip_property(self, ident, labels):
        name = ".".join(labels)
        query = DnsMessage.query(ident=ident, name=name)
        decoded = DnsMessage.decode(query.encode())
        assert decoded.questions[0].name == name
        assert decoded.ident == ident
