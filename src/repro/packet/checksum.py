"""RFC 1071 Internet checksum."""

from __future__ import annotations

import struct

_PSEUDO_HEADER = struct.Struct(">IIxBH")


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, as used by IP/ICMP/UDP/TCP.

    Odd-length input is padded with a zero byte, per RFC 1071.

    The sum runs at C speed: read as one big-endian integer, the data is
    ``sum(word_i * 2**(16*k_i))``, and since ``2**16 ≡ 1 (mod 0xFFFF)``
    that is congruent to the plain word sum modulo 0xFFFF — which is what
    the end-around-carry fold computes. The fold never yields 0 for a
    nonzero sum (it yields 0xFFFF instead), so that one residue is
    mapped back by hand.
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    value = int.from_bytes(data, "big")
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return ~total & 0xFFFF


def pseudo_header(src: int, dst: int, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header used in UDP/TCP checksums."""
    return _PSEUDO_HEADER.pack(
        src & 0xFFFFFFFF, dst & 0xFFFFFFFF, proto & 0xFF, length & 0xFFFF
    )
