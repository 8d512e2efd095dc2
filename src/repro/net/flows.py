"""Flow identification utilities.

The paper assumes upstream traffic classification has already isolated the
packets of a single VCA session (Section 2.2).  These helpers provide the
5-tuple bookkeeping needed to do that isolation on multi-flow traces and to
tag packet direction (client-bound vs server-bound).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.net.packet import Packet

__all__ = ["FlowKey", "FlowStats", "FlowTable", "five_tuple"]


@dataclass(frozen=True, order=True)
class FlowKey:
    """A unidirectional UDP 5-tuple."""

    src: str
    src_port: int
    dst: str
    dst_port: int
    protocol: int = 17

    def reversed(self) -> "FlowKey":
        """The same flow seen in the opposite direction."""
        return FlowKey(
            src=self.dst,
            src_port=self.dst_port,
            dst=self.src,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def bidirectional(self) -> tuple["FlowKey", "FlowKey"]:
        """A canonical (sorted) pair identifying the bidirectional flow."""
        other = self.reversed()
        return (self, other) if (self.src, self.src_port) <= (other.src, other.src_port) else (other, self)


def five_tuple(packet: Packet) -> FlowKey:
    """Extract the unidirectional 5-tuple of a packet."""
    return FlowKey(
        src=packet.ip.src,
        src_port=packet.udp.src_port,
        dst=packet.ip.dst,
        dst_port=packet.udp.dst_port,
        protocol=packet.ip.protocol,
    )


@dataclass
class FlowStats:
    """Aggregate statistics for one unidirectional flow."""

    packets: int = 0
    bytes: int = 0
    first_seen: float | None = None
    last_seen: float | None = None

    def update(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.payload_size
        if self.first_seen is None:
            self.first_seen = packet.timestamp
        self.last_seen = packet.timestamp

    @property
    def duration(self) -> float:
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        return self.last_seen - self.first_seen


class FlowTable:
    """Group the packets of a trace by unidirectional 5-tuple."""

    def __init__(self) -> None:
        self._packets: dict[FlowKey, list[Packet]] = defaultdict(list)
        self._stats: dict[FlowKey, FlowStats] = defaultdict(FlowStats)

    def add(self, packet: Packet) -> FlowKey:
        key = five_tuple(packet)
        self._packets[key].append(packet)
        self._stats[key].update(packet)
        return key

    def add_all(self, packets) -> "FlowTable":
        for packet in packets:
            self.add(packet)
        return self

    @property
    def flows(self) -> list[FlowKey]:
        return list(self._stats)

    def packets(self, key: FlowKey) -> list[Packet]:
        return list(self._packets.get(key, []))

    def stats(self, key: FlowKey) -> FlowStats:
        if key not in self._stats:
            raise KeyError(f"unknown flow: {key}")
        return self._stats[key]

    def dominant_flow(self) -> FlowKey | None:
        """The flow carrying the most bytes (the video downlink in a 2-party call)."""
        if not self._stats:
            return None
        return max(self._stats, key=lambda k: self._stats[k].bytes)

    def toward(self, address: str) -> list[FlowKey]:
        """Flows whose destination address is ``address`` (client-bound traffic)."""
        return [key for key in self._stats if key.dst == address]

    def __len__(self) -> int:
        return len(self._stats)
