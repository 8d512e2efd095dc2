"""Packet substrate: packet dataclasses, binary header codecs, pcap I/O,
trace containers and flow utilities.

This package plays the role that ``scapy``/``tcpdump`` play for the paper's
data collection pipeline: everything downstream (media classification,
feature extraction, the heuristics) consumes :class:`repro.net.trace.PacketTrace`
objects holding timestamped :class:`repro.net.packet.Packet` records, and
traces can be persisted to / loaded from standard libpcap files.
"""

from repro._lazy import lazy_exports

#: Each public name and the module defining it, imported on first access.
_EXPORTS = {
    "Packet": "repro.net.packet",
    "IPv4Header": "repro.net.packet",
    "UDPHeader": "repro.net.packet",
    "PacketBlock": "repro.net.block",
    "blocks_from_packets": "repro.net.block",
    "PacketTrace": "repro.net.trace",
    "TraceStats": "repro.net.trace",
    "PcapReader": "repro.net.pcap",
    "PcapWriter": "repro.net.pcap",
    "read_pcap": "repro.net.pcap",
    "write_pcap": "repro.net.pcap",
    "FlowKey": "repro.net.flows",
    "FlowTable": "repro.net.flows",
    "five_tuple": "repro.net.flows",
    "decode_ethernet_ipv4_udp": "repro.net.headers",
    "encode_ethernet_ipv4_udp": "repro.net.headers",
    "ETHERNET_HEADER_LEN": "repro.net.headers",
    "IPV4_HEADER_MIN_LEN": "repro.net.headers",
    "UDP_HEADER_LEN": "repro.net.headers",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
