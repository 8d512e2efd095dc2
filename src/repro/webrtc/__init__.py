"""WebRTC VCA simulator.

This package stands in for the real Google Meet / Microsoft Teams / Cisco
Webex clients the paper measures.  It reproduces the transport-visible
mechanisms the paper's inference exploits:

* each captured/encoded video frame is packetised into (nearly) equal-sized
  RTP packets and transmitted immediately, producing per-frame microbursts
  and the intra-/inter-frame packet-size structure of Figure 2;
* audio is a separate low-bitrate stream of small packets (Figure 1);
* a retransmission (RTX) stream carries mostly fixed-size keep-alives plus
  occasional retransmissions of lost video packets;
* a GCC-style rate controller adapts the video bitrate, resolution ladder and
  frame rate to the available network capacity;
* the receiver runs an adaptive jitter buffer whose smoothing makes the
  application-reported frame jitter differ from network-level jitter
  (the effect discussed in Section 5.1.4);
* a small burst of DTLS/STUN control packets opens the call (the source of
  the media-classification false positives in Table 2).

The per-second receiver statistics (:class:`repro.webrtc.stats.GroundTruthLog`)
play the role of Chrome's ``webrtc-internals`` dump.
"""

from repro._lazy import lazy_exports

#: Each public name and the module defining it, imported on first access.
_EXPORTS = {
    "VCAProfile": "repro.webrtc.profiles",
    "VCA_PROFILES": "repro.webrtc.profiles",
    "get_profile": "repro.webrtc.profiles",
    "SessionConfig": "repro.webrtc.session",
    "CallResult": "repro.webrtc.session",
    "simulate_call": "repro.webrtc.session",
    "GroundTruthLog": "repro.webrtc.stats",
    "PerSecondStats": "repro.webrtc.stats",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
