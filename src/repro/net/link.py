"""Latency/bandwidth link model for the simulated network.

Every host owns an :class:`AccessLink` — an asymmetric pair of directional
channels modelling its connection to its local network segment.  Delivery
time of a message is:

    uplink serialization (queued, sender side)
    + propagation latency (sender + receiver, or the intra-LAN latency)
    + downlink serialization (queued, receiver side)

Serialization is queued per direction: a second message handed to a busy
384 Kbps uplink waits for the first to drain, which is exactly the effect
that makes the paper's WAN M2 numbers grow (the host PC's slow uplink is
the bottleneck pushing page content to the participant).

Profiles mirror the paper's two testbeds (§5.1.2): a 100 Mbps campus
Ethernet LAN, and home WAN links with 1.5 Mbps download / 384 Kbps upload.
"""

from __future__ import annotations

from ..sim import Simulator

__all__ = ["DirectionalChannel", "AccessLink", "LinkProfile", "LAN_PROFILE", "WAN_HOME_PROFILE", "SERVER_PROFILE", "MOBILE_WIFI_PROFILE"]


class DirectionalChannel:
    """One direction of a link: queued serialization at fixed bandwidth."""

    def __init__(self, sim: Simulator, bandwidth_bps: float):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self._next_free = 0.0
        self.bytes_carried = 0

    def serialization_delay(self, nbytes: int) -> float:
        """Reserve the channel for ``nbytes`` and return the total delay
        from now until the last byte has been serialized."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        now = self.sim.now
        start = max(now, self._next_free)
        duration = nbytes * 8.0 / self.bandwidth_bps
        self._next_free = start + duration
        self.bytes_carried += nbytes
        return self._next_free - now


class LinkProfile:
    """Immutable description of an access link's characteristics."""

    __slots__ = ("name", "down_bps", "up_bps", "latency_s")

    def __init__(self, name: str, down_bps: float, up_bps: float, latency_s: float):
        self.name = name
        self.down_bps = down_bps
        self.up_bps = up_bps
        self.latency_s = latency_s

    def __repr__(self) -> str:
        return "LinkProfile(%r, down=%.0f, up=%.0f, latency=%.4f)" % (
            self.name,
            self.down_bps,
            self.up_bps,
            self.latency_s,
        )


#: 100 Mbps campus Ethernet (paper §5.1.2, first experiment set).
LAN_PROFILE = LinkProfile("lan-100mbps", 100e6, 100e6, 0.0002)

#: Slow home broadband: 1.5 Mbps down, 384 Kbps up (paper §5.1.2, WAN set).
WAN_HOME_PROFILE = LinkProfile("wan-home", 1.5e6, 384e3, 0.025)

#: Well-provisioned origin web server data-center uplink.
SERVER_PROFILE = LinkProfile("server-dc", 1e9, 1e9, 0.002)

#: A 2008-era internet tablet on 802.11g Wi-Fi (the paper's Fennec /
#: Nokia N810 port, §6): modest effective throughput, small latency.
MOBILE_WIFI_PROFILE = LinkProfile("mobile-wifi", 5.5e6, 2.0e6, 0.004)


class AccessLink:
    """A host's attachment: asymmetric up/down channels plus latency."""

    def __init__(self, sim: Simulator, profile: LinkProfile):
        self.sim = sim
        self.profile = profile
        self.up = DirectionalChannel(sim, profile.up_bps)
        self.down = DirectionalChannel(sim, profile.down_bps)

    @property
    def latency_s(self) -> float:
        """One-way propagation latency of this attachment."""
        return self.profile.latency_s
