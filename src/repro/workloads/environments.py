"""Experiment testbeds reproducing the paper's two environments (§5.1.2).

* **LAN** — host and participant PCs in the same 100 Mbps campus
  Ethernet, both directly connected to the (simulated) Internet.
* **WAN** — host and participant PCs in two geographically separated
  homes, each on slow broadband: 1.5 Mbps download, 384 Kbps upload.

Each testbed deploys the 20 Table-1 sample sites and, optionally, the
map service and the shop used by the usability scenarios.
"""

from __future__ import annotations

from typing import List, Optional

from ..browser.browser import Browser
from ..net.link import (
    AccessLink,
    LAN_PROFILE,
    MOBILE_WIFI_PROFILE,
    WAN_HOME_PROFILE,
    LinkProfile,
)
from ..net.socket import Host, Network
from ..sim import Simulator
from ..webserver.mapservice import MapService
from ..webserver.shop import ShopService
from ..webserver.sites import deploy_table1_sites

__all__ = ["Testbed", "build_lan", "build_mobile", "build_wan", "MOBILE_GENERATION_COST_PER_KB"]


class Testbed:
    """A fully wired simulated world for one experiment run."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_browser: Browser,
        participant_browsers: List[Browser],
        map_service: Optional[MapService] = None,
        shop_service: Optional[ShopService] = None,
        environment: str = "lan",
    ):
        self.sim = sim
        self.network = network
        self.host_browser = host_browser
        self.participant_browsers = participant_browsers
        self.map_service = map_service
        self.shop_service = shop_service
        self.environment = environment

    @property
    def participant_browser(self) -> Browser:
        """The first participant browser (single-participant testbeds)."""
        return self.participant_browsers[0]

    def run(self, generator, limit: float = 1e9):
        """Drive a generator process to completion on this testbed."""
        return self.sim.run_until_complete(self.sim.process(generator), limit=limit)

    def clear_caches(self) -> None:
        """Clean both browsers' caches, as the paper does before each
        experiment round."""
        self.host_browser.clear_cache()
        for browser in self.participant_browsers:
            browser.clear_cache()

    def __repr__(self):
        return "Testbed(%s, %d participants)" % (
            self.environment,
            len(self.participant_browsers),
        )


def _build(
    environment: str,
    host_segment: str,
    participant_segments: List[str],
    profile: LinkProfile,
    participants: int,
    deploy_sites: bool,
    with_map: bool,
    with_shop: bool,
) -> Testbed:
    sim = Simulator()
    # The experiment environments model the 2009 web: DNS lookups and
    # TCP slow start on cold connections (warm RCB polling skips both).
    network = Network(sim, realistic=True)
    if deploy_sites:
        deploy_table1_sites(network)
    map_service = MapService(network) if with_map else None
    shop_service = ShopService(network) if with_shop else None

    host_pc = Host(network, "host-pc", profile, segment=host_segment)
    host_browser = Browser(host_pc, name="host-browser")
    participant_browsers = []
    for index in range(participants):
        pc = Host(
            network,
            "participant-pc-%d" % index,
            profile,
            segment=participant_segments[index % len(participant_segments)],
        )
        participant_browsers.append(Browser(pc, name="participant-%d" % index))

    return Testbed(
        sim,
        network,
        host_browser,
        participant_browsers,
        map_service=map_service,
        shop_service=shop_service,
        environment=environment,
    )


def build_lan(
    participants: int = 1,
    deploy_sites: bool = True,
    with_map: bool = False,
    with_shop: bool = False,
) -> Testbed:
    """The 100 Mbps campus Ethernet environment."""
    return _build(
        "lan",
        host_segment="campus",
        participant_segments=["campus"],
        profile=LAN_PROFILE,
        participants=participants,
        deploy_sites=deploy_sites,
        with_map=with_map,
        with_shop=with_shop,
    )


#: Simulated content-generation cost on the N810-class device
#: (seconds per KB of envelope) — roughly an order of magnitude slower
#: than a 2009 desktop.
MOBILE_GENERATION_COST_PER_KB = 0.005


def build_mobile() -> Testbed:
    """The paper's §6 mobile scenario: the HOST is an internet tablet on
    Wi-Fi; one participant is a desktop on the same access network."""
    testbed = _build(
        "mobile",
        host_segment="hotspot",
        participant_segments=["hotspot"],
        profile=LAN_PROFILE,
        participants=1,
        deploy_sites=True,
        with_map=False,
        with_shop=False,
    )
    # Swap the host onto the tablet's Wi-Fi link.
    testbed.host_browser.host.link = AccessLink(testbed.sim, MOBILE_WIFI_PROFILE)
    return testbed


def build_wan(deploy_sites: bool = True) -> Testbed:
    """Two homes on slow 1.5 Mbps / 384 Kbps broadband."""
    return _build(
        "wan",
        host_segment="home-0",
        participant_segments=["home-1"],
        profile=WAN_HOME_PROFILE,
        participants=1,
        deploy_sites=deploy_sites,
        with_map=False,
        with_shop=False,
    )
