"""The paper's usability-study session: Table 2's twenty tasks.

Two role players — Bob (the co-browsing host) and Alice (a participant)
— run the combined Google Maps + Amazon co-shopping session.  Every task
is executed against the real simulated stack and *verified*: a task only
counts as completed when its observable effect holds (the map really
recentred on Alice's browser, the cart really contains the laptop Alice
picked, ...).  The paper's human subjects used a voice channel to
mediate; voice exchanges are modelled as zero-cost annotations.
"""

from __future__ import annotations

from typing import List, Optional

from ..browser.browser import Browser
from ..core.session import CoBrowsingSession
from ..core.snippet import AjaxSnippet
from ..webserver.mapservice import MAP_HOST, MapPageDriver
from ..webserver.shop import SHOP_HOST
from .environments import Testbed

__all__ = ["TaskResult", "ScenarioRunner", "TABLE2_TASKS"]

#: Task ids and descriptions, verbatim from the paper's Table 2.
TABLE2_TASKS = [
    ("T1-B", "Bob starts a RCB co-browsing session using a Firefox browser."),
    ("T1-A", "Alice types the URL told by Bob in a Firefox browser to join the session."),
    ("T2-B", "Bob searches the location '653 5th Ave, New York' using Google Maps."),
    ("T2-A", "Alice tells Bob that the map of the location is automatically shown on her browser."),
    ("T3-B", "Bob zooms in and out of the map, drags up/down/left/right the map."),
    ("T3-A", "Alice tells Bob that the map is automatically updated on her browser."),
    ("T4-B", "Bob clicks to the street-view of the searched location."),
    ("T4-A", "Alice tells Bob that the street-view is also automatically shown on her browser."),
    ("T5-B", "Bob tells Alice to meet outside the four red roof show-windows of Cartier shown in the street-view."),
    ("T5-A", "Alice finds the four red roof show-windows of Cartier and agrees with the meeting spot."),
    ("T6-B", "Bob continues to visit the homepage of Amazon.com website."),
    ("T6-A", "Alice tells Bob that the homepage of Amazon.com is automatically shown on her browser."),
    ("T7-B", "Bob searches and clicks to find a MacBook Air laptop at the Amazon.com website."),
    ("T7-A", "Alice tells Bob that the pages are automatically updated on her browser."),
    ("T8-B", "Bob asks Alice to search and click on the pages shown on her browser to choose a different MacBook Air laptop."),
    ("T8-A", "Alice chooses a different MacBook Air laptop and tells Bob that this laptop is her final choice."),
    ("T9-B", "Bob adds the selected laptop to the shopping cart and starts the checkout procedure."),
    ("T9-A", "Alice fills the shipping address form shown on her browser."),
    ("T10-B", "Bob finishes the rest of the checkout procedure."),
    ("T10-A", "Alice leaves the co-browsing session."),
]

#: The laptop Bob finds first and the different one Alice picks instead.
BOB_CHOICE = "mba-13-128"
ALICE_CHOICE = "mba-13-64"

ALICE_ADDRESS = {
    "full_name": "Alice Example",
    "street": "653 5th Ave",
    "city": "New York",
    "state": "NY",
    "zip_code": "10022",
}


class TaskResult:
    """Outcome of one Table 2 task."""

    __slots__ = ("task_id", "description", "completed", "detail", "sim_seconds")

    def __init__(self, task_id: str, description: str, completed: bool, detail: str, sim_seconds: float):
        self.task_id = task_id
        self.description = description
        self.completed = completed
        self.detail = detail
        self.sim_seconds = sim_seconds

    def __repr__(self):
        return "TaskResult(%s, %s)" % (self.task_id, "ok" if self.completed else "FAILED")


class ScenarioRunner:
    """Executes one full co-browsing session (all 20 tasks of Table 2)."""

    def __init__(self, testbed: Testbed):
        if testbed.map_service is None or testbed.shop_service is None:
            raise ValueError("the scenario testbed needs with_map and with_shop")
        self.testbed = testbed

    def run_session(self, bob_browser: Browser, alice_browser: Browser):
        """Generator process returning the list of 20 TaskResults."""
        results: List[TaskResult] = []
        sim = self.testbed.sim
        descriptions = dict(TABLE2_TASKS)

        def record(task_id: str, completed: bool, detail: str, started: float):
            results.append(
                TaskResult(
                    task_id,
                    descriptions[task_id],
                    completed,
                    detail,
                    sim.now - started,
                )
            )
            if not completed:
                raise _TaskFailed(task_id, detail)

        session: Optional[CoBrowsingSession] = None
        snippet: Optional[AjaxSnippet] = None
        try:
            # T1-B: Bob hosts.
            started = sim.now
            session = CoBrowsingSession(bob_browser)
            hosting = bob_browser.host.listener_on(session.agent.port) is not None
            record("T1-B", hosting, "agent listening on %s" % session.agent.url, started)

            # T1-A: Alice joins by typing the URL.
            started = sim.now
            snippet = yield from session.join(alice_browser, participant_id="alice")
            record(
                "T1-A",
                snippet.connected and alice_browser.address_bar == session.agent.url,
                "joined %s" % alice_browser.address_bar,
                started,
            )

            # T2-B: Bob searches the meeting location on the map service.
            started = sim.now
            yield from session.host_navigate("http://%s/" % MAP_HOST)
            yield from session.wait_until_synced()
            driver = MapPageDriver(bob_browser)
            yield from driver.search("653 5th Ave, New York")
            record("T2-B", driver.viewport == (12, 1205, 1539), "viewport %r" % (driver.viewport,), started)

            # T2-A: the map is automatically shown on Alice's browser.
            started = sim.now
            yield from session.wait_until_synced()
            alice_canvas = alice_browser.page.document.get_element_by_id("map-canvas")
            record(
                "T2-A",
                alice_canvas is not None and alice_canvas.get_attribute("data-x") == "1205",
                "alice sees x=%s" % (alice_canvas and alice_canvas.get_attribute("data-x")),
                started,
            )

            # T3-B: Bob zooms in, out, and drags the map around.
            started = sim.now
            yield from driver.zoom(1)
            yield from driver.zoom(-1)
            for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
                yield from driver.pan(dx, dy)
            record("T3-B", driver.viewport == (12, 1205, 1539), "back at %r" % (driver.viewport,), started)

            # T3-A: Alice's map followed every change.
            started = sim.now
            yield from session.wait_until_synced()
            bob_tile = bob_browser.page.document.get_element_by_id("tile-0-0")
            alice_tile = alice_browser.page.document.get_element_by_id("tile-0-0")
            record(
                "T3-A",
                alice_tile is not None
                and _same_object(
                    bob_browser, bob_tile.get_attribute("src"), alice_tile.get_attribute("src")
                ),
                "tile src %s" % (alice_tile and alice_tile.get_attribute("src")),
                started,
            )

            # T4-B: Bob opens the street view.
            started = sim.now
            yield from driver.open_street_view()
            record(
                "T4-B",
                bob_browser.page.document.get_element_by_id("street-view") is not None,
                "street view embedded",
                started,
            )

            # T4-A: the street view appears on Alice's browser too.
            started = sim.now
            yield from session.wait_until_synced()
            alice_flash = alice_browser.page.document.get_element_by_id("street-view")
            record("T4-A", alice_flash is not None, "alice sees the flash element", started)

            # T5-B / T5-A: voice-channel agreement on the meeting spot.
            started = sim.now
            record("T5-B", True, "(voice) meeting spot proposed", started)
            record("T5-A", True, "(voice) meeting spot agreed", started)

            # T6-B: Bob continues to the shop homepage.
            started = sim.now
            yield from session.host_navigate("http://%s/" % SHOP_HOST)
            record(
                "T6-B",
                bob_browser.page.document.get_element_by_id("searchform") is not None,
                "shop home on bob's browser",
                started,
            )

            # T6-A: shop homepage shows up for Alice.
            started = sim.now
            yield from session.wait_until_synced()
            record(
                "T6-A",
                alice_browser.page.document.get_element_by_id("searchform") is not None,
                "shop home on alice's browser",
                started,
            )

            # T7-B: Bob searches and clicks through to a MacBook Air.
            started = sim.now
            form = bob_browser.page.document.get_element_by_id("searchform")
            yield from bob_browser.submit_form(form, {"q": "MacBook Air"})
            link = bob_browser.page.document.get_element_by_id("result-%s" % BOB_CHOICE)
            yield from bob_browser.click_link(link)
            record(
                "T7-B",
                "MacBook Air" in bob_browser.page.document.get_element_by_id("item-title").text_content,
                "bob on item page %s" % BOB_CHOICE,
                started,
            )

            # T7-A: the item page reached Alice.
            started = sim.now
            yield from session.wait_until_synced()
            alice_title = alice_browser.page.document.get_element_by_id("item-title")
            record("T7-A", alice_title is not None, "alice sees the item page", started)

            # T8-B: Bob asks Alice to pick (voice) — verified by T8-A.
            started = sim.now
            record("T8-B", True, "(voice) bob asks alice to choose", started)

            # T8-A: Alice navigates *from her browser*: her click is sent
            # to the host, which performs it (paper §3.3).
            started = sim.now
            topnav_home = alice_browser.page.document.get_elements_by_tag_name("a")[0]
            yield from alice_browser.click_link(topnav_home)  # intercepted
            yield from snippet.flush()
            yield from session.wait_until_synced()
            form = alice_browser.page.document.get_element_by_id("searchform")
            field = form.get_elements_by_tag_name("input")[0]
            alice_browser.fill_field(field, "MacBook Air")
            yield from alice_browser.submit_form(form)  # intercepted, queued
            yield from snippet.flush()
            yield from session.wait_until_synced()
            choice_link = alice_browser.page.document.get_element_by_id("result-%s" % ALICE_CHOICE)
            yield from alice_browser.click_link(choice_link)  # intercepted
            yield from snippet.flush()
            yield from session.wait_until_synced()
            bob_item = bob_browser.page.document.get_element_by_id("item-title")
            record(
                "T8-A",
                bob_item is not None and "64GB" in bob_item.text_content,
                "host navigated to alice's choice: %s"
                % (bob_item.text_content if bob_item else "none"),
                started,
            )

            # T9-B: Bob adds the laptop to the cart and starts checkout.
            started = sim.now
            add_form = bob_browser.page.document.get_element_by_id("addform")
            yield from bob_browser.submit_form(add_form)
            yield from bob_browser.navigate("http://%s/checkout" % SHOP_HOST)
            record(
                "T9-B",
                bob_browser.page.document.get_element_by_id("addressform") is not None,
                "checkout form open",
                started,
            )

            # T9-A: Alice co-fills the shipping address from her browser.
            started = sim.now
            yield from session.wait_until_synced()
            alice_form = alice_browser.page.document.get_element_by_id("addressform")
            for name, value in ALICE_ADDRESS.items():
                field = Browser._find_form_field(alice_form, name)
                alice_browser.fill_field(field, value)
                alice_browser.dispatch_event(field, "change")
            yield from snippet.flush()
            yield from session.wait_until_synced()
            bob_form = bob_browser.page.document.get_element_by_id("addressform")
            merged = Browser.collect_form_fields(bob_form)
            record(
                "T9-A",
                merged == ALICE_ADDRESS,
                "address on bob's form: %r" % (merged,),
                started,
            )

            # T10-B: Bob finishes the checkout.
            started = sim.now
            yield from bob_browser.submit_form(bob_browser.page.document.get_element_by_id("addressform"))
            yield from bob_browser.submit_form(bob_browser.page.document.get_element_by_id("confirmform"))
            record(
                "T10-B",
                bob_browser.page.document.get_element_by_id("order-complete") is not None,
                "order placed",
                started,
            )

            # T10-A: Alice leaves.
            started = sim.now
            yield from session.wait_until_synced()
            session.leave(snippet)
            record("T10-A", not snippet.connected, "alice disconnected", started)
        except _TaskFailed:
            pass
        finally:
            if session is not None:
                session.close()
        return results


def _same_object(host_browser: Browser, host_src: str, participant_src: str) -> bool:
    """Whether a participant-side object URL denotes the same object as a
    host-side one, accounting for the cache-mode rewrite to agent URLs."""
    from ..http import quote
    from ..net.url import parse_url, resolve_url

    if participant_src == host_src:
        return True
    absolute = str(resolve_url(host_browser.page.url, parse_url(host_src)))
    if participant_src == absolute:
        return True
    return quote(absolute) in participant_src


class _TaskFailed(Exception):
    def __init__(self, task_id: str, detail: str):
        super().__init__("%s failed: %s" % (task_id, detail))
        self.task_id = task_id
