"""A Google-Maps-like Ajax mapping service.

The paper's first usability scenario (§5.2.1) co-browses Google Maps:
the map page retrieves 256×256 tile images over Ajax and updates its
content grid-by-grid without the URL ever changing — exactly the class
of dynamically-updated page that URL sharing cannot co-browse and RCB
can.  This module provides both the origin service (tile/search/
street-view endpoints plus the map page) and :class:`MapPageDriver`, the
in-page application logic that a browser "runs" when the user searches,
pans, zooms, or opens street view.

Driving the page through :class:`MapPageDriver` mutates the host
browser's DOM via ``Browser.mutate_document``, which fires the
document-changed notification RCB-Agent synchronizes from (paper Fig. 1,
step 9).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from ..browser.browser import Browser
from ..http import Headers, HttpRequest, HttpResponse, html_response
from ..net.socket import Network
from .server import OriginServer

__all__ = ["MapService", "MapPageDriver", "MAP_HOST", "VIEWPORT_TILES"]

MAP_HOST = "maps.example.com"

#: The viewport shows a 3x3 grid of tiles, Google-Maps style.
VIEWPORT_TILES = 3

#: Known geocoding results (tile coordinates at zoom 12).
_LANDMARKS: Dict[str, Tuple[int, int]] = {
    "653 5th ave, new york": (1205, 1539),
    "cartier new york": (1205, 1539),
    "times square, new york": (1203, 1538),
    "william and mary": (1101, 1620),
}


class MapService:
    """The origin server side: map page, tiles, geocoding, street view."""

    def __init__(self, network: Network, host_name: str = MAP_HOST):
        self.host_name = host_name
        self.tile_requests = 0
        self.search_requests = 0
        self.server = OriginServer(network, host_name, self.handle)

    # -- request handling ---------------------------------------------------------

    def handle(self, request: HttpRequest, client_name: str) -> HttpResponse:
        """HTTP handler: map page, tiles, geocoding, street view."""
        if request.path == "/":
            return html_response(self._map_page())
        if request.path.startswith("/tiles/"):
            return self._tile(request)
        if request.path == "/geocode":
            return self._geocode(request)
        if request.path == "/streetview":
            return self._street_view(request)
        if request.path == "/js/maps_api.js":
            return HttpResponse(
                200,
                Headers([("Content-Type", "application/javascript")]),
                _MAPS_API_JS.encode("utf-8"),
            )
        return HttpResponse(404, body=b"not found")

    def _map_page(self) -> str:
        # The tile grid starts empty; the page's script fills it in after
        # load — matching how the real service bootstraps via Ajax.
        cells = "".join(
            '<img class="tile" id="tile-%d-%d" src="/tiles/12/%d/%d.png" alt="">'
            % (row, col, 1200 + col, 1530 + row)
            for row in range(VIEWPORT_TILES)
            for col in range(VIEWPORT_TILES)
        )
        return (
            "<!DOCTYPE html><html><head><title>Maps</title>"
            '<script src="/js/maps_api.js"></script></head>'
            "<body>"
            '<form id="searchform" action="/geocode" method="GET" onsubmit="">'
            '<input type="text" name="q" value=""><input type="submit" value="Search maps">'
            "</form>"
            '<div id="map-canvas" data-zoom="12" data-x="1200" data-y="1530">%s</div>'
            '<div id="statusbar">Ready</div>'
            "</body></html>" % cells
        )

    def _tile(self, request: HttpRequest) -> HttpResponse:
        parts = request.path.split("/")  # ['', 'tiles', z, x, 'y.png']
        if len(parts) != 5 or not parts[4].endswith(".png"):
            return HttpResponse(404, body=b"bad tile path")
        try:
            zoom = int(parts[2])
            x = int(parts[3])
            y = int(parts[4][:-4])
        except ValueError:
            return HttpResponse(404, body=b"bad tile coords")
        self.tile_requests += 1
        rng = random.Random((zoom * 73856093) ^ (x * 19349663) ^ (y * 83492791))
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(9000, 14000)))
        return HttpResponse(200, Headers([("Content-Type", "image/png")]), payload)

    def _geocode(self, request: HttpRequest) -> HttpResponse:
        self.search_requests += 1
        query = request.query_params().get("q", "").strip().lower()
        coords = _LANDMARKS.get(query)
        if coords is None:
            # Unknown addresses geocode deterministically from their text.
            digest = sum(ord(c) for c in query) or 1
            coords = (1000 + digest % 500, 1400 + (digest * 7) % 400)
        body = '<result q="%s"><x>%d</x><y>%d</y><zoom>12</zoom></result>' % (
            query,
            coords[0],
            coords[1],
        )
        return HttpResponse(
            200, Headers([("Content-Type", "application/xml")]), body.encode("utf-8")
        )

    def _street_view(self, request: HttpRequest) -> HttpResponse:
        params = request.query_params()
        rng = random.Random(params.get("x", "0") + params.get("y", "0"))
        payload = bytes(rng.getrandbits(8) for _ in range(30000))
        return HttpResponse(
            200,
            Headers([("Content-Type", "application/x-shockwave-flash")]),
            payload,
        )


_MAPS_API_JS = """
// Simulated maps bootstrap. The actual pan/zoom/search behaviour is
// modelled by repro.webserver.mapservice.MapPageDriver on the driving
// browser, mirroring what this script would do in a real browser.
var mapState = { zoom: 12, x: 1200, y: 1530 };
"""


class MapPageDriver:
    """The map page's client-side application logic.

    Each method is a generator simulation process operating on a browser
    whose current page is the map page: it issues the Ajax requests the
    real page's JavaScript would issue and applies the same DOM updates.
    """

    def __init__(self, browser: Browser, origin: str = "http://" + MAP_HOST):
        self.browser = browser
        self.origin = origin

    # -- state helpers ------------------------------------------------------------

    def _canvas(self):
        canvas = self.browser.page.document.get_element_by_id("map-canvas")
        if canvas is None:
            raise RuntimeError("current page is not the map page")
        return canvas

    @property
    def viewport(self) -> Tuple[int, int, int]:
        """Current (zoom, x, y) of the map canvas."""
        canvas = self._canvas()
        return (
            int(canvas.get_attribute("data-zoom")),
            int(canvas.get_attribute("data-x")),
            int(canvas.get_attribute("data-y")),
        )

    # -- user gestures -------------------------------------------------------------

    def search(self, query: str):
        """Geocode ``query`` and recenter the viewport on the result."""
        response = yield from self.browser.ajax_request(
            "GET", "%s/geocode?q=%s" % (self.origin, query.replace(" ", "+").replace(",", "%2C"))
        )
        text = response.text()
        x = int(_extract(text, "x"))
        y = int(_extract(text, "y"))
        zoom = int(_extract(text, "zoom"))
        yield from self._recenter(zoom, x, y, status="Showing results for %s" % query)

    def pan(self, dx: int, dy: int):
        """Drag the map by (dx, dy) tiles."""
        zoom, x, y = self.viewport
        yield from self._recenter(zoom, x + dx, y + dy, status="Panned")

    def zoom(self, delta: int):
        """Zoom in (positive) or out (negative)."""
        zoom, x, y = self.viewport
        new_zoom = max(1, min(19, zoom + delta))
        scale = 2 ** (new_zoom - zoom)
        yield from self._recenter(
            new_zoom, int(x * scale), int(y * scale), status="Zoom %d" % new_zoom
        )

    def open_street_view(self):
        """Fetch the street-view panorama and embed it (a Flash object —
        which RCB explicitly does not synchronize user actions inside)."""
        zoom, x, y = self.viewport
        yield from self.browser.ajax_request(
            "GET", "%s/streetview?x=%d&y=%d" % (self.origin, x, y)
        )

        def mutate(document):
            canvas = document.get_element_by_id("map-canvas")
            for old in canvas.get_elements_by_tag_name("embed"):
                old.detach()
            from ..html import Element

            flash = Element(
                "embed",
                {
                    "type": "application/x-shockwave-flash",
                    "src": "%s/streetview?x=%d&y=%d" % (self.origin, x, y),
                    "id": "street-view",
                },
            )
            canvas.append_child(flash)
            status = document.get_element_by_id("statusbar")
            status.inner_html = "Street view at %d,%d" % (x, y)

        self.browser.mutate_document(mutate)

    # -- internals --------------------------------------------------------------------

    def _recenter(self, zoom: int, x: int, y: int, status: str):
        # Fetch the tiles the new viewport needs (the real page fetches
        # only missing tiles; the browser cache gives us the same effect).
        for row in range(VIEWPORT_TILES):
            for col in range(VIEWPORT_TILES):
                tile_url = "%s/tiles/%d/%d/%d.png" % (self.origin, zoom, x + col, y + row)
                if self.browser.cache.peek(tile_url) is None:
                    response = yield from self.browser.ajax_request("GET", tile_url)
                    self.browser.cache.store(
                        tile_url, response.content_type, response.body, self.browser.sim.now
                    )

        def mutate(document):
            canvas = document.get_element_by_id("map-canvas")
            canvas.set_attribute("data-zoom", str(zoom))
            canvas.set_attribute("data-x", str(x))
            canvas.set_attribute("data-y", str(y))
            for row in range(VIEWPORT_TILES):
                for col in range(VIEWPORT_TILES):
                    tile = document.get_element_by_id("tile-%d-%d" % (row, col))
                    tile.set_attribute(
                        "src", "/tiles/%d/%d/%d.png" % (zoom, x + col, y + row)
                    )
            statusbar = document.get_element_by_id("statusbar")
            statusbar.inner_html = status

        self.browser.mutate_document(mutate)


def _extract(text: str, tag: str) -> str:
    open_tag = "<%s>" % tag
    close_tag = "</%s>" % tag
    start = text.index(open_tag) + len(open_tag)
    end = text.index(close_tag, start)
    return text[start:end]
