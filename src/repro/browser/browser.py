"""The simulated Web browser.

A :class:`Browser` ties together the substrates a real browser provides
to RCB: an HTTP client with cookies, an object cache, a page-load
pipeline that discovers and fetches supplementary objects (in parallel,
like the 2-6 connection browsers of the paper's era), an observer service
broadcasting load/mutation events, DOM event dispatch through event
attributes, and an extension host exposing the server-socket API that
RCB-Agent is built on.

All I/O methods (``navigate``, ``click_link``, ``submit_form``,
``ajax_request``) are generator-style simulation processes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Union

from ..html import Document, Element, parse_document
from ..http import CookieJar, Headers, HttpClient, RequestFailed, encode_form
from ..net.socket import Host
from ..net.url import Url, parse_url, resolve_url
from ..sim import AllOf, Simulator
from .cache import BrowserCache
from .observer import (
    ObserverService,
    TOPIC_DOCUMENT_CHANGED,
    TOPIC_DOCUMENT_LOADED,
    TOPIC_OBJECT_DOWNLOADED,
    TOPIC_USER_ACTION,
)
from .page import LoadedObject, Page

__all__ = [
    "Browser",
    "BrowserExtension",
    "NavigationError",
    "OBJECT_SOURCES",
    "object_attribute",
]

#: Tag -> the URL-bearing attribute that makes it a supplementary object.
OBJECT_SOURCES: Dict[str, str] = {
    "img": "src",
    "script": "src",
    "frame": "src",
    "iframe": "src",
    "embed": "src",
    "input": "src",  # only <input type=image>
    "body": "background",
    "link": "href",  # only stylesheet and icon links
}
_OBJECT_LINK_RELS = frozenset(("stylesheet", "icon", "shortcut icon"))
#: Longer references (inline ``data:`` images, for one) are resolved
#: without being memoized, so the memo stays bounded in bytes as well as
#: in entries.
_MEMO_REFERENCE_LIMIT = 2048


def object_attribute(element: Element) -> Optional[str]:
    """The attribute naming ``element``'s supplementary object, or None
    when the element is not one.  ``type`` and ``rel`` are keywords, so
    they compare ASCII case-insensitively (``str.lower`` maps no other
    character onto the letters of these keywords)."""
    tag = element.tag
    attribute = OBJECT_SOURCES.get(tag)
    if attribute is None:
        return None
    if tag == "input":
        if (element.get_attribute("type") or "").lower() != "image":
            return None
    elif tag == "link":
        if (element.get_attribute("rel") or "").lower() not in _OBJECT_LINK_RELS:
            return None
    return attribute


@lru_cache(maxsize=4096)
def _object_url(base_text: str, raw: str) -> Optional[str]:
    """The absolute, fragment-free URL of object reference ``raw`` on a
    page at ``base_text``, or None if it cannot be resolved.  URL
    parsing and resolution are pure, so every rescan of an unchanged
    page resolves each reference once."""
    try:
        absolute = resolve_url(parse_url(base_text), parse_url(raw))
    except ValueError:  # UrlError, or a port int() rejects
        return None
    return str(absolute.replace(fragment=None))


class NavigationError(Exception):
    """A page could not be loaded."""


class BrowserExtension:
    """Base class for installable extensions (end-user extensibility).

    Subclasses override :meth:`on_install` / :meth:`on_uninstall` and get
    access to the full browser internals — the seamless integration the
    paper's §3.2.2 argues makes a browser extension the right home for
    the co-browsing agent.
    """

    def __init__(self):
        self.browser: Optional["Browser"] = None

    def install(self, browser: "Browser") -> "BrowserExtension":
        """Attach this extension to ``browser`` and run its hook."""
        if self.browser is not None:
            raise RuntimeError("extension already installed")
        self.browser = browser
        browser.extensions.append(self)
        self.on_install()
        return self

    def uninstall(self) -> None:
        """Detach from the browser and run the teardown hook."""
        if self.browser is None:
            return
        self.on_uninstall()
        self.browser.extensions.remove(self)
        self.browser = None

    def on_install(self) -> None:  # pragma: no cover - default hook
        """Hook: runs after installation."""
        pass

    def on_uninstall(self) -> None:  # pragma: no cover - default hook
        """Hook: runs before detachment."""
        pass


class Browser:
    """A user's web browser instance."""

    def __init__(
        self,
        host: Host,
        name: Optional[str] = None,
        javascript_enabled: bool = True,
        max_parallel_fetches: int = 2,  # the 2-connections-per-host era
        cache_max_bytes: int = 50 * 1024 * 1024,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.name = name or ("browser@" + host.name)
        self.javascript_enabled = javascript_enabled
        self.max_parallel_fetches = max(1, max_parallel_fetches)
        self.cookie_jar = CookieJar()
        self.client = HttpClient(host, cookie_jar=self.cookie_jar)
        self.cache = BrowserCache(max_bytes=cache_max_bytes)
        self.observers = ObserverService()
        self.history: List[str] = []
        self._history_index = -1
        self.page: Optional[Page] = None
        self.extensions: List[BrowserExtension] = []
        #: The address-bar content (a participant browser never leaves the
        #: RCB-Agent URL, even as page content changes underneath).
        self.address_bar: str = ""

    def __repr__(self) -> str:
        return "Browser(%r)" % (self.name,)

    # -- navigation --------------------------------------------------------------

    def navigate(
        self,
        url: Union[str, Url],
        method: str = "GET",
        body: bytes = b"",
        headers: Optional[Headers] = None,
        fetch_objects: bool = True,
    ):
        """Load a page: fetch HTML, parse, fetch supplementary objects.

        Generator process returning the loaded :class:`Page`.
        """
        if isinstance(url, str):
            url = parse_url(url)
        if not url.is_absolute:
            if self.page is None:
                raise NavigationError("relative navigation with no current page")
            url = resolve_url(self.page.url, url)

        started = self.sim.now
        try:
            response = yield from self.client.request(method, url, headers=headers, body=body)
            # Follow up to five redirects (the shop's login flow uses one).
            redirects = 0
            while response.status in (301, 302) and redirects < 5:
                location = response.headers.get("Location")
                if location is None:
                    break
                url = resolve_url(url, parse_url(location))
                response = yield from self.client.request("GET", url)
                redirects += 1
        except RequestFailed as exc:
            raise NavigationError("cannot load %s: %s" % (url, exc))
        if response.status != 200:
            raise NavigationError(
                "server returned %d for %s" % (response.status, url)
            )

        document = parse_document(response.text())
        page = Page(url, document)
        page.html_load_time = self.sim.now - started

        self.page = page
        self.address_bar = str(url)
        # A fresh navigation truncates any forward entries.
        del self.history[self._history_index + 1 :]
        self.history.append(str(url))
        self._history_index = len(self.history) - 1

        if fetch_objects:
            yield from self._fetch_supplementary_objects(page)

        self.observers.notify(TOPIC_DOCUMENT_LOADED, page)
        return page

    def _fetch_supplementary_objects(self, page: Page):
        if not page.object_scan_current:
            page.object_scan = (
                page.document.subtree_version,
                self.discover_object_urls(page.document, page.url),
            )
        urls = page.object_scan[1]
        if not urls:
            # A rescan may find nothing where the last one found objects.
            page.objects_load_time = 0.0
            return
        started = self.sim.now
        queue: List[str] = list(urls)
        worker_count = min(self.max_parallel_fetches, len(queue))
        workers = [
            self.sim.process(self._object_worker(page, queue))
            for _ in range(worker_count)
        ]
        yield AllOf(self.sim, workers)
        page.objects_load_time = self.sim.now - started

    def _object_worker(self, page: Page, queue: List[str]):
        # Each worker gets its own client: separate connections model the
        # parallel-connection behaviour of real browsers.
        client = HttpClient(self.host, cookie_jar=self.cookie_jar)
        while queue:
            object_url = queue.pop(0)
            yield from self._fetch_object(page, client, object_url)
        client.close()

    def _fetch_object(self, page: Page, client: HttpClient, object_url: str):
        started = self.sim.now
        cached = self.cache.lookup(object_url)
        if cached is not None:
            loaded = LoadedObject(object_url, cached.content_type, cached.size, True, 0.0)
        else:
            try:
                response = yield from client.get(object_url)
            except RequestFailed:
                return  # a missing object does not fail the page
            if response.status != 200:
                return
            self.cache.store(object_url, response.content_type, response.body, self.sim.now)
            loaded = LoadedObject(
                object_url,
                response.content_type,
                len(response.body),
                False,
                self.sim.now - started,
            )
        page.objects.append(loaded)
        self.observers.notify(TOPIC_OBJECT_DOWNLOADED, loaded)

    @staticmethod
    def discover_object_urls(document: Document, base_url: Url) -> List[str]:
        """Absolute URLs of every supplementary object, document order."""
        base_text = str(base_url)
        seen = set()
        urls: List[str] = []
        for element in document.descendant_elements():
            if element.tag not in OBJECT_SOURCES:
                continue  # most elements: skipped without a call
            attribute = object_attribute(element)
            if attribute is None:
                continue
            raw = element.get_attribute(attribute)
            if not raw:
                continue
            if len(raw) <= _MEMO_REFERENCE_LIMIT:
                text = _object_url(base_text, raw)
            else:
                text = _object_url.__wrapped__(base_text, raw)
            if text is not None and text not in seen:
                seen.add(text)
                urls.append(text)
        return urls

    def back(self):
        """Navigate to the previous history entry (generator process).

        Returns the loaded Page, or the current page when there is no
        earlier entry.  Cached objects make revisits cheap, as in a real
        browser.
        """
        if not self.can_go_back:
            return self.page
        target_index = self._history_index - 1
        page = yield from self._load_for_history(target_index)
        return page

    def forward(self):
        """Navigate to the next history entry (generator process)."""
        if not self.can_go_forward:
            return self.page
        target_index = self._history_index + 1
        page = yield from self._load_for_history(target_index)
        return page

    def reload(self):
        """Re-fetch the current page (generator process)."""
        if self.page is None:
            raise NavigationError("no page to reload")
        page = yield from self._load_for_history(self._history_index)
        return page

    def _load_for_history(self, target_index: int):
        """Load a history entry without rewriting the history list."""
        saved_history = list(self.history)
        page = yield from self.navigate(saved_history[target_index])
        self.history = saved_history
        self._history_index = target_index
        return page

    @property
    def can_go_back(self) -> bool:
        """Whether a previous history entry exists."""
        return self._history_index > 0

    @property
    def can_go_forward(self) -> bool:
        """Whether a next history entry exists."""
        return self._history_index < len(self.history) - 1

    def fetch_current_objects(self):
        """Re-run supplementary-object fetching for the current page.

        Used after the page's DOM was replaced in place (as Ajax-Snippet
        does on a participant): discovers the new object references and
        downloads whatever the cache does not already hold.  Generator
        process returning the elapsed simulated time.
        """
        if self.page is None:
            raise NavigationError("no page loaded")
        self.page.objects = []
        started = self.sim.now
        yield from self._fetch_supplementary_objects(self.page)
        return self.sim.now - started

    # -- DOM mutation (Ajax / DHTML, paper step 9) ---------------------------------

    def mutate_document(self, mutator: Callable[[Document], None]) -> None:
        """Apply a scripted DOM change to the current page and broadcast
        a document-changed notification (what RCB-Agent listens for)."""
        if self.page is None:
            raise NavigationError("no page to mutate")
        mutator(self.page.document)
        self.page.version += 1
        self.observers.notify(TOPIC_DOCUMENT_CHANGED, self.page)

    def ajax_request(self, method: str, url: Union[str, Url], body: bytes = b""):
        """Issue an XMLHttpRequest-style background request.

        Generator process returning the :class:`HttpResponse`; does not
        navigate or touch the address bar.
        """
        if isinstance(url, str):
            url = parse_url(url)
        if not url.is_absolute and self.page is not None:
            url = resolve_url(self.page.url, url)
        response = yield from self.client.request(method, url, body=body)
        return response

    # -- user interaction ------------------------------------------------------------

    def dispatch_event(self, element: Element, event_type: str, event=None) -> Optional[bool]:
        """Fire an event at an element, running its on-attribute handler.

        Returns the handler result (False cancels the default action) or
        None when no handler is attached or JavaScript is disabled.
        """
        if self.page is None:
            raise NavigationError("no page loaded")
        expression = element.get_attribute("on" + event_type.lower())
        self.observers.notify(
            TOPIC_USER_ACTION, {"type": event_type, "element": element}
        )
        if expression is None or not expression.strip() or not self.javascript_enabled:
            return None
        return self.page.scripts.invoke_attribute(expression, element, event)

    def click_link(self, anchor: Element):
        """Click an <a>: run onclick, then follow href unless cancelled.

        Generator process returning the new Page (or the current page if
        the click was cancelled or the anchor has no href).
        """
        outcome = self.dispatch_event(anchor, "click")
        if outcome is False:
            return self.page
        href = anchor.get_attribute("href")
        if not href:
            return self.page
        page = yield from self.navigate(href)
        return page

    def fill_field(self, field: Element, value: str) -> None:
        """Type into an input/textarea (sets its value attribute)."""
        if field.tag == "textarea":
            field.remove_all_children()
            field.inner_html = value
        else:
            field.set_attribute("value", value)
        self.observers.notify(
            TOPIC_USER_ACTION, {"type": "input", "element": field, "value": value}
        )

    def submit_form(self, form: Element, extra_fields: Optional[Dict[str, str]] = None):
        """Submit a <form>: run onsubmit, then send it unless cancelled.

        Generator process returning the resulting Page (or the current
        page when the submission was intercepted).
        """
        if extra_fields:
            for name, value in extra_fields.items():
                field = self._find_form_field(form, name)
                if field is None:
                    field = Element("input", {"type": "hidden", "name": name})
                    form.append_child(field)
                self.fill_field(field, value)

        outcome = self.dispatch_event(form, "submit")
        if outcome is False:
            return self.page

        fields = self.collect_form_fields(form)
        action = form.get_attribute("action") or str(self.page.url)
        method = (form.get_attribute("method") or "GET").upper()
        if method == "POST":
            page = yield from self.navigate(action, method="POST", body=encode_form(fields))
        else:
            target = parse_url(action)
            query = encode_form(fields).decode("utf-8")
            target = target.replace(query=query or None)
            page = yield from self.navigate(target)
        return page

    @staticmethod
    def collect_form_fields(form: Element) -> Dict[str, str]:
        """Current name→value pairs of a form's controls."""
        fields: Dict[str, str] = {}
        for element in form.descendant_elements():
            name = element.get_attribute("name")
            if not name:
                continue
            if element.tag == "input":
                input_type = (element.get_attribute("type") or "text").lower()
                if input_type in ("checkbox", "radio") and not element.has_attribute("checked"):
                    continue
                if input_type in ("submit", "button", "image"):
                    continue
                fields[name] = element.get_attribute("value") or ""
            elif element.tag == "textarea":
                fields[name] = element.text_content
            elif element.tag == "select":
                selected = ""
                for option in element.get_elements_by_tag_name("option"):
                    value = option.get_attribute("value") or option.text_content
                    if option.has_attribute("selected") or not selected:
                        selected = value
                    if option.has_attribute("selected"):
                        break
                fields[name] = selected
        return fields

    @staticmethod
    def _find_form_field(form: Element, name: str) -> Optional[Element]:
        for element in form.descendant_elements():
            if element.get_attribute("name") == name and element.tag in (
                "input",
                "textarea",
                "select",
            ):
                return element
        return None

    # -- housekeeping -------------------------------------------------------------

    def clear_cache(self) -> None:
        """Empty the browser's object cache."""
        self.cache.clear()

    def close(self) -> None:
        """Drop connections and uninstall every extension."""
        self.client.close()
        for extension in list(self.extensions):
            extension.uninstall()
