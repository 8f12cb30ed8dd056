"""Helpers for benchmarking RCB's real compute paths (M5 / M6).

M5 (response content generation) and M6 (participant document update)
are wall-clock metrics of the actual Python implementation, measured on
the same synthetic Table-1 homepages the network experiments use.  M5
times what the agent produces per document state: the generation pass
plus the wire template every participant's envelope is spliced from.
"""

from repro.browser import Browser, BrowserCache
from repro.browser.page import Page
from repro.core import AjaxSnippet, ContentGenerator, parse_envelope
from repro.core.serveplan import BroadcastPlan
from repro.core.xmlformat import wire_envelope_template
from repro.html import parse_document
from repro.net import LAN_PROFILE, Host, Network, parse_url
from repro.sim import Simulator
from repro.webserver import generate_table1_site


def served_envelope(template) -> str:
    """The envelope text a participant receives from ``template`` with
    no queued actions."""
    return BroadcastPlan(template).personalize(None).to_bytes().decode("ascii")


class SiteComputeHarness:
    """Everything needed to run generation/update for one site, offline."""

    def __init__(self, spec):
        self.spec = spec
        self.site = generate_table1_site(spec)
        self.base_url = parse_url("http://www.%s/" % spec.host)
        self.document = parse_document(self.site.html)
        self.cache = BrowserCache()
        for path, (content_type, data) in self.site.objects.items():
            self.cache.store(str(self.base_url.replace(path=path)), content_type, data)
        self.generator = ContentGenerator()
        self._envelope = served_envelope(self.generate(cache_mode=False))

    def generate(self, cache_mode):
        """One M5 unit of work: generate, then build the wire template."""
        generated = self.generator.generate(
            self.document,
            self.base_url,
            cache_session=self.cache.open_read_session(),
            cache_mode=cache_mode,
        )
        return wire_envelope_template(1, generated.head_segments, generated.top_segments)

    def make_participant_snippet(self):
        """A snippet wired to a throwaway browser showing the initial page."""
        sim = Simulator()
        network = Network(sim)
        host = Host(network, "bench-host-%d" % id(sim), LAN_PROFILE)
        browser = Browser(host, name="bench-participant")
        initial = parse_document(
            "<html><head><script id='ajax-snippet'></script></head>"
            "<body><p>waiting</p></body></html>"
        )
        browser.page = Page(parse_url("http://agent:3000/"), initial)
        snippet = AjaxSnippet(
            browser, "http://agent:3000/", poll_interval=1.0, fetch_objects=False
        )
        return snippet

    def apply_update(self, snippet):
        """One M6 unit of work: parse the envelope, update the document."""
        content = parse_envelope(self._envelope)
        snippet._apply_update(content)
