"""Deterministic synthetic homepage generator.

The paper's performance evaluation co-browses the homepages of 20 Alexa
top sites (Table 1).  Those 2009 pages are gone; what the experiments
actually depend on is each page's HTML document size (Table 1 column 3),
a realistic set of supplementary objects (images / CSS / JS), and normal
HTML structure for the content pipeline to chew on.  This generator
produces all three deterministically from a site name and a target size,
so every run of every benchmark sees byte-identical sites.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

__all__ = ["GeneratedSite", "generate_site"]

_WORDS = (
    "news sports travel music video search mail maps shopping finance health "
    "games weather world local business technology science entertainment "
    "politics books movies autos careers education food lifestyle opinion "
    "markets deals trending featured popular latest exclusive premium daily"
).split()

_SECTIONS = ("header", "navigation", "hero", "column", "sidebar", "footer")


class GeneratedSite:
    """A generated homepage: HTML plus its supplementary objects."""

    def __init__(self, host: str, html: str, objects: Dict[str, Tuple[str, bytes]]):
        self.host = host
        self.html = html
        #: path -> (content_type, payload)
        self.objects = objects

    @property
    def html_size(self) -> int:
        """Byte size of the homepage HTML."""
        return len(self.html.encode("utf-8"))

    @property
    def object_paths(self) -> List[str]:
        """Paths of every supplementary object."""
        return list(self.objects.keys())

    def __repr__(self) -> str:
        return "GeneratedSite(%r, %.1f KB html, %d objects)" % (
            self.host,
            self.html_size / 1024.0,
            len(self.objects),
        )


def generate_site(host: str, target_html_kb: float) -> GeneratedSite:
    """Build a deterministic synthetic homepage for ``host``.

    The HTML document is grown to within ~2% of ``target_html_kb``, and
    the random stream is seeded from the host name.  Object counts are
    size-proportional values typical of 2009 portal homepages.
    """
    if target_html_kb <= 0:
        raise ValueError("target_html_kb must be positive")
    rng = random.Random(_stable_seed(host))

    image_count = max(4, min(40, int(target_html_kb / 4)))
    css_count = 1 + (1 if target_html_kb > 60 else 0)
    script_count = 1 + (2 if target_html_kb > 40 else 0)

    objects: Dict[str, Tuple[str, bytes]] = {}
    image_paths = []
    for index in range(image_count):
        path = "/images/%s_%02d.png" % (rng.choice(_WORDS), index)
        size = rng.randint(800, 9000)
        objects[path] = ("image/png", _binary_blob(rng, size))
        image_paths.append(path)
    css_paths = []
    for index in range(css_count):
        path = "/css/style_%d.css" % index
        objects[path] = ("text/css", _css_blob(rng).encode("utf-8"))
        css_paths.append(path)
    script_paths = []
    for index in range(script_count):
        path = "/js/lib_%d.js" % index
        objects[path] = ("application/javascript", _js_blob(rng).encode("utf-8"))
        script_paths.append(path)

    html = _build_html(host, target_html_kb, rng, image_paths, css_paths, script_paths)
    return GeneratedSite(host, html, objects)


def _stable_seed(host: str) -> int:
    value = 0
    for char in host:
        value = (value * 131 + ord(char)) % (2**31)
    return value


def _binary_blob(rng: random.Random, size: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(size))


def _css_blob(rng: random.Random) -> str:
    rules = []
    for _ in range(rng.randint(40, 120)):
        selector = ".%s-%d" % (rng.choice(_WORDS), rng.randint(0, 99))
        rules.append(
            "%s { color: #%06x; margin: %dpx; padding: %dpx; }"
            % (selector, rng.getrandbits(24), rng.randint(0, 20), rng.randint(0, 20))
        )
    return "\n".join(rules)


def _js_blob(rng: random.Random) -> str:
    lines = ["(function() {", "  var registry = {};"]
    for _ in range(rng.randint(60, 200)):
        name = "%s_%d" % (rng.choice(_WORDS), rng.randint(0, 999))
        lines.append(
            "  registry['%s'] = function(x) { return x * %d + %d; };"
            % (name, rng.randint(1, 9), rng.randint(0, 99))
        )
    lines.append("})();")
    return "\n".join(lines)


def _sentence(rng: random.Random) -> str:
    count = rng.randint(6, 16)
    words = [rng.choice(_WORDS) for _ in range(count)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _build_html(
    host: str,
    target_kb: float,
    rng: random.Random,
    image_paths: List[str],
    css_paths: List[str],
    script_paths: List[str],
) -> str:
    target_bytes = int(target_kb * 1024)
    head_parts = [
        "<title>%s — home</title>" % host,
        '<meta charset="utf-8">',
        '<meta name="generator" content="repro-pagegen">',
    ]
    for path in css_paths:
        head_parts.append('<link rel="stylesheet" href="%s">' % path)
    for path in script_paths:
        head_parts.append('<script src="%s"></script>' % path)
    head_parts.append(
        "<style>body { font-family: sans-serif; } .%s { display: block; }</style>"
        % rng.choice(_WORDS)
    )

    body_parts: List[str] = []
    image_iter = iter(image_paths * 100)  # recycle references if needed

    def section(kind: str) -> str:
        pieces = ['<div class="%s" id="%s-%d">' % (kind, kind, rng.randint(0, 9999))]
        pieces.append("<h2>%s</h2>" % _sentence(rng))
        for _ in range(rng.randint(1, 4)):
            pieces.append("<p>%s</p>" % " ".join(_sentence(rng) for _ in range(rng.randint(1, 3))))
        if rng.random() < 0.7:
            pieces.append('<img src="%s" alt="%s">' % (next(image_iter), rng.choice(_WORDS)))
        if rng.random() < 0.5:
            items = "".join(
                '<li><a href="/%s/%d.html">%s</a></li>'
                % (rng.choice(_WORDS), rng.randint(0, 999), _sentence(rng))
                for _ in range(rng.randint(2, 6))
            )
            pieces.append("<ul>%s</ul>" % items)
        pieces.append("</div>")
        return "".join(pieces)

    # Always reference every image at least once so the object set is
    # exactly what the page needs.
    gallery = "".join('<img src="%s" alt="">' % path for path in image_paths)
    body_parts.append('<div class="gallery">%s</div>' % gallery)
    # 2009 portal homepages shipped large inline script/data blobs
    # (personalization payloads, ad configs) — dense alphanumeric
    # content, roughly half of the document's bytes.
    blob_budget = int(target_bytes * 0.50)
    blob_lines = ["<script>var pageData = {"]
    blob_size = 0
    while blob_size < blob_budget:
        key = "%s_%d" % (rng.choice(_WORDS), rng.randint(0, 99999))
        value = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(rng.randint(40, 120))
        )
        line = "%s: '%s'," % (key, value)
        blob_lines.append(line)
        blob_size += len(line)
    blob_lines.append("};</script>")
    body_parts.append("".join(blob_lines))
    body_parts.append(
        '<form action="/search" method="GET" onsubmit="">'
        '<input type="text" name="q" value="">'
        '<input type="submit" value="Search"></form>'
    )

    skeleton = (
        "<!DOCTYPE html><html><head>%s</head><body>%s</body></html>"
    )
    while True:
        html = skeleton % ("".join(head_parts), "".join(body_parts))
        size = len(html.encode("utf-8"))
        if size >= target_bytes * 0.98:
            break
        remaining = target_bytes - size
        kind = _SECTIONS[rng.randint(0, len(_SECTIONS) - 1)]
        chunk = section(kind)
        if len(chunk) > remaining * 1.3 and remaining < 2048:
            # Pad precisely with a comment to land near the target.
            body_parts.append("<!--%s-->" % ("pad " * max(1, remaining // 5))[: max(0, remaining - 10)])
        else:
            body_parts.append(chunk)
    return html
