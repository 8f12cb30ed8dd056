"""Per-layer timing taken from outside the program.

:class:`LayerTrace` wraps the public entry point of every layer — a
method on its class, or a module-level function under every name it is
bound to — and records call counts, bytes and *self* time: a wrapper
stack charges each interval to the innermost wrapped layer only.
Generator entry points (the simulation's processes) are timed per
resume, so time parked in the kernel is never charged to them.
:meth:`LayerTrace.restore` puts every original back.

The wrappers only observe: arguments and results pass through
untouched, so wire bytes and ``doc_time`` are those of the bare
program (the runner checks this on every traced run).

:func:`profile_by_module` is the cProfile cross-check: self time per
module, with built-in calls charged to the module that called them.
"""

import cProfile
import inspect
import os
import pstats
import sys
import time
from collections import defaultdict

#: Layer -> the modules whose code the layer's wrappers stand for; the
#: cProfile cross-check names any other module above 5% of work time.
LAYER_MODULES = {
    "sim": ("repro.sim.kernel", "repro.sim.resources"),
    # URL parsing runs under the browser, http and content wrappers.
    "net": ("repro.net.socket", "repro.net.link", "repro.net.url"),
    "http": (
        "repro.http.parser",
        "repro.http.message",
        "repro.http.wire",
        "repro.http.client",
        "repro.http.server",
        "repro.http.cookies",
    ),
    "html": (
        "repro.html.parser",
        "repro.html.tokenizer",
        "repro.html.serializer",
        "repro.html.dom",
        "repro.html.entities",
    ),
    "browser": ("repro.browser.browser", "repro.browser.cache", "repro.browser.page"),
    "webserver": ("repro.webserver.server",),
    "content": ("repro.core.content",),
    "delta": ("repro.core.delta",),
    "serve": ("repro.core.agent", "repro.core.serveplan"),
    "transport": ("repro.core.transport",),
    "decode": ("repro.core.xmlformat",),
    "apply": ("repro.core.snippet",),
}

#: Layer -> its per-layer metrics and the end-to-end metric they should
#: move, on which workload (written down before any measurement).
SHOULD_MOVE = {
    "sim": {
        "metrics": ["sim.events", "sim.self_s"],
        "moves": "ops_per_s on broadcast-wan-n256; about none on flash-crowd-n10k",
    },
    "net": {
        "metrics": ["net.bytes", "net.connections", "net.self_s"],
        "moves": "ops_per_s and staleness on broadcast-wan-n256",
    },
    "http": {
        "metrics": ["http.messages", "http.self_s", "http.zero_copy_ratio"],
        "moves": "ops_per_s on broadcast-wan-n256",
    },
    "html": {
        "metrics": ["html.parse_bytes", "html.parse_s", "html.serialize_s"],
        "moves": "ops_per_s on surf-lan; setup_s on broadcast-wan-n256",
    },
    "browser": {
        "metrics": ["browser.object_scans", "browser.objects_s", "browser.navigate_s"],
        "moves": "ops_per_s on broadcast-wan-n256 (per-delta rescan) and surf-lan",
    },
    "webserver": {
        "metrics": ["origin.requests", "origin.s"],
        "moves": "ops_per_s on surf-lan",
    },
    "content": {
        "metrics": ["content.generations", "content.generate_s", "content.reuse_ratio"],
        "moves": "ops_per_s on surf-lan",
    },
    "delta": {
        "metrics": ["delta.diffs", "delta.diff_s", "delta.wasted_diff_ratio", "delta.apply_s"],
        "moves": "ops_per_s on surf-lan (navigation diffs); no change on broadcast-wan-n256",
    },
    "serve": {
        "metrics": [
            "serve.polls",
            "serve.self_s",
            "serve.amortization",
            "serve.join_us",
            "serve.join_samples",
            "serve.steady_us",
            "serve.steady_samples",
            "serve.wall_p99_us",
            "agent.broadcast_s",
        ],
        "moves": "ops_per_s on flash-crowd-n10k and broadcast-wan-n256",
        # The same names have two sources, so compare them within one
        # workload only.
        "sources": {
            "serve.join_us, serve.steady_us, serve.wall_p99_us on flash-crowd-n10k": (
                "the load generator's clock around each _poll_response call, "
                "in the untraced episode"
            ),
            "serve.join_us, serve.steady_us, serve.wall_p99_us elsewhere": (
                "the _poll_response wrapper's active time summed over its "
                "resumes, in the traced episode; includes nested layers and "
                "their wrappers' overhead"
            ),
        },
    },
    "transport": {
        "metrics": ["transport.held_polls", "transport.releases"],
        "moves": "staleness on broadcast-wan-n256",
    },
    "decode": {
        "metrics": ["decode.envelopes", "decode.bytes", "decode.s", "decode.unescape_s"],
        "moves": "ops_per_s on surf-lan; setup_s on broadcast-wan-n256",
    },
    "apply": {
        "metrics": ["apply.updates", "apply.s", "apply.resyncs"],
        "moves": "ops_per_s on surf-lan and broadcast-wan-n256",
    },
    "trace": {
        "metrics": [
            "staleness.samples",
            "trace.coverage",
            "trace.overhead",
            "trace.uncovered_modules",
        ],
        "moves": "nothing: how much of the work wall time the wrappers see, and what they cost",
    },
}


class LayerTrace:
    """Install wrappers around each layer's entry points."""

    def __init__(self):
        self._stack = []
        self._mark = 0.0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.amount = defaultdict(int)
        #: (active wall seconds, joined) per ``_poll_response`` call.
        self.serves = []
        self._patches = []

    # -- bookkeeping ------------------------------------------------------------------

    def reset(self):
        """Zero every counter (the stack must be empty: call between
        simulation steps, e.g. when the work phase begins)."""
        self.self_s.clear()
        self.calls.clear()
        self.amount.clear()
        self.serves = []

    def _enter(self, bucket):
        now = time.perf_counter()
        stack = self._stack
        if stack:
            self.self_s[stack[-1]] += now - self._mark
        stack.append(bucket)
        self._mark = now

    def _leave(self):
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    # -- wrapper factories ------------------------------------------------------------

    def _wrap_function(self, fn, bucket, on_call, on_return):
        enter, leave, calls = self._enter, self._leave, self.calls

        def wrapper(*args, **kwargs):
            calls[bucket] += 1
            context = on_call(args) if on_call is not None else None
            enter(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if on_return is not None:
                on_return(context, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, bucket, on_call, on_return):
        enter, leave, calls = self._enter, self._leave, self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[bucket] += 1
            context = on_call(args) if on_call is not None else None
            generator = fn(*args, **kwargs)
            active = 0.0
            value, error = None, None
            while True:
                enter(bucket)
                started = perf()
                try:
                    if error is None:
                        yielded = generator.send(value)
                    else:
                        yielded = generator.throw(error)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    active += perf() - started
                    leave()
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped generator
                    value, error = None, exc
            if on_return is not None:
                on_return(context, args, (result, active))
            return result

        return wrapper

    def _make(self, fn, bucket, on_call=None, on_return=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, bucket, on_call, on_return)
        return self._wrap_function(fn, bucket, on_call, on_return)

    # -- patching ---------------------------------------------------------------------

    def method(self, cls, name, bucket, on_call=None, on_return=None):
        """Wrap ``cls.name`` (instances look methods up on the class)."""
        original = cls.__dict__[name]
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapper = self._make(fn, bucket, on_call, on_return)
        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    def function(self, fn, bucket, on_call=None, on_return=None):
        """Wrap a module-level function under every name it is bound to
        in a loaded ``repro`` module: ``from .x import y`` call sites
        look ``y`` up in their own module, not in ``x``."""
        wrapper = self._make(fn, bucket, on_call, on_return)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self):
        """Put every original back, in reverse order."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the layer map ----------------------------------------------------------------

    def install(self):
        """Wrap every layer's entry points (see the ledger's layer table)."""
        from repro.browser.browser import Browser
        from repro.core import agent as agent_mod
        from repro.core import content, delta, snippet, xmlformat
        from repro.html import parser as html_parser
        from repro.html import serializer
        from repro.http import client, message, parser as http_parser, server
        from repro.net import socket
        from repro.sim import kernel

        from clock import Stopwatch

        amount = self.amount

        def add(key, size_of):
            def on_call(args):
                amount[key] += size_of(args)

            return on_call

        # sim: one call per event; resumed program code is "app" unless
        # a wrapped layer below claims it.
        self.method(kernel.Simulator, "step", "sim")
        self.method(kernel.Process, "_resume", "app")
        # The ledger's speed probes interrupt whatever code is running;
        # keep them out of the layer they interrupted.
        self.method(Stopwatch, "mark", "app")

        # net: the socket API of the TCP model.
        self.method(socket.Host, "connect", "net", add("net.connections", lambda a: 1))
        self.method(socket.Connection, "send", "net", add("net.bytes", lambda a: len(a[1])))
        self.method(
            socket.Connection,
            "sendv",
            "net",
            add("net.bytes", lambda a: sum(len(b) for b in a[1])),
        )
        self.method(socket.Connection, "recv", "net")
        self.method(socket.Connection, "close", "net")

        # http: framing both ways, the client exchange and the server pump.
        def parsed(_context, _args, result):
            amount["http.messages"] += len(result)

        self.method(http_parser._MessageParser, "feed", "http", on_return=parsed)
        self.method(message.HttpRequest, "to_bytes", "http")
        self.method(message.HttpResponse, "to_bytes", "http")
        self.method(message.HttpResponse, "wire_buffers", "http")
        self.method(client.HttpClient, "request", "http")
        self.function(server.serve_connection, "http")

        # html: tokenize + parse, and serialization.
        markup_size = add("html.parse_bytes", lambda a: len(a[0]))
        self.function(html_parser.parse_document, "html.parse", markup_size)
        self.function(html_parser.parse_fragment, "html.parse", markup_size)
        for name in (
            "serialize_document",
            "serialize_node",
            "serialize_children",
            "serialize_node_cached",
            "serialize_children_cached",
            "transform_children_cached",
        ):
            self.function(getattr(serializer, name), "html.serialize")

        # browser: page loads and the per-update object rescan.
        self.method(Browser, "navigate", "browser.navigate")
        self.method(Browser, "fetch_current_objects", "browser.objects")

        # webserver: origin request handling.
        self.method(server.HttpServer, "_dispatch", "origin")

        # content generation, delta diff and apply.
        self.method(content.ContentGenerator, "generate", "content")
        self.function(delta.diff_trees, "delta.diff")
        self.function(delta.apply_delta, "delta.apply")

        # serve: the poll endpoint and the broadcast fan-out.
        def before_poll(args):
            return len(args[0].participants)

        def after_poll(members_before, args, outcome):
            _response, active = outcome
            self.serves.append((active, len(args[0].participants) > members_before))

        self.method(agent_mod.RCBAgent, "_poll_response", "serve", before_poll, after_poll)
        self.method(agent_mod.RCBAgent, "broadcast_action", "agent.broadcast")

        # transport: parked long polls and how they ended.
        def after_hold(_context, args, outcome):
            (start, end), _active = outcome
            if end - start < args[2] - 1e-9:
                amount["transport.releases"] += 1

        self.method(agent_mod.RCBAgent, "_hold_for_change", "transport", on_return=after_hold)

        # decode: envelope parsing, with the unescape loop split out.
        self.function(
            xmlformat.parse_envelope, "decode", add("decode.bytes", lambda a: len(a[0]))
        )
        self.function(xmlformat.js_unescape, "decode.unescape")

        # apply: the snippet's in-place update paths.
        self.method(snippet.AjaxSnippet, "_apply_update", "apply")
        self.method(snippet.AjaxSnippet, "_apply_delta_ops", "apply")


def _module_of(filename, src_root):
    """Dotted module name for a profiled code object's file."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    path = os.path.abspath(filename)
    for root in (src_root, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))):
        if path.startswith(root + os.sep):
            relative = os.path.relpath(path, root)
            return relative[: -len(".py")].replace(os.sep, ".").replace(".__init__", "")
    stem = os.path.splitext(os.path.basename(path))[0]
    return "stdlib:" + stem


def profile_by_module(run, src_root):
    """Run ``run()`` under cProfile; return ({module: self seconds},
    total self seconds).  A built-in's time goes to its callers'
    modules, in proportion to the time each caller spent in it."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    per_module = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        module = _module_of(filename, src_root)
        if module is not None:
            per_module[module] += tottime
            continue
        spent = {caller: entry[2] for caller, entry in callers.items()}
        share_total = sum(spent.values())
        for caller, caller_time in spent.items():
            owner = _module_of(caller[0], src_root) or "builtins"
            weight = caller_time / share_total if share_total else 1.0 / len(spent)
            per_module[owner] += tottime * weight
        if not callers:
            per_module["builtins"] += tottime
    return dict(per_module), sum(per_module.values())


def uncovered_modules(per_module, total, threshold=0.05):
    """Modules above ``threshold`` of profiled self time that no layer's
    wrappers stand for, largest first."""
    covered = {module for modules in LAYER_MODULES.values() for module in modules}
    rows = [
        (module, seconds / total)
        for module, seconds in per_module.items()
        if total and seconds / total > threshold and module not in covered
    ]
    return sorted(rows, key=lambda row: -row[1])
