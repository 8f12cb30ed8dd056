"""Span and event exporters: JSONL dumps and Chrome trace-event files.

Formats and audiences:

* **Span JSONL** — one :meth:`~repro.obs.trace.Span.to_dict` object per
  line; trivially greppable/`jq`-able, the format the nightly benchmark
  artifacts keep.
* **Event JSONL** — one :meth:`~repro.obs.events.Event.to_dict` object
  per line, in emission order; what ``repro logs --json`` prints.
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` /
  Perfetto.  Each span becomes a complete ("X") event; pipeline nodes
  (host, relays, participants) map to named threads so a relayed
  session renders as a per-tier flame chart.  Sim-time seconds map to
  the format's microsecond timestamps.
* **Collapsed stacks** — ``frame;frame value`` lines weighted by span
  *self* time (Brendan Gregg's ``flamegraph.pl`` input), built from a
  :class:`~repro.obs.profile.Profile`'s call tree.
* **Speedscope JSON** — one file, two profiles: the sim self-time axis
  and the wall-compute axis, loadable at https://www.speedscope.app.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .events import EventBus
from .profile import Profile, build_profile
from .trace import Span, Tracer

__all__ = [
    "chrome_trace",
    "collapsed_stacks",
    "events_to_jsonl",
    "spans_to_jsonl",
    "speedscope_profile",
    "write_chrome_trace",
    "write_collapsed",
    "write_spans_jsonl",
    "write_speedscope",
]


def _spans(source) -> List[Span]:
    if isinstance(source, Tracer):
        return source.spans
    return list(source)


def spans_to_jsonl(source) -> str:
    """Serialize spans (a Tracer or iterable) to JSON-lines text."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True) for span in _spans(source))


def write_spans_jsonl(source, path: str) -> int:
    """Write the JSONL dump to ``path``; returns the span count."""
    spans = _spans(source)
    with open(path, "w") as handle:
        text = spans_to_jsonl(spans)
        if text:
            handle.write(text + "\n")
    return len(spans)


def _events(source) -> List:
    if isinstance(source, EventBus):
        return source.events()
    return list(source)


def events_to_jsonl(source) -> str:
    """Serialize events (an EventBus or iterable) to JSON-lines text."""
    return "\n".join(
        json.dumps(event.to_dict(), sort_keys=True) for event in _events(source)
    )


def chrome_trace(source) -> Dict[str, object]:
    """Build a ``chrome://tracing``-loadable trace-event document.

    All spans share pid 1 (one simulated deployment); each pipeline
    node gets its own tid plus a ``thread_name`` metadata record.  Span
    tags and identity ride along in ``args`` so the original trace tree
    is recoverable from the export alone.
    """
    spans = _spans(source)
    tids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    for span in spans:
        node = span.node or "?"
        tid = tids.get(node)
        if tid is None:
            tid = tids[node] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": node},
                }
            )
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.tags)
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "name": span.name,
                "cat": span.trace_id,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(source, path: str) -> int:
    """Write the Chrome trace-event document to ``path``; returns the
    number of span events written (metadata records excluded)."""
    document = chrome_trace(source)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")


def _profile(source) -> Profile:
    if isinstance(source, Profile):
        return source
    return build_profile(source)


def collapsed_stacks(source, wall: bool = False) -> str:
    """Collapsed-stack flame-graph text from a Tracer, span iterable,
    or prebuilt :class:`~repro.obs.profile.Profile`.  ``wall`` weights
    frames by wall compute instead of sim self-time."""
    return "\n".join(_profile(source).collapsed(wall=wall))


def write_collapsed(source, path: str, wall: bool = False) -> int:
    """Write collapsed stacks to ``path``; returns the line count."""
    text = collapsed_stacks(source, wall)
    with open(path, "w") as handle:
        if text:
            handle.write(text + "\n")
    return text.count("\n") + 1 if text else 0


def speedscope_profile(source, name: str = "repro profile") -> Dict[str, object]:
    """Build a speedscope-JSON document with both cost axes.

    Profile 0 weights stacks by **sim self-time**, profile 1 by **wall
    compute** (the ``wall_seconds`` tags) — flip between them in the
    speedscope UI.  Weights are whole microseconds; zero-weight stacks
    are dropped per axis.
    """
    profile = _profile(source)
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def index_of(frame_name: str) -> int:
        idx = frame_index.get(frame_name)
        if idx is None:
            idx = frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return idx

    stacks = profile.stacks()
    profiles: List[Dict[str, object]] = []
    for axis_name, wall in (("sim self-time", False), ("wall compute", True)):
        samples: List[List[int]] = []
        weights: List[int] = []
        total = 0
        for path, self_seconds, wall_seconds, _count in stacks:
            micros = int(round((wall_seconds if wall else self_seconds) * 1e6))
            if micros <= 0:
                continue
            samples.append([index_of(frame) for frame in path])
            weights.append(micros)
            total += micros
        profiles.append(
            {
                "type": "sampled",
                "name": axis_name,
                "unit": "microseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.export",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def write_speedscope(source, path: str, name: str = "repro profile") -> int:
    """Write the speedscope document to ``path``; returns the total
    sample count across both axes."""
    document = speedscope_profile(source, name=name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return sum(len(profile["samples"]) for profile in document["profiles"])
