"""Random-surf workload: long co-browsing sessions over many pages.

The paper's sessions are short and scripted; real co-browsing sessions
wander.  This workload generates a deterministic pseudo-random browsing
trace over the Table-1 sites — navigations, in-page DHTML mutations,
participant think-time pauses, and participant-initiated actions — and
drives a live session through it, verifying convergence after every
step.  Used by the soak tests and the throughput benchmark.
"""

from __future__ import annotations

import random
from typing import List

from ..core.session import CoBrowsingSession
from ..webserver.sites import TABLE1_SITES
from .environments import Testbed

__all__ = ["SurfOperation", "generate_trace", "run_surf", "SurfReport"]


class SurfOperation:
    """One step of a surfing trace."""

    __slots__ = ("kind", "argument")

    def __init__(self, kind: str, argument=None):
        if kind not in ("visit", "mutate", "idle", "participant_fill"):
            raise ValueError("unknown surf operation %r" % (kind,))
        self.kind = kind
        self.argument = argument

    def __repr__(self):
        return "SurfOperation(%s, %r)" % (self.kind, self.argument)


def generate_trace(seed: int, length: int) -> List[SurfOperation]:
    """A deterministic trace of ``length`` operations over the Table-1 sites."""
    if length < 1:
        raise ValueError("length must be positive")
    rng = random.Random(seed)
    hosts = [spec.host for spec in TABLE1_SITES]
    operations: List[SurfOperation] = [SurfOperation("visit", rng.choice(hosts))]
    for _ in range(length - 1):
        roll = rng.random()
        if roll < 0.45:
            operations.append(SurfOperation("visit", rng.choice(hosts)))
        elif roll < 0.70:
            operations.append(SurfOperation("mutate", rng.randint(0, 10**6)))
        elif roll < 0.90:
            operations.append(SurfOperation("idle", round(rng.uniform(0.1, 2.0), 3)))
        else:
            operations.append(
                SurfOperation("participant_fill", "typed-%d" % rng.randint(0, 999))
            )
    return operations


class SurfReport:
    """Outcome of a surf run."""

    def __init__(self):
        self.pages_visited = 0
        self.mutations = 0
        self.participant_fills = 0
        self.syncs_verified = 0
        self.sim_seconds = 0.0

    def __repr__(self):
        return "SurfReport(%d pages, %d mutations, %d verified syncs)" % (
            self.pages_visited,
            self.mutations,
            self.syncs_verified,
        )


def run_surf(testbed: Testbed, session: CoBrowsingSession, trace: List[SurfOperation]):
    """Generator process: drive the session through ``trace``.

    Every operation but an idle is followed by a synchronization barrier
    and a host/participant equivalence check — the timestamp-protocol
    invariant exercised at scale.
    """
    sim = testbed.sim
    host_browser = testbed.host_browser
    participant = testbed.participant_browser
    report = SurfReport()
    started = sim.now

    snippet = yield from session.join(participant, participant_id="surfer")

    def verify():
        assert participant.page.document.title == host_browser.page.document.title
        assert (
            participant.page.document.body.text_content
            == host_browser.page.document.body.text_content
        )
        report.syncs_verified += 1

    for operation in trace:
        if operation.kind == "visit":
            yield from session.host_navigate("http://%s/" % operation.argument)
            report.pages_visited += 1
        elif operation.kind == "mutate":
            value = operation.argument

            def mutate(document, value=value):
                heading = document.get_elements_by_tag_name("h2")
                if heading:
                    heading[0].inner_html = "mutated-%d" % value
                else:
                    document.body.append_child(
                        document.create_element("div", id="mutated-%d" % value)
                    )

            host_browser.mutate_document(mutate)
            report.mutations += 1
        elif operation.kind == "idle":
            yield sim.timeout(operation.argument)
            continue  # nothing changed; no barrier needed
        elif operation.kind == "participant_fill":
            field = None
            for element in participant.page.document.descendant_elements():
                if element.tag == "input" and element.get_attribute("type") == "text":
                    field = element
                    break
            if field is not None:
                participant.fill_field(field, operation.argument)
                participant.dispatch_event(field, "change")
                yield from snippet.flush()
                report.participant_fills += 1
        yield from session.wait_until_synced(timeout=600)
        verify()

    yield from session.wait_until_synced(timeout=600)
    verify()
    session.leave(snippet)
    report.sim_seconds = sim.now - started
    return report
