"""Ablation: the timestamp mechanism (paper §4.1.1).

RCB-Agent keeps a timestamp for the latest content and only answers a
poll with content the participant has not seen.  The baseline is a
participant that never acknowledges what it holds: it polls with
timestamp 0, so every poll gets the full envelope.  Measured on an idle
session showing a large page: the timestamp protocol collapses
steady-state traffic to empty keep-alive responses.
"""

from repro.core import CoBrowsingSession
from repro.workloads import build_lan

from conftest import write_result

IDLE_WINDOW = 30.0
SITE = "yahoo.com"  # the second-largest page: worst case for resending


def never_acknowledge(snippet):
    """Keep ``snippet`` polling with timestamp 0, whatever it applies."""

    def forget(_content):
        snippet.last_doc_time = 0

    snippet.last_doc_time = 0
    snippet.on_content = forget


def measure(acknowledge):
    testbed = build_lan()
    session = CoBrowsingSession(testbed.host_browser, poll_interval=1.0)
    sim = testbed.sim
    outcome = {}

    def scenario():
        snippet = yield from session.join(testbed.participant_browser)
        yield from session.host_navigate("http://%s/" % SITE)
        yield from session.wait_until_synced()
        if not acknowledge:
            never_acknowledge(snippet)

        bytes_before = testbed.host_browser.host.link.up.bytes_carried
        responses_before = session.agent.stats["content_responses"]
        yield sim.timeout(IDLE_WINDOW)
        outcome["idle_upload_bytes"] = (
            testbed.host_browser.host.link.up.bytes_carried - bytes_before
        )
        outcome["content_responses"] = (
            session.agent.stats["content_responses"] - responses_before
        )
        session.leave(snippet)

    testbed.run(scenario())
    session.close()
    return outcome


def test_timestamp_dedup_vs_resend(benchmark, results_dir):
    def both():
        return measure(acknowledge=True), measure(acknowledge=False)

    with_timestamp, resend = benchmark.pedantic(both, rounds=1, iterations=1)

    text = "\n".join(
        [
            "Ablation: timestamp inspection vs resend-on-every-poll (idle session, %s)" % SITE,
            "%-18s %20s %20s" % ("variant", "idle upload bytes", "content responses"),
            "%-18s %20d %20d"
            % ("timestamp (paper)", with_timestamp["idle_upload_bytes"], with_timestamp["content_responses"]),
            "%-18s %20d %20d"
            % ("always resend", resend["idle_upload_bytes"], resend["content_responses"]),
            "saving: %.1fx less idle upload traffic"
            % (resend["idle_upload_bytes"] / max(1, with_timestamp["idle_upload_bytes"])),
        ]
    )
    write_result(results_dir, "ablation_timestamp.txt", text)

    # With timestamps, an idle session sends no content at all.
    assert with_timestamp["content_responses"] == 0
    assert resend["content_responses"] >= IDLE_WINDOW / 1.0 - 2
    # The timestamp protocol saves at least an order of magnitude of
    # steady-state upload traffic on a large page.
    assert resend["idle_upload_bytes"] > 10 * with_timestamp["idle_upload_bytes"]
