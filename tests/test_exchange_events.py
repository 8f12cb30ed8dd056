"""What one long-poll exchange costs the kernel, and the send
completion it rests on.

A held poll released by an edit costs five processed kernel events:
the hold's waiter, the response's delivery timer, the client's receive,
the re-poll's delivery timer and the agent's receive.  A hold that times
out adds its timer.  Steps are counted by wrapping ``Simulator.step``,
as the ledger's ``sim.events`` does.
"""

import pytest

from repro.browser import Browser
from repro.core import CoBrowsingSession
from repro.html import Text
from repro.net import LAN_PROFILE, Host, Network, NetworkError
from repro.sim import Interrupt, Simulator
from repro.webserver import OriginServer, StaticSite


def longpoll_world():
    """One LAN member long-polling a LAN host, synced and parked:
    ``(sim, host, snippet, agent)``."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page("/", "<html><head><title>S</title></head><body><h2>start</h2></body></html>")
    OriginServer(network, "s.com", site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    guest = Browser(Host(network, "g-pc", LAN_PROFILE, segment="lan"), name="g")
    session = CoBrowsingSession(host, poll_interval=0.5, transport="longpoll")

    def scenario():
        snippet = yield from session.join(guest)
        yield from session.host_navigate("http://s.com/")
        yield from session.wait_until_synced()
        return snippet

    snippet = sim.run_until_complete(sim.process(scenario()))
    sim.run(until=sim.now + 1.0)
    assert session.agent.stats["held_polls_open"] == 1
    return sim, host, snippet, session.agent


def count_steps(monkeypatch):
    """Count every processed kernel event from now on."""
    steps = []
    real_step = Simulator.step

    def step(self):
        steps.append(self.now)
        real_step(self)

    monkeypatch.setattr(Simulator, "step", step)
    return steps


def edit_heading(host, text):
    def mutate(document):
        heading = document.get_elements_by_tag_name("h2")[0]
        heading.remove_all_children()
        heading.append_child(Text(text))

    host.mutate_document(mutate)


class TestExchangeKernelEvents:
    def test_an_exchange_released_by_an_edit_costs_five_events(self, monkeypatch):
        sim, host, snippet, agent = longpoll_world()
        updates = snippet.stats.content_updates
        steps = count_steps(monkeypatch)
        edit_heading(host, "edited")
        sim.run(until=sim.now + 1.0)
        assert snippet.stats.content_updates == updates + 1
        assert agent.stats["held_polls_open"] == 1  # parked again
        assert len(steps) == 5

    def test_a_timed_out_hold_costs_six_events(self, monkeypatch):
        sim, _host, snippet, agent = longpoll_world()
        polls = agent.stats["polls"]
        steps = count_steps(monkeypatch)
        sim.run(until=sim.now + 30.0)  # past the 25 s hold
        assert agent.stats["polls"] == polls + 1
        assert agent.stats["held_polls_open"] == 1
        assert len(steps) == 6


def connected_pair():
    """A LAN client and server connection: ``(sim, client, server)``."""
    sim = Simulator()
    network = Network(sim)
    a = Host(network, "a", LAN_PROFILE, segment="campus")
    b = Host(network, "b", LAN_PROFILE, segment="campus")
    listener = b.listen(3000)

    def connect():
        client = yield a.connect("b", 3000)
        server = yield listener.accept()
        return client, server

    client, server = sim.run_until_complete(sim.process(connect()))
    return sim, client, server


class TestSendCompletion:
    @pytest.mark.parametrize("vectored", [False, True], ids=["send", "sendv"])
    def test_completion_value_is_the_byte_count(self, vectored):
        sim, client, _server = connected_pair()

        def sender():
            if vectored:
                return (yield client.sendv([b"ab", bytearray(b"cde"), memoryview(b"f")]))
            return (yield client.send(b"abcdef"))

        assert sim.run_until_complete(sim.process(sender())) == 6

    @pytest.mark.parametrize("vectored", [False, True], ids=["send", "sendv"])
    def test_the_bytes_are_on_the_receiver_when_the_sender_resumes(self, vectored):
        sim, client, server = connected_pair()

        def sender():
            yield (client.sendv([b"hel", b"lo"]) if vectored else client.send(b"hello"))
            arrived = server.recv()
            return arrived.triggered, arrived.value, server.bytes_received

        assert sim.run_until_complete(sim.process(sender())) == (True, b"hello", 5)

    @pytest.mark.parametrize("vectored", [False, True], ids=["send", "sendv"])
    def test_a_send_on_a_closed_connection_fails_at_once(self, vectored):
        sim, client, _server = connected_pair()

        def sender():
            client.close()
            started = sim.now
            event = client.sendv([b"x"]) if vectored else client.send(b"x")
            failed_on_return = event.triggered and not event.ok
            try:
                yield event
            except NetworkError:
                return failed_on_return, sim.now - started

        assert sim.run_until_complete(sim.process(sender())) == (True, 0.0)

    def test_an_interrupted_sender_still_delivers_its_bytes(self):
        sim, client, server = connected_pair()
        outcome = {}

        def sender():
            try:
                yield client.send(b"payload")
            except Interrupt:
                outcome["interrupted_at"] = sim.now

        def receiver():
            outcome["received"] = yield server.recv()

        proc = sim.process(sender())
        sim.process(receiver())
        sim.run(until=sim.now)  # the sender starts and parks on its send
        proc.interrupt("gone")
        sim.run()
        assert outcome["received"] == b"payload"
        assert server.bytes_received == 7
        assert outcome["interrupted_at"] < sim.now
