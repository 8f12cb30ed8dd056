"""Property-based tests: kernel ordering, link model, protocol invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.net import LAN_PROFILE, WAN_HOME_PROFILE, Host, Network
from repro.net.link import DirectionalChannel
from repro.sim import Simulator, Store


# -- kernel ordering -------------------------------------------------------------


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
def test_fifo_among_equal_times(delays):
    """Processes scheduled for the same instant run in creation order."""
    sim = Simulator()
    fired = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        fired.append((sim.now, tag))

    for tag, delay in enumerate(delays):
        sim.process(waiter(float(delay), tag))
    sim.run()
    for time_value in set(delay for delay in delays):
        tags_at = [tag for when, tag in fired if when == float(time_value)]
        assert tags_at == sorted(tags_at)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_simulation_is_deterministic(seed):
    """Two runs of the same randomized process graph produce identical
    event traces."""

    def build_and_run():
        rng = random.Random(seed)
        sim = Simulator()
        trace = []

        def worker(worker_id):
            for step in range(rng.randint(1, 5)):
                yield sim.timeout(rng.uniform(0, 10))
                trace.append((round(sim.now, 9), worker_id, step))

        for worker_id in range(rng.randint(1, 6)):
            sim.process(worker(worker_id))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40))
def test_store_preserves_fifo_order(items):
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for item in items:
            store.put(("item", item))
            yield sim.timeout(0)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value[1])

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == list(items)


# -- link model ---------------------------------------------------------------------


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=0, max_value=10**7),
)
def test_serialization_delay_monotone_in_size(a, b):
    small, large = sorted((a, b))
    sim_one = Simulator()
    channel_one = DirectionalChannel(sim_one, 1e6)
    sim_two = Simulator()
    channel_two = DirectionalChannel(sim_two, 1e6)
    assert channel_one.serialization_delay(small) <= channel_two.serialization_delay(large)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=10))
def test_queued_transfers_sum_exactly(sizes):
    """Back-to-back sends on one channel serialize: total busy time is
    exactly the sum of individual serialization times."""
    sim = Simulator()
    channel = DirectionalChannel(sim, 1e6)
    total = 0.0
    for size in sizes:
        total = channel.serialization_delay(size)
    expected = sum(size * 8.0 / 1e6 for size in sizes)
    assert abs(total - expected) < 1e-9
    assert channel.bytes_carried == sum(sizes)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**6))
def test_transfer_delay_at_least_bottleneck(nbytes):
    sim = Simulator()
    network = Network(sim)
    a = Host(network, "a", WAN_HOME_PROFILE, segment="home-a")
    b = Host(network, "b", WAN_HOME_PROFILE, segment="home-b")
    delay = network.transfer_delay(a, b, nbytes)
    bottleneck = nbytes * 8.0 / WAN_HOME_PROFILE.up_bps
    assert delay >= bottleneck
    assert delay >= network.propagation_latency(a, b)


# -- protocol invariant: participant converges to host state ---------------------------


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(["mutate", "wait", "navigate"]), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_participant_converges_after_any_operation_sequence(operations, seed):
    """Whatever interleaving of host mutations, navigations, and idle
    waits occurs, once the host settles the participant's rendered text
    equals the host's (the timestamp protocol never wedges)."""
    from repro.browser import Browser
    from repro.core import CoBrowsingSession
    from repro.webserver import OriginServer, StaticSite

    rng = random.Random(seed)
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page("/", "<html><head><title>A</title></head><body><p id='x'>0</p></body></html>")
    site.add_page("/b", "<html><head><title>B</title></head><body><p id='x'>b</p></body></html>")
    OriginServer(network, "s.com", site.handle)
    hb = Browser(Host(network, "h", LAN_PROFILE, segment="lan"), name="h")
    pb = Browser(Host(network, "p", LAN_PROFILE, segment="lan"), name="p")
    session = CoBrowsingSession(hb, poll_interval=0.2)

    def scenario():
        yield from session.join(pb)
        yield from session.host_navigate("http://s.com/")
        for operation in operations:
            if operation == "mutate":
                value = rng.randint(0, 999)
                hb.mutate_document(
                    lambda doc, value=value: setattr(
                        doc.get_element_by_id("x"), "inner_html", str(value)
                    )
                )
            elif operation == "navigate":
                target = rng.choice(["http://s.com/", "http://s.com/b"])
                yield from session.host_navigate(target)
            else:
                yield sim.timeout(rng.uniform(0, 0.5))
        yield from session.wait_until_synced()

    sim.run_until_complete(sim.process(scenario()), limit=1e6)
    assert pb.page.document.body.text_content == hb.page.document.body.text_content
    assert pb.page.document.title == hb.page.document.title
    session.close()
