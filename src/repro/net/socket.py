"""Simulated TCP: hosts, listeners, and duplex connections.

The model is stream-oriented and deterministic.  A :class:`Host` attaches
to a :class:`Network` on a named *segment* through an
:class:`~repro.net.link.AccessLink`.  Two hosts on the same segment talk
at LAN latency; hosts on different segments pay the internet core latency
on top of both access links.  Data handed to :meth:`Connection.send` is
serialized through the sender's uplink (queued), propagated, serialized
through the receiver's downlink (queued), and then appears as a chunk on
the peer's receive buffer.

Connection establishment costs one round-trip, as for TCP's SYN/SYN-ACK
handshake, which is what makes short HTTP exchanges latency-bound in the
WAN experiments.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Event, Simulator, Store
from .link import AccessLink, LinkProfile

__all__ = [
    "Network",
    "Host",
    "ListenSocket",
    "Connection",
    "NetworkError",
    "ConnectionRefused",
    "HostUnreachable",
    "INTERNET_CORE_LATENCY",
]

#: One-way latency added when two hosts are on different network segments.
INTERNET_CORE_LATENCY = 0.020


class NetworkError(Exception):
    """Base class for simulated network failures."""


class ConnectionRefused(NetworkError):
    """No listener on the target port."""


class HostUnreachable(NetworkError):
    """Target host does not exist or is not reachable (e.g. behind NAT)."""


#: TCP initial congestion window (2 MSS, the pre-2010 default).
SLOW_START_INITIAL_BYTES = 2920

#: Resolver-chain cost added to one RTT for an uncached DNS lookup.
DNS_RESOLVER_COST = 0.05


class Network:
    """Registry of hosts and the latency topology between them.

    ``realistic=True`` enables the 2009-web fetch model the WAN
    experiments need: DNS lookup cost on first contact with a host, and
    TCP slow start (per-connection congestion window that persists, so
    warm keep-alive connections — like RCB's polling channel — ramp once
    and stay fast, while every cold page fetch pays log2(size/2 MSS)
    round trips).
    """

    def __init__(self, sim: Simulator, realistic: bool = False):
        self.sim = sim
        self.realistic = realistic
        self.hosts: Dict[str, "Host"] = {}

    def dns_lookup_cost(self, client: "Host", server: "Host") -> float:
        """One uncached resolution: a round trip plus resolver work."""
        return 2 * self.propagation_latency(client, server) + DNS_RESOLVER_COST

    def register(self, host: "Host") -> None:
        """Add a host to the name registry (names are unique)."""
        if host.name in self.hosts:
            raise NetworkError("duplicate host name %r" % (host.name,))
        self.hosts[host.name] = host

    def lookup(self, name: str) -> Optional["Host"]:
        """Resolve a host by name (case-insensitive), or None."""
        return self.hosts.get(name.lower())

    def propagation_latency(self, a: "Host", b: "Host") -> float:
        """One-way propagation latency between two hosts."""
        if a is b:
            return 0.0
        latency = a.link.latency_s + b.link.latency_s
        latency += a.extra_latency_s + b.extra_latency_s
        if a.segment != b.segment:
            latency += INTERNET_CORE_LATENCY
        return latency

    def transfer_delay(self, sender: "Host", receiver: "Host", nbytes: int) -> float:
        """Full delivery delay for ``nbytes`` from sender to receiver.

        Both access channels are reserved (queueing), but because bytes
        pipeline through the path, the end-to-end serialization cost is
        the slower of the two, not their sum.
        """
        if sender is receiver:
            return 0.0
        up = sender.link.up.serialization_delay(nbytes)
        down = receiver.link.down.serialization_delay(nbytes)
        return max(up, down) + self.propagation_latency(sender, receiver)


class Host:
    """A machine on the network: can listen, connect, and be NATed."""

    def __init__(
        self,
        network: Network,
        name: str,
        profile: LinkProfile,
        segment: str = "internet",
        public: bool = True,
        extra_latency_s: float = 0.0,
    ):
        self.network = network
        self.sim = network.sim
        self.name = name.lower()
        self.segment = segment
        self.link = AccessLink(network.sim, profile)
        #: Publicly reachable (resolvable hostname / reachable IP, §3.2.1).
        self.public = public
        #: Geographic distance penalty (one-way), e.g. overseas servers.
        self.extra_latency_s = extra_latency_s
        self._listeners: Dict[int, "ListenSocket"] = {}
        self._dns_cache: set = set()
        network.register(self)

    def __repr__(self) -> str:
        return "Host(%r, segment=%r)" % (self.name, self.segment)

    # -- server side ---------------------------------------------------------

    def listen(self, port: int) -> "ListenSocket":
        """Open a listening socket on ``port``."""
        if not 0 < port < 65536:
            raise NetworkError("port out of range: %r" % (port,))
        if port in self._listeners:
            raise NetworkError("port %d already in use on %s" % (port, self.name))
        listener = ListenSocket(self, port)
        self._listeners[port] = listener
        return listener

    def _close_listener(self, port: int) -> None:
        self._listeners.pop(port, None)

    def listener_on(self, port: int) -> Optional["ListenSocket"]:
        """The listening socket bound to ``port``, or None."""
        return self._listeners.get(port)

    # -- client side ---------------------------------------------------------

    def connect(self, target: str, port: int) -> Event:
        """Begin a handshake; the event yields a :class:`Connection`.

        Fails with :class:`HostUnreachable` or :class:`ConnectionRefused`.
        """
        result = self.sim.event()
        remote = self.network.lookup(target)
        if remote is None or (not remote.public and remote.segment != self.segment):
            # Paper §3.2.1: a host on a private address needs port
            # forwarding (repro.net.nat) to be reachable from outside.
            self._fail_later(result, HostUnreachable("cannot reach %r" % (target,)))
            return result
        dns_delay = 0.0
        if self.network.realistic and remote.name not in self._dns_cache:
            dns_delay = self.network.dns_lookup_cost(self, remote)
            self._dns_cache.add(remote.name)
        listener = remote.listener_on(port)
        if listener is None or listener.closed:
            rtt = 2 * self.network.propagation_latency(self, remote)
            self._fail_later(result, ConnectionRefused("%s:%d" % (target, port)), dns_delay + rtt)
            return result
        # A NAT gateway resolves a forwarded port to a listener owned by a
        # host inside its LAN; the connection terminates at that host.
        remote = listener.host

        rtt = 2 * self.network.propagation_latency(self, remote)

        local_end = Connection(self, remote, port)
        remote_end = Connection(remote, self, port)
        local_end._peer = remote_end
        remote_end._peer = local_end

        def deliver_to_listener(_event):
            if listener.closed:
                result.fail(ConnectionRefused("%s:%d" % (target, port)))
                return
            listener._backlog.put(remote_end)
            result.succeed(local_end)

        self.sim.timeout(dns_delay + rtt)._add_callback(deliver_to_listener)
        return result

    def _fail_later(self, event: Event, exc: Exception, delay: float = 0.0) -> None:
        def fail(_event):
            event.fail(exc)

        self.sim.timeout(delay)._add_callback(fail)


class ListenSocket:
    """Accept queue for incoming connections on a host/port."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self._backlog: Store = Store(host.sim)
        self.closed = False

    def accept(self) -> Event:
        """Event yielding the next accepted :class:`Connection`."""
        return self._backlog.get()

    def close(self) -> None:
        """Close the listener and refuse its backlog."""
        if self.closed:
            return
        self.closed = True
        self.host._close_listener(self.port)
        self._backlog.close()


class Connection:
    """One endpoint of an established duplex byte-stream."""

    def __init__(self, local: Host, remote: Host, port: int):
        self.local = local
        self.remote = remote
        self.port = port
        self.sim = local.sim
        self._inbox: Store = Store(local.sim)
        self._peer: Optional["Connection"] = None
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Send-side congestion window (slow-start model); persists for
        #: the connection's lifetime, so warm connections stay fast.
        self._cwnd = SLOW_START_INITIAL_BYTES

    def __repr__(self) -> str:
        return "Connection(%s -> %s:%d)" % (self.local.name, self.remote.name, self.port)

    @property
    def peer_name(self) -> str:
        """The remote host's name."""
        return self.remote.name

    def send(self, data: bytes) -> Event:
        """Transmit ``data``; the event fires with the byte count once
        delivery is complete.

        The payload arrives on the peer's receive buffer after the full
        link-model delay.  Sends on a closed connection fail.
        """
        if self.closed or self._peer is None:
            return self.sim.event().fail(NetworkError("send() on closed connection"))
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("send() requires bytes, got %r" % (type(data),))
        data = bytes(data)
        nbytes = len(data)
        peer = self._peer

        def deliver(_event):
            if not peer._inbox.closed:
                peer._inbox.put(data)
                peer.bytes_received += nbytes

        return self._transmit(nbytes, deliver)

    def sendv(self, buffers) -> Event:
        """Transmit a writev-style buffer list (scatter-gather send).

        The sender's hot path never joins the buffers: lengths are
        summed for the link model and the iovec is handed over as-is,
        like ``writev(2)`` handing an iovec to the kernel.  The single
        contiguous chunk the peer receives is assembled at *delivery*
        time — modelling the receiver's stream reassembly, not a
        sender-side copy.  Completes like :meth:`send`.
        """
        if self.closed or self._peer is None:
            return self.sim.event().fail(NetworkError("sendv() on closed connection"))
        nbytes = 0
        for buffer in buffers:
            if not isinstance(buffer, (bytes, bytearray, memoryview)):
                raise TypeError("sendv() requires byte buffers, got %r" % (type(buffer),))
            nbytes += len(buffer)
        peer = self._peer

        def deliver(_event):
            if not peer._inbox.closed:
                peer._inbox.put(b"".join(buffers))
                peer.bytes_received += nbytes

        return self._transmit(nbytes, deliver)

    def _transmit(self, nbytes: int, deliver) -> Event:
        """Charge ``nbytes`` to the link model and return the delivery
        timer, valued with the byte count.  ``deliver`` is its first
        callback, so a sender waiting on the timer resumes with the
        bytes already on the peer's receive buffer, in the same kernel
        event: a send completes without an event of its own."""
        self.bytes_sent += nbytes
        network = self.local.network
        delay = network.transfer_delay(self.local, self.remote, nbytes)
        if network.realistic and nbytes > self._cwnd:
            # Each doubling of the congestion window costs one RTT of
            # idle pacing before the pipe runs at line rate.
            rtt = 2 * network.propagation_latency(self.local, self.remote)
            rounds = 0
            cwnd = self._cwnd
            while cwnd < nbytes:
                cwnd *= 2
                rounds += 1
            self._cwnd = cwnd
            delay += rounds * rtt
        done = self.sim.timeout(delay, nbytes)
        done.callbacks.append(deliver)
        return done

    def recv(self) -> Event:
        """Event yielding the next received chunk of bytes.

        Fails with :class:`~repro.sim.StoreClosed` once the peer has closed
        and the buffer has drained — the end-of-stream signal.
        """
        return self._inbox.get()

    def close(self) -> None:
        """Close both directions (the peer sees end-of-stream after the
        propagation delay)."""
        if self.closed:
            return
        self.closed = True
        peer = self._peer

        def close_remote(_event):
            if peer is not None and not peer.closed:
                peer.closed = True
                peer._inbox.close()

        if peer is not None:
            latency = self.local.network.propagation_latency(self.local, self.remote)
            self.sim.timeout(latency)._add_callback(close_remote)
        self._inbox.close()
