"""Asyncio runtime carrying sans-IO LBRM machines over real UDP.

:class:`AioNode` is real UDP's :class:`~repro.core.node.MachineNode`
(the simulator's is :class:`repro.simnet.node.SimNode`); it adds the
medium: one unicast endpoint (the node's address), multicast groups
joined on demand by synchronous primitives, datagram decoding, and
wakeups scheduled with ``loop.call_at``.  A crashed or paused node keeps
its sockets and drops what they receive; :meth:`AioNode.close` crashes
it and releases them.

The datagram path is built for throughput:

* **RX zero-copy** — sockets are read with ``recvfrom_into`` into a
  preallocated :class:`~repro.aio.udp.ReceiveRing` (via
  ``loop.add_reader``, not asyncio transports, which allocate a fresh
  ``bytes`` per datagram), and packets decode straight out of the
  receive buffer with :func:`~repro.core.packets.decode_from`.
* **Encode once** — a repair fan-out sends one packet object to many
  destinations; its wire is reused while the same object keeps coming.
* **TX coalescing** — with ``bundling=True``, outbound packets queue
  per destination and flush once per event-loop tick as bundle
  datagrams (:func:`~repro.core.packets.encode_bundle`), bounded by
  ``max_bundle_bytes`` and ``max_bundle_delay``.  With ``bundling=False``
  (the default) every packet goes out as its own datagram, byte-identical
  to what previous releases put on the wire.

Addresses here are ``(host, port)`` tuples; wire address tokens are
``"host:port"`` strings (see :func:`addr_token` / :func:`parse_token`).
"""

from __future__ import annotations

import asyncio
import socket

from repro import obs
from repro.core.actions import Action, Deliver, handle_each, run_actions
from repro.core.errors import DecodeError
from repro.core.machine import ProtocolMachine, earliest_wakeup
from repro.core.node import MachineNode
from repro.core.packets import (
    BUNDLE_FRAME_OVERHEAD,
    BUNDLE_OVERHEAD,
    Packet,
    decode_from,
    encode,
    encode_bundle,
    is_bundle,
    iter_bundle,
)
from repro.aio.groupmap import GroupDirectory
from repro.aio.udp import (
    DEFAULT_INTERFACE,
    ReceiveRing,
    make_multicast_recv_socket,
    make_multicast_send_socket,
    make_unicast_socket,
    set_multicast_ttl,
)

__all__ = ["AioNode", "addr_token", "parse_token"]

# Datagrams drained per readable callback before yielding back to the
# event loop — epoll is level-triggered, so a still-full socket fires
# again on the next loop iteration; the cap keeps one busy socket from
# starving timers and the other sockets.
_RX_BATCH = 64


def addr_token(addr: tuple[str, int]) -> str:
    """Render a ``(host, port)`` address as its wire token."""
    host, port = addr
    return f"{host}:{port}"


def parse_token(token: str) -> tuple[str, int]:
    """Parse a ``host:port`` wire token back into an address tuple.

    Port validation is strict ASCII: ``str.isdigit`` accepts non-ASCII
    decimal digits (e.g. ``"٣"``) that ``int()`` happily parses, which
    would let a malformed token smuggle through; and a syntactically
    clean port above 65535 can never name a UDP endpoint.
    """
    host, _, port = token.rpartition(":")
    if not host or not port or not all("0" <= ch <= "9" for ch in port):
        raise ValueError(f"malformed address token {token!r}")
    value = int(port)
    if value > 65535:
        raise ValueError(f"port out of range (> 65535) in address token {token!r}")
    return host, value


class AioNode(MachineNode):
    """One LBRM endpoint (sender, logger, or receiver) on real UDP."""

    def __init__(
        self,
        machines: list[ProtocolMachine] | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        interface: str = DEFAULT_INTERFACE,
        directory: GroupDirectory | None = None,
        bundling: bool = False,
        max_bundle_bytes: int = 1400,
        max_bundle_delay: float = 0.0,
        max_queued_packets: int = 512,
    ) -> None:
        super().__init__(machines)
        self._host = host
        self._want_port = port
        self._interface = interface
        self._directory = directory or GroupDirectory()

        # TX coalescing (§ module docstring).  max_bundle_bytes bounds
        # the *datagram*, so it must at least fit the bundle header and
        # one framed packet; the 65507 ceiling is UDP's own payload cap.
        if not 128 <= max_bundle_bytes <= 65507:
            raise ValueError("max_bundle_bytes must be within [128, 65507]")
        if max_queued_packets < 1:
            raise ValueError("max_queued_packets must be >= 1")
        self._bundling = bool(bundling)
        self._max_bundle_bytes = max_bundle_bytes
        # Frames (u16 length + packet) must fit beside the bundle header.
        self._frame_budget = max_bundle_bytes - BUNDLE_OVERHEAD
        self._max_bundle_delay = max_bundle_delay
        self._max_queued_packets = max_queued_packets
        # Per-destination send queues: ("u", dest) for unicast,
        # ("m", group, ttl) for multicast (distinct TTLs cannot share a
        # datagram).  Values are lists of encoded wires.
        self._tx_queues: dict[tuple, list[bytes]] = {}
        self._tx_sizes: dict[tuple, int] = {}
        self._flush_handle: asyncio.Handle | asyncio.TimerHandle | None = None
        # The encode-once memo: the last packet object sent, and its wire.
        self._last_packet: Packet | None = None
        self._last_wire = b""
        # Occupancy accounting: packets-per-flushed-datagram histogram,
        # kept locally (cheap to read in benchmarks) and mirrored into
        # the obs registry while recording.
        self.bundle_occupancy: dict[int, int] = {}

        self._loop: asyncio.AbstractEventLoop | None = None
        self._ring: ReceiveRing | None = None
        self._unicast_sock: socket.socket | None = None
        self._mcast_send_sock: socket.socket | None = None
        self._mcast_ttl = 1  # last TTL applied to the send socket
        self._group_socks: dict[str, socket.socket] = {}
        self._wakeup_handle: asyncio.TimerHandle | None = None
        self._addr: tuple[str, int] | None = None

        self.delivery_queue: asyncio.Queue[Deliver] = asyncio.Queue()
        self.stats = obs.stat_counters(
            "aio.node",
            {
                "rx": 0,
                "rx_datagrams": 0,
                "rx_bundles": 0,
                "tx_unicast": 0,
                "tx_multicast": 0,
                "tx_datagrams": 0,
                "tx_bundles": 0,
                "tx_coalesced_packets": 0,
                "tx_bundle_drops": 0,
                "decode_errors": 0,
                "socket_errors": 0,
                "group_mismatches": 0,
            },
        )

    # -- introspection ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """This node's unicast address (valid after :meth:`start`)."""
        if self._addr is None:
            raise RuntimeError("node not started")
        return self._addr

    @property
    def token(self) -> str:
        return addr_token(self.address)

    # What reports call this node, as SimNode.name is its host name.
    name = token

    @property
    def now(self) -> float:
        assert self._loop is not None
        return self._loop.time()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets, then start the machines."""
        self._loop = asyncio.get_running_loop()
        self._ring = ReceiveRing()
        usock = make_unicast_socket(self._host, self._want_port)
        self._addr = usock.getsockname()
        self._unicast_sock = usock
        msock = make_multicast_send_socket(self._interface)
        self._mcast_send_sock = msock
        self._mcast_ttl = 1
        self._loop.add_reader(usock.fileno(), self._on_readable, usock, None)
        # Datagrams aimed at the send socket's ephemeral port still
        # reach the node.
        self._loop.add_reader(msock.fileno(), self._on_readable, msock, None)
        super().start()

    async def close(self) -> None:
        """Flush coalesced traffic, crash the node (a closed node is the
        live twin of a crashed one) and tear down its sockets."""
        if self._closed:
            return
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        for key in list(self._tx_queues):
            self._flush_key(key)
        self.crash()
        self._closed = True
        # A socket exists only after start() set the loop.
        for sock in (*self._group_socks.values(), self._unicast_sock, self._mcast_send_sock):
            if sock is not None:
                self._loop.remove_reader(sock.fileno())
                sock.close()
        self._group_socks.clear()
        self._unicast_sock = None
        self._mcast_send_sock = None
        # Let any already-queued reader callbacks observe the close.
        await asyncio.sleep(0)

    # -- app API ----------------------------------------------------------

    async def send_many(self, machine, payloads) -> None:
        """Multicast a burst of application payloads in one tick.

        Semantically ``send_app`` per payload, but with one timestamp, one
        action batch, and one reschedule for the whole burst — the
        arrival shape (a simulation frame's worth of entity updates)
        the TX coalescer packs into bundles.
        """
        now = self._machine_now()
        actions: list[Action] = []
        for payload in payloads:
            actions.extend(machine.send(payload, now))
        run_actions(actions, self)
        self._reschedule()

    def join_group(self, group: str) -> None:
        """Subscribe this node to ``group``'s multicast address.

        A no-op once closed: a socket bound after :meth:`close` would
        never be closed, and its reader would fire on every loop
        iteration without being drained.
        """
        if self._closed or group in self._group_socks:
            return
        assert self._loop is not None
        addr, port = self._directory.resolve(group)
        sock = make_multicast_recv_socket(addr, port, self._interface)
        self._group_socks[group] = sock
        self._loop.add_reader(sock.fileno(), self._on_readable, sock, group)

    def leave_group(self, group: str) -> None:
        sock = self._group_socks.pop(group, None)
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()

    # -- datagram path ----------------------------------------------------

    def _socket_error(self, exc: OSError) -> None:
        """Count a socket error, mirrored into obs.

        The registry counter is resolved at error time (not construction
        time) so live socket trouble shows up in ``repro metrics`` even
        when recording was switched on after the node was built.
        """
        self.stats["socket_errors"] += 1
        obs.registry().counter("aio.socket_errors").inc()

    def _on_readable(self, sock: socket.socket, group: str | None) -> None:
        """Drain ``sock`` into the receive ring — the zero-copy RX path."""
        if self._closed:
            return
        ring = self._ring
        assert ring is not None
        recv_into = sock.recvfrom_into
        for _ in range(_RX_BATCH):
            buf = ring.acquire()
            try:
                nbytes, addr = recv_into(buf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._socket_error(exc)
                return
            self._datagram(buf[:nbytes], addr, group=group)
            if self._closed:
                return

    def _datagram(self, data, addr: tuple[str, int], group: str | None = None) -> None:
        """Dispatch one received datagram (plain or bundled).

        ``data`` may be any buffer (the RX path passes ring-backed
        memoryviews); packets are decoded in place and nothing retains
        the buffer after this returns.  A crashed (or closed) or paused
        node drops it.
        """
        if not self.alive:
            return
        stats = self.stats
        stats["rx_datagrams"] += 1
        now = self._machine_now()
        if is_bundle(data):
            try:
                frames = iter_bundle(data)
            except DecodeError:
                stats["decode_errors"] += 1
                return
            stats["rx_bundles"] += 1
            for frame in frames:
                self._packet_in(frame, addr, group, now)
        else:
            self._packet_in(data, addr, group, now)
        self._reschedule()

    def _packet_in(self, data, addr: tuple[str, int], group: str | None, now: float) -> None:
        stats = self.stats
        try:
            packet = decode_from(data)
        except DecodeError:
            stats["decode_errors"] += 1
            return
        if group is not None:
            # Wildcard-bound platforms deliver every group sharing this
            # port to this socket; accept only the endpoint's own group
            # (or its subchannels, e.g. the "<group>/retrans" channel,
            # whose packets carry the base group name).
            pgroup = getattr(packet, "group", None)
            if pgroup is not None and pgroup != group and not group.startswith(pgroup + "/"):
                stats["group_mismatches"] += 1
                return
        stats["rx"] += 1
        handle_each(self.machines, packet, addr, now, self)

    def _poll(self) -> None:
        self._wakeup_handle = None
        if self.alive:
            self._poll_machines(self._machine_now())

    # -- the primitives run_actions carries actions out with ------------------

    def unicast(self, dest: tuple[str, int], packet: Packet) -> None:
        self.stats["tx_unicast"] += 1
        self._send(("u", dest), packet)

    def multicast(self, group: str, packet: Packet, ttl: int | None) -> None:
        self.stats["tx_multicast"] += 1
        self._send(("m", group, ttl), packet)

    def deliver(self, action: Deliver) -> None:
        self.delivered.append(action)
        self.delivery_queue.put_nowait(action)

    def _send(self, key: tuple, packet: Packet) -> None:
        """Encode ``packet`` (once per object), then queue or transmit it."""
        if packet is self._last_packet:
            wire = self._last_wire
        else:
            wire = encode(packet)
            self._last_packet, self._last_wire = packet, wire
        if self._bundling:
            self._queue_wire(key, wire)
        else:
            self._transmit_key(key, wire)

    # -- raw transmission -------------------------------------------------

    def _apply_ttl(self, ttl: int) -> None:
        """Set the multicast TTL iff it differs from the last applied one.

        Steady-state traffic reuses one TTL, so caching the last value
        turns two ``setsockopt`` syscalls per scoped send (set + reset)
        into zero for unchanged TTLs.
        """
        ttl = max(1, ttl)
        if ttl != self._mcast_ttl:
            assert self._mcast_send_sock is not None
            set_multicast_ttl(self._mcast_send_sock, ttl)
            self._mcast_ttl = ttl

    def _transmit_unicast(self, wire: bytes, dest) -> None:
        self.stats["tx_datagrams"] += 1
        try:
            self._unicast_sock.sendto(wire, dest)
        except OSError as exc:
            self._socket_error(exc)

    def _transmit_multicast(self, wire: bytes, group: str, ttl: int | None) -> None:
        self._apply_ttl(1 if ttl is None else ttl)
        addr, port = self._directory.resolve(group)
        self.stats["tx_datagrams"] += 1
        try:
            self._mcast_send_sock.sendto(wire, (addr, port))
        except OSError as exc:
            self._socket_error(exc)

    # -- TX coalescing ----------------------------------------------------

    def _queue_wire(self, key: tuple, wire: bytes) -> None:
        """Queue one encoded packet on its destination's bundle."""
        queues = self._tx_queues
        sizes = self._tx_sizes
        queue = queues.get(key)  # present iff non-empty: _flush_key forgets the key
        framed = len(wire) + BUNDLE_FRAME_OVERHEAD
        if framed > self._frame_budget:
            # Too big to ever share a datagram: flush what's queued
            # first (per-destination ordering), then send it alone.
            if queue is not None:
                self._flush_key(key)
            self._note_occupancy(1)
            self._transmit_key(key, wire)
            return
        if queue is not None:
            if len(queue) >= self._max_queued_packets:
                # High-water drop policy: the queue holds at most one tick's
                # backlog, so overflow means the loop is badly starved.
                # Dropping here behaves exactly like network loss — which
                # the protocol detects and repairs — instead of growing an
                # unbounded buffer.
                self.stats["tx_bundle_drops"] += 1
                return
            if sizes[key] + framed > self._frame_budget:
                self._flush_key(key)
                queue = None
        if queue is None:
            queue = queues[key] = []
            sizes[key] = 0
        queue.append(wire)
        sizes[key] += framed
        if self._flush_handle is None:
            assert self._loop is not None
            if self._max_bundle_delay > 0.0:
                self._flush_handle = self._loop.call_later(
                    self._max_bundle_delay, self._flush_bundles
                )
            else:
                self._flush_handle = self._loop.call_soon(self._flush_bundles)

    def _flush_bundles(self) -> None:
        """Once-per-tick flush of every destination's pending bundle."""
        self._flush_handle = None
        if self._closed:
            return
        for key in list(self._tx_queues):
            self._flush_key(key)

    def _flush_key(self, key: tuple) -> None:
        # Forget the key too: unicast keys carry remote addresses, so
        # keeping them would grow the tables with every peer answered.
        queue = self._tx_queues.pop(key, None)
        if queue is None:
            return
        del self._tx_sizes[key]
        occupancy = len(queue)
        self._note_occupancy(occupancy)
        if occupancy == 1:
            # A lone packet ships unframed — identical bytes to the
            # bundling-off path, and 6 bytes cheaper than a 1-bundle.
            wire = queue[0]
        else:
            wire = encode_bundle(queue)
            self.stats["tx_bundles"] += 1
            self.stats["tx_coalesced_packets"] += occupancy
        self._transmit_key(key, wire)

    def _transmit_key(self, key: tuple, wire: bytes) -> None:
        if key[0] == "u":
            self._transmit_unicast(wire, key[1])
        else:
            self._transmit_multicast(wire, key[1], key[2])

    def _note_occupancy(self, occupancy: int) -> None:
        counts = self.bundle_occupancy
        counts[occupancy] = counts.get(occupancy, 0) + 1
        reg = obs.registry()
        if reg.enabled:
            reg.histogram("aio.bundle_occupancy").observe(occupancy)
            if occupancy > 1:
                reg.counter("aio.tx_bundles").inc()
                reg.counter("aio.tx_coalesced_packets").inc(occupancy)

    # -- wakeup plumbing ----------------------------------------------------

    def _disarm(self) -> None:
        if self._wakeup_handle is not None:
            self._wakeup_handle.cancel()
            self._wakeup_handle = None

    def _reschedule(self) -> None:
        if self._closed or self.paused or self._loop is None:
            return  # resume() re-arms
        next_due = earliest_wakeup(self.machines)  # in the machines' (skewed) time
        if next_due is None:
            self._disarm()
            return
        if self._skew:
            next_due = next_due - self._skew
        if self._wakeup_handle is not None:
            if self._wakeup_handle.when() <= next_due:
                return
            self._wakeup_handle.cancel()
        self._wakeup_handle = self._loop.call_at(next_due, self._poll)
