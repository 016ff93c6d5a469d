"""UDP socket construction for the asyncio LBRM runtime.

Plain helpers around the socket options multicast needs: membership,
loopback, TTL, interface selection.  Defaults target the loopback
interface so the whole protocol stack can be exercised on one machine
(CI, laptops) — pass a real interface address for LAN deployments.
"""

from __future__ import annotations

import socket
import struct

__all__ = [
    "make_unicast_socket",
    "make_multicast_recv_socket",
    "make_multicast_send_socket",
    "set_multicast_ttl",
    "ReceiveRing",
    "MAX_DATAGRAM",
]

DEFAULT_INTERFACE = "127.0.0.1"

# Largest UDP payload: receive buffers must hold it or recvfrom_into
# silently truncates the datagram (which then reads as corruption).
MAX_DATAGRAM = 65535


class ReceiveRing:
    """Preallocated receive buffers for the zero-copy datagram path.

    ``recvfrom_into`` needs a writable buffer per datagram; allocating
    one per receive would reintroduce exactly the per-packet churn the
    fast path removes.  The ring hands out the same few buffers
    round-robin — safe because the node's dispatch is synchronous (the
    decoded packet copies out its variable-length tails, so nothing
    references the buffer once dispatch returns), with a few spare slots
    as headroom against any short-lived aliasing (e.g. a frame list from
    an in-flight bundle).
    """

    __slots__ = ("_views", "_next")

    def __init__(self, slots: int = 4, size: int = MAX_DATAGRAM) -> None:
        if slots < 1:
            raise ValueError("ReceiveRing needs at least one slot")
        self._views = [memoryview(bytearray(size)) for _ in range(slots)]
        self._next = 0

    def acquire(self) -> memoryview:
        """The next buffer in rotation (callers do not release)."""
        views = self._views
        view = views[self._next]
        self._next = (self._next + 1) % len(views)
        return view


def make_unicast_socket(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A bound, non-blocking UDP socket for point-to-point traffic."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.setblocking(False)
    return sock


def make_multicast_recv_socket(
    group_addr: str, port: int, interface: str = DEFAULT_INTERFACE
) -> socket.socket:
    """A socket joined to ``group_addr`` and bound to its port.

    Where the platform allows it (Linux, BSDs) the socket is bound to
    the *group address* itself, so the kernel filters out datagrams sent
    to other groups that happen to share the port — without this, two
    groups hashed onto one port cross-deliver each other's traffic.
    Platforms that reject multicast binds (Windows) fall back to the
    wildcard bind; the node layer still drops mismatched groups by
    decoded group name.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    # SO_REUSEPORT lets several local endpoints (receivers in one test
    # process) share the group port, mirroring distinct hosts on a LAN.
    if hasattr(socket, "SO_REUSEPORT"):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    try:
        sock.bind((group_addr, port))
    except OSError:
        sock.bind(("", port))
    mreq = struct.pack("4s4s", socket.inet_aton(group_addr), socket.inet_aton(interface))
    sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, mreq)
    sock.setblocking(False)
    return sock


def make_multicast_send_socket(interface: str = DEFAULT_INTERFACE, ttl: int = 1) -> socket.socket:
    """A socket configured to originate multicast on ``interface``.

    Loopback is enabled so co-located endpoints (and the sender's own
    primary logger) hear the transmission — required for single-machine
    operation and harmless on real LANs.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, ttl)
    sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
    sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF, socket.inet_aton(interface))
    sock.setblocking(False)
    return sock


def set_multicast_ttl(sock: socket.socket, ttl: int) -> None:
    """Adjust the TTL on an existing multicast send socket.

    LBRM uses small TTLs to scope repairs to a site (§2.2.1); the node
    runtime (``AioNode._apply_ttl``) calls this only when a send's TTL
    differs from the last one it applied.
    """
    sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, max(1, ttl))
