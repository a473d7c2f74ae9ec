"""Base peer machinery shared by all overlay nodes.

A :class:`BasePeer` dispatches each incoming message to the
``on_<ClassName>`` handler its class defines, and is attached to a
physical host.  The hybrid peer (and the live runtime's peer built on
it) and the bootstrap server inherit from it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional

from ..sim.engine import Engine
from ..sim.trace import TraceBus
from .idspace import IdSpace
from .messages import Message
from .transport import TransportBase

__all__ = ["BasePeer"]


class BasePeer:
    """An addressable protocol participant.

    Parameters
    ----------
    address:
        Unique overlay address (stand-in for an IP; the live runtime
        packs a real ``(ip, port)`` endpoint into this int).
    host:
        Physical node this peer resides on (0 in the live runtime).
    engine, transport, idspace:
        Shared plumbing.  ``engine`` is anything with the
        :class:`~repro.sim.engine.Engine` timer surface (``now`` /
        ``call_later``); ``transport`` any
        :class:`~repro.overlay.transport.TransportBase`.
    trace:
        Optional trace bus for metrics/tests.

    Subclasses implement handlers named ``on_<MessageClassName>``.
    Dispatch goes through one ``message class -> function`` table per
    peer class (``_handlers``), shared by all its instances and filled
    lazily: the first message of a class resolves its handler by name
    through the MRO, so a subclass override wins.  Peers thus hold no
    per-instance bound methods, which at 10^4+ peers was most of the
    heap the cyclic GC had to walk.
    """

    _handlers: Dict[type, Callable[["BasePeer", Message], None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {}

    def __init__(
        self,
        address: int,
        host: int,
        engine: Engine,
        transport: TransportBase,
        idspace: IdSpace,
        trace: Optional[TraceBus] = None,
    ) -> None:
        self.address = address
        self.host = host
        self.engine = engine
        self.transport = transport
        self.idspace = idspace
        self.trace = trace
        self.alive = True
        self.messages_received = 0
        # Per-category wants() answers, cached against the bus version
        # (same trick as Transport): emit() builds its payload dict
        # before the guard runs, so hot handlers ask wants_trace()
        # first and skip the call entirely.
        self._wants_cache: Dict[str, bool] = {}
        self._wants_version = -1
        # Shadow the send() method with a pre-bound partial: one less
        # Python frame on the hottest call path in the system.
        self.send = partial(transport.send, self)

    # ------------------------------------------------------------------
    def send(self, dst_address: int, msg: Message) -> bool:
        """Send a message through the transport.

        Instances shadow this with a bound partial of the same
        signature (see ``__init__``); the method remains as the
        documented interface.
        """
        return self.transport.send(self, dst_address, msg)

    def send_many(self, dst_addresses, msg: Message) -> int:
        """Fan one message out to many destinations (see Transport.send_many)."""
        return self.transport.send_many(self, dst_addresses, msg)

    def receive(self, msg: Message) -> None:
        """Dispatch an incoming message to its ``on_*`` handler."""
        if not self.alive:
            return
        self.messages_received += 1
        cls = type(msg)
        handler = self._handlers.get(cls)
        if handler is None:
            handler = getattr(type(self), "on_" + cls.__name__, None)
            if handler is None:
                self.unhandled(msg)
                return
            self._handlers[cls] = handler
        handler(self, msg)

    def unhandled(self, msg: Message) -> None:
        """Hook for messages with no handler; loud by default.

        Protocol bugs where a peer in the wrong role receives a message
        should fail fast in tests rather than vanish.
        """
        raise NotImplementedError(
            f"{type(self).__name__} at {self.address} has no handler for "
            f"{type(msg).__name__}"
        )

    # ------------------------------------------------------------------
    def emit(self, category: str, **payload: Any) -> None:
        """Publish a trace record (no-op unless someone wants ``category``)."""
        if self.trace is not None and self.trace.wants(category):
            self.trace.publish(self.engine.now, category, peer=self.address, **payload)

    def wants_trace(self, category: str) -> bool:
        """Cached ``trace.wants(category)`` for per-message call sites.

        ``emit()`` evaluates its keyword arguments before the guard can
        run; handlers on the message hot path therefore check this first
        so that with no subscriber the cost is one dict lookup.  The
        cache is invalidated wholesale whenever the bus's listener set
        changes (``TraceBus.version``).
        """
        trace = self.trace
        if trace is None:
            return False
        if trace.version != self._wants_version:
            self._wants_cache.clear()
            self._wants_version = trace.version
        want = self._wants_cache.get(category)
        if want is None:
            want = trace.wants(category)
            self._wants_cache[category] = want
        return want

    def crash(self) -> None:
        """Die abruptly: no notifications, in-flight messages undeliverable."""
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} addr={self.address} host={self.host} {state}>"
