"""Base class for simulated protocol processes.

A :class:`Process` is anything that lives on a node of the network and reacts
to events: message receptions, timer expirations, activation / deactivation
(churn).  The GRP node (:class:`repro.core.node.GRPNode`) and the baseline
clustering processes all derive from it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

__all__ = ["Process"]


class Process:
    """A protocol instance attached to one network node.

    Subclasses override the ``on_*`` hooks.  The network calls
    :meth:`deliver` when a broadcast reaches the node; the process sends
    through :meth:`broadcast`, handing over a zero-argument payload source
    that the network calls only if the channel accepts a receiver.
    """

    def __init__(self, node_id: Any):
        self.node_id = node_id
        self.sim: Optional[Simulator] = None
        self.network: Optional["Network"] = None
        self._active = True
        self._started = False
        #: Application-message hook (set by the traffic layer): payloads that
        #: carry the ``is_app_payload`` marker are routed here instead of
        #: :meth:`on_message`, so application traffic shares the node and the
        #: delivery pipeline with the protocol without touching its handlers.
        self.app_handler: Optional[Any] = None

    # ------------------------------------------------------------- lifecycle

    def bind(self, sim: Simulator, network: "Network") -> None:
        """Attach the process to a simulator and a network (called by the network)."""
        self.sim = sim
        self.network = network

    def start(self) -> None:
        """Start the process (idempotent); calls :meth:`on_start` once."""
        if self._started:
            return
        if self.sim is None:
            raise RuntimeError("process must be bound to a simulator before starting")
        self._started = True
        self.on_start()

    @property
    def active(self) -> bool:
        """Whether the node is currently active (powered on)."""
        return self._active

    def activate(self) -> None:
        """Turn the node on (churn support)."""
        if not self._active:
            self._active = True
            if self.network is not None:
                self.network.notify_activation_change(self.node_id, True)
            self.on_activate()

    def deactivate(self) -> None:
        """Turn the node off; an inactive node neither sends nor receives."""
        if self._active:
            self._active = False
            if self.network is not None:
                self.network.notify_activation_change(self.node_id, False)
            self.on_deactivate()

    # ----------------------------------------------------------------- hooks

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def on_activate(self) -> None:
        """Called when the node transitions from inactive to active."""

    def on_deactivate(self) -> None:
        """Called when the node transitions from active to inactive."""

    def on_message(self, sender: Any, payload: Any) -> None:
        """Called when a broadcast from ``sender`` is received."""

    # ------------------------------------------------------------- transport

    def deliver(self, sender: Any, payload: Any) -> None:
        """Entry point used by the network; ignores messages while inactive.

        Payloads flagged ``is_app_payload`` (application traffic, see
        :mod:`repro.traffic`) go to :attr:`app_handler` when one is
        installed; without one they fall through to :meth:`on_message` like
        any other payload (protocol processes ignore foreign payload types).
        The no-handler hot path pays a single attribute test.
        """
        if self._active:
            handler = self.app_handler
            if handler is not None and getattr(payload, "is_app_payload", False):
                handler(sender, payload)
            else:
                self.on_message(sender, payload)

    def broadcast(self, make_payload: Callable[[], Any]) -> int:
        """Broadcast to the current vicinity; returns the accepted receiver count.

        ``make_payload()`` returns the payload.  The network calls it at most
        once, and only when the channel accepts at least one receiver (see
        :meth:`repro.net.network.Network.broadcast`), so a source that builds
        its payload costs nothing on a send that reaches nobody.
        """
        if not self._active:
            return 0
        if self.network is None:
            raise RuntimeError("process is not attached to a network")
        return self.network.broadcast(self.node_id, make_payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(node_id={self.node_id!r}, active={self._active})"
