"""Channel abstractions of the libcompart stand-in.

The paper's runtime (libcompart) wraps OS IPC — TCP sockets and pipes —
into channels between instances.  Here a :class:`Network` carries
messages between junctions over the simulator, with configurable
per-link latency, loss and partitions, which the fault-injection API
(:mod:`repro.runtime.faults`) manipulates during experiments.

Messages are *KV updates* (write/assert/retract) plus their
acknowledgements; the runtime layers the paper's "remote update then
local effect on ack" protocol (sec. 8's ``Wr_{J,γ}`` pairs) on top.
The transport itself is unreliable by design — at-least-once semantics
are provided one layer up by :mod:`repro.runtime.delivery`.

Beyond loss and partitions, the transport exposes two chaos knobs used
by :mod:`repro.runtime.chaos`:

* ``duplicate_probability`` — a sent message is delivered twice with
  this probability (each copy drawing its own latency), exercising the
  receiver-side msg-id dedup;
* ``reorder_jitter`` — each delivery adds a uniform random extra
  latency in ``[0, reorder_jitter]``, so later messages can overtake
  earlier ones.

The Network is engine-agnostic: link *policy* (latency resolution,
loss, partitions, duplication, reordering) is decided here, on the
engine's clock, and the resulting delivery is handed to the engine's
:class:`~repro.runtime.engine.Transport`, which invokes
:meth:`Network.dispatch` after the latency elapses — as a simulator
timer, a wall-clock asyncio timer, or a framed TCP round trip.
Because every fault knob lives on this side of the seam, chaos
schedules behave identically under every engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..semantics.commute import Footprint, key_token
from ..telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import Telemetry
    from .engine import Clock, Transport


@dataclass(frozen=True)
class Message:
    """A network message between junctions.

    ``kind`` is ``'update'`` or ``'ack'``; ``payload`` carries the
    update description (key, value, update kind) or the ack token.
    """

    src: str  # "instance::junction"
    dst: str
    kind: str
    payload: object
    msg_id: int = 0


@dataclass
class LinkConfig:
    """Per-link behaviour; ``None`` fields fall back to defaults."""

    latency: float | None = None
    drop_probability: float | None = None


#: Counters preset in the ``Network.stats`` legacy view; per-kind
#: counters (``update_sent``, ``ack_dropped``, …) appear lazily as
#: messages of each kind flow.  ``retransmits``, ``delivery_failures``
#: and ``fast_fails`` are maintained by the reliable-delivery layer;
#: ``dedup_suppressed`` by the receiver-side dedup in ``System``.  The
#: backing store is a :class:`~repro.telemetry.MetricsRegistry` of
#: ``net_<event>`` counters labeled per message kind and per directed
#: instance link; ``stats`` aggregates them back into the flat dict
#: shape the pre-telemetry API exposed.
_BASE_STATS = (
    "sent",
    "delivered",
    "dropped",
    "duplicated",
    "retransmits",
    "delivery_failures",
    "fast_fails",
    "dedup_suppressed",
)


class _InstanceNames(dict):
    """``"instance::junction"`` → ``"instance"``, split once per node."""

    def __missing__(self, node: str) -> str:
        inst = self[node] = node.split("::", 1)[0]
        return inst


class Network:
    """Simulated message transport with latency, loss and partitions.

    Endpoints register a delivery callback keyed by junction node name
    (``"instance::junction"``).  Sending to an unregistered or
    partitioned endpoint silently drops the message — failure surfaces
    at the sender as a missing acknowledgement, detected by the
    reliable-delivery layer's retransmission timers (or by
    ``otherwise`` deadlines), exactly as in a real deployment.
    """

    def __init__(
        self,
        clock: "Clock",
        *,
        default_latency: float = 0.05,
        intra_latency: float = 0.0005,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        reorder_jitter: float = 0.0,
        rng=None,
        metrics: MetricsRegistry | None = None,
        transport: "Transport | None" = None,
    ):
        self.clock = clock
        if transport is None:
            # a bare Network (unit tests, direct control arms) defaults
            # to in-process clock-timer delivery
            from .engine import ClockTransport

            transport = ClockTransport()
            transport.bind(self, clock)
        self.transport = transport
        self.default_latency = default_latency
        self.intra_latency = intra_latency
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.reorder_jitter = reorder_jitter
        self._rng = rng
        self._endpoints: dict[str, Callable[[Message], None]] = {}
        self._links: dict[tuple[str, str], LinkConfig] = {}
        self._partitions: set[frozenset] = set()
        self._down: set[str] = set()
        self._msg_counter = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: set by System so transport-level drops appear in the causal
        #: trace; a bare Network (unit tests) leaves it None
        self.telemetry: "Telemetry | None" = None
        self._counters: dict[tuple, object] = {}
        #: the instance a node name belongs to (memoised)
        self._instance_of = _InstanceNames().__getitem__

    @property
    def sim(self):
        """Back-compat alias: the engine clock this network schedules on."""
        return self.clock

    # -- wiring -------------------------------------------------------------

    def register(self, node: str, deliver: Callable[[Message], None]) -> None:
        self._endpoints[node] = deliver

    def unregister(self, node: str) -> None:
        self._endpoints.pop(node, None)

    def configure_link(self, src: str, dst: str, config: LinkConfig) -> None:
        """Set latency/loss for a specific directed link.  ``src`` and
        ``dst`` are instance names (links are instance-to-instance)."""
        self._links[(src, dst)] = config

    def set_link_loss(self, src: str, dst: str, p: float | None) -> None:
        """Set (or with ``None`` clear) the drop probability of one
        directed link, preserving any latency override."""
        link = self._links.get((src, dst))
        if link is None:
            if p is None:
                return
            link = LinkConfig()
            self._links[(src, dst)] = link
        link.drop_probability = p

    def link_latency(self, src_inst: str, dst_inst: str) -> float:
        """The configured one-way latency of a directed link."""
        link = self._links.get((src_inst, dst_inst))
        if link is not None and link.latency is not None:
            return link.latency
        return self.intra_latency if src_inst == dst_inst else self.default_latency

    # -- fault injection ------------------------------------------------------

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Cut connectivity between two groups of instance names."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def heal_partition(self) -> None:
        self._partitions.clear()

    def set_down(self, instance: str, down: bool = True) -> None:
        """Mark an instance unreachable (crash)."""
        if down:
            self._down.add(instance)
        else:
            self._down.discard(instance)

    def is_partitioned(self, inst_a: str, inst_b: str) -> bool:
        return frozenset((inst_a, inst_b)) in self._partitions

    # -- stats ------------------------------------------------------------------

    def count(
        self,
        event: str,
        kind: str | None = None,
        src: str | None = None,
        dst: str | None = None,
    ) -> None:
        """Increment the ``net_<event>`` counter labeled by message
        ``kind`` and directed instance link ``src``→``dst`` (labels are
        omitted when unknown).  Handles are cached per combination, so
        the hot path is one dict hit + one integer increment."""
        key = (event, kind, src, dst)
        c = self._counters.get(key)
        if c is None:
            labels = {}
            if kind is not None:
                labels["kind"] = kind
            if src is not None:
                labels["src"] = src
            if dst is not None:
                labels["dst"] = dst
            c = self._counters[key] = self.metrics.counter(f"net_{event}", **labels)
        c.inc()

    @property
    def stats(self) -> dict:
        """The flat pre-telemetry counter view, aggregated from the
        registry: ``sent``/``dropped``/… totals plus per-kind variants
        (``update_sent``, ``ack_dropped``, …)."""
        out = {k: 0 for k in _BASE_STATS}
        for name, labels, metric in self.metrics.collect("net_"):
            event = name[4:]
            out[event] = out.get(event, 0) + metric.value
            kind = labels.get("kind")
            if kind is not None:
                k = f"{kind}_{event}"
                out[k] = out.get(k, 0) + metric.value
        return out

    # -- sending ----------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Send ``msg``; delivery is scheduled on the simulator."""
        src_inst = self._instance_of(msg.src)
        dst_inst = self._instance_of(msg.dst)
        self.count("sent", msg.kind, src_inst, dst_inst)

        if (
            dst_inst in self._down
            or src_inst in self._down
            or self.is_partitioned(src_inst, dst_inst)
        ):
            self._drop(msg, src_inst, dst_inst, "unreachable")
            return

        link = self._links.get((src_inst, dst_inst))
        latency = self.intra_latency if src_inst == dst_inst else self.default_latency
        drop_p = self.drop_probability
        if link is not None:
            if link.latency is not None:
                latency = link.latency
            if link.drop_probability is not None:
                drop_p = link.drop_probability

        self._schedule_delivery(msg, latency, drop_p, src_inst, dst_inst)
        if (
            self.duplicate_probability > 0.0
            and self._rng is not None
            and self._rng.random() < self.duplicate_probability
        ):
            self.count("duplicated", msg.kind, src_inst, dst_inst)
            self._schedule_delivery(msg, latency, drop_p, src_inst, dst_inst)

    def _drop(self, msg: Message, src_inst: str, dst_inst: str, reason: str) -> None:
        self.count("dropped", msg.kind, src_inst, dst_inst)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.emit(
                "drop",
                msg.dst,
                parent=tel.message_event(msg.msg_id),
                msg_kind=msg.kind,
                src=msg.src,
                msg_id=msg.msg_id,
                reason=reason,
            )

    def _schedule_delivery(
        self, msg: Message, latency: float, drop_p: float, src_inst: str, dst_inst: str
    ) -> None:
        if drop_p > 0.0 and self._rng is not None and self._rng.random() < drop_p:
            self._drop(msg, src_inst, dst_inst, "loss")
            return
        if self.reorder_jitter > 0.0 and self._rng is not None:
            latency += self._rng.uniform(0.0, self.reorder_jitter)

        # label + footprint make the delivery a replayable, reorderable
        # choice for a schedule controller (the only reader): an update
        # touches the destination key; an ack wakes the destination's
        # waiting strand
        label = fp = None
        if self.clock.controller is not None:
            if msg.kind == "update":
                key = getattr(msg.payload, "key", "?")
                label = f"deliver:update:{msg.src}->{msg.dst}#{key}:{msg.msg_id}"
                fp = Footprint.make(writes=[key_token(msg.dst, key)])
            else:
                label = f"deliver:{msg.kind}:{msg.src}->{msg.dst}:{msg.msg_id}"
                fp = Footprint.make(writes=[key_token(msg.dst, "__strand__")])
        self.transport.deliver(msg, latency, self.dispatch, label=label, footprint=fp)

    def dispatch(self, msg: Message) -> None:
        """Receiver-side delivery, invoked by the transport once the
        link latency has elapsed.  Re-checks reachability at delivery
        time: a crash (of either endpoint) or a partition during flight
        loses the message."""
        src_inst = self._instance_of(msg.src)
        dst_inst = self._instance_of(msg.dst)
        if (
            dst_inst in self._down
            or src_inst in self._down
            or self.is_partitioned(src_inst, dst_inst)
        ):
            self._drop(msg, src_inst, dst_inst, "unreachable")
            return
        handler = self._endpoints.get(msg.dst)
        if handler is None:
            self._drop(msg, src_inst, dst_inst, "unregistered")
            return
        self.count("delivered", msg.kind, src_inst, dst_inst)
        handler(msg)

    def next_msg_id(self) -> int:
        self._msg_counter += 1
        return self._msg_counter
