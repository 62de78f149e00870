"""Reliable at-least-once delivery of remote KV updates.

The paper's runtime layers a "remote update then local effect on ack"
protocol (sec. 8's ``Wr_{J,γ}`` pairs) over lossy OS channels; C-Saw's
``otherwise[t]``/``retry`` idioms exist because that delivery can fail.
Without this module a sender whose update (or whose ack) is lost blocks
until an explicit ``otherwise`` deadline rescues it.  This module gives
every outbound update *at-least-once* semantics instead:

* **Retransmission** — each update is tracked until acknowledged; an
  unacknowledged message is re-sent on a timer with exponential backoff
  and seeded jitter, so a lossy link merely delays the ack rather than
  wedging the strand.  Retransmission makes delivery at-least-once; the
  receiver-side msg-id dedup (:meth:`repro.runtime.kvtable.KVTable.note_msg_id`)
  restores exactly-once *application* of updates.
* **Bounded attempts** — after ``max_attempts`` transmissions the
  delivery layer gives up and throws
  :class:`~repro.core.errors.DeliveryFailure` into the waiting strand,
  so enclosing ``otherwise`` handlers fire promptly instead of waiting
  for their own deadline.
* **Circuit breaking** — per-link consecutive-failure tracking: after
  ``breaker_threshold`` exhausted deliveries to a peer the link opens
  and further sends fast-fail synchronously (again a
  ``DeliveryFailure``).  After ``breaker_cooldown`` one probe send is
  let through (half-open); its ack closes the link again.

Acks themselves are fire-and-forget (acks are not acked); a lost ack is
recovered by the *update's* retransmission, which the receiver dedups
and re-acknowledges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.errors import DeliveryFailure
from ..semantics.commute import Footprint, key_token
from .channels import Message

if TYPE_CHECKING:  # pragma: no cover
    from .system import System


@dataclass
class DeliveryPolicy:
    """Tuning of the reliable-delivery layer.

    The initial retransmission timeout is
    ``clamp(rtt_multiplier * 2 * link_latency, min_timeout, max_timeout)``
    and grows by ``backoff`` per attempt; every delay is jittered by a
    seeded ``±jitter`` fraction to avoid retransmission synchronization.
    ``max_attempts <= 0`` disables the layer entirely (sends become
    fire-and-forget, the pre-reliability behaviour).
    """

    max_attempts: int = 6
    rtt_multiplier: float = 4.0
    min_timeout: float = 0.01
    max_timeout: float = 30.0
    backoff: float = 2.0
    jitter: float = 0.25
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0


class LinkHealth:
    """Circuit-breaker state of one directed instance-to-instance link."""

    __slots__ = ("state", "consecutive_failures", "opened_at", "probe_in_flight")

    def __init__(self):
        self.state = "closed"  # 'closed' | 'open' | 'half-open'
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.probe_in_flight = False

    def record_failure(self, now: float, threshold: int) -> None:
        self.consecutive_failures += 1
        was_probe = self.state == "half-open"
        self.probe_in_flight = False
        if was_probe or self.consecutive_failures >= threshold:
            self.state = "open"
            self.opened_at = now


class _Pending:
    """One tracked outbound update awaiting its ack."""

    __slots__ = ("msg", "attempts", "timeout", "handle", "on_fail", "link", "is_probe")

    def __init__(self, msg: Message, timeout: float, on_fail, link: tuple[str, str]):
        self.msg = msg
        self.attempts = 1
        self.timeout = timeout
        self.handle = None
        self.on_fail = on_fail
        self.link = link
        self.is_probe = False


class ReliableDelivery:
    """Retransmission, backoff and circuit breaking over a Network."""

    def __init__(self, system: "System", policy: DeliveryPolicy | None = None, *, seed: int = 0):
        self.system = system
        self.policy = policy or DeliveryPolicy()
        # independent RNG stream: jitter draws must not perturb the
        # network's seeded loss/latency draws
        self._rng = random.Random(seed * 1_000_003 + 17)
        self.outstanding: dict[int, _Pending] = {}
        self.links: dict[tuple[str, str], LinkHealth] = {}

    # -- link health ---------------------------------------------------------

    def link_health(self, src_inst: str, dst_inst: str) -> LinkHealth:
        key = (src_inst, dst_inst)
        h = self.links.get(key)
        if h is None:
            h = self.links[key] = LinkHealth()
        return h

    # -- sending -------------------------------------------------------------

    def send(self, msg: Message, on_fail: Callable[[BaseException], None] | None = None) -> None:
        """Send ``msg`` reliably.

        ``on_fail`` is invoked (from a simulator callback) with a
        :class:`DeliveryFailure` once every attempt is exhausted.  When
        the destination link's circuit breaker is open, the failure is
        raised synchronously instead — the fast-fail path.
        """
        net = self.system.network
        if self.policy.max_attempts <= 0:
            net.send(msg)
            return
        src_inst = net._instance_of(msg.src)
        dst_inst = net._instance_of(msg.dst)
        link = (src_inst, dst_inst)
        health = self.link_health(src_inst, dst_inst)
        now = self.system.clock.now

        if health.state == "open":
            if now - health.opened_at >= self.policy.breaker_cooldown:
                health.state = "half-open"
            else:
                net.count("fast_fails", msg.kind, src_inst, dst_inst)
                raise DeliveryFailure(
                    f"{msg.src}: link to {dst_inst} is circuit-open "
                    f"({health.consecutive_failures} consecutive delivery failures)"
                )
        probe = False
        if health.state == "half-open":
            if health.probe_in_flight:
                net.count("fast_fails", msg.kind, src_inst, dst_inst)
                raise DeliveryFailure(
                    f"{msg.src}: link to {dst_inst} is half-open with a probe in flight"
                )
            health.probe_in_flight = True
            probe = True

        rtt = 2.0 * net.link_latency(src_inst, dst_inst)
        timeout = min(
            max(self.policy.rtt_multiplier * rtt, self.policy.min_timeout),
            self.policy.max_timeout,
        )
        pending = _Pending(msg, timeout, on_fail, link)
        pending.is_probe = probe
        self.outstanding[msg.msg_id] = pending
        net.send(msg)
        self._arm_timer(pending)

    def _arm_timer(self, pending: _Pending) -> None:
        delay = pending.timeout * (1.0 + self.policy.jitter * (2.0 * self._rng.random() - 1.0))
        msg = pending.msg
        clock = self.system.clock
        label = fp = None
        if clock.controller is not None:  # replay metadata, read by the controller only
            label = f"retransmit:{msg.src}->{msg.dst}:{msg.msg_id}"
            fp = Footprint.make(writes=[key_token(msg.src, "__delivery__")])
        pending.handle = clock.call_after(
            delay, lambda mid=msg.msg_id: self._retransmit(mid), label=label, footprint=fp
        )

    def _retransmit(self, msg_id: int) -> None:
        pending = self.outstanding.get(msg_id)
        if pending is None:
            return
        if pending.attempts >= self.policy.max_attempts:
            self._exhausted(pending)
            return
        pending.attempts += 1
        pending.timeout = min(pending.timeout * self.policy.backoff, self.policy.max_timeout)
        net = self.system.network
        net.count("retransmits", pending.msg.kind, *pending.link)
        tel = self.system.telemetry
        tel.emit(
            "retransmit",
            pending.msg.src,
            parent=tel.message_event(msg_id),
            dst=pending.msg.dst,
            msg_id=msg_id,
            attempt=pending.attempts,
        )
        net.send(pending.msg)
        self._arm_timer(pending)

    def _exhausted(self, pending: _Pending) -> None:
        msg = pending.msg
        del self.outstanding[msg.msg_id]
        health = self.link_health(*pending.link)
        health.record_failure(self.system.clock.now, self.policy.breaker_threshold)
        self.system.network.count("delivery_failures", msg.kind, *pending.link)
        tel = self.system.telemetry
        tel.emit(
            "delivery_failed",
            msg.src,
            parent=tel.message_event(msg.msg_id),
            dst=msg.dst,
            msg_id=msg.msg_id,
            attempts=pending.attempts,
            breaker=health.state,
        )
        if pending.on_fail is not None:
            pending.on_fail(
                DeliveryFailure(
                    f"{msg.src}: update {msg.msg_id} to {msg.dst} unacknowledged "
                    f"after {pending.attempts} attempts"
                )
            )

    # -- resolution ----------------------------------------------------------

    def ack(self, msg_id: int) -> None:
        """An acknowledgement for ``msg_id`` arrived at the sender."""
        pending = self.outstanding.pop(msg_id, None)
        if pending is None:
            return
        if pending.handle is not None:
            pending.handle.cancel()
        self.link_health(*pending.link).record_success()

    def cancel(self, msg_id: int) -> None:
        """Stop tracking ``msg_id`` without a delivery verdict (the
        waiting strand was cancelled by an ``otherwise`` deadline, a
        crash, or a stop).  Does not count against the link's health."""
        pending = self.outstanding.pop(msg_id, None)
        if pending is None:
            return
        if pending.handle is not None:
            pending.handle.cancel()
        if pending.is_probe:
            # the probe's outcome is unknown; stay open and let the
            # next post-cooldown send probe again
            health = self.link_health(*pending.link)
            if health.state == "half-open":
                health.state = "open"
            health.probe_in_flight = False
