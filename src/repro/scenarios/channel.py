"""Deterministic lossy uplink: the radio between node and gateway.

Implements the :class:`~repro.fleet.UplinkChannel` protocol with the
impairments of a :class:`~repro.scenarios.LinkSpec`: uniform packet
loss, duplication, reordering and bounded delay/jitter.  All decisions
come from one seeded generator drawn in send order, so the same packet
sequence over the same spec replays identically.

Alarm packets are never lost for good: the link models acknowledged
delivery (retransmit-until-acked), so a loss draw converts into bounded
extra delay instead — the uplink-side half of the fleet's no-false-drop
guarantee.  Routine excerpts are best-effort and simply disappear.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..fleet.node_proxy import PACKET_ALARM, UplinkPacket
from .spec import LinkSpec


class ImpairedLink:
    """Lossy, delaying, duplicating channel model.

    Args:
        spec: The impairment parameters.
        seed: Stream seed (derive from the campaign master seed with
            :func:`~repro.scenarios.derive_seed`).

    Attributes:
        stats: Counters — ``offered``, ``delivered`` (copies handed to
            the gateway, duplicates included), ``lost`` (excerpts gone
            for good), ``duplicated``, ``reordered``, ``retransmissions``
            (alarm ARQ rounds).
    """

    def __init__(self, spec: LinkSpec | None = None,
                 seed: int = 0) -> None:
        self.spec = spec or LinkSpec()
        self._rng = np.random.default_rng(seed)
        #: Delivery heap keyed ``(t_s, patient_id, seq, order)`` — two
        #: packets colliding on the same virtual delivery time pop in
        #: deterministic ``(patient, seq)`` order regardless of how
        #: they were interleaved at send time, so jittered links stay
        #: byte-reproducible under any send schedule (the kernel's
        #: per-node event order differs from its lockstep batch
        #: order).  ``order`` (insertion counter) breaks the final tie
        #: between duplicate copies of one packet.
        self._pending: list[
            tuple[float, str, int, int, UplinkPacket]] = []
        self._order = 0
        self.stats: dict[str, int] = {
            "offered": 0,
            "delivered": 0,
            "lost": 0,
            "duplicated": 0,
            "reordered": 0,
            "retransmissions": 0,
        }

    @property
    def in_flight(self) -> int:
        """Packets delayed and not yet delivered."""
        return len(self._pending)

    def send(self, packet: UplinkPacket,
             now_s: float) -> list[UplinkPacket]:
        """Offer one packet; return the copies delivered immediately."""
        spec = self.spec
        self.stats["offered"] += 1
        immediate: list[UplinkPacket] = []

        delay = self._delivery_delay(packet)
        if delay is not None:
            self._deliver(packet, now_s, delay, immediate)
            if spec.duplicate_rate > 0 \
                    and self._rng.random() < spec.duplicate_rate:
                self.stats["duplicated"] += 1
                dup_delay = delay + (self._rng.uniform(0, spec.jitter_s)
                                     if spec.jitter_s > 0 else 0.0)
                self._deliver(packet, now_s, dup_delay, immediate)
        return immediate

    def due(self, now_s: float) -> list[UplinkPacket]:
        """Pop the delayed packets whose delivery time has arrived."""
        out: list[UplinkPacket] = []
        while self._pending and self._pending[0][0] <= now_s:
            out.append(heapq.heappop(self._pending)[-1])
        return out

    def drain(self) -> list[UplinkPacket]:
        """Everything still in flight, in delivery order (end of run)."""
        out = [heapq.heappop(self._pending)[-1] for _ in
               range(len(self._pending))]
        return out

    def next_due_s(self) -> float | None:
        """Delivery time of the earliest in-flight packet.

        The event kernel uses this to schedule an exact-time delivery
        event for jittered copies instead of polling every sweep;
        ``None`` means nothing is in flight.
        """
        return self._pending[0][0] if self._pending else None

    def _delivery_delay(self, packet: UplinkPacket) -> float | None:
        """Delay of this packet's first copy; ``None`` when lost."""
        spec = self.spec
        delay = (self._rng.uniform(0, spec.jitter_s)
                 if spec.jitter_s > 0 else 0.0)
        if spec.loss_rate > 0 and self._rng.random() < spec.loss_rate:
            if packet.kind != PACKET_ALARM:
                self.stats["lost"] += 1
                return None
            # Acknowledged delivery: each failed round adds one
            # retransmission delay; the link never gives an alarm up.
            retx = 1
            while retx < spec.max_alarm_retx \
                    and self._rng.random() < spec.loss_rate:
                retx += 1
            self.stats["retransmissions"] += retx
            delay += retx * spec.alarm_retx_delay_s
        if spec.reorder_rate > 0 \
                and self._rng.random() < spec.reorder_rate:
            self.stats["reordered"] += 1
            delay += spec.reorder_delay_s
        return delay

    def _deliver(self, packet: UplinkPacket, now_s: float, delay: float,
                 immediate: list[UplinkPacket]) -> None:
        self.stats["delivered"] += 1
        if delay <= 0.0:
            immediate.append(packet)
            return
        heapq.heappush(self._pending,
                       (now_s + delay, packet.patient_id, packet.seq,
                        self._order, packet))
        self._order += 1
