"""Discrete-event simulation kernel: a single heap of virtual-time events.

A per-tick clock charges every patient for every tick — cohort size ×
tick rate bounds everything, even when 90 % of the nodes are
delineation-only and uplink once per ten minutes.  This module is the
fleet's one clock instead: node uplinks, governor decisions, link
deliveries, reassembly expiries and triage sweeps are :class:`Event`
records ordered by the total key ``(t_s, priority, subject, seq)``,
and the kernel simply pops and runs them.  Virtual time is whatever
the head of the heap says; wall time never appears.

Why the key is a *total* order (no tie-breaking left to the heap):

* ``t_s`` — virtual seconds; events fire in simulated-time order.
* ``priority`` — phase rank within one timestamp (see the ``PRIO_*``
  constants): governor decisions land before the uplinks they steer,
  link deliveries before the reassembly-expiry sweep that would write
  their gap off, drains before the triage decay that reads them.
* ``subject`` — the entity (patient id, or ``""`` for fleet-wide
  sweeps); same-priority events at one instant fire in subject order,
  which is shard-layout independent.
* ``seq`` — per-subject emission counter (mirroring the trace
  recorder's), so two events on one subject can never collide.

Because every component of the key is assigned deterministically at
:meth:`EventKernel.schedule` time, the processing order is a pure
function of the schedule — fuzzed in ``tests/test_fleet_kernel.py`` to
contain no duplicate keys across governed + impaired cohorts.

The kernel's client is :class:`~repro.fleet.FleetScheduler`, which
runs one of two schedules on it: *lockstep* sweep events per base tick
when every node shares the base uplink period, and per-node uplink
events when any profile carries an ``uplink_period_s`` override — cost
proportional to events, not ticks.  With every override equal to the
base period the two schedules fold to the same summary bytes, so each
is the other's reference.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

#: Phase ranks within one virtual timestamp.  Governor decisions steer
#: the uplinks that follow them; deliveries land before the expiry
#: sweep that would write them off; drains feed the triage decay that
#: closes the tick.
PRIO_GOVERNOR = 0
PRIO_ALARM_EARLY = 1
PRIO_UPLINK = 2
PRIO_ALARM_LATE = 3
PRIO_DELIVERY = 4
PRIO_REASSEMBLY = 5
PRIO_DRAIN = 6
PRIO_TRIAGE = 7

#: Every rank the kernel accepts, in firing order.
PRIORITIES = (PRIO_GOVERNOR, PRIO_ALARM_EARLY, PRIO_UPLINK,
              PRIO_ALARM_LATE, PRIO_DELIVERY, PRIO_REASSEMBLY,
              PRIO_DRAIN, PRIO_TRIAGE)


class KernelError(ValueError):
    """Event contract violation: bad time, unknown priority, time travel."""


@dataclass(frozen=True)
class Event:
    """One scheduled action stamped with its full ordering key.

    Attributes:
        t_s: Virtual firing time in seconds.
        priority: Phase rank (one of :data:`PRIORITIES`).
        subject: Entity the event belongs to (patient id, or ``""``
            for fleet-wide sweeps).
        seq: Per-subject emission sequence number — the component that
            makes the key a total order.
        name: Dotted event name for stats and traces
            (e.g. ``"node.uplink"``).
        action: Zero-argument callable run when the event fires; it may
            schedule further events at or after its own ``t_s``.
    """

    t_s: float
    priority: int
    subject: str
    seq: int
    name: str
    action: Callable[[], None] = field(repr=False)

    @property
    def key(self) -> tuple[float, int, str, int]:
        """The ``(t_s, priority, subject, seq)`` total-order key."""
        return (self.t_s, self.priority, self.subject, self.seq)


class EventKernel:
    """A heap of :class:`Event` records processed in total-key order.

    Attributes:
        now_s: Virtual time of the event being (or last) processed.
        n_processed: Events fired by :meth:`run` so far.
        counts_by_name: Processed-event tally per event name.
    """

    def __init__(self) -> None:
        self.now_s = 0.0
        self.n_processed = 0
        self.counts_by_name: dict[str, int] = {}
        self._heap: list[tuple[tuple, Event]] = []
        self._seq: dict[str, int] = {}

    def schedule(self, t_s: float, priority: int, name: str,
                 action: Callable[[], None],
                 subject: str = "") -> Event:
        """Enqueue one action at virtual time ``t_s``.

        The per-subject sequence number is assigned here, in emission
        order — two calls can never produce the same key, so the heap
        never has to break a tie non-deterministically.

        Raises:
            KernelError: Non-finite time, unknown priority, or a time
                earlier than the event currently being processed
                (events must not travel into the simulated past).
        """
        t_s = float(t_s)
        if not math.isfinite(t_s):
            raise KernelError(f"event {name!r}: time must be finite, "
                              f"got {t_s}")
        if priority not in PRIORITIES:
            raise KernelError(f"event {name!r}: unknown priority "
                              f"{priority!r}; choose from {PRIORITIES}")
        if t_s < self.now_s:
            raise KernelError(
                f"event {name!r} at t={t_s} scheduled behind virtual "
                f"time {self.now_s} (no time travel)")
        seq = self._seq.get(subject, 0)
        self._seq[subject] = seq + 1
        event = Event(t_s=t_s, priority=priority, subject=subject,
                      seq=seq, name=name, action=action)
        heapq.heappush(self._heap, (event.key, event))
        return event

    def run(self) -> int:
        """Fire every pending event in key order; return how many fired.

        Events scheduled by running actions join the same heap and
        fire in their proper order; the call returns once the heap is
        empty.
        """
        start = self.n_processed
        while self._heap:
            _, event = heapq.heappop(self._heap)
            self.now_s = event.t_s
            event.action()
            self.n_processed += 1
            self.counts_by_name[event.name] = \
                self.counts_by_name.get(event.name, 0) + 1
        return self.n_processed - start
