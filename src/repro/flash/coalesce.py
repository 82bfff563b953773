"""Request coalescing at splitter admission: merge adjacent pages.

The card pays a per-command setup cost (tag allocation, command
issue/decode) for every operation, and every command occupies one
admission slot.  Under deep queues that overhead is the difference
between the advertised bandwidth and what a one-page-per-command
interface reaches — so the splitter grows a *coalescing stage*: page
operations arriving at a port are staged briefly, stripe-adjacent
requests from the same tenant merge into one multi-page command (at
most ``max_pages``, never across a card boundary), and the merged
command takes one port slot, one admission grant whose *cost* is the
combined payload bytes, and one card command.

Adjacency is *stripe order* (:meth:`~repro.flash.geometry.FlashGeometry.
striped_index`): the order a controller lays out sequential data, so a
sequential reader's outstanding window merges into full-width commands
while a random reader's almost never does.

Grouping is greedy in arrival order and is factored into the pure
:func:`first_group` / :func:`plan_groups` helpers so property tests can
drive the planner without a simulator: groups partition their input
exactly, stay within one tenant and one card, take stripe-consecutive
pages only, and never exceed the page cap.

One :class:`Stager` implements all three stages the model uses — local
reads and programs at every splitter port, and remote reads at a
distributed volume's network service port.  They share the grouping
rule, the admission path and the failure handling; the one choice made
where each stage is built is *pacing*, i.e. when the dispatcher may
carve a group (see :class:`Stager`).

The merged command completes as a unit — one completion message per
command, like the tagged interface underneath — so a closed-loop
submitter gets its whole window back at once and refills it with the
next adjacent run, which is what keeps commands wide in steady state.
Commands from different tenants/groups still complete out of order with
respect to each other.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..io import BatchStageSpan, IORequest
from ..sim import Event, Simulator
from .controller import PartialReadError

__all__ = ["Stager", "first_group", "plan_groups"]

#: (tenant, card-identity, stripe index) — the only attributes the
#: grouping rule reads.
GroupKey = Tuple[str, object, int]


def first_group(keys: Sequence[GroupKey], max_pages: int) -> List[int]:
    """Positions forming the next merged command, greedy from the head.

    The head entry (position 0) always dispatches; later entries join
    in arrival order while each extends the run by exactly one stripe
    index, shares the head's tenant and card, and the group stays
    within ``max_pages``.
    """
    if max_pages < 1:
        raise ValueError(f"max_pages must be >= 1, got {max_pages}")
    if not keys:
        return []
    tenant, card, last = keys[0]
    group = [0]
    taken = {0}
    while len(group) < max_pages:
        for pos in range(1, len(keys)):
            if pos in taken:
                continue
            t, c, index = keys[pos]
            if t == tenant and c == card and index == last + 1:
                group.append(pos)
                taken.add(pos)
                last = index
                break
        else:
            break
    return group


def plan_groups(keys: Sequence[GroupKey],
                max_pages: int) -> List[List[int]]:
    """Partition a static arrival queue into merged commands.

    Repeatedly applies :func:`first_group` the way the dispatcher does
    when every entry is already staged; returns position groups in
    dispatch order.  This is the reference model the hypothesis
    property tests check the coalescer against.
    """
    remaining = list(range(len(keys)))
    groups: List[List[int]] = []
    while remaining:
        local = first_group([keys[pos] for pos in remaining], max_pages)
        groups.append([remaining[i] for i in local])
        remaining = [pos for i, pos in enumerate(remaining)
                     if i not in set(local)]
    return groups


class _Pending:
    """One staged page operation awaiting merge + dispatch.

    ``data`` is the page payload of a program and None for a read.
    """

    __slots__ = ("addr", "data", "key", "request", "event")

    def __init__(self, addr, data: Optional[bytes], key: GroupKey,
                 request: Optional[IORequest], event: Event):
        self.addr = addr
        self.data = data
        self.key = key
        self.request = request
        self.event = event


class Stager:
    """A coalescing stage in front of one splitter port's admission.

    ``submit`` stages a page operation and returns its completion event
    (value: the page's :class:`~repro.flash.controller.ReadResult` for
    a read, None for a program); a dispatcher process drains the
    staging queue, merging adjacent runs per :func:`first_group` and
    launching one admission + card command per group — a multi-page
    :meth:`~repro.flash.controller.FlashCard.read_pages` or
    :meth:`~repro.flash.controller.FlashCard.program_pages`.  Staging
    time is queueing and is charged to each request's ``queue`` stage,
    exactly where the unstaged path would have waited on the port slot.

    Pacing decides when a group is carved:

    * **greedy** (``paced=False``): the moment staging is non-empty.
      Everything that arrives within one simulator timestep is visible
      to the same dispatch round, so a queue-depth-N submitter's whole
      window can merge.  Local reads use it.
    * **paced** (``paced=True``): only while this stage holds fewer
      than the port's slot cap of its own commands.  Arrivals while
      every slot is busy *accumulate* in staging and merge when a slot
      frees, which keeps commands wide even though arrivals are
      staggered — by host-side transfers for programs (a program holds
      its slot for ``t_prog``), by request serialization for remote
      reads at a network service port.

    Program groups are *strict* ``+1`` striped-index runs taken off the
    open write point, so a merged program can never jump across an
    already-programmed page nor reorder programs within a block (and
    :meth:`FlashCard.program_pages` re-checks both rules).
    """

    def __init__(self, port, max_pages: int, paced: bool = False):
        if max_pages < 2:
            raise ValueError(
                f"coalescing needs max_pages >= 2, got {max_pages}")
        self.port = port
        self.splitter = port.splitter
        self.sim: Simulator = port.splitter.sim
        self.max_pages = max_pages
        self.paced = paced
        self._staging: Deque[_Pending] = deque()
        self._gate: Optional[Event] = None
        self._slot_gate: Optional[Event] = None
        self._inflight = 0
        #: commands dispatched / pages carried / pages that rode a
        #: multi-page command (the amortized ones).
        self.commands = 0
        self.pages = 0
        self.merged_pages = 0
        self.sim.process(self._dispatch(), name=f"stager-{port.tenant}")

    # -- intake ---------------------------------------------------------
    def submit(self, addr, request: Optional[IORequest],
               data: Optional[bytes] = None) -> Event:
        """Stage one page read (``data=None``) or program; returns the
        event its result rides on."""
        geometry = self.splitter.geometry
        key: GroupKey = (self.port.sched_tenant(request),
                         (addr.node, addr.card),
                         geometry.striped_index(addr))
        pending = _Pending(addr, data, key, request, Event(self.sim))
        if request:
            request.enter("queue", self.sim.now)
        self._staging.append(pending)
        if self._gate is not None and not self._gate.triggered:
            self._gate.succeed()
        return pending.event

    @property
    def depth(self) -> int:
        """Operations currently staged (not yet dispatched)."""
        return len(self._staging)

    @property
    def pages_per_command(self) -> float:
        """Mean merged width over the stage's lifetime."""
        return self.pages / self.commands if self.commands else 0.0

    def stats(self) -> dict:
        return {"commands": self.commands, "pages": self.pages,
                "merged_pages": self.merged_pages,
                "pages_per_command": self.pages_per_command}

    # -- dispatch -------------------------------------------------------
    def _dispatch(self):
        """Forever: wait for staged work (and, when paced, slot
        headroom), carve a group, launch it."""
        sim = self.sim
        while True:
            if not self._staging:
                self._gate = sim.event()
                yield self._gate
                self._gate = None
            while self.paced and self._inflight >= self.port.max_in_flight:
                self._slot_gate = sim.event()
                yield self._slot_gate
                self._slot_gate = None
            group = self._take_group()
            self._inflight += 1
            sim.process(self._execute(group))

    def _take_group(self) -> List[_Pending]:
        """Remove the next merged command's members from staging."""
        positions = first_group([p.key for p in self._staging],
                                self.max_pages)
        taken = set(positions)
        group = [self._staging[pos] for pos in positions]
        self._staging = deque(p for pos, p in enumerate(self._staging)
                              if pos not in taken)
        now = self.sim.now
        for pending in group:
            if pending.request:
                pending.request.exit("queue", now)
        return group

    def _retired(self) -> None:
        self._inflight -= 1
        if self._slot_gate is not None and not self._slot_gate.triggered:
            self._slot_gate.succeed()

    def _execute(self, group: List[_Pending]):
        """Admit and run one merged command; settle every child.

        Admission charges the merged payload as one queue entry —
        ``cost`` in bytes, ``pages`` wide — so WFQ/token-bucket
        arbitrate the real load while the command occupies a single
        slot.  QoS identity comes from the group head exactly as the
        unmerged path takes it from each request.
        """
        port = self.port
        splitter = self.splitter
        sim = self.sim
        head = group[0]
        tenant = head.key[0]
        size = splitter.page_size
        if head.data is None:
            cost = size * len(group)
        else:
            cost = sum(len(p.data) for p in group)
        addrs = [p.addr for p in group]
        requests = [p.request for p in group]
        admitted = False
        try:
            with BatchStageSpan(sim, requests, "queue"):
                yield from port._admit(head.request, cost, len(group))
            admitted = True
            self.commands += 1
            self.pages += len(group)
            if len(group) > 1:
                self.merged_pages += len(group)
            if head.data is None:
                results = yield from splitter.card.read_pages(
                    addrs, requests=requests)
            else:
                yield from splitter.card.program_pages(
                    addrs, [p.data for p in group], requests=requests)
                results = [None] * len(group)
        except PartialReadError as exc:
            # Per-child fidelity: successful siblings keep their pages
            # (and their served bytes), only the bad ones fail — the
            # same outcome each would have seen unmerged.
            served = sum(1 for result in exc.results if result is not None)
            splitter.bandwidth.record(tenant, size * served)
            for pending, result, error in zip(group, exc.results,
                                              exc.errors):
                if error is not None:
                    pending.event.fail(error)
                else:
                    pending.event.succeed(result)
            return
        except BaseException as exc:
            # This process has no waiter: deliver the admission or
            # command failure to every child instead of crashing the
            # simulation.
            for pending in group:
                pending.event.fail(exc)
            return
        finally:
            if admitted:
                port._retire()
            self._retired()
        splitter.bandwidth.record(tenant, cost)
        for pending, result in zip(group, results):
            pending.event.succeed(result)
