"""Host timings in reference seconds: wall time scaled by machine speed.

On a shared host the same code runs up to twice as slow for seconds or
minutes at a time, as other tenants load the cores and caches this
process shares.  No statistic over one run removes a slowdown that
lasts longer than the run.  So each timed region is scaled by the
machine's speed measured *while it ran*: a frozen reference workload,
the yardstick, is timed a few times just before and just after the
region, and every :data:`SAMPLE_INTERVAL_S` of wall time inside it (from
a ``SIGALRM`` handler).  The yardstick's own time inside the region is
subtracted, and the rest is scaled to a machine on which one yardstick
pass takes :data:`REFERENCE_S`::

    scaled = (elapsed - yardstick time inside) * mean(REFERENCE_S / y)

over every yardstick time ``y`` of the region.  The yardstick is the
interpreter work the simulator is made of (a heap of events driving
generator processes, dict updates, method calls, a walk of a linked
object graph larger than the per-core caches) on data of its own.  It
allocates almost nothing, so it does not shift the program's garbage
collections, and it touches nothing of the program under test: a
change to the simulator never changes it.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: One yardstick pass on the reference machine, by definition.
REFERENCE_S = 0.001
#: Wall time between yardstick samples inside a timed region.
SAMPLE_INTERVAL_S = 0.02
#: Yardstick samples taken just before and just after each region.
BRACKET = 5

_RING_NODES = 1 << 15
_WALK_STEPS = 1000
_PROCESSES = 16
_STEPS_PER_PROCESS = 25


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value
        self.next: Optional["_Node"] = None

    def bump(self, delta: int) -> "_Node":
        self.value = (self.value + delta) & 0xFFFF
        return self.next


_TABLE = {f"k{i}": i for i in range(512)}
_KEYS = list(_TABLE)


def _ring() -> _Node:
    """A ring of nodes linked in a fixed shuffled order, larger than
    the per-core caches, so the walk misses them as the simulator's
    object graph does."""
    nodes = [_Node(_KEYS[i & 511], i) for i in range(_RING_NODES)]
    order = list(range(_RING_NODES))
    random.Random(5).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return nodes[0]


_CURSOR = [_ring()]  # where the next walk resumes


def _process(k: int):
    table, keys = _TABLE, _KEYS
    for j in range(_STEPS_PER_PROCESS):
        key = keys[(k * 31 + j) & 511]
        table[key] = (table[key] + j) & 0xFFFF
        yield (k * 7 + j * 13) & 63


def yardstick() -> int:
    """One pass of the frozen reference work (about 1 ms).

    A small discrete-event loop (generator processes on a heap of
    ints) and the next stretch of the walk round the shuffled ring, so
    each pass meets nodes the region has evicted.  Heap entries are ints
    packing (time, ticket, process), so the pass allocates only its
    heap and its sixteen generators.
    """
    heap: List[int] = []
    processes = [_process(k) for k in range(_PROCESSES)]
    ticket = 0
    for k in range(_PROCESSES):
        ticket += 1
        heapq.heappush(heap, (ticket << 5) | k)
    while heap:
        entry = heapq.heappop(heap)
        k = entry & 31
        for delay in processes[k]:
            ticket += 1
            heapq.heappush(
                heap, (((entry >> 20) + delay) << 20) | (ticket << 5) | k)
            break
    node, total = _CURSOR[0], ticket
    for i in range(_WALK_STEPS):
        node = node.bump(i)
        total += node.value
    _CURSOR[0] = node
    return total


def measure(fn: Callable[[], T], sample_inside: bool = True,
            interval_s: float = SAMPLE_INTERVAL_S
            ) -> Tuple[T, float, float]:
    """Run ``fn()``; return ``(value, raw_s, scaled_s)``.

    ``raw_s`` is the region's wall time without the yardstick samples
    taken inside it; ``scaled_s`` is that time in reference seconds.
    With ``sample_inside=False`` (for a region under a profiler, which
    would profile the handler too) only the bracketing samples are
    taken.  A short region needs a shorter ``interval_s`` to be
    sampled inside at all.
    """
    samples: List[float] = []
    busy = False

    def sample(*_) -> None:
        nonlocal busy
        if busy:  # a slow pass outlasted the interval: skip, not nest
            return
        busy = True
        start = time.perf_counter()
        yardstick()
        samples.append(time.perf_counter() - start)
        busy = False

    for _ in range(BRACKET):
        sample()
    previous = signal.getsignal(signal.SIGALRM)
    if sample_inside:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    start = time.perf_counter()
    try:
        value = fn()
    finally:
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    raw_s = elapsed - sum(samples[BRACKET:])
    for _ in range(BRACKET):
        sample()
    scale = statistics.fmean(REFERENCE_S / y for y in samples)
    return value, raw_s, raw_s * scale
