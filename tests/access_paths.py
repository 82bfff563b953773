"""One uncontended request on each access path, measured.

Shared by ``test_timing_oracles.py`` (simulated latency against the
closed-form sum of the timing constants) and ``test_spawn_budget.py``
(exact kernel cost per request).  Every function in :data:`PATHS`
builds a fresh machine (the experiment geometry at default timing),
lets its background loops start, then drives exactly one request to
completion and returns a :class:`PathRun`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any

from repro.api import (
    BENCH_GEOMETRY,
    DistributedVolumeSpec,
    ScenarioSpec,
    Session,
    TenantSpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.core import BlueDBMNode
from repro.sim import Simulator
from repro.sim import core as sim_core

#: Every path moves exactly one page of the experiment geometry.
PAGE = BENCH_GEOMETRY.page_size
PAYLOAD = bytes([0x5A]) * PAGE


@dataclass
class PathRun:
    """What one request cost: simulated ns, processes, kernel tickets.

    ``processes`` counts every :class:`~repro.sim.Process` created while
    the request ran, its own top-level driver included; ``events`` is
    the number of scheduling tickets (``sim._eid``) it drew.
    """

    latency_ns: int
    processes: int
    events: int
    value: Any
    context: Any


@contextlib.contextmanager
def _counting_processes():
    created = [0]
    original = sim_core.Process.__init__

    def counting(self, *args, **kwargs):
        created[0] += 1
        original(self, *args, **kwargs)

    sim_core.Process.__init__ = counting
    try:
        yield created
    finally:
        sim_core.Process.__init__ = original


def measure(sim: Simulator, generator, context=None) -> PathRun:
    """Drain start-up work, then run ``generator`` alone and measure it."""
    sim.run()
    start_ns, start_eid = sim.now, sim._eid
    with _counting_processes() as created:
        value = sim.run_process(generator)
    return PathRun(sim.now - start_ns, created[0], sim._eid - start_eid,
                   value, context)


def _node() -> BlueDBMNode:
    return BlueDBMNode(Simulator(), geometry=BENCH_GEOMETRY)


def isp_read() -> PathRun:
    node = _node()
    return measure(node.sim, node.isp_read(node.geometry.striped(0)), node)


def host_read() -> PathRun:
    node = _node()
    return measure(node.sim, node.host_read(node.geometry.striped(0)), node)


def host_write() -> PathRun:
    node = _node()
    return measure(node.sim,
                   node.host_write(node.geometry.striped(0), PAYLOAD), node)


def _volume_session() -> Session:
    return Session(ScenarioSpec(
        name="volume-path", volume=VolumeSpec(),
        workload=WorkloadSpec(duration_ns=1, tenants=(
            TenantSpec("vol", access="volume"),))))


def volume_write() -> PathRun:
    session = _volume_session()
    iface = session._volume_ifaces["vol"]
    return measure(session.sim, iface.write_lpn(
        session.volumes[0], 0, PAYLOAD), session)


def volume_read() -> PathRun:
    """Read back the page :func:`volume_write` wrote, on its machine."""
    session = volume_write().context
    iface = session._volume_ifaces["vol"]
    return measure(session.sim, iface.read_lpn(session.volumes[0], 0),
                   session)


def _dvol_read(lpn: int) -> PathRun:
    """Two nodes, two shards of eight-page chunks, every LPN prefilled
    (LPNs 0-7 live on node 0, 8-15 on node 1); remote reads stage at
    the shard's slot-paced remote coalescer."""
    session = Session(ScenarioSpec(
        name="dvol-path", n_nodes=2,
        dvol=DistributedVolumeSpec(shards=2, stripe_chunk_pages=8,
                                   remote_coalesce=True,
                                   volume={"fill": 1.0}),
        workload=WorkloadSpec(duration_ns=1, tenants=(
            TenantSpec("t0", access="dvol", node=0, addr_space=64),))))
    iface = session._dvol_ifaces["t0"]
    return measure(session.sim, session.dvol.read_lpn(0, iface, lpn),
                   session)


def dvol_local_read() -> PathRun:
    return _dvol_read(0)


def dvol_remote_read() -> PathRun:
    return _dvol_read(8)


PATHS = {
    "isp_read": isp_read,
    "host_read": host_read,
    "host_write": host_write,
    "volume_write": volume_write,
    "volume_read": volume_read,
    "dvol_local_read": dvol_local_read,
    "dvol_remote_read": dvol_remote_read,
}
