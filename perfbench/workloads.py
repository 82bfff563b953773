"""The benchmark's workloads: each one a pure function of the seed.

Every workload is a :class:`~repro.api.ScenarioSpec` built only from
``repro.api`` types and plain dicts, so the simulator receives nothing
but the generated inputs.  The machine constants are frozen here on
purpose: an experiment module retuning its own geometry must not
silently change what the benchmark measures.

All three drain (``drain=True``): requests still in flight when the
window closes run to completion, so "every issued op completes" is a
checkable statement.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.api import (
    BENCH_GEOMETRY,
    DistributedVolumeSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    VolumeSpec,
    WorkloadSpec,
)

US = 1_000
MS = 1_000_000

#: ~70% of the ISP path's ~280k rps capacity on BENCH_GEOMETRY.
ISP_RATE_RPS = 196_000.0
ISP_WINDOW_NS = 150 * MS

#: gc_steady's small single-card machine (1024 pages of 8 KB) and its
#: scaled program/erase timing, so GC turns over many times a window.
CHURN_GEOMETRY = {"buses_per_card": 4, "chips_per_bus": 2,
                  "blocks_per_chip": 16, "pages_per_block": 8,
                  "page_size": 8192, "cards_per_node": 1}
CHURN_TIMING = {"t_prog_ns": 100_000, "t_erase_ns": 93_750}
CHURN_WINDOW_NS = 400 * MS

#: dvol_scan's scan shape: 2048-byte packets over two parallel lanes.
DVOL_WINDOW_NS = 40 * MS
DVOL_SPAN = 8192  # LPNs scanned per tenant, fully prefilled


def isp_poisson(seed: int) -> ScenarioSpec:
    """Open-loop Poisson ISP reads at a fixed offered rate."""
    return ScenarioSpec(
        name="isp_poisson", geometry=BENCH_GEOMETRY,
        workload=WorkloadSpec(
            duration_ns=ISP_WINDOW_NS, seed=seed, drain=True,
            arrival="poisson", arrival_rate_rps=ISP_RATE_RPS,
            tenants=(TenantSpec("users", access="isp", pattern="random",
                                seed_base=1000 * seed + 11),)))


def volume_churn(seed: int) -> ScenarioSpec:
    """Mixed random volume churn at qd 16 beside a QoS-protected reader."""
    tenants = (
        TenantSpec("churn", access="volume", workers=2, pattern="random",
                   write_fraction=0.5, software_path=True,
                   seed_base=1000 * seed + 17, weight=2.0,
                   max_in_flight=8),
        TenantSpec("isp", access="isp", workers=2, rng="shared",
                   addr_space=64, max_in_flight=8, priority=2,
                   weight=4.0, deadline_ns=500 * US),
    )
    return ScenarioSpec(
        name="volume_churn", geometry=CHURN_GEOMETRY, timing=CHURN_TIMING,
        splitter_policy="wfq", splitter_in_flight=8,
        coalesce=True, coalesce_max_pages=8,
        volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                          fill=0.9, gc_low_watermark=12, gc_priority=0,
                          gc_weight=0.5, gc_rate_mbps=200.0),
        workload=WorkloadSpec(duration_ns=CHURN_WINDOW_NS, seed=seed,
                              queue_depth=16, drain=True, tenants=tenants))


def dvol_remote_scan(seed: int) -> ScenarioSpec:
    """Two nodes, one sequential scan tenant each, hashed placement."""
    tenants = tuple(
        TenantSpec(f"scan-n{node}", access="dvol", node=node,
                   pattern="sequential", software_path=False,
                   addr_space=DVOL_SPAN, seed_base=1000 * seed + node)
        for node in range(2))
    return ScenarioSpec(
        name="dvol_remote_scan", n_nodes=2, geometry=BENCH_GEOMETRY,
        network={"max_packet_payload": 2048},
        topology=TopologySpec(kind="custom", links=((0, 1), (0, 1))),
        coalesce=True, coalesce_max_pages=8,
        dvol=DistributedVolumeSpec(
            shards=2, placement="hashed", hash_seed=seed,
            stripe_chunk_pages=8, remote_coalesce=True,
            remote_coalesce_max_pages=8, remote_in_flight=4,
            volume=VolumeSpec(overprovision=0.25, allocation="sequential",
                              fill=1.0)),
        workload=WorkloadSpec(duration_ns=DVOL_WINDOW_NS, seed=seed,
                              queue_depth=16, drain=True, tenants=tenants))


#: Workload name -> spec builder; BENCHMARK.json says why each exists.
WORKLOADS: Dict[str, Callable[[int], ScenarioSpec]] = {
    build.__name__: build
    for build in (isp_poisson, volume_churn, dvol_remote_scan)}
