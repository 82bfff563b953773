"""Correctness checks for one workload run, over its RunResult alone.

:func:`observe` folds the machine state the checks need and the
result does not already carry (tracer totals, foreground latency
percentiles, each volume's logical-to-physical mapping over its
tenants' windows, the fabric byte ledger) into
``result.metrics["bench"]``; :func:`check` then reads nothing but
the :class:`~repro.api.RunResult`, so a tampered result can be
checked exactly like a real one.  :func:`sim_digest` hashes the whole
result, which holds simulated quantities only.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Tuple

from repro.api import RunResult, Session
from repro.io import IOKind


def foreground(spec: dict) -> List[dict]:
    """The workload's user tenants (background GC tenants excluded)."""
    return [t for t in spec["workload"]["tenants"] if not t["background"]]


def _percentiles(values: List[int]) -> dict:
    """Nearest-rank p50/p99 of exact latencies (0 when there are none)."""
    values = sorted(values)
    if not values:
        return {"count": 0, "p50": 0, "p99": 0}

    def rank(p: float) -> int:
        return values[min(len(values) - 1, int(p * len(values)))]

    return {"count": len(values), "p50": rank(0.50), "p99": rank(0.99)}


def _volumes(session: Session) -> Dict[str, object]:
    out = {f"volume-n{node}": volume
           for node, volume in sorted(session.volumes.items())}
    if session.dvol is not None:
        out.update({f"dvol-n{node}": volume
                    for node, volume in sorted(session.dvol.shards.items())})
    return out


def _windows(session: Session) -> Iterator[Tuple[str, int, int]]:
    """``(volume name, start, size)`` of every tenant's LBA window."""
    spec = session.spec
    node_of = {t.name: t.node for t in spec.workload.tenants}
    for tenant, (start, size) in spec.volume_windows().items():
        yield f"volume-n{node_of[tenant]}", start, size
    for start, size in spec.dvol_windows().values():
        for node, shard_start, length in session.dvol.planner.split_run(
                start, size):
            yield f"dvol-n{node}", shard_start, length


def observe(session: Session, result: RunResult, sim_events: int) -> None:
    """Record what the checks and metrics need in ``result``.

    ``sim_events`` is the number of kernel events the run scheduled.
    """
    tracer = session.tracer
    labels = {t.sched_label() for t in session.spec.workload.tenants
              if not t.background}
    reads: List[int] = []
    writes: List[int] = []
    for request in tracer.requests:
        if request.tenant in labels:
            if request.kind is IOKind.READ:
                reads.append(request.total_ns)
            elif request.kind is IOKind.WRITE:
                writes.append(request.total_ns)
    volumes = _volumes(session)
    mapping: Dict[str, list] = {name: [] for name in volumes}
    for name, start, size in _windows(session):
        volume = volumes[name]
        for lpn in range(start, start + size):
            addr = volume.physical_of(lpn)
            if addr is not None:
                mapping[name].append(
                    [lpn, addr.node, addr.card, addr.bus, addr.chip,
                     addr.block, addr.page])
    result.metrics["bench"] = {
        "sim_events": sim_events,
        "tracer": {"started": tracer.started,
                   "completed": tracer.completed_count,
                   "dropped": tracer.dropped},
        "read_ns": _percentiles(reads),
        "write_ns": _percentiles(writes),
        "mapping": mapping,
        "ledger": (session.cluster.network.byte_ledger()
                   if session.cluster is not None else None),
    }


def volume_stats(result: RunResult) -> Dict[str, dict]:
    """Every FTL's ``LogicalVolume.stats()``, as the result reports them."""
    out = {f"volume-n{node}": stats
           for node, stats in result.metrics.get("volume", {}).items()}
    out.update({f"dvol-n{node}": stats for node, stats in
                result.metrics.get("dvol", {}).get("shards", {}).items()})
    return out


def attempted_ops(result: RunResult) -> int:
    """User ops the run attempted.

    Open loops count arrivals; closed loops count completions plus every
    traced request that never completed (charged as a failed user op).
    """
    metrics = result.metrics
    names = [t["name"] for t in foreground(result.spec)]
    if "issued" in metrics:
        return sum(metrics["issued"][name] for name in names)
    tracer = metrics["bench"]["tracer"]
    lost = max(0, tracer["started"] - tracer["completed"])
    return sum(metrics["completions"][name] for name in names) + lost


def check(result: RunResult) -> List[str]:
    """Every violated invariant, as readable lines (empty = correct)."""
    problems: List[str] = []
    metrics = result.metrics
    bench = metrics["bench"]
    tracer = bench["tracer"]
    if tracer["dropped"]:
        problems.append(f"tracer dropped {tracer['dropped']} requests; "
                        f"latencies would be biased")
    if tracer["started"] != tracer["completed"]:
        problems.append(f"{tracer['started'] - tracer['completed']} traced "
                        f"requests never completed after drain")
    for tenant in foreground(result.spec):
        name = tenant["name"]
        done = metrics["completions"][name]
        traced = result.tenant_stats.get(name, {}).get("completed", 0)
        if done < 1:
            problems.append(f"tenant {name!r} completed no ops")
        if traced != done:
            problems.append(f"tenant {name!r}: driver counted {done} "
                            f"completions, tracer {traced:.0f}")
        if "issued" in metrics and metrics["issued"][name] != done:
            problems.append(f"tenant {name!r}: issued "
                            f"{metrics['issued'][name]}, completed {done}")
    for name, stats in volume_stats(result).items():
        charged = (sum(stats["user_writes"].values())
                   + stats["gc_moved_pages"] + stats["gc_stale_moves"])
        if stats["total_programs"] != charged:
            problems.append(f"{name}: total_programs "
                            f"{stats['total_programs']} != user + moved + "
                            f"stale = {charged}")
        for tenant, wa in stats["write_amplification"].items():
            if wa < 1.0:
                problems.append(f"{name}: tenant {tenant!r} write "
                                f"amplification {wa} < 1")
    for name, entries in bench["mapping"].items():
        physical = [tuple(entry[1:]) for entry in entries]
        if len(set(physical)) != len(physical):
            problems.append(f"{name}: {len(physical) - len(set(physical))} "
                            f"logical pages share a physical page")
    ledger = bench["ledger"]
    if ledger is not None:
        sent = ledger["endpoint_sent_bytes"]
        if ledger["endpoint_received_bytes"] != sent:
            problems.append(f"byte ledger: sent {sent} != received "
                            f"{ledger['endpoint_received_bytes']}")
        wire = ledger["link_payload_bytes"] - ledger["forwarded_bytes"]
        if wire != sent:
            problems.append(f"byte ledger: wire minus forwarded {wire} "
                            f"!= sent {sent}")
    return problems


def sim_digest(result: RunResult) -> str:
    """sha256 of the run's simulated output (the full RunResult JSON)."""
    return hashlib.sha256(result.to_json().encode()).hexdigest()
