"""Run one workload for a time budget and turn the runs into metrics.

A run repeats one *episode* — build a :class:`~repro.api.Session` from
the seed's spec, run it to drain, check it — until the time budget is
spent (at least :data:`MIN_EPISODES` times).  Every episode of a run
simulates the identical input, so each must reproduce the first one's
``sim_digest`` exactly, and modelled metrics come from that one
simulated output.

Host times are in reference seconds (see :mod:`perfbench.speed`): wall
time scaled by the machine's speed, measured with a frozen yardstick
around and inside each timed region, so a slow phase of a shared host
does not read as a slower program.  The run's speed is the median over
its episodes.  Set-up time is the median over every construction of
the run: each episode builds :data:`BUILDS_PER_EPISODE` sessions and
runs the last, so the samples spread across the whole run instead of
landing in one slow moment.

The traced run then adds two instrumented episodes: one under the
counting probes, one under ``cProfile``.  Both must also reproduce the
untraced digest — instrumentation that changed the simulation would
be caught here.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import RunResult, ScenarioSpec, Session

from . import checks, speed
from .trace import LAYERS, Probes, layer_self_time
from .workloads import WORKLOADS

MIN_EPISODES = 3
BUILDS_PER_EPISODE = 3
#: Set-up takes milliseconds, so it is sampled inside more often.
SETUP_SAMPLE_INTERVAL_S = 0.004


@dataclass
class Episode:
    result: RunResult
    setup_s: List[float]  # reference seconds, one per construction
    run_s: float  # reference seconds
    raw_setup_s: List[float]  # wall seconds
    raw_run_s: float
    digest: str
    problems: List[str]

    @property
    def ops(self) -> int:
        """Completed foreground user ops."""
        completions = self.result.metrics["completions"]
        return sum(completions[t["name"]]
                   for t in checks.foreground(self.result.spec))


def run_episode(spec: ScenarioSpec,
                around_run: Optional[Callable] = None,
                sample_inside: bool = True) -> Episode:
    """Build, run, observe and check one session.

    Garbage is collected before each timed region, so the cycles of
    earlier sessions are not freed inside it.
    """
    setup_s, raw_setup_s = [], []
    for _ in range(BUILDS_PER_EPISODE):
        gc.collect()
        session, raw, scaled = speed.measure(
            lambda: Session(spec), interval_s=SETUP_SAMPLE_INTERVAL_S)
        raw_setup_s.append(raw)
        setup_s.append(scaled)
    gc.collect()
    # The kernel's scheduling ticket counter: one per event scheduled.
    events_before = session.sim._eid
    run = (session.run if around_run is None
           else lambda: around_run(session.run))
    result, raw_run_s, run_s = speed.measure(run, sample_inside)
    checks.observe(session, result, session.sim._eid - events_before)
    return Episode(result, setup_s, run_s, raw_setup_s, raw_run_s,
                   checks.sim_digest(result), checks.check(result))


@dataclass
class Run:
    workload: str
    seed: int
    episodes: List[Episode]
    attempted: int
    failed: int
    problems: List[str]
    peak_rss_mb: float
    layers: Optional[Dict[str, float]] = None

    @property
    def first(self) -> RunResult:
        return self.episodes[0].result

    @property
    def correct(self) -> bool:
        return not self.problems


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool = False) -> Run:
    spec = WORKLOADS[name](seed)
    episodes: List[Episode] = []
    began = time.perf_counter()
    while (len(episodes) < MIN_EPISODES
           or time.perf_counter() - began < seconds):
        episodes.append(run_episode(spec))
        if len(episodes) == 1:
            # Peak memory of one episode: later ones only add allocator
            # noise, and the traced ones add the profiler's own tables.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    checked = list(episodes)
    if trace:
        layers, traced = traced_metrics(spec, episodes)
        checked.extend(traced)
    problems: List[str] = []
    attempted = failed = 0
    reference = episodes[0].digest
    for index, episode in enumerate(checked):
        bad = list(episode.problems)
        if episode.digest != reference:
            bad.append(f"episode {index} sim_digest {episode.digest[:12]} "
                       f"differs from episode 0 {reference[:12]}")
        ops = checks.attempted_ops(episode.result)
        attempted += ops
        if bad:
            failed += ops
            problems.extend(bad)
        else:
            failed += ops - episode.ops
    return Run(name, seed, episodes, attempted, failed, problems,
               peak_rss_mb, layers)


def _stage_p99_us(result: RunResult, stage: str) -> float:
    return result.stage_stats.get(stage, {}).get("p99_ns", 0.0) / 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(run: Run) -> Dict[str, float]:
    """The user-visible metrics: host speed plus the modelled machine."""
    result = run.first
    bench = result.metrics["bench"]
    page = result.spec["geometry"]["page_size"]
    ftl = checks.volume_stats(result).values()
    user_writes = sum(sum(f["user_writes"].values()) for f in ftl)
    moved = sum(f["gc_moved_pages"] for f in ftl)
    return {
        "host_ops_per_s": statistics.median(
            e.ops / e.run_s for e in run.episodes),
        "setup_s": statistics.median(
            s for e in run.episodes for s in e.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
        "sim_read_p50_us": bench["read_ns"]["p50"] / 1e3,
        "sim_read_p99_us": bench["read_ns"]["p99"] / 1e3,
        "sim_goodput_gbs": run.episodes[0].ops * page / result.elapsed_ns,
        # The FTL's own convention: no user writes, no amplification.
        "write_amplification":
            (user_writes + moved) / user_writes if user_writes else 1.0,
        "ok_frac": 1.0 - _ratio(run.failed, run.attempted),
    }


def traced_metrics(spec: ScenarioSpec, untraced: List[Episode]
                   ) -> Tuple[Dict[str, float], List[Episode]]:
    """Per-layer metrics from a probed and a profiled episode.

    Returns the metrics and the two instrumented episodes, which the
    caller checks like any other (their digests must match the
    untraced episodes').
    """
    # Probes go in before the session is built (components may hold
    # bound methods), but count only the run itself.
    with Probes() as probes:
        counted = run_episode(
            spec, around_run=lambda run: (probes.counts.clear(), run())[1])
    profiler = cProfile.Profile()

    def profiled_run(run):
        profiler.enable()
        try:
            return run()
        finally:
            profiler.disable()

    # The profiler would profile the in-region yardstick samples too.
    profiled = run_episode(spec, around_run=profiled_run,
                           sample_inside=False)

    self_s = layer_self_time(profiler)
    total_s = sum(self_s.values())
    # The profiled episode has no yardstick samples inside it, so its
    # scaling is not comparable with the untraced episodes': its
    # overhead is a ratio of wall times.
    base_s = statistics.median(e.run_s for e in untraced)
    base_raw_s = statistics.median(e.raw_run_s for e in untraced)
    result = counted.result
    bench = result.metrics["bench"]
    count = probes.counts
    ops = counted.ops
    ftl = list(checks.volume_stats(result).values())
    moved = sum(f["gc_moved_pages"] for f in ftl)
    stale = sum(f["gc_stale_moves"] for f in ftl)
    remote = result.metrics.get("dvol", {}).get("remote_coalescing", {})
    per_op = {
        "sim.spawns_per_op": "sim.process",
        "sim.timeouts_per_op": "sim.timeout",
        "io.traced_per_op": "io.tracer_start",
        "flash.chip_reads_per_op": "flash.chip_read",
        "flash.chip_programs_per_op": "flash.chip_program",
        "flash.chip_erases_per_op": "flash.chip_erase",
        "network.sends_per_op": "network.send",
        "network.link_transmits_per_op": "network.link_transmit",
        "network.payload_bytes_per_op": "network.payload_bytes",
    }
    metrics = {name: _ratio(count[key], ops) for name, key in per_op.items()}
    metrics.update({
        f"{layer}.self_frac": _ratio(self_s[layer], total_s)
        for layer in LAYERS + ("other",)})
    metrics.update({
        "sim.events_per_op": _ratio(bench["sim_events"], ops),
        "io.queue_p99_us": _stage_p99_us(result, "queue"),
        "flash.port_cmds_per_op": _ratio(
            count["flash.port_read"] + count["flash.port_write"]
            + count["flash.port_erase"], ops),
        "flash.read_pages_per_cmd": _ratio(
            count["flash.card_read_pages"], count["flash.card_read_cmds"]),
        "flash.write_pages_per_cmd": _ratio(
            count["flash.card_write_pages"],
            count["flash.card_write_cmds"]),
        "flash.device_p99_us": _stage_p99_us(result, "device"),
        "ftl.gc_runs": sum(f["gc_runs"] for f in ftl),
        "ftl.gc_moved_pages": moved,
        "ftl.gc_useful_frac": _ratio(moved, moved + stale),
        "ftl.free_blocks_end": sum(f["free_blocks"] for f in ftl),
        "volume.flows_per_op": _ratio(
            count["volume.read_flow"] + count["volume.write_flow"], ops),
        "host.iface_calls_per_op": _ratio(
            count["host.read_lpn"] + count["host.write_lpn"]
            + count["host.submit_items"], ops),
        "host.pcie_p99_us": _stage_p99_us(result, "pcie"),
        "host.software_p99_us": _stage_p99_us(result, "software"),
        "network.net_p99_us": _stage_p99_us(result, "net"),
        "dvol.remote_frac": _ratio(
            count["dvol.remote_read"] + count["dvol.remote_write"], ops),
        "dvol.remote_pages_per_cmd": _ratio(
            sum(s["pages"] for s in remote.values()),
            sum(s["commands"] for s in remote.values())),
        "sim_write_p99_us": bench["write_ns"]["p99"] / 1e3,
        "trace.count_overhead_x": _ratio(counted.run_s, base_s),
        "trace.profile_overhead_x": _ratio(profiled.raw_run_s, base_raw_s),
    })
    return metrics, [counted, profiled]
