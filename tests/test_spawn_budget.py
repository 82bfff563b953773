"""Spawn budget: a caller that waits for a sub-operation runs it inline.

A ``yield sim.process(gen)`` whose caller only waits for the result
costs a :class:`~repro.sim.Process`, a bootstrap wake and a completion
event, and buys nothing: the child runs alone either way.  The model
therefore delegates with ``yield from gen`` and spawns a process only
where work really runs concurrently (arrival dispatchers and workers,
multi-page lanes, stager dispatch, switch forwarding, dvol serving).

Four guards keep it that way:

* no awaited spawn anywhere in ``src/repro`` (an AST scan);
* the exact number of processes and kernel tickets one uncontended
  request costs on each access path — deterministic, so pinned exactly;
* queue depth N costs N processes, not one per operation: N in flight
  is N lanes that each run their next operation inline;
* failures still propagate through the inlined chain and unwind every
  admission slot on the way out.
"""

import ast
import pathlib

import pytest

import access_paths
from repro.api import (
    BENCH_GEOMETRY,
    ScenarioSpec,
    Session,
    TenantSpec,
    WorkloadSpec,
)
from repro.core import BlueDBMNode
from repro.flash import UncorrectablePageError
from repro.sim import Simulator

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _awaited_spawn_lines(source: str):
    """Line numbers of every ``yield <x>.process(...)`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "process"]


def test_no_awaited_spawn_in_the_model():
    sites = [f"{path.relative_to(SRC.parent)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in _awaited_spawn_lines(path.read_text())]
    assert not sites, (
        "awaited spawns (use `yield from gen` instead of "
        "`yield sim.process(gen)`): " + ", ".join(sites))


def test_the_scan_catches_an_awaited_spawn():
    source = ("def flow(sim, gen):\n"
              "    sim.process(gen)\n"
              "    yield from gen\n"
              "    result = yield sim.process(gen)\n"
              "    return result\n")
    assert _awaited_spawn_lines(source) == [4]


#: (processes, kernel tickets) per uncontended request.  Every local
#: path is its one top-level process.  The remote dvol read keeps the
#: real concurrency of its fabric: the shard's serve process, the
#: stager's command, the multi-page read's page lane, and one
#: propagation process per packet (one 32-byte command, sixteen
#: 512-byte chunks of the page reply).
BUDGET = {
    "isp_read": (1, 11),
    "host_read": (1, 20),
    "host_write": (1, 19),
    "volume_write": (1, 20),
    "volume_read": (1, 20),
    "dvol_local_read": (1, 20),
    "dvol_remote_read": (21, 198),
}


@pytest.mark.parametrize("path", sorted(BUDGET))
def test_uncontended_request_kernel_cost_is_pinned(path):
    run = access_paths.PATHS[path]()
    assert (run.processes, run.events) == BUDGET[path]


@pytest.mark.parametrize("items,depth", [(5, 2), (3, 8), (32, 4)])
def test_submit_spawns_one_lane_per_slot(items, depth):
    node = BlueDBMNode(Simulator(), geometry=BENCH_GEOMETRY)
    node.sim.run()
    ops = [("read", BENCH_GEOMETRY.striped(i)) for i in range(items)]
    with access_paths._counting_processes() as created:
        batch = node.host.submit(ops, queue_depth=depth)
        node.sim.run()
    assert batch.done.triggered
    assert created[0] == min(depth, items)


@pytest.mark.parametrize("window_ns", [1_000_000, 4_000_000])
def test_closed_loop_depth_is_a_fixed_set_of_lanes(window_ns):
    session = Session(ScenarioSpec(
        name="lanes", geometry=BENCH_GEOMETRY,
        workload=WorkloadSpec(duration_ns=window_ns, queue_depth=8,
                              tenants=(TenantSpec("isp", access="isp"),))))
    with access_paths._counting_processes() as created:
        result = session.run()
    # Many more operations complete than there are lanes.
    assert result.metrics["completions"]["isp"] > 8 * 8
    assert created[0] == 8


def test_uncorrectable_read_unwinds_the_inlined_chain():
    sim = Simulator()
    node = BlueDBMNode(sim, geometry=BENCH_GEOMETRY, splitter_policy="rr")
    port = node.isp_port
    bad = BENCH_GEOMETRY.striped(0)
    good = BENCH_GEOMETRY.striped(1)
    node.device.badblocks.mark_bad(bad)
    caught = []

    def caller():
        try:
            yield from port.read_page(bad)
        except UncorrectablePageError as exc:
            caught.append(exc.addr)
        assert port.in_flight == 0
        assert node.splitter.admission.in_use == 0
        result = yield from node.isp_read(good)
        return result.addr

    assert sim.run_process(caller()) == good
    assert caught == [bad]
    assert port.in_flight == 0
    assert node.splitter.admission.in_use == 0
