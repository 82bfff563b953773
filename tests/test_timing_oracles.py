"""Closed-form timing oracles for every uncontended access path.

In the style of a flash-package loopback test: drive one request
through an idle machine and assert that ``sim.now`` equals the exact
analytic sum of the :class:`~repro.flash.FlashTiming`,
:class:`~repro.host.HostConfig` and
:class:`~repro.network.NetworkConfig` constants the path crosses.
An idle machine never queues, so every resource grant, process start
and completion hand-off must cost zero simulated time; any change that
adds (or loses) a timed step on a path moves its sum.
"""

import math

import pytest

import access_paths
from repro.flash import FlashTiming
from repro.host import HostConfig
from repro.network import NetworkConfig
from repro.sim.units import transfer_ns

PAGE = access_paths.PAGE
FLASH = FlashTiming()
HOST = HostConfig()
NET = NetworkConfig()


def _wire(payload_bytes):
    """Serialization of one packet: whole flits plus per-flit overhead."""
    flits = max(1, math.ceil(payload_bytes / NET.flit_bytes))
    wire_bytes = round(flits * (NET.flit_bytes + NET.flit_overhead_bytes))
    return transfer_ns(wire_bytes, NET.link_gbps / 8)


def _message(payload_bytes):
    """A one-hop message: its chunks serialize back to back, then the
    last one propagates across the hop."""
    chunks = [min(NET.max_packet_payload, payload_bytes - offset)
              for offset in range(0, payload_bytes, NET.max_packet_payload)]
    return sum(_wire(c) for c in chunks) + NET.hop_latency_ns


#: Tag, command setup, array read, bus and aurora transfer of one page.
FLASH_READ = (FLASH.cmd_overhead_ns + FLASH.t_read_ns
              + transfer_ns(PAGE, FLASH.bus_bytes_per_ns)
              + FLASH.aurora_latency_ns
              + transfer_ns(PAGE, FLASH.aurora_bytes_per_ns))
#: Command setup, data down the aurora and bus, array program.
FLASH_PROGRAM = (FLASH.cmd_overhead_ns + FLASH.aurora_latency_ns
                 + transfer_ns(PAGE, FLASH.aurora_bytes_per_ns)
                 + transfer_ns(PAGE, FLASH.bus_bytes_per_ns) + FLASH.t_prog_ns)
SOFTWARE = HOST.syscall_ns + HOST.driver_ns + HOST.rpc_ns
TO_HOST = transfer_ns(PAGE, HOST.pcie_dev_to_host_gbs) + HOST.pcie_latency_ns
TO_DEVICE = transfer_ns(PAGE, HOST.pcie_host_to_dev_gbs) + HOST.pcie_latency_ns
HOST_READ = SOFTWARE + FLASH_READ + TO_HOST + HOST.interrupt_ns
HOST_WRITE = SOFTWARE + TO_DEVICE + FLASH_PROGRAM

#: The remote read forwards a 32-byte command, reads the page at the
#: shard through its service port (no host software there), and sends
#: the page back; the source host then pays DMA and the interrupt.
DVOL_REMOTE_READ = (SOFTWARE + _message(32) + FLASH_READ + _message(PAGE)
                    + TO_HOST + HOST.interrupt_ns)

EXPECTED = {
    "isp_read": FLASH_READ,
    "host_read": HOST_READ,
    "host_write": HOST_WRITE,
    "volume_write": HOST_WRITE,
    "volume_read": HOST_READ,
    "dvol_local_read": HOST_READ,
    "dvol_remote_read": DVOL_REMOTE_READ,
}


def test_paper_constants_give_the_expected_page_read():
    # 50 us array read + 8 KiB at 150 MB/s + aurora: about 108 us.
    assert FLASH_READ == 107_795


@pytest.mark.parametrize("path", sorted(EXPECTED))
def test_uncontended_path_takes_exactly_its_analytic_time(path):
    run = access_paths.PATHS[path]()
    assert run.latency_ns == EXPECTED[path]


def test_volume_read_returns_the_written_page():
    assert access_paths.volume_read().value == access_paths.PAYLOAD


def test_remote_read_crosses_one_hop():
    session = access_paths.dvol_remote_read().context
    assert session.cluster.network.hop_count(0, 1) == 1
    assert session.dvol.routers[1].stats()["served_reads"] == 1
