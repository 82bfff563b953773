"""Device-driven facade over the shared log-structured FTL core.

Both host-side management designs the paper discusses sit on the same
machinery:

* the **block device driver FTL** ("a full-fledged FTL implemented in the
  device driver, similar to Fusion IO's driver", Section 4), and
* the **RFS-style file system** that "performs some functionality of an
  FTL, including logical-to-physical address mapping and garbage
  collection".

The machinery itself lives in :class:`~repro.ftl.core.FtlCore` — the
map, allocator, greedy GC with mid-relocation re-checks, completion-time
accounting and the per-block program-order gate are shared with
:class:`~repro.volume.LogicalVolume`.  This facade is the *device-driven*
policy shell: it performs its own :class:`~repro.flash.device.
StorageDevice` I/O (foreground and GC relocation alike), which is what
the FTL and RFS facades translating block/file operations need.
"""

from __future__ import annotations

from typing import Optional

from ..flash import PhysAddr
from ..flash.device import StorageDevice
from ..sim import Simulator
from .core import FtlCore, OutOfSpaceError

__all__ = ["LogStructuredCore", "OutOfSpaceError"]


class LogStructuredCore:
    """Append-only page writes + greedy GC over a :class:`StorageDevice`.

    A thin shell over :class:`FtlCore`: this class owns the device I/O
    (and is the core's GC relocation backend); the core owns every
    mapping, allocation, ordering and accounting decision.
    """

    def __init__(self, sim: Simulator, device: StorageDevice,
                 gc_low_watermark: int = 2, name: str = "ftl"):
        self.sim = sim
        self.device = device
        self.geometry = device.geometry
        self.core = FtlCore(sim, device, io=self,
                            gc_low_watermark=gc_low_watermark, name=name)

    # -- shared-core state, re-exported ---------------------------------
    @property
    def map(self):
        return self.core.map

    @property
    def allocator(self):
        return self.core.allocator

    @property
    def gc_low_watermark(self) -> int:
        return self.core.gc_low_watermark

    # -- telemetry -----------------------------------------------------------
    @property
    def user_writes(self) -> int:
        return self.core.user_writes_total

    @property
    def total_writes(self) -> int:
        """Every flash program charged: user + GC-moved + stale."""
        return self.core.total_programs

    @property
    def gc_runs(self) -> int:
        return self.core.gc_runs

    @property
    def gc_moved_pages(self) -> int:
        return self.core.gc_moved_pages

    @property
    def gc_stale_moves(self) -> int:
        """Relocations abandoned because a foreground write or TRIM
        completed mid-copy (the copy stayed programmed-and-invalid)."""
        return self.core.gc_stale_moves

    @property
    def write_amplification(self) -> float:
        """Total flash programs per user write (1.0 = no GC traffic)."""
        if self.core.user_writes_total == 0:
            return 1.0
        return self.core.total_programs / self.core.user_writes_total

    # -- page I/O (DES generators) -------------------------------------------
    def read_lpn(self, lpn: int):
        """Read a logical page; returns bytes (erased pattern if unmapped).

        The resolved block is pinned against GC's erase for the read's
        lifetime (the mapping may still move meanwhile — ordinary
        out-of-place-FTL semantics).
        """
        addr = self.core.map.lookup(lpn)
        if addr is None:
            yield self.sim.timeout(0)
            return b"\xff" * self.geometry.page_size
        self.core.begin_read(addr)
        try:
            result = yield from self.device.read_page(addr)
        finally:
            self.core.end_read(addr)
        return result.data

    def physical_of(self, lpn: int) -> Optional[PhysAddr]:
        """Current physical location of a logical page (for ISP streams)."""
        return self.core.map.lookup(lpn)

    def write_lpn(self, lpn: int, data: bytes):
        """Write (or overwrite) a logical page out-of-place.

        The remap and the ``user_writes``/``total_writes`` charge happen
        at program *completion*: a write whose program fails charges
        nothing, and its page is retired programmed-and-invalid so the
        block still fills toward GC eligibility (no free-space leak).
        """
        addr = yield from self.core.allocate()
        yield from self.core.await_program_turn(addr)
        try:
            yield from self.device.write_page(addr, data)
        except BaseException:
            self.core.retire_page(addr)
            raise
        self.core.commit_write(lpn, addr, self.core.name)

    def trim_lpn(self, lpn: int):
        """Invalidate a logical page (TRIM); frees space lazily via GC."""
        yield self.sim.timeout(0)
        self.core.trim(lpn)

    # -- garbage collection ----------------------------------------------------
    def force_gc(self):
        """Run one GC pass explicitly (DES generator) -> bool reclaimed."""
        reclaimed = yield from self.core.collect_once()
        return reclaimed

    # -- GC relocation backend (FtlCore ``io``) --------------------------------
    def gc_read(self, addr: PhysAddr):
        return (yield from self.device.read_page(addr))

    def gc_write(self, addr: PhysAddr, data: bytes):
        yield from self.device.write_page(addr, data)

    def gc_erase(self, addr: PhysAddr):
        yield from self.device.erase_block(addr)
