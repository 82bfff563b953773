"""Per-layer measurement from outside the program.

Two instruments, used on separate episodes so neither distorts the
other:

* :class:`Probes` — counting wrappers installed on each layer's public
  entry points (class attributes, so every instance built afterwards
  calls through them) and removed on exit.  They count calls, or a size
  where one call moves several units (pages of a multi-page command,
  payload bytes of a send, items of a batch).
* :func:`layer_self_time` — ``cProfile`` self time attributed to
  ``repro.<module>``.  Builtins and stdlib frames (heap pushes, deque
  appends, RNG draws) have no module of their own; their time is split
  across the layers that called them, recursively through stdlib
  callers.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from collections import Counter
from typing import Callable, Dict, Optional

from repro.dvol import DvolRouter
from repro.flash import FlashCard, FlashChip, SplitterPort
from repro.host import HostInterface
from repro.io import RequestTracer
from repro.network import Endpoint, SerialLink
from repro.sim import Simulator
from repro.volume import LogicalVolume

#: The repo's modules that count as layers; anything else is "other".
LAYERS = ("sim", "io", "flash", "ftl", "volume", "host", "network",
          "dvol", "core", "api")


def _items(self, items, *args, **kwargs) -> int:
    return len(items)


def _payload(self, dst, payload, payload_bytes, *args, **kwargs) -> int:
    return payload_bytes


#: (counter key, class, method, size function or None for 1 per call).
PROBES = (
    ("sim.process", Simulator, "process", None),
    ("sim.timeout", Simulator, "timeout", None),
    ("io.tracer_start", RequestTracer, "start", None),
    ("flash.chip_read", FlashChip, "read", None),
    ("flash.chip_program", FlashChip, "program", None),
    ("flash.chip_erase", FlashChip, "erase", None),
    ("flash.port_read", SplitterPort, "read_page", None),
    ("flash.port_write", SplitterPort, "write_page", None),
    ("flash.port_erase", SplitterPort, "erase_block", None),
    ("flash.card_read_cmds", FlashCard, "read_page", None),
    ("flash.card_read_pages", FlashCard, "read_page", None),
    ("flash.card_read_cmds", FlashCard, "read_pages", None),
    ("flash.card_read_pages", FlashCard, "read_pages", _items),
    ("flash.card_write_cmds", FlashCard, "write_page", None),
    ("flash.card_write_pages", FlashCard, "write_page", None),
    ("flash.card_write_cmds", FlashCard, "program_pages", None),
    ("flash.card_write_pages", FlashCard, "program_pages", _items),
    ("volume.read_flow", LogicalVolume, "read_flow", None),
    ("volume.write_flow", LogicalVolume, "write_flow", None),
    ("host.read_lpn", HostInterface, "read_lpn", None),
    ("host.write_lpn", HostInterface, "write_lpn", None),
    ("host.submit_items", HostInterface, "submit", _items),
    ("network.send", Endpoint, "send", None),
    ("network.payload_bytes", Endpoint, "send", _payload),
    ("network.link_transmit", SerialLink, "transmit", None),
    ("dvol.remote_read", DvolRouter, "remote_read", None),
    ("dvol.remote_write", DvolRouter, "remote_write", None),
)


class Probes:
    """Context manager: count calls into every probed entry point."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._saved: Dict[tuple, Callable] = {}

    def __enter__(self) -> "Probes":
        by_method: Dict[tuple, list] = {}
        for key, cls, name, size in PROBES:
            by_method.setdefault((cls, name), []).append((key, size))
        for (cls, name), keys in by_method.items():
            original = cls.__dict__[name]
            self._saved[(cls, name)] = original
            setattr(cls, name, self._wrap(original, keys))
        return self

    def __exit__(self, *exc) -> None:
        for (cls, name), original in self._saved.items():
            setattr(cls, name, original)
        self._saved.clear()

    def _wrap(self, original: Callable, keys: list) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for key, size in keys:
                counts[key] += 1 if size is None else size(*args, **kwargs)
            return original(*args, **kwargs)

        return counted


def _layer_of(filename: str) -> Optional[str]:
    """``repro.<module>`` layer of a code file; None outside ``repro``."""
    parts = os.path.normpath(filename).split(os.sep)
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            module = parts[i + 1]
            return module if module in LAYERS else "other"
    return None


def layer_self_time(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per layer (``LAYERS`` plus ``other``)."""
    stats = pstats.Stats(profiler).stats
    shares: Dict[tuple, Dict[str, float]] = {}

    def share(func: tuple) -> Dict[str, float]:
        """How ``func``'s self time splits across layers."""
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {"other": 1.0}  # cycle guard
        callers = stats.get(func, (0, 0, 0, 0, {}))[4]
        weights = {c: v[2] for c, v in callers.items()}
        if not any(weights.values()):
            weights = {c: v[1] for c, v in callers.items()}
        total = sum(weights.values())
        if total:
            out: Dict[str, float] = Counter()
            for caller, weight in weights.items():
                for name, frac in share(caller).items():
                    out[name] += frac * weight / total
            shares[func] = dict(out)
        return shares[func]

    seconds: Dict[str, float] = Counter()
    for func, (_, _, self_s, _, callers) in stats.items():
        if _layer_of(func[0]) is not None or not callers:
            for name, frac in share(func).items():
                seconds[name] += frac * self_s
            continue
        for caller, (_, _, from_caller_s, _) in callers.items():
            for name, frac in share(caller).items():
                seconds[name] += frac * from_caller_s
    return {name: seconds.get(name, 0.0) for name in LAYERS + ("other",)}
