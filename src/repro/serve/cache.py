"""Content-addressed placement result cache.

The serve layer never trusts a request's *description* of a workload — it
hashes what it is actually about to place. A cache key is the SHA-256 of:

- the **netlist content hash** (key version 2) — every field
  :func:`~repro.netlist.io.netlist_to_json` covers, bound to its cell or net
  position: JSON of the names, kinds, labels and ``attrs``, raw bytes of the
  index and float arrays, each section length-prefixed. Identical netlists
  collide however they were produced (generated, loaded, hand-built), and
  the hash leaves nothing on the netlist;
- the **device id** — name, dimensions, and a digest of the DSP site
  geometry (two differently-scaled ``zcu104`` builds never collide);
- the **canonical config hash** —
  :meth:`~repro.core.DSPlacerConfig.content_hash` of the fully-resolved,
  default-filled, type-normalized config (see its docstring: equivalent
  configs *must* collide);
- the engine (``tool``) and the race fingerprint (``race_k`` /
  ``race_policy`` / ``with_timing``) — a best-of-3 artifact is not the same
  artifact as a single-seed run.

Chaos requests (non-empty ``faults``) are never cached.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.netlist.io import netlist_content_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpga.device import Device
    from repro.netlist.netlist import Netlist
    from repro.placers.api import PlacementRequest

__all__ = ["netlist_content_hash", "device_id", "cache_key", "CacheEntry", "ResultCache"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def device_id(device: "Device") -> str:
    """A stable identity string for a device build.

    Name and dimensions catch the common cases; the DSP site-geometry
    digest catches two same-named builds with different fabrics (e.g.
    ``scaled_zcu104`` at different scales keeps the base name).
    """
    xy = device.site_xy("DSP")
    geom = _sha256(xy.tobytes().hex())[:16]
    return f"{device.name}/{device.width:g}x{device.height:g}/dsp{xy.shape[0]}/{geom}"


def cache_key(netlist: "Netlist", device: "Device", request: "PlacementRequest") -> str:
    """The content-addressed key one (netlist, device, request) resolves to."""
    fingerprint = {
        "netlist": netlist_content_hash(netlist),
        "device": device_id(device),
        "tool": request.tool,
        "config": request.resolved_config().content_hash(),
        "race_k": int(request.race_k),
        "race_policy": request.race_policy,
        "with_timing": bool(request.with_timing),
    }
    return _sha256(json.dumps(fingerprint, sort_keys=True, separators=(",", ":")))


@dataclass
class CacheEntry:
    """What a cache line stores: enough to synthesize a fresh response."""

    quality: dict[str, Any]
    report: dict[str, Any] | None
    placement: Any
    seed_used: int | None
    cold_wall_s: float  # how long the miss took (observability: hit speedup)


@dataclass
class ResultCache:
    """Thread-safe, bounded, in-memory LRU of finished placements.

    ``max_entries`` bounds memory (placements hold the full coordinate
    array); eviction is least-recently-*used* — a hit refreshes the line.
    """

    max_entries: int = 256
    _lines: "OrderedDict[str, CacheEntry]" = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    hits: int = 0
    misses: int = 0

    def get(self, key: str) -> CacheEntry | None:
        with self._lock:
            entry = self._lines.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._lines.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._lines[key] = entry
            self._lines.move_to_end(key)
            while len(self._lines) > self.max_entries:
                self._lines.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._lines)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._lines

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._lines), "hits": self.hits, "misses": self.misses}
