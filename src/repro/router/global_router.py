"""Congestion-aware global routing model (RUDY + detour factors)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.csr import get_csr
from repro.obs import metrics, trace
from repro.placers.placement import Placement
from repro.router.estimator import steiner_factor


@dataclass
class RoutingResult:
    """Outcome of the congestion/routing model.

    Attributes:
        net_detour: Per-net detour factor (≥ 1).
        net_routed_len: Per-net routed wirelength (µm).
        congestion: ``(gx, gy)`` demand/capacity utilization map.
        total_wirelength: Σ routed wirelength (µm) — the Table II metric.
        overflow_frac: Fraction of bins above capacity.
    """

    net_detour: np.ndarray
    net_routed_len: np.ndarray
    congestion: np.ndarray
    total_wirelength: float
    overflow_frac: float

    @property
    def max_congestion(self) -> float:
        return float(self.congestion.max()) if self.congestion.size else 0.0


class GlobalRouter:
    """RUDY demand estimation with per-net congestion detours.

    Args:
        grid: Congestion bin grid (gx, gy).
        capacity: Routing capacity per bin in µm of wire per µm² of bin
            area; calibrated so the benchmark designs land at moderate
            average utilization, with hotspots above 1.0.
        detour_strength: How strongly over-capacity bins stretch the nets
            crossing them.
    """

    def __init__(
        self,
        grid: tuple[int, int] = (48, 48),
        capacity: float = 1.0,
        detour_strength: float = 0.6,
    ) -> None:
        self.grid = grid
        self.capacity = capacity
        self.detour_strength = detour_strength

    def route(self, placement: Placement) -> RoutingResult:
        """Estimate congestion and routed length for every net."""
        with trace.span("route", grid=list(self.grid)) as sp:
            result = self._route_impl(placement)
            sp.set(
                wirelength_um=result.total_wirelength,
                overflow_frac=result.overflow_frac,
            )
        metrics.inc("router.routes")
        metrics.gauge("router.wirelength_um", result.total_wirelength)
        metrics.gauge("router.overflow_frac", result.overflow_frac)
        return result

    def _route_impl(self, placement: Placement) -> RoutingResult:
        dev = placement.device
        gx, gy = self.grid
        bw = dev.width / gx
        bh = dev.height / gy

        xmin, xmax, ymin, ymax = placement.net_bboxes()
        hp = (xmax - xmin) + (ymax - ymin)
        fanouts = get_csr(placement.netlist).net_nsinks + 1.0
        wl = hp * steiner_factor(fanouts)

        # bin index ranges of each net bbox (inclusive)
        bx0 = np.clip((xmin / bw).astype(np.int64), 0, gx - 1)
        bx1 = np.clip((xmax / bw).astype(np.int64), 0, gx - 1)
        by0 = np.clip((ymin / bh).astype(np.int64), 0, gy - 1)
        by1 = np.clip((ymax / bh).astype(np.int64), 0, gy - 1)
        nbins = (bx1 - bx0 + 1) * (by1 - by0 + 1)

        # RUDY: smear each net's wirelength uniformly over its bbox bins,
        # accumulated with a 2-D difference array (O(1) per net).
        diff = np.zeros((gx + 1, gy + 1))
        dens = wl / nbins
        np.add.at(diff, (bx0, by0), dens)
        np.add.at(diff, (bx1 + 1, by0), -dens)
        np.add.at(diff, (bx0, by1 + 1), -dens)
        np.add.at(diff, (bx1 + 1, by1 + 1), dens)
        demand = np.cumsum(np.cumsum(diff, axis=0), axis=1)[:gx, :gy]

        bin_capacity = self.capacity * bw * bh
        congestion = demand / bin_capacity
        overflow_frac = float((congestion > 1.0).mean())

        # per-net average congestion over its bbox via an integral image
        integ = np.zeros((gx + 1, gy + 1))
        integ[1:, 1:] = congestion.cumsum(axis=0).cumsum(axis=1)
        box_sum = (
            integ[bx1 + 1, by1 + 1]
            - integ[bx0, by1 + 1]
            - integ[bx1 + 1, by0]
            + integ[bx0, by0]
        )
        avg_cong = box_sum / nbins
        detour = 1.0 + self.detour_strength * np.maximum(0.0, avg_cong - 1.0)
        detour = np.minimum(detour, 2.5)  # routers give up before 2.5× detours
        routed = wl * detour
        return RoutingResult(
            net_detour=detour,
            net_routed_len=routed,
            congestion=congestion,
            total_wirelength=float(routed.sum()),
            overflow_frac=overflow_frac,
        )
