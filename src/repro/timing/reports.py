"""Timing report utilities: critical-path listings.

The analogue of a PnR tool's ``report_timing``: top-k worst paths with
per-stage cell names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist
from repro.timing.sta import TimingReport


@dataclass(frozen=True)
class PathEntry:
    """One reported timing path."""

    slack_ns: float
    cells: tuple[int, ...]
    names: tuple[str, ...]

    @property
    def n_stages(self) -> int:
        return len(self.cells)


def top_critical_paths(
    report: TimingReport, netlist: Netlist, k: int = 5
) -> list[PathEntry]:
    """The k worst endpoints with their critical paths, worst first."""
    if report.endpoint_cells is None:
        return []
    k = min(k, report.n_endpoints)
    order = np.argsort(report.endpoint_slack)
    out = []
    for rank in range(k):
        path = report.path_of(rank)
        out.append(
            PathEntry(
                slack_ns=float(report.endpoint_slack[order[rank]]),
                cells=tuple(path),
                names=tuple(netlist.cells[i].name for i in path),
            )
        )
    return out


def format_timing_report(
    report: TimingReport, netlist: Netlist, k_paths: int = 3
) -> str:
    """Human-readable multi-line summary (report_timing-style)."""
    lines = [
        f"period {report.period_ns:.3f} ns  WNS {report.wns_ns:+.3f}  "
        f"TNS {report.tns_ns:+.1f}  endpoints {report.n_endpoints}  "
        f"failing {report.n_failing}",
    ]
    for i, entry in enumerate(top_critical_paths(report, netlist, k_paths)):
        chain = " -> ".join(entry.names)
        lines.append(f"  path {i + 1}: slack {entry.slack_ns:+.3f} ns  [{chain}]")
    return "\n".join(lines)
