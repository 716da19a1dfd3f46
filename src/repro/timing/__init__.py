"""Static timing analysis substrate.

Replaces Vivado's post-route timing reports: a graph-based STA over the
placed-and-routed netlist producing the paper's Table II metrics — setup
WNS (worst negative slack) and TNS (total negative slack) — plus
critical-path reports.
"""

from repro.timing.delay_model import DelayModel
from repro.timing.reports import (
    PathEntry,
    format_timing_report,
    top_critical_paths,
)
from repro.timing.sta import StaticTimingAnalyzer, TimingReport, max_frequency

__all__ = [
    "DelayModel",
    "StaticTimingAnalyzer",
    "TimingReport",
    "max_frequency",
    "PathEntry",
    "format_timing_report",
    "top_critical_paths",
]
