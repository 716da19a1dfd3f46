"""Clock network synthesis and skew modeling (see ``docs/CLOCKING.md``).

The clock subsystem turns the flow's single scalar skew knob into a real
model of the physical clock network:

- :mod:`repro.clock.htree` — deterministic recursive H-tree synthesis over
  :class:`~repro.fpga.Device` geometry, producing a :class:`ClockTree` of
  leaf tap points with a vectorized per-sink arrival query
  (:meth:`ClockTree.skew_at`);
- :mod:`repro.clock.skew` — the :class:`SkewModel` protocol consumed by
  both STA engines and the skew-aware assignment term, with the
  :class:`RegionSkew` (historical reference, default), :class:`HTreeSkew`
  and :class:`ZeroSkew` implementations.

:func:`clock_report_section` renders a model (plus optional sink arrivals)
into the optional versioned ``clock`` section of a RunReport (schema v3);
:func:`run_clock_section` decides whether a run records one.
"""

from __future__ import annotations

import numpy as np

from repro.clock.htree import ClockTree, HTreeConfig, synthesize_htree
from repro.clock.skew import (
    SKEW_MODEL_NAMES,
    HTreeSkew,
    RegionSkew,
    SkewModel,
    ZeroSkew,
    get_skew_model,
)

__all__ = [
    "ClockTree",
    "HTreeConfig",
    "synthesize_htree",
    "SkewModel",
    "RegionSkew",
    "HTreeSkew",
    "ZeroSkew",
    "SKEW_MODEL_NAMES",
    "get_skew_model",
    "clock_report_section",
    "run_clock_section",
]


def clock_report_section(model: SkewModel, placement=None, netlist=None) -> dict:
    """The RunReport ``clock`` section for one run (schema v3, optional).

    Always records the model configuration; when the model exposes per-point
    arrivals and a placement is given, also records worst/mean skew over the
    netlist's sequential cells (all cells when no netlist is given).
    """
    doc = dict(model.describe())
    if placement is None:
        return doc
    xy = placement.xy
    if netlist is not None:
        from repro.netlist.csr import CELL_TYPE_CODES, get_csr
        from repro.timing.delay_model import SEQUENTIAL_KINDS

        seq = np.array([t in SEQUENTIAL_KINDS for t in CELL_TYPE_CODES])
        xy = xy[seq[get_csr(netlist).ctype_code]]
    arrivals = model.arrivals_at(placement.device, xy)
    if arrivals is not None and arrivals.size:
        mean = float(arrivals.mean())
        doc["n_sinks"] = int(arrivals.size)
        doc["worst_skew_ns"] = float(arrivals.max() - arrivals.min())
        doc["mean_abs_skew_ns"] = float(np.abs(arrivals - mean).mean())
    return doc


def run_clock_section(config, placement, netlist) -> dict | None:
    """The ``clock`` section a run under ``config`` records, or ``None``.

    Only non-default clocking (``skew_model != "region"`` or
    ``skew_weight > 0``) records one, so default runs keep their historical
    report.
    """
    if config.skew_model == "region" and config.skew_weight <= 0:
        return None
    model = get_skew_model(config.skew_model, placement.device)
    return clock_report_section(model, placement, netlist)
