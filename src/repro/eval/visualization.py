"""Layout visualization (paper Fig. 9): SVG dumps + datapath-order metrics.

The SVG shows the device outline, the PS block, DSP/BRAM columns, every DSP
(datapath red, control amber), BRAMs (blue), and the datapath DSP-graph
edges as connecting lines — the same visual the paper uses to contrast the
"compact and regular" DSPlacer datapath against Vivado's scatter and AMF's
PS-disordered layout.

Because figures cannot be eyeballed in a test log, the module also computes
scalar *datapath-order metrics*: cascade-adjacency rate, mean datapath-edge
length, and the Spearman-style monotonicity of the PS angle along the
pipeline order — the quantitative content of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.extraction.dsp_graph import DSPGraph
from repro.netlist.cell import CellType
from repro.placers.placement import Placement


@dataclass(frozen=True)
class DatapathLayoutMetrics:
    """Quantified Fig. 9: how compact/ordered is the datapath?"""

    cascade_adjacent_frac: float  # fraction of cascade pairs on dedicated wiring
    mean_datapath_edge_um: float  # mean length of datapath DSP-graph edges
    angle_monotonicity: float  # −1..1; 1 = angles decrease along the pipeline
    dsp_bbox_area_frac: float  # datapath DSP bounding box / device area


def layout_metrics(placement: Placement, dsp_graph: DSPGraph) -> DatapathLayoutMetrics:
    """Compute the Fig. 9 order metrics for a placement."""
    nl, dev = placement.netlist, placement.device
    site_col = dev.site_col("DSP")

    pairs = nl.cascade_pairs()
    adjacent = 0
    for p, s in pairs:
        sp, ss = int(placement.site[p]), int(placement.site[s])
        if sp >= 0 and ss == sp + 1 and site_col[sp] == site_col[ss]:
            adjacent += 1
    adj_frac = adjacent / len(pairs) if pairs else 1.0

    xy_u, xy_v = placement.xy[dsp_graph.src], placement.xy[dsp_graph.dst]
    lengths = np.abs(xy_u - xy_v).sum(axis=1)
    # intra-chain edges are vertical by legality; the PS-angle ordering
    # (eq. 6) is about the *dataflow between* chains
    between = ~dsp_graph.cascade
    # +1 when cos increases pred→succ
    deltas = np.sign(_ps_cos(xy_v[between]) - _ps_cos(xy_u[between]))
    mean_len = float(np.mean(lengths)) if lengths.size else 0.0
    monotonicity = float(np.mean(deltas)) if deltas.size else 0.0

    dp = [c.index for c in nl.cells if c.ctype.is_dsp and c.is_datapath]
    if dp:
        xs, ys = placement.xy[dp, 0], placement.xy[dp, 1]
        area = (xs.max() - xs.min()) * (ys.max() - ys.min())
        bbox_frac = float(area / (dev.width * dev.height))
    else:
        bbox_frac = 0.0
    return DatapathLayoutMetrics(
        cascade_adjacent_frac=adj_frac,
        mean_datapath_edge_um=mean_len,
        angle_monotonicity=monotonicity,
        dsp_bbox_area_frac=bbox_frac,
    )


def _ps_cos(xy: np.ndarray) -> np.ndarray:
    return xy[:, 0] / np.maximum(np.hypot(xy[:, 0], xy[:, 1]), 1e-9)


# ----------------------------------------------------------------------
_ROLE_COLORS = {
    "pe_dsp": "#d62728",
    "ctrl_dsp": "#ff9f1c",
    "act_buf": "#1f77b4",
    "wt_buf": "#4ba3d4",
    "out_buf": "#2ca02c",
}


def placement_to_svg(
    placement: Placement,
    dsp_graph: DSPGraph | None = None,
    path: str | Path | None = None,
    scale: float = 0.15,
    title: str = "",
) -> str:
    """Render a placement to SVG (returned; optionally written to ``path``)."""
    dev = placement.device
    w, h = dev.width * scale, dev.height * scale

    def sx(x: float) -> float:
        return x * scale

    def sy(y: float) -> float:
        return (dev.height - y) * scale  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h + 18:.0f}" '
        f'viewBox="0 0 {w:.0f} {h + 18:.0f}">',
        f'<rect x="0" y="18" width="{w:.0f}" height="{h:.0f}" fill="#fafafa" stroke="#444"/>',
        f'<text x="4" y="13" font-size="11" font-family="monospace">{title}</text>',
    ]
    # site columns
    for kind, color in (("DSP", "#f3c6c6"), ("BRAM", "#c6d8f3")):
        for col in dev.kind_columns(kind):
            parts.append(
                f'<rect x="{sx(col.x) - 1.5:.1f}" y="18" width="3" height="{h:.0f}" '
                f'fill="{color}"/>'
            )
    if dev.ps is not None:
        ps = dev.ps
        parts.append(
            f'<rect x="{sx(ps.x0):.1f}" y="{18 + sy(ps.y1):.1f}" '
            f'width="{sx(ps.x1 - ps.x0):.1f}" height="{(ps.y1 - ps.y0) * scale:.1f}" '
            f'fill="#d9d9d9" stroke="#777"/>'
        )
    # datapath edges
    if dsp_graph is not None:
        for u, v in zip(dsp_graph.src.tolist(), dsp_graph.dst.tolist()):
            x1, y1 = placement.xy[u]
            x2, y2 = placement.xy[v]
            parts.append(
                f'<line x1="{sx(x1):.1f}" y1="{18 + sy(y1):.1f}" x2="{sx(x2):.1f}" '
                f'y2="{18 + sy(y2):.1f}" stroke="#d62728" stroke-width="0.5" opacity="0.45"/>'
            )
    # cells
    for cell in placement.netlist.cells:
        if cell.ctype not in (CellType.DSP, CellType.BRAM):
            continue
        role = cell.attrs.get("role", "")
        color = _ROLE_COLORS.get(role, "#888888")
        x, y = placement.xy[cell.index]
        parts.append(
            f'<rect x="{sx(x) - 1.2:.1f}" y="{18 + sy(y) - 1.2:.1f}" width="2.4" '
            f'height="2.4" fill="{color}"/>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts)
    if path is not None:
        Path(path).write_text(svg)
    return svg
