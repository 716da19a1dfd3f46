"""Netlist/device validation with actionable diagnostics.

:func:`netlist_problems` collects *every* violation (unlike
:meth:`Netlist.validate`, which raises on the first structural breakage), and
— when a device is given — cross-checks the netlist against the target:
enough DSP and BRAM sites and CLB slots, no cascade macro longer than the
tallest DSP column.

:func:`validate_netlist` raises a single
:class:`~repro.errors.NetlistValidationError` listing everything found, so a
user fixes the netlist in one round trip. ``DSPlacer.place`` runs it in
strict mode and downgrades to :class:`~repro.robustness.RunHealth` warnings
in permissive mode.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import NetlistValidationError
from repro.netlist.netlist import Netlist

__all__ = ["netlist_problems", "validate_netlist"]


def netlist_problems(netlist: Netlist, device=None) -> list[str]:
    """Every validation problem, each with a suggested fix. Empty ⇔ clean."""
    problems: list[str] = []
    n_cells = len(netlist.cells)

    dupes = [n for n, c in Counter(c.name for c in netlist.cells).items() if c > 1]
    for name in dupes:
        problems.append(
            f"duplicate cell name {name!r}: rename one instance — cell names "
            "must be unique"
        )

    for net in netlist.nets:
        bad = [i for i in net.cells if not 0 <= i < n_cells]
        if bad:
            problems.append(
                f"net {net.name!r} dangles: references missing cell index(es) "
                f"{bad} (netlist has {n_cells} cells) — drop the net or add "
                "the cells first"
            )
        if not net.sinks:
            problems.append(
                f"net {net.name!r} has a driver but no sinks — remove it or "
                "connect a load"
            )

    seen_members: set[int] = set()
    for macro in netlist.macros:
        for idx in macro.dsps:
            if not 0 <= idx < n_cells:
                problems.append(
                    f"macro {macro.macro_id} references missing cell index {idx}"
                )
                continue
            cell = netlist.cells[idx]
            if not cell.ctype.is_dsp:
                problems.append(
                    f"macro {macro.macro_id} member {cell.name!r} is a "
                    f"{cell.ctype.value}, not a DSP — cascade macros may only "
                    "contain DSP cells"
                )
            if idx in seen_members:
                problems.append(
                    f"DSP index {idx} appears in two cascade macros — a DSP "
                    "can join at most one chain"
                )
            seen_members.add(idx)

    if device is not None:
        # the cells the legalizer must find room for: every DSP and BRAM,
        # and the CLB-kind cells not pinned by fixed_xy; counted per
        # CellType, as a per-cell site_kind lookup costs several times the walk
        per_type = Counter(c.ctype for c in netlist.cells)
        per_type.subtract(
            c.ctype for c in netlist.cells if c.is_fixed and c.ctype.site_kind == "CLB"
        )
        need: Counter[str] = Counter()
        for ctype, k in per_type.items():
            need[ctype.site_kind] += k
        for kind, cells, room, unit in (
            ("DSP", "DSPs", device.n_dsp, "DSP sites"),
            ("BRAM", "BRAMs", device.n_sites("BRAM"), "BRAM sites"),
            ("CLB", "movable LUT/FF/CARRY/LUTRAM cells",
             device.n_sites("CLB") * device.clb_capacity, "CLB slots"),
        ):
            if need[kind] > room:
                problems.append(
                    f"netlist has {need[kind]} {cells} but device "
                    f"{device.name!r} only {room} {unit} — use a larger "
                    "device or shrink the design (lower --scale)"
                )
        cols = device.kind_columns("DSP")
        tallest = max((c.n_sites for c in cols), default=0)
        for macro in netlist.macros:
            if len(macro.dsps) > tallest:
                problems.append(
                    f"cascade macro {macro.macro_id} chains {len(macro.dsps)} "
                    f"DSPs but the tallest DSP column on {device.name!r} has "
                    f"{tallest} sites — split the chain or use a taller device"
                )
    return problems


def validate_netlist(netlist: Netlist, device=None) -> None:
    """Raise :class:`NetlistValidationError` listing every problem found."""
    problems = netlist_problems(netlist, device)
    if problems:
        head = f"netlist {netlist.name!r} failed validation ({len(problems)} problem(s)):"
        raise NetlistValidationError(
            "\n".join([head, *(f"  - {p}" for p in problems)])
        )
