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

import math
from collections import Counter
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.errors import NetlistValidationError
from repro.netlist.cell import CELL_TYPE_CODES, CellType
from repro.netlist.csr import _CTYPE_CODE, _SITE_CODE_OF, SITE_KIND_CODES, cell_codes, get_csr
from repro.netlist.netlist import Netlist

__all__ = ["netlist_problems", "validate_netlist"]


def netlist_problems(netlist: Netlist, device=None) -> list[str]:
    """Every validation problem, each with a suggested fix. Empty ⇔ clean.

    The checks run on arrays; a message is formatted only for an offender.
    """
    problems: list[str] = []
    names, macros = netlist._cname, netlist.macros
    n_cells = len(names)

    dupes = [n for n, c in Counter(names).items() if c > 1] if len(set(names)) < n_cells else []
    for name in dupes:
        problems.append(
            f"duplicate cell name {name!r}: rename one instance — cell names "
            "must be unique"
        )

    # pins come from the net columns: build_csr raises on a dangling index,
    # so the range check runs before any get_csr
    nsinks, dangles = netlist._dangling()
    w = netlist.net_weights()
    for k in np.flatnonzero(dangles | (nsinks == 0) | ~(np.isfinite(w) & (w > 0))).tolist():
        name, sinks, weight = netlist._nname[k], netlist._nsinks[k], netlist._nweight[k]
        bad = [i for i in (netlist._ndriver[k], *sinks) if not 0 <= i < n_cells]
        if bad:
            problems.append(
                f"net {name!r} dangles: references missing cell index(es) "
                f"{bad} (netlist has {n_cells} cells) — drop the net or add "
                "the cells first"
            )
        if not sinks:
            problems.append(
                f"net {name!r} has a driver but no sinks — remove it or "
                "connect a load"
            )
        if not (math.isfinite(weight) and weight > 0):
            problems.append(
                f"net {name!r} has weight {weight!r} — net weights must "
                "be finite and positive; reset it to 1.0"
            )
    ctx = None if dangles.any() else get_csr(netlist)
    code, fixed = cell_codes(netlist) if ctx is None else (ctx.ctype_code, ctx.is_fixed)

    chains = list(map(attrgetter("dsps"), macros))
    flat = list(chain.from_iterable(chains))
    sizes = np.fromiter(map(len, chains), dtype=np.int64, count=len(chains))
    members = np.array(flat, dtype=np.int64)
    ok = (members >= 0) & (members < n_cells)
    not_dsp = ok.copy()
    not_dsp[ok] = code[members[ok]] != _CTYPE_CODE[CellType.DSP]
    repeat = ok.copy()  # in range, and seen in range before
    repeat[np.flatnonzero(ok)[np.unique(members[ok], return_index=True)[1]]] = False
    owner = np.repeat(np.arange(len(chains)), sizes)
    for k in np.flatnonzero(~ok | not_dsp | repeat).tolist():
        macro, idx = macros[owner[k]], flat[k]
        if not ok[k]:
            problems.append(f"macro {macro.macro_id} references missing cell index {idx}")
            continue
        if not_dsp[k]:
            problems.append(
                f"macro {macro.macro_id} member {names[idx]!r} is a "
                f"{CELL_TYPE_CODES[netlist._ckind[idx]].value}, not a DSP — "
                "cascade macros may only contain DSP cells"
            )
        if repeat[k]:
            problems.append(
                f"DSP index {idx} appears in two cascade macros — a DSP "
                "can join at most one chain"
            )

    if device is not None:
        # the cells the legalizer must find room for: every DSP and BRAM,
        # and the CLB-kind cells not pinned by fixed_xy
        site = _SITE_CODE_OF[code]
        counted = site[~fixed | (site != SITE_KIND_CODES.index("CLB"))]
        need = np.bincount(counted, minlength=len(SITE_KIND_CODES)).tolist()
        need = dict(zip(SITE_KIND_CODES, need))
        for kind, what, room, unit in (
            ("DSP", "DSPs", device.n_dsp, "DSP sites"),
            ("BRAM", "BRAMs", device.n_sites("BRAM"), "BRAM sites"),
            ("CLB", "movable LUT/FF/CARRY/LUTRAM cells",
             device.n_sites("CLB") * device.clb_capacity, "CLB slots"),
        ):
            if need[kind] > room:
                problems.append(
                    f"netlist has {need[kind]} {what} but device "
                    f"{device.name!r} only {room} {unit} — use a larger "
                    "device or shrink the design (lower --scale)"
                )
        cols = device.kind_columns("DSP")
        tallest = max((c.n_sites for c in cols), default=0)
        for k in np.flatnonzero(sizes > tallest).tolist():
            problems.append(
                f"cascade macro {macros[k].macro_id} chains {sizes[k]} "
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
