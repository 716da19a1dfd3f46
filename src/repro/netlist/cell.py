"""Cell model: one placeable (or fixed) component of a pre-implementation netlist."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CellType(enum.Enum):
    """Heterogeneous component kinds found after logic synthesis.

    Mirrors the component taxonomy in the paper's Section I: LUTs, FFs,
    DSPs, RAMs and I/O pads, plus the fixed processing system (PS) block
    and carry chains that CNN adder trees synthesize into.
    """

    LUT = "LUT"
    LUTRAM = "LUTRAM"
    FF = "FF"
    CARRY = "CARRY"
    DSP = "DSP"
    BRAM = "BRAM"
    IO = "IO"
    PS = "PS"

    @property
    def is_dsp(self) -> bool:
        return self is CellType.DSP

    @property
    def is_storage(self) -> bool:
        """Storage elements (signal-holding cells, per Section III-B).

        The paper observes control-path DSPs are surrounded by more storage
        elements (flip-flops and RAMs) than datapath DSPs.
        """
        return self in (CellType.FF, CellType.BRAM, CellType.LUTRAM)

    @property
    def is_fixed(self) -> bool:
        """Cell kinds whose locations are fixed by the device, not the placer."""
        return self in (CellType.IO, CellType.PS)

    @property
    def site_kind(self) -> str:
        """The device site family this cell occupies."""
        if self is CellType.DSP:
            return "DSP"
        if self is CellType.BRAM:
            return "BRAM"
        if self in (CellType.IO, CellType.PS):
            return "FIXED"
        return "CLB"


#: CellType order of kind codes (the netlist's kind column, ``NetlistCSR.ctype_code``).
CELL_TYPE_CODES = tuple(CellType)


def check_fixed(name: str, ctype: CellType, fixed_xy) -> None:
    """A fixed kind (IO, PS) needs its device location."""
    if ctype.is_fixed and fixed_xy is None:
        raise ValueError(f"cell {name!r} of fixed kind {ctype.value} needs fixed_xy")


@dataclass
class Cell:
    """A netlist component.

    Attributes:
        index: Dense integer id, assigned by :class:`~repro.netlist.Netlist`.
        name: Unique hierarchical instance name.
        ctype: Component kind.
        macro_id: Id of the DSP cascade macro this cell belongs to (DSPs
            only), or ``None``.
        is_datapath: Ground-truth datapath label emitted by the benchmark
            generator (used for GCN training and oracle ablations); ``None``
            when unknown.
        fixed_xy: ``(x, y)`` in µm for device-fixed cells (IO pads, PS).
        attrs: Free-form generator metadata (layer name, PE coordinates, ...).
    """

    index: int
    name: str
    ctype: CellType
    macro_id: int | None = None
    is_datapath: bool | None = None
    fixed_xy: tuple[float, float] | None = None
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fixed(self.name, self.ctype, self.fixed_xy)
        if self.macro_id is not None and not self.ctype.is_dsp:
            raise ValueError(f"cell {self.name!r}: only DSP cells join cascade macros")

    @property
    def is_fixed(self) -> bool:
        return self.fixed_xy is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.index}, {self.name!r}, {self.ctype.value})"
