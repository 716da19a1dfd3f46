"""The :class:`Netlist` container: cells + nets + cascade macros, stored as
per-cell and per-net columns."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from repro.errors import NetlistValidationError
from repro.netlist.cell import CELL_TYPE_CODES, Cell, CellType, check_fixed
from repro.netlist.macros import CascadeMacro
from repro.netlist.net import Net, check_weight

#: layout of the pickled state (the per-object layout before it had none);
#: :meth:`Netlist.__setstate__` refuses any other
_STATE_VERSION = 2
_FIXED_CODES = frozenset(CELL_TYPE_CODES.index(t) for t in CellType if t.is_fixed)
_DSP_CODE = CELL_TYPE_CODES.index(CellType.DSP)


def _column(name: str) -> property:
    """A row field that reads and writes its netlist column."""
    return property(
        lambda row: getattr(row._nl, name)[row.index],
        lambda row, value: getattr(row._nl, name).__setitem__(row.index, value),
    )


class _Row:
    """Row ``index`` of a netlist: its fields read and write the columns."""

    __slots__ = ("_nl", "index")

    def __init__(self, nl: "Netlist", index: int) -> None:
        self._nl, self.index = nl, index


class CellRow(_Row, Cell):
    name = _column("_cname")
    ctype = property(
        lambda row: CELL_TYPE_CODES[row._nl._ckind[row.index]],
        lambda row, t: row._nl._ckind.__setitem__(row.index, CELL_TYPE_CODES.index(t)),
    )
    macro_id = _column("_cmacro")
    is_datapath = _column("_cdp")
    fixed_xy = _column("_cxy")
    attrs = _column("_cattrs")


class NetRow(_Row, Net):
    name = _column("_nname")
    driver = _column("_ndriver")
    sinks = _column("_nsinks")
    weight = _column("_nweight")


class _Rows(Sequence):
    """``netlist.cells`` / ``netlist.nets``: a row per index, made on access."""

    __slots__ = ("_nl", "_row", "_col")

    def __init__(self, nl: "Netlist", row: type, col: str) -> None:
        self._nl, self._row, self._col = nl, row, col

    def __len__(self) -> int:
        return len(getattr(self._nl, self._col))

    def __getitem__(self, i):
        k = range(len(self))[i]
        if isinstance(k, range):
            return [self._row(self._nl, j) for j in k]
        return self._row(self._nl, k)

    def __iter__(self) -> Iterator:
        return map(self._row, repeat(self._nl), range(len(self)))


def _net_sinks(name: str, driver: int, sinks: Iterable[int], weight: float, n_cells: int):
    """One net's sinks, de-duplicated and without the driver, after the
    checks every net passes (the rules of :meth:`Netlist.add_net`)."""
    unique_sinks = tuple(dict.fromkeys(int(s) for s in sinks if s != driver))
    if not unique_sinks:
        raise ValueError(f"net {name!r} has no sinks distinct from its driver")
    for idx in (driver, *unique_sinks):
        if not 0 <= idx < n_cells:
            raise IndexError(f"net {name!r} references unknown cell index {idx}")
    check_weight(name, weight)
    return unique_sinks


@dataclass(frozen=True)
class NetlistStats:
    """Resource summary in the shape of the paper's Table I."""

    name: str
    n_lut: int
    n_lutram: int
    n_ff: int
    n_carry: int
    n_bram: int
    n_dsp: int
    n_io: int
    n_nets: int
    dsp_capacity: int | None = None
    target_freq_mhz: float | None = None

    @property
    def n_cells(self) -> int:
        return (
            self.n_lut
            + self.n_lutram
            + self.n_ff
            + self.n_carry
            + self.n_bram
            + self.n_dsp
            + self.n_io
        )

    @property
    def dsp_pct(self) -> float | None:
        """DSP utilisation against the device capacity (Table I "DSP%")."""
        if not self.dsp_capacity:
            return None
        return self.n_dsp / self.dsp_capacity


class Netlist:
    """A pre-implementation netlist.

    Cells and nets are referenced by integer index and stored as columns,
    one plain list per field. ``cells`` and ``nets`` are sequences of row
    views (:class:`CellRow`, :class:`NetRow`) whose fields read and write
    those columns. Construction is append-only: build with :meth:`add_cell`
    / :meth:`add_net` / :meth:`add_macro`, or a block at a time with
    :meth:`add_cells` / :meth:`add_nets`, then :meth:`validate`.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        # per-cell columns; the kind is its CELL_TYPE_CODES code
        self._cname: list[str] = []
        self._ckind: list[int] = []
        self._cdp: list[bool | None] = []
        self._cxy: list[tuple[float, float] | None] = []
        self._cattrs: list[dict] = []
        self._cmacro: list[int | None] = []
        # per-net columns
        self._nname: list[str] = []
        self._ndriver: list[int] = []
        self._nsinks: list[tuple[int, ...]] = []
        self._nweight: list[float] = []
        self.macros: list[CascadeMacro] = []
        self._cell_names: dict[str, int] = {}
        self.target_freq_mhz: float | None = None
        #: structural revision counter; bumped by every add_* call so
        #: derived caches (repro.netlist.csr.NetlistCSR) know when to rebuild
        self._version = 0
        self._make_rows()

    def _make_rows(self) -> None:
        self.cells: Sequence[Cell] = _Rows(self, CellRow, "_cname")
        self.nets: Sequence[Net] = _Rows(self, NetRow, "_nname")

    def __getstate__(self) -> dict:
        state = {k: v for k, v in vars(self).items() if k not in ("cells", "nets")}
        state["_state_version"] = _STATE_VERSION
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        version = state.pop("_state_version", None)
        if version != _STATE_VERSION:
            raise NetlistValidationError(
                f"netlist pickled with state layout {version!r}; this build reads "
                f"layout {_STATE_VERSION} — regenerate it"
            )
        vars(self).update(state)
        self._make_rows()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        ctype: CellType,
        *,
        is_datapath: bool | None = None,
        fixed_xy: tuple[float, float] | None = None,
        attrs: dict | None = None,
    ) -> int:
        """Append a cell and return its index."""
        if name in self._cell_names:
            raise ValueError(f"duplicate cell name {name!r}")
        check_fixed(name, ctype, fixed_xy)
        code = CELL_TYPE_CODES.index(ctype)
        return self._extend_cells([name], [code], [is_datapath], [fixed_xy], [attrs or {}])[0]

    def add_cells(
        self,
        names: Sequence[str],
        ctypes: Sequence[CellType],
        *,
        is_datapath: Sequence[bool | None] | None = None,
        fixed_xy: Sequence[tuple[float, float] | None] | None = None,
        attrs: Sequence[dict | None] | None = None,
    ) -> range:
        """Append a block of cells and return their indices.

        The per-cell arguments are sequences as long as ``names`` (``None``:
        the default for every cell). The block is checked with
        :meth:`add_cell`'s rules and raises what the first offending cell
        would raise there; on an error nothing is appended.
        """
        n = len(names)
        codes = list(map(CELL_TYPE_CODES.index, ctypes))
        dp = [None] * n if is_datapath is None else list(is_datapath)
        xy = [None] * n if fixed_xy is None else list(fixed_xy)
        at = [{} for _ in range(n)] if attrs is None else [a or {} for a in attrs]
        if not len(codes) == len(dp) == len(xy) == len(at) == n:
            raise ValueError("add_cells: per-cell sequences differ in length")
        unique = len(set(names)) == n and self._cell_names.keys().isdisjoint(names)
        if not unique or not _FIXED_CODES.isdisjoint(codes):
            seen = set(self._cell_names)
            for name, ctype, p in zip(names, ctypes, xy):
                if name in seen:
                    raise ValueError(f"duplicate cell name {name!r}")
                check_fixed(name, ctype, p)
                seen.add(name)
        return self._extend_cells(names, codes, dp, xy, at)

    def _extend_cells(self, names, codes, dp, xy, attrs) -> range:
        start = len(self._cname)
        self._cname.extend(names)
        self._ckind.extend(codes)
        self._cdp.extend(dp)
        self._cxy.extend(xy)
        self._cattrs.extend(attrs)
        self._cmacro.extend([None] * len(names))
        self._cell_names.update(zip(names, range(start, len(self._cname))))
        self._version += 1
        return range(start, len(self._cname))

    def add_net(self, name: str, driver: int, sinks: Iterable[int], weight: float = 1.0) -> int:
        """Append a net and return its index; duplicate sinks are collapsed."""
        driver = int(driver)
        sinks = _net_sinks(name, driver, sinks, weight, len(self._cname))
        return self._extend_nets([name], [driver], [sinks], [weight])[0]

    def add_nets(
        self,
        names: Sequence[str],
        drivers: Sequence[int],
        sinks: Sequence[Sequence[int]],
        weights: Sequence[float] | None = None,
    ) -> range:
        """Append a block of nets and return their indices.

        The block is checked on arrays with :meth:`add_net`'s rules. A net
        that needs a fix (a repeated sink, its driver among its sinks) or
        breaks a rule goes through :meth:`add_net`'s own checks, in order,
        so the block raises what the first offending net would raise there;
        on an error nothing is appended.
        """
        n, n_cells = len(names), len(self._cname)
        weights = [1.0] * n if weights is None else list(weights)
        if not len(drivers) == len(sinks) == len(weights) == n:
            raise ValueError("add_nets: per-net sequences differ in length")
        drv = np.array(drivers, dtype=np.int64).reshape(n)
        nsinks = np.fromiter(map(len, sinks), dtype=np.int64, count=n)
        flat = np.fromiter(chain.from_iterable(sinks), dtype=np.int64, count=int(nsinks.sum()))
        owner = np.repeat(np.arange(n), nsinks)
        w = np.array(weights, dtype=np.float64).reshape(n)
        odd = (nsinks == 0) | (drv < 0) | (drv >= n_cells) | ~(np.isfinite(w) & (w > 0))
        odd[owner[(flat < 0) | (flat >= n_cells) | (flat == drv[owner])]] = True
        multi = nsinks[owner] > 1  # a repeated sink: equal neighbours once sorted
        o, f = owner[multi], flat[multi]
        order = np.lexsort((f, o))
        o, f = o[order], f[order]
        odd[o[1:][(np.diff(o) == 0) & (np.diff(f) == 0)]] = True
        if set(map(type, sinks)) <= {tuple} and set(map(type, chain.from_iterable(sinks))) <= {int}:
            col = list(sinks)  # tuples of ints already: stored as they are
        else:
            pins = flat.tolist()
            ends = np.cumsum(nsinks).tolist()
            col = [tuple(pins[e - k : e]) for e, k in zip(ends, nsinks.tolist())]
        for k in np.flatnonzero(odd).tolist():
            col[k] = _net_sinks(names[k], int(drivers[k]), sinks[k], weights[k], n_cells)
        return self._extend_nets(names, drv.tolist(), col, weights)

    def _extend_nets(self, names, drivers, sinks, weights) -> range:
        start = len(self._nname)
        self._nname.extend(names)
        self._ndriver.extend(drivers)
        self._nsinks.extend(sinks)
        self._nweight.extend(weights)
        self._version += 1
        return range(start, len(self._nname))

    def add_macro(self, dsp_indices: Iterable[int]) -> int:
        """Register a DSP cascade macro over already-added DSP cells.

        The whole chain is checked before any cell joins the macro."""
        chain_ = tuple(int(i) for i in dsp_indices)
        macro_id = len(self.macros)
        seen: set[int] = set()
        for idx in chain_:
            name = self._cname[idx]
            if self._ckind[idx] != _DSP_CODE:
                raise ValueError(f"macro member {name!r} is not a DSP")
            if self._cmacro[idx] is not None:
                raise ValueError(f"DSP {name!r} already belongs to macro {self._cmacro[idx]}")
            if idx in seen:
                raise ValueError(f"DSP {name!r} appears twice in one macro chain")
            seen.add(idx)
        for idx in chain_:
            self._cmacro[idx] = macro_id
        self.macros.append(CascadeMacro(macro_id=macro_id, dsps=chain_))
        self._version += 1
        return macro_id

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cname)

    def cell_by_name(self, name: str) -> Cell:
        return CellRow(self, self._cell_names[name])

    def cells_of_type(self, ctype: CellType) -> list[Cell]:
        code = CELL_TYPE_CODES.index(ctype)
        return [CellRow(self, i) for i, k in enumerate(self._ckind) if k == code]

    def dsp_indices(self) -> list[int]:
        return [i for i, k in enumerate(self._ckind) if k == _DSP_CODE]

    def movable_indices(self) -> list[int]:
        return [i for i, xy in enumerate(self._cxy) if xy is None]

    def fixed_cells(self, cells: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the cells with a ``fixed_xy`` (or the given fixed
        ``cells``), and those ``(k, 2)`` locations in µm, read live from the
        column."""
        xy = self._cxy
        if cells is None:
            cells = np.array([i for i, p in enumerate(xy) if p is not None], dtype=np.int64)
        return cells, np.array([xy[i] for i in cells.tolist()], dtype=np.float64).reshape(-1, 2)

    def net_weights(self, nets: np.ndarray | None = None) -> np.ndarray:
        """Net weights read live from the weight column: every net's, or
        those of the net indices ``nets``. Timing-driven placers rescale
        weights between rounds, so no derived cache holds them."""
        w = self._nweight
        if nets is None:
            return np.array(w, dtype=np.float64).reshape(len(w))
        return np.fromiter(map(w.__getitem__, nets.tolist()), dtype=np.float64, count=len(nets))

    def _pins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(driver, sink count, all sinks concatenated) per net, from the
        columns."""
        drivers, sinks = self._ndriver, self._nsinks
        nsinks = np.fromiter(map(len, sinks), dtype=np.int64, count=len(sinks))
        flat = np.fromiter(chain.from_iterable(sinks), dtype=np.int64, count=int(nsinks.sum()))
        return np.array(drivers, dtype=np.int64).reshape(len(drivers)), nsinks, flat

    def _dangling(self) -> tuple[np.ndarray, np.ndarray]:
        """Per net: its sink count, and whether a pin is not a cell index."""
        n = len(self._cname)
        drv, nsinks, flat = self._pins()
        bad = (drv < 0) | (drv >= n)
        bad[np.repeat(np.arange(drv.size), nsinks)[(flat < 0) | (flat >= n)]] = True
        return nsinks, bad

    def cascade_pairs(self) -> list[tuple[int, int]]:
        """All (predecessor, successor) cascaded DSP pairs across macros (set C in eq. 5)."""
        pairs: list[tuple[int, int]] = []
        for macro in self.macros:
            pairs.extend(macro.pairs())
        return pairs

    def nets_of_cell(self) -> list[list[int]]:
        """Per-cell list of incident net indices."""
        incident: list[list[int]] = [[] for _ in self._cname]
        for k, (driver, sinks) in enumerate(zip(self._ndriver, self._nsinks)):
            for idx in (driver, *sinks):
                incident[idx].append(k)
        return incident

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Directed driver→sink edges with net weights (fanout-normalised)."""
        for driver, sinks, weight in zip(self._ndriver, self._nsinks, self._nweight):
            w = weight / len(sinks)
            for sink in sinks:
                yield driver, sink, w

    # ------------------------------------------------------------------
    # validation and stats
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistValidationError`
        (a ``ValueError`` subclass) on the first violation. For a full list
        of problems plus device cross-checks, see
        :func:`repro.netlist.validate.netlist_problems`."""
        seen_macro_members: set[int] = set()
        for macro in self.macros:
            macro.validate()
            for idx in macro.dsps:
                if idx in seen_macro_members:
                    raise NetlistValidationError(f"DSP index {idx} appears in two macros")
                seen_macro_members.add(idx)
                if self._cmacro[idx] != macro.macro_id:
                    raise NetlistValidationError(f"cell {idx} macro_id out of sync")
        n = len(self._cname)
        bad = self._dangling()[1]
        if bad.any():
            k = int(np.argmax(bad))
            idx = next(i for i in (self._ndriver[k], *self._nsinks[k]) if not 0 <= i < n)
            raise NetlistValidationError(f"net {self._nname[k]!r} references unknown cell {idx}")
        if len(self._cell_names) != n:
            raise NetlistValidationError("cell name map out of sync")

    def stats(self, dsp_capacity: int | None = None) -> NetlistStats:
        codes = Counter(self._ckind)
        counts = {t: codes[k] for k, t in enumerate(CELL_TYPE_CODES)}
        return NetlistStats(
            name=self.name,
            n_lut=counts[CellType.LUT],
            n_lutram=counts[CellType.LUTRAM],
            n_ff=counts[CellType.FF],
            n_carry=counts[CellType.CARRY],
            n_bram=counts[CellType.BRAM],
            n_dsp=counts[CellType.DSP],
            n_io=counts[CellType.IO] + counts[CellType.PS],
            n_nets=len(self._nname),
            dsp_capacity=dsp_capacity,
            target_freq_mhz=self.target_freq_mhz,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name!r}, cells={len(self._cname)}, nets={len(self._nname)})"
