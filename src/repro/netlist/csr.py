"""Shared CSR graph context for a netlist (:class:`NetlistCSR`).

Feature extraction, IDDFS, the GCN adjacency, and the analytical placers all
operate on graph views of the same netlist; before this module each of them
rebuilt its own Python-dict or networkx graph on every call. ``get_csr``
builds the compiled-array views **once** per netlist and caches them on the
netlist object, keyed on the netlist's structural revision counter
(``Netlist._version``): any ``add_cell`` / ``add_net`` / ``add_macro``
invalidates the context and the next ``get_csr`` rebuilds it. The placers,
the legalizer and the legality check read their per-cell structure (kind
codes, fixed mask, DSP indices) from here too, instead of walking
``netlist.cells`` on every call.

The context caches *structure only* — cell kinds, net topology, adjacency
patterns. Net ``weight`` values are deliberately **not** cached because the
timing-driven placers rescale them in place between iterations
(``vivado_like`` criticality reweighting); weight-dependent consumers read
``net.weight`` fresh and only borrow the flattened index arrays from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.netlist.cell import CellType
from repro.netlist.netlist import Netlist


#: Site-family order of the per-cell ``site_code`` array.
SITE_KIND_CODES = ("CLB", "DSP", "BRAM", "FIXED")

#: CellType order of the per-cell ``ctype_code`` array.
CELL_TYPE_CODES = tuple(CellType)
_CTYPE_CODE = {t: i for i, t in enumerate(CELL_TYPE_CODES)}
# per-CellType-code lookups for the derived per-cell arrays
_SITE_CODE_OF = np.array(
    [SITE_KIND_CODES.index(t.site_kind) for t in CELL_TYPE_CODES], dtype=np.int8
)
_IS_STORAGE_OF = np.array([t.is_storage for t in CELL_TYPE_CODES], dtype=bool)


def _binary_csr(rows: np.ndarray, cols: np.ndarray, n: int) -> sp.csr_matrix:
    a = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.float64), (rows, cols)), shape=(n, n)
    ).tocsr()
    a.data[:] = 1.0  # tocsr summed duplicate entries; collapse back to binary
    return a


@dataclass(frozen=True)
class NetlistCSR:
    """Immutable sparse-array views of one netlist revision.

    Attributes:
        n: Number of cells.
        version: ``Netlist._version`` this context was built from.
        directed: Binary driver→sink CSR adjacency (parallel nets collapsed).
        undirected: Binary symmetrized CSR adjacency.
        indegree / outdegree: Unique-neighbour degree arrays (the
            ``netlist_to_digraph`` convention: parallel edges collapse).
        dsp_indices: Sorted cell indices of DSP cells.
        is_dsp / is_storage: Per-cell boolean masks.
        is_fixed: Per-cell ``Cell.is_fixed`` mask (has a device-pinned xy).
        ctype_code: Per-cell ``Cell.ctype`` code, index into
            :data:`CELL_TYPE_CODES`.
        site_code: Per-cell site-family code, index into
            :data:`SITE_KIND_CODES` (``("CLB", "DSP", "BRAM", "FIXED")``).
        net_driver: Per-net driver cell index.
        net_nsinks: Per-net sink count (fanout).
        sink_flat: All net sinks concatenated in net order.
        sink_net: Owning net index per ``sink_flat`` entry.
        sink_indptr: CSR-style per-net offsets into ``sink_flat``.
        pin_cell: All net pins (driver first, then sinks) concatenated in
            net order — the flattened pin list HPWL and the B2B net model
            operate on.
        pin_ptr: CSR-style per-net offsets into ``pin_cell``.
        pin_net: Owning net index per ``pin_cell`` entry.
    """

    n: int
    version: int
    directed: sp.csr_matrix
    undirected: sp.csr_matrix
    indegree: np.ndarray
    outdegree: np.ndarray
    dsp_indices: np.ndarray
    is_dsp: np.ndarray
    is_storage: np.ndarray
    is_fixed: np.ndarray
    ctype_code: np.ndarray
    site_code: np.ndarray
    net_driver: np.ndarray
    net_nsinks: np.ndarray
    sink_flat: np.ndarray
    sink_net: np.ndarray
    sink_indptr: np.ndarray
    pin_cell: np.ndarray
    pin_ptr: np.ndarray
    pin_net: np.ndarray
    _fanout_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def edge_src(self) -> np.ndarray:
        """Driver per (net, sink) pair — multi-edges kept, one per pin."""
        return self.net_driver[self.sink_net]

    @property
    def edge_dst(self) -> np.ndarray:
        """Sink per (net, sink) pair — alias of ``sink_flat``."""
        return self.sink_flat

    def fanout_filtered(self, max_fanout: int) -> sp.csr_matrix:
        """Binary directed adjacency from nets with ``fanout <= max_fanout``.

        This is the traversal graph of Section III-B: very-high-fanout nets
        (clock/reset/enable broadcast) never carry datapaths and are dropped
        before any DSP-to-DSP search. Cached per ``max_fanout``.
        """
        cached = self._fanout_cache.get(max_fanout)
        if cached is not None:
            return cached
        if self.net_nsinks.size == 0 or max_fanout >= int(self.net_nsinks.max()):
            adj = self.directed
        else:
            keep = self.net_nsinks[self.sink_net] <= max_fanout
            adj = _binary_csr(self.edge_src[keep], self.sink_flat[keep], self.n)
        self._fanout_cache[max_fanout] = adj
        return adj


def build_csr(netlist: Netlist) -> NetlistCSR:
    """Build a fresh context; prefer :func:`get_csr` for the cached one."""
    n = len(netlist.cells)
    n_nets = len(netlist.nets)
    net_driver = np.fromiter(
        (net.driver for net in netlist.nets), dtype=np.int64, count=n_nets
    )
    net_nsinks = np.fromiter(
        (len(net.sinks) for net in netlist.nets), dtype=np.int64, count=n_nets
    )
    total_sinks = int(net_nsinks.sum())
    sink_flat = np.fromiter(
        (s for net in netlist.nets for s in net.sinks), dtype=np.int64, count=total_sinks
    )
    sink_net = np.repeat(np.arange(n_nets, dtype=np.int64), net_nsinks)
    sink_indptr = np.zeros(n_nets + 1, dtype=np.int64)
    np.cumsum(net_nsinks, out=sink_indptr[1:])

    net_npins = net_nsinks + 1  # driver-first pin layout
    pin_ptr = np.zeros(n_nets + 1, dtype=np.int64)
    np.cumsum(net_npins, out=pin_ptr[1:])
    pin_cell = np.empty(int(pin_ptr[-1]), dtype=np.int64)
    pin_cell[pin_ptr[:-1]] = net_driver
    sink_slots = np.ones(int(pin_ptr[-1]), dtype=bool)
    sink_slots[pin_ptr[:-1]] = False
    pin_cell[sink_slots] = sink_flat
    pin_net = np.repeat(np.arange(n_nets, dtype=np.int64), net_npins)

    directed = _binary_csr(net_driver[sink_net], sink_flat, n)
    undirected = (directed + directed.T).tocsr()
    undirected.data[:] = 1.0

    ctype_code = np.fromiter(
        (_CTYPE_CODE[c.ctype] for c in netlist.cells), dtype=np.int8, count=n
    )
    is_dsp = ctype_code == _CTYPE_CODE[CellType.DSP]
    is_fixed = np.fromiter((c.is_fixed for c in netlist.cells), dtype=bool, count=n)
    return NetlistCSR(
        n=n,
        version=getattr(netlist, "_version", 0),
        directed=directed,
        undirected=undirected,
        indegree=np.diff(directed.tocsc().indptr),
        outdegree=np.diff(directed.indptr),
        dsp_indices=np.flatnonzero(is_dsp),
        is_dsp=is_dsp,
        is_storage=_IS_STORAGE_OF[ctype_code],
        is_fixed=is_fixed,
        ctype_code=ctype_code,
        site_code=_SITE_CODE_OF[ctype_code],
        net_driver=net_driver,
        net_nsinks=net_nsinks,
        sink_flat=sink_flat,
        sink_net=sink_net,
        sink_indptr=sink_indptr,
        pin_cell=pin_cell,
        pin_ptr=pin_ptr,
        pin_net=pin_net,
    )


def get_csr(netlist: Netlist) -> NetlistCSR:
    """The cached :class:`NetlistCSR` for this netlist revision.

    Returns the same object for repeated calls on an unmodified netlist;
    rebuilds (and re-caches) after any structural mutation.
    """
    version = getattr(netlist, "_version", 0)
    cached = getattr(netlist, "_csr_context", None)
    if cached is not None and cached.version == version:
        return cached
    ctx = build_csr(netlist)
    netlist._csr_context = ctx
    return ctx
