"""DSP-to-DSP datapath search (paper Section III-B).

The paper adopts IDDFS for DSP-graph construction because plain DFS misses
shortest paths and BFS's frontier is too large for netlist-scale graphs;
IDDFS combines DFS space with BFS shortest-path guarantees. Traversal
follows signal direction (driver → sink), stops when it reaches another DSP
(DSP-graph edges are DSP-to-DSP datapaths with no DSP in between), skips
very-high-fanout nets (clock/reset/enable broadcast, never datapath), and
records the distance and the number of storage cells along each found path.

The search runs as a depth-bounded multi-source level-synchronous BFS over
the fanout-filtered CSR adjacency from the shared
:class:`~repro.netlist.csr.NetlistCSR` context. Per-(source, node) shortest
distance and minimum storage count propagate through frontier matrices with
batched numpy gathers/scatters, over blocks of DSP sources. The
paper-faithful per-source iterative-deepening DFS is its property-test
oracle (``tests/oracles/extraction.py``) and finds the same paths.

Per reached (src, dst) pair the search records the shortest distance and
the *minimum* storage count over the shortest paths — a deterministic
quantity (the old DFS recorded whichever shortest path it happened to walk
first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace

#: entries per dense (block, n_cells) work array. The BFS source block is
#: ``_WORK // n_cells`` sources, so the three arrays take 16 MiB whatever the
#: netlist's size; blocks are independent, so the paths do not depend on it.
_WORK = 1 << 20


@dataclass(frozen=True)
class DSPPath:
    """Shortest driver→sink path between two DSP cells."""

    src: int
    dst: int
    dist: int  # edges along the netlist path
    n_storage: int  # FF/BRAM/LUTRAM cells strictly inside the path


def iddfs_dsp_paths(
    netlist: Netlist,
    max_depth: int = 6,
    max_fanout: int = 16,
    sources: list[int] | None = None,
) -> list[DSPPath]:
    """All shortest DSP→DSP paths up to ``max_depth`` netlist hops.

    Args:
        max_depth: Depth cutoff; datapath DSP-to-DSP connections (cascades,
            adder trees) are short, control broadcast is not.
        max_fanout: Nets wider than this are not traversed.
        sources: Restrict path search to these source DSPs.

    Returns:
        One :class:`DSPPath` per (src, dst) pair found — shortest distance,
        minimum storage count over the shortest paths — sorted by (src, dst).
    """
    with trace.span("extraction.iddfs", max_depth=max_depth) as sp:
        out, block = _bfs_impl(netlist, max_depth, max_fanout, sources)
        sp.set(n_paths=len(out), block=block)
    metrics.inc("extraction.iddfs.paths", len(out))
    return out


def _bfs_impl(
    netlist: Netlist,
    max_depth: int,
    max_fanout: int,
    sources: list[int] | None,
) -> tuple[list[DSPPath], int]:
    ctx = get_csr(netlist)
    n = ctx.n
    adj = ctx.fanout_filtered(max_fanout)
    indptr, indices = adj.indptr, adj.indices
    storage_w = ctx.is_storage.astype(np.int32)
    srcs = np.asarray(
        sources if sources is not None else ctx.dsp_indices, dtype=np.int64
    )
    out: list[DSPPath] = []
    if n == 0 or srcs.size == 0:
        return out, 0
    dsp_cols = ctx.dsp_indices
    unreached = np.int32(n + 1)  # storage sentinel > any possible count

    # the dense (block, n) work arrays dominate runtime if reallocated per
    # block, so they are allocated once and only the keys a block actually
    # touched are reset afterwards — per-block work stays proportional to
    # the reached set, not to block·n
    s_max = max(1, min(srcs.size, _WORK // n))
    dflat = np.full(s_max * n, -1, dtype=np.int32)
    sflat = np.full(s_max * n, unreached, dtype=np.int32)
    tag = np.empty(s_max * n, dtype=np.int64)  # scatter-based dedup scratch

    for start in range(0, srcs.size, s_max):
        block = srcs[start : start + s_max]
        s = block.size
        rows = np.arange(s)
        # frontier as flat (block-row * n, node) pairs
        rowkeys, fnode = rows * n, block
        fkeys = rowkeys + fnode
        src_keys = fkeys
        dflat[src_keys] = 0
        sflat[src_keys] = 0
        touched = [src_keys]
        for depth in range(max_depth):
            if fnode.size == 0:
                break
            starts = indptr[fnode]
            counts = indptr[fnode + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # expand every frontier entry's edge list in one fused gather
            running = np.cumsum(counts) - counts
            pos = np.arange(total) + np.repeat(starts - running, counts)
            targets = indices[pos]
            cand = np.repeat(sflat[fkeys], counts) + storage_w[targets]
            keys = np.repeat(rowkeys, counts) + targets
            # a node reached at an earlier level is final; only unvisited
            # (src, node) pairs take this level's distance / storage minimum
            fresh = np.flatnonzero(dflat[keys] == -1)
            keys, cand = keys[fresh], cand[fresh]
            np.minimum.at(sflat, keys, cand)
            dflat[keys] = depth + 1
            # dedup without sorting/hashing: last scatter wins
            eidx = np.arange(keys.size)
            tag[keys] = eidx
            sel = np.flatnonzero(tag[keys] == eidx)
            fkeys = keys[sel]
            touched.append(fkeys)
            fnode = targets[fresh[sel]]
            interior = ~ctx.is_dsp[fnode]  # DSPs terminate the path
            fkeys, fnode = fkeys[interior], fnode[interior]
            rowkeys = fkeys - fnode
        # every DSP with a positive distance is a found destination
        ddist = dflat[: s * n].reshape(s, n)[:, dsp_cols]
        hit_r, hit_c = np.nonzero(ddist > 0)
        dstor = sflat[: s * n].reshape(s, n)[:, dsp_cols]
        out.extend(
            DSPPath(src=int(block[r]), dst=int(dsp_cols[c]),
                    dist=int(ddist[r, c]), n_storage=int(dstor[r, c]))
            for r, c in zip(hit_r.tolist(), hit_c.tolist())
        )
        for keys in touched:
            dflat[keys] = -1
            sflat[keys] = unreached
    out.sort(key=lambda p: (p.src, p.dst))
    return out, s_max
