"""Node features for datapath DSP identification (paper Section III-A).

Each node gets the paper's seven-dimensional feature vector:

(a) closeness centrality, (b) feedback-loop membership, (c) eccentricity,
(d) indegree, (e) outdegree, (f) betweenness centrality, and (g) — DSP
nodes only — the average shortest-path distance to other DSP nodes.

Everything is computed on the shared
:class:`~repro.netlist.csr.NetlistCSR` context with compiled/vectorized
kernels: degrees from CSR ``indptr`` diffs, feedback loops via
``csgraph.connected_components(connection="strong")``, closeness and
eccentricity from the dense BFS distance matrix, and betweenness via the
level-synchronous Brandes kernel (:mod:`repro.core.extraction.brandes`).
On netlists above ``exact_threshold`` nodes the standard pivot-sampling
approximations kick in (distances from ``n_pivots`` BFS sources, Brandes
over sampled pivots). The original pure-Python networkx implementation
(Definitions 1–3 / Fig. 4) is the equivalence-test oracle in
``tests/oracles/extraction.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csgraph

from repro.core.extraction.brandes import betweenness_csr
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import trace

FEATURE_NAMES = (
    "closeness",
    "feedback",
    "eccentricity",
    "indegree",
    "outdegree",
    "betweenness",
    "avg_dsp_dist",
)


@dataclass(frozen=True)
class FeatureConfig:
    """Feature-extraction knobs."""

    n_pivots: int = 48
    exact_threshold: int = 2500
    seed: int = 0


def extract_node_features(netlist: Netlist, config: FeatureConfig | None = None) -> np.ndarray:
    """Compute the ``(n_cells, 7)`` feature matrix of a netlist graph."""
    config = config or FeatureConfig()
    with trace.span("extraction.features", n_cells=len(netlist.cells)):
        return _features_impl(netlist, config)


def _sampled_closeness(
    dist: np.ndarray, pivots: np.ndarray, n: int, k: int
) -> np.ndarray:
    """(a) closeness ≈ (reachable pivots, excluding self) / Σ distance.

    Only pivot nodes carry their own zero self-distance in the pivot-distance
    matrix, so only pivot rows discount one reachable pivot; subtracting 1
    for every node biased non-pivot closeness low by one pivot.
    """
    finite = np.isfinite(dist)
    sums = np.where(finite, dist, 0.0).sum(axis=0)
    counts = finite.sum(axis=0)
    is_pivot = np.zeros(n, dtype=np.int64)
    is_pivot[pivots] = 1
    reachable_others = counts - is_pivot
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sums > 0, reachable_others / sums, 0.0) * (counts / max(k, 1))


def _features_impl(netlist: Netlist, config: FeatureConfig) -> np.ndarray:
    ctx = get_csr(netlist)
    n = ctx.n
    feats = np.zeros((n, len(FEATURE_NAMES)))
    if n == 0:
        return feats

    # (d)/(e) degrees straight off the CSR index pointers
    feats[:, 3] = ctx.indegree
    feats[:, 4] = ctx.outdegree

    # (b) feedback loops: membership in a non-trivial strongly connected
    # component of the directed graph (control feedback per the paper)
    n_comp, labels = csgraph.connected_components(
        ctx.directed, directed=True, connection="strong"
    )
    comp_sizes = np.bincount(labels, minlength=n_comp)
    feats[:, 1] = (comp_sizes[labels] > 1).astype(np.float64)

    dsp_nodes = ctx.dsp_indices
    adj = ctx.undirected
    if n <= config.exact_threshold:
        # (f) exact betweenness via the batched Brandes kernel; its forward
        # BFS hands back the dense distance matrix feeding (a), (c) and (g)
        feats[:, 5], dist = betweenness_csr(
            adj, normalized=True, directed=False, return_distances=True
        )
        finite = np.isfinite(dist)
        # (a) exact closeness with the Wasserman-Faust component scaling
        # (networkx's wf_improved convention): ((r-1)/Σd) · ((r-1)/(n-1))
        # where r counts reachable nodes including self
        totdist = np.where(finite, dist, 0.0).sum(axis=1)
        reach = finite.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            feats[:, 0] = np.where(
                totdist > 0, (reach - 1) ** 2 / (totdist * max(n - 1, 1)), 0.0
            )
        # (c) eccentricity per connected component (inf pairs masked out)
        feats[:, 2] = np.where(finite, dist, 0.0).max(axis=1)
        if dsp_nodes.size:
            dd = dist[np.ix_(dsp_nodes, dsp_nodes)]
            mask = np.isfinite(dd)
            np.fill_diagonal(mask, False)
            sums = np.where(mask, dd, 0.0).sum(axis=1)
            counts = mask.sum(axis=1)
            feats[dsp_nodes, 6] = np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.0
            )
        return feats

    # ---- sampled approximations for large graphs ----
    rng = np.random.default_rng(config.seed)
    k = min(config.n_pivots, n)
    pivots = rng.choice(n, size=k, replace=False)
    dist = csgraph.dijkstra(adj, indices=pivots, unweighted=True)  # (k, n)
    feats[:, 0] = _sampled_closeness(dist, pivots, n, k)
    # (c) eccentricity ≈ max distance to any pivot (lower bound of true ecc)
    feats[:, 2] = np.where(np.isfinite(dist), dist, 0.0).max(axis=0)

    # (f) Brandes betweenness over sampled pivot sources
    kb = min(k, n - 1)
    bw_sources = rng.choice(n, size=kb, replace=False)
    feats[:, 5] = betweenness_csr(adj, sources=bw_sources, normalized=True)

    # (g) avg shortest-path distance to other DSPs ≈ via DSP pivots
    if dsp_nodes.size >= 2:
        kd = min(config.n_pivots, dsp_nodes.size)
        dsp_pivots = rng.choice(dsp_nodes, size=kd, replace=False)
        ddist = csgraph.dijkstra(adj, indices=dsp_pivots, unweighted=True)[:, dsp_nodes]
        dfinite = np.isfinite(ddist)
        dsums = np.where(dfinite, ddist, 0.0).sum(axis=0)
        dcounts = np.maximum(dfinite.sum(axis=0), 1)
        feats[dsp_nodes, 6] = dsums / dcounts
    return feats
