"""Datapath DSP identification (paper Section III-A / Fig. 7).

Wraps the learning substrate into netlist-level classifiers:

- ``"gcn"`` — the paper's method: the Fig. 3(c) GCN over the full netlist
  graph with the seven global+local features, trained leave-one-out.
- ``"svm"`` — the PADE [28] baseline: a linear SVM restricted to *local*
  features (degrees, feedback membership), mirroring its automorphism-only
  view; this is the Fig. 7(a) comparison point.
- ``"heuristic"`` — the storage-association rule of Section III-B (control
  DSPs neighbour many storage elements): a training-free 1-D two-means
  split on storage-neighbour counts.
- ``"oracle"`` — ground-truth labels from the generator (ablations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.extraction.features import FeatureConfig, extract_node_features
from repro.ml.gcn import normalized_adjacency
from repro.ml.metrics import accuracy
from repro.ml.svm import LinearSVM
from repro.ml.train import GraphSample, TrainResult, train_gcn
from repro.netlist.csr import get_csr
from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace

#: Fallback feature columns for the local-only SVM baseline when a sample
#: carries no automorphism features: the two strictly-local columns
#: (indegree, outdegree). The preferred SVM input is
#: :func:`repro.core.extraction.automorphism.automorphism_features` —
#: PADE-style Weisfeiler-Lehman local-regularity fingerprints. Feedback-loop
#: membership (SCC) and the centralities are global information reserved
#: for the GCN.
LOCAL_FEATURE_COLUMNS = (3, 4)


def _svm_features(sample) -> np.ndarray:
    x = sample.x_local if sample.x_local is not None else sample.x[:, LOCAL_FEATURE_COLUMNS]
    return np.asarray(x)

METHODS = ("gcn", "svm", "heuristic", "oracle")


@dataclass
class IdentificationResult:
    """Outcome of classifying one netlist's DSPs."""

    flags: dict[int, bool]  # dsp cell index -> is_datapath prediction
    method: str
    accuracy: float | None = None  # vs. ground truth, when available

    @property
    def n_datapath(self) -> int:
        return sum(self.flags.values())


def build_graph_sample(
    netlist: Netlist,
    features: np.ndarray | None = None,
    feature_config: FeatureConfig | None = None,
) -> GraphSample:
    """Prepare a netlist for the node classifiers.

    Labels come from the generator's ground truth; the mask restricts the
    loss/accuracy to DSP nodes (the only labeled class in the paper). The
    sample also carries the strictly-local automorphism features the
    PADE-style SVM baseline consumes.
    """
    from repro.core.extraction.automorphism import automorphism_features

    if features is None:
        features = extract_node_features(netlist, feature_config)
    local = automorphism_features(netlist)
    ctx = get_csr(netlist)
    n = ctx.n
    # the binary symmetrized adjacency comes straight from the shared CSR
    # context instead of a per-call Python edge walk
    a_hat = normalized_adjacency(ctx.undirected)

    labels = np.zeros(n, dtype=np.int64)
    mask = ctx.is_dsp.copy()
    for idx in ctx.dsp_indices:
        labels[idx] = 1 if netlist.cells[idx].is_datapath else 0
    return GraphSample(
        a_hat=a_hat,
        x=features,
        labels=labels,
        mask=mask,
        name=netlist.name,
        x_local=local,
    )


def _storage_neighbor_counts(netlist: Netlist) -> dict[int, int]:
    ctx = get_csr(netlist)
    counts = ctx.undirected[ctx.dsp_indices] @ ctx.is_storage.astype(np.float64)
    return {int(idx): int(c) for idx, c in zip(ctx.dsp_indices, np.asarray(counts).ravel())}


def _two_means_split(values: np.ndarray) -> float:
    """1-D two-means threshold (control DSPs = the high-count cluster)."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return hi + 0.5
    c0, c1 = lo, hi
    for _ in range(32):
        mid = (c0 + c1) / 2.0
        left = values[values <= mid]
        right = values[values > mid]
        if left.size == 0 or right.size == 0:
            break
        n0, n1 = left.mean(), right.mean()
        if np.isclose(n0, c0) and np.isclose(n1, c1):
            break
        c0, c1 = n0, n1
    return (c0 + c1) / 2.0


@dataclass
class DatapathIdentifier:
    """Train-once / predict-many datapath-DSP classifier."""

    method: str = "gcn"
    epochs: int = 300
    seed: int = 0
    feature_config: FeatureConfig | None = None
    _gcn: TrainResult | None = field(default=None, repr=False)
    _svm: LinearSVM | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")

    # ------------------------------------------------------------------
    def fit(self, samples: list[GraphSample]) -> "DatapathIdentifier":
        """Train on prepared samples (no-op for heuristic/oracle)."""
        if self.method == "gcn":
            result = train_gcn(samples, epochs=self.epochs, seed=self.seed)
            self._gcn = result
        elif self.method == "svm":
            x = np.vstack([_svm_features(s)[s.mask] for s in samples])
            y = np.concatenate([s.labels[s.mask] for s in samples])
            self._svm = LinearSVM(epochs=self.epochs, seed=self.seed).fit(x, y)
        return self

    # ------------------------------------------------------------------
    def predict(
        self, netlist: Netlist, sample: GraphSample | None = None
    ) -> IdentificationResult:
        """Classify every DSP of a netlist."""
        with trace.span("extraction.identify", method=self.method) as sp:
            result = self._predict_impl(netlist, sample)
            sp.set(n_dsps=len(result.flags))
        if result.accuracy is not None:
            metrics.gauge("extraction.identify.accuracy", float(result.accuracy))
        return result

    def _predict_impl(
        self, netlist: Netlist, sample: GraphSample | None = None
    ) -> IdentificationResult:
        dsps = get_csr(netlist).dsp_indices.tolist()
        if self.method == "oracle":
            flags = {i: bool(netlist.cells[i].is_datapath) for i in dsps}
            return IdentificationResult(flags=flags, method="oracle", accuracy=1.0)

        if self.method == "heuristic":
            counts = _storage_neighbor_counts(netlist)
            vals = np.array([counts[i] for i in dsps], dtype=np.float64)
            thr = _two_means_split(vals)
            flags = {i: counts[i] <= thr for i in dsps}
        else:
            if sample is None:
                sample = build_graph_sample(netlist, feature_config=self.feature_config)
            if self.method == "gcn":
                if self._gcn is None:
                    raise RuntimeError("gcn identifier: call fit() first")
                pred = self._gcn.predict(sample)
            else:
                if self._svm is None:
                    raise RuntimeError("svm identifier: call fit() first")
                pred_dsp = self._svm.predict(_svm_features(sample)[sample.mask])
                pred = np.zeros(len(sample.labels), dtype=int)
                pred[np.flatnonzero(sample.mask)] = pred_dsp
            flags = {i: bool(pred[i] == 1) for i in dsps}

        acc = None
        if all(netlist.cells[i].is_datapath is not None for i in dsps):
            truth = np.array([1 if netlist.cells[i].is_datapath else 0 for i in dsps])
            predicted = np.array([1 if flags[i] else 0 for i in dsps])
            acc = accuracy(predicted, truth)
        return IdentificationResult(flags=flags, method=self.method, accuracy=acc)
