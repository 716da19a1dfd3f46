"""GCN training harness: multi-graph epochs, accuracy curves, leave-one-out.

Implements the paper's evaluation protocol (Section V-B): "four benchmarks
are used for training, and the resulting model is tested on the remaining
benchmark", repeated for all benchmarks, with accuracy recorded per epoch
(Fig. 7(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.ml.gcn import GCN, GCNConfig
from repro.ml.losses import class_weights_from_labels, weighted_cross_entropy
from repro.ml.optim import Adam


@dataclass
class GraphSample:
    """One netlist graph prepared for node classification.

    Attributes:
        a_hat: Normalized adjacency.
        x: ``(n, d)`` node features.
        labels: ``(n,)`` labels (only meaningful under ``mask``).
        mask: Labeled nodes — the DSP nodes.
        name: Benchmark name, for reporting.
    """

    a_hat: sp.csr_matrix
    x: np.ndarray
    labels: np.ndarray
    mask: np.ndarray
    name: str = ""
    #: strictly-local (automorphism-style) features for the SVM baseline
    x_local: np.ndarray | None = None


@dataclass
class TrainResult:
    """Training outcome with per-epoch accuracy curves (Fig. 7(b))."""

    model: GCN
    train_curve: list[float] = field(default_factory=list)
    test_curve: list[float] = field(default_factory=list)
    loss_curve: list[float] = field(default_factory=list)
    feature_mean: np.ndarray | None = None
    feature_std: np.ndarray | None = None

    @property
    def final_test_accuracy(self) -> float:
        return self.test_curve[-1] if self.test_curve else float("nan")

    def predict(self, sample: "GraphSample") -> np.ndarray:
        """Per-node class predictions with the training-time normalization."""
        x = sample.x
        if self.feature_mean is not None:
            x = (x - self.feature_mean) / self.feature_std
        return self.model.predict(x, sample.a_hat)


def _standardize_features(samples: list[GraphSample]) -> tuple[np.ndarray, np.ndarray]:
    """Mean/std over all training nodes; applied in-place to each sample."""
    stacked = np.vstack([s.x for s in samples])
    mu = stacked.mean(axis=0)
    sigma = np.maximum(stacked.std(axis=0), 1e-9)
    return mu, sigma


def train_gcn(
    train_samples: list[GraphSample],
    test_samples: list[GraphSample] | None = None,
    *,
    epochs: int = 300,
    lr: float = 0.01,
    dropout: float = 0.3,
    hidden: int = 32,
    n_conv: int = 2,
    seed: int = 0,
    eval_every: int = 1,
) -> TrainResult:
    """Train the Fig. 3(c) classifier over one or more graphs.

    Each epoch does one full-batch forward/backward per training graph
    with the class-weighted loss masked to DSP nodes.
    """
    if not train_samples:
        raise ValueError("no training graphs")
    mu, sigma = _standardize_features(train_samples)
    xs_train = [(s.x - mu) / sigma for s in train_samples]
    xs_test = [(s.x - mu) / sigma for s in (test_samples or [])]

    all_labels = np.concatenate([s.labels[s.mask] for s in train_samples])
    cw = class_weights_from_labels(all_labels)

    config = GCNConfig(
        in_dim=train_samples[0].x.shape[1],
        hidden=hidden,
        n_conv=n_conv,
        dropout=dropout,
        seed=seed,
    )
    model = GCN(config)
    opt = Adam(lr=lr)
    rng = np.random.default_rng(seed + 1)
    result = TrainResult(model=model, feature_mean=mu, feature_std=sigma)

    for epoch in range(epochs):
        losses = []
        for s, x in zip(train_samples, xs_train):
            probs, cache = model.forward(x, s.a_hat, training=True, rng=rng)
            loss, dlogits = weighted_cross_entropy(probs, s.labels, cw, s.mask)
            grads = model.backward(cache, dlogits)
            opt.step(model.params, grads)
            losses.append(loss)
        result.loss_curve.append(float(np.mean(losses)))
        if epoch % eval_every == 0 or epoch == epochs - 1:
            result.train_curve.append(
                _multi_accuracy(model, train_samples, xs_train)
            )
            if test_samples:
                result.test_curve.append(_multi_accuracy(model, test_samples, xs_test))
    return result


def _multi_accuracy(model: GCN, samples: list[GraphSample], xs: list[np.ndarray]) -> float:
    correct = 0
    total = 0
    for s, x in zip(samples, xs):
        pred = model.predict(x, s.a_hat)
        correct += int((pred[s.mask] == s.labels[s.mask]).sum())
        total += int(s.mask.sum())
    return correct / max(total, 1)


def leave_one_out(
    samples: list[GraphSample],
    *,
    epochs: int = 300,
    seed: int = 0,
    **train_kwargs,
) -> dict[str, TrainResult]:
    """Paper Section V-B protocol: hold out each benchmark once.

    Returns ``{held_out_name: TrainResult}``; each result's test curve is the
    held-out benchmark's accuracy over epochs.
    """
    if len(samples) < 2:
        raise ValueError("leave-one-out needs at least two graphs")
    results: dict[str, TrainResult] = {}
    for i, held_out in enumerate(samples):
        train = [s for j, s in enumerate(samples) if j != i]
        results[held_out.name or f"fold{i}"] = train_gcn(
            train, [held_out], epochs=epochs, seed=seed, **train_kwargs
        )
    return results
