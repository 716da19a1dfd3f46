"""Graph convolutional network with hand-derived backprop (numpy).

Architecture per the paper's Fig. 3(c): two graph-convolution layers with 32
hidden units, followed by three fully-connected layers and softmax, with
dropout regularization. A graph convolution computes ``Â · H · W + b`` with
the Kipf-Welling symmetric normalization ``Â = D^{-1/2}(A + I)D^{-1/2}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.obs import metrics


def normalized_adjacency(adj: sp.spmatrix) -> sp.csr_matrix:
    """Kipf-Welling normalization with self-loops: D^{-1/2}(A+I)D^{-1/2}.

    Scales the nonzeros in place on the COO triplets (one pass) instead of
    two diagonal sparse-sparse products.
    """
    n = adj.shape[0]
    a = ((sp.csr_matrix(adj, dtype=np.float64) + sp.eye(n, format="csr"))).tocoo()
    deg = np.zeros(n)
    np.add.at(deg, a.row, a.data)
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    a.data *= d_inv_sqrt[a.row] * d_inv_sqrt[a.col]
    return a.tocsr()


@dataclass(frozen=True)
class GCNConfig:
    """Hyper-parameters (defaults = paper Fig. 3(c)).

    ``n_conv=0`` degenerates the model into a plain MLP over node features
    (no neighbourhood aggregation) — the ablation showing what the graph
    structure itself contributes to identification accuracy.
    """

    in_dim: int
    hidden: int = 32
    n_conv: int = 2
    fc_dims: tuple[int, ...] = (32, 16)
    n_classes: int = 2
    dropout: float = 0.3
    seed: int = 0


class GCN:
    """2×GCNConv(32) → 3×FC → softmax node classifier.

    Parameters live in a flat dict so the optimizers in
    :mod:`repro.ml.optim` can update them generically. All gradients are
    derived by hand and validated by a numerical-gradient test.
    """

    def __init__(self, config: GCNConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        dims = [config.in_dim] + [config.hidden] * config.n_conv
        self._conv_keys: list[str] = []
        self.params: dict[str, np.ndarray] = {}
        for i in range(config.n_conv):
            self._glorot(rng, f"conv{i}", dims[i], dims[i + 1])
            self._conv_keys.append(f"conv{i}")
        fc_in = dims[-1]
        self._fc_keys: list[str] = []
        for i, out in enumerate((*config.fc_dims, config.n_classes)):
            self._glorot(rng, f"fc{i}", fc_in, out)
            self._fc_keys.append(f"fc{i}")
            fc_in = out

    def _glorot(self, rng: np.random.Generator, key: str, fan_in: int, fan_out: int) -> None:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.params[f"{key}_W"] = rng.uniform(-limit, limit, (fan_in, fan_out))
        self.params[f"{key}_b"] = np.zeros(fan_out)

    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        a_hat: sp.csr_matrix,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Return ``(probs, cache)``; cache feeds :meth:`backward`."""
        if training and rng is None:
            rng = np.random.default_rng(0)
        p_drop = self.config.dropout if training else 0.0
        cache: dict = {"a_hat": a_hat, "layers": []}
        h = np.asarray(x, dtype=np.float64)
        for key in self._conv_keys:
            ax = a_hat @ h
            z = ax @ self.params[f"{key}_W"] + self.params[f"{key}_b"]
            relu_mask = z > 0
            h_out = z * relu_mask
            drop_mask = None
            if p_drop > 0:
                drop_mask = (rng.random(h_out.shape) >= p_drop) / (1.0 - p_drop)
                h_out = h_out * drop_mask
            cache["layers"].append(
                {"kind": "conv", "key": key, "ax": ax, "relu": relu_mask, "drop": drop_mask}
            )
            h = h_out
        for i, key in enumerate(self._fc_keys):
            last = i == len(self._fc_keys) - 1
            z = h @ self.params[f"{key}_W"] + self.params[f"{key}_b"]
            if last:
                cache["layers"].append({"kind": "fc", "key": key, "h_in": h, "relu": None, "drop": None})
                h = z
            else:
                relu_mask = z > 0
                h_out = z * relu_mask
                drop_mask = None
                if p_drop > 0:
                    drop_mask = (rng.random(h_out.shape) >= p_drop) / (1.0 - p_drop)
                    h_out = h_out * drop_mask
                cache["layers"].append(
                    {"kind": "fc", "key": key, "h_in": h, "relu": relu_mask, "drop": drop_mask}
                )
                h = h_out
        logits = h
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        cache["x"] = np.asarray(x, dtype=np.float64)
        return probs, cache

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the loss w.r.t. every parameter given dL/dlogits."""
        grads: dict[str, np.ndarray] = {}
        a_hat = cache["a_hat"]
        grad = dlogits
        layers = cache["layers"]
        for li in range(len(layers) - 1, -1, -1):
            layer = layers[li]
            key = layer["key"]
            if layer["drop"] is not None:
                grad = grad * layer["drop"]
            if layer["relu"] is not None:
                grad = grad * layer["relu"]
            if layer["kind"] == "fc":
                h_in = layer["h_in"]
                grads[f"{key}_W"] = h_in.T @ grad
                grads[f"{key}_b"] = grad.sum(axis=0)
                grad = grad @ self.params[f"{key}_W"].T
            else:  # conv: z = (A h) W + b
                ax = layer["ax"]
                grads[f"{key}_W"] = ax.T @ grad
                grads[f"{key}_b"] = grad.sum(axis=0)
                grad = a_hat.T @ (grad @ self.params[f"{key}_W"].T)
        return grads

    def predict(self, x: np.ndarray, a_hat: sp.csr_matrix) -> np.ndarray:
        metrics.inc("gcn.predicts")
        probs, _ = self.forward(x, a_hat, training=False)
        return probs.argmax(axis=1)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for k in self.params:
            self.params[k] = state[k].copy()
