"""Ablation A8 — graph convolutions vs a plain MLP for identification.

The paper attributes the GCN's edge over PADE's SVM to "global centrality
features over local automorphism-based methods" *and* to neighbourhood
aggregation. This ablation separates the two: the same features, trained
with 0 (MLP), 1 and 2 graph-convolution layers, leave-one-out on two folds.
"""

import numpy as np

from repro.eval import render_table
from repro.eval.experiments import get_sample
from repro.ml.train import train_gcn

FOLDS = ("skynet", "skrskr2")


def test_ablation_gcn_depth(benchmark, settings, emit):
    samples = {s: get_sample(settings, s) for s in settings.suites}

    def run():
        accs = {}
        for n_conv in (0, 1, 2):
            fold_accs = []
            for held in FOLDS:
                train = [v for k, v in samples.items() if k != held]
                res = train_gcn(
                    train,
                    [samples[held]],
                    epochs=settings.gcn_epochs,
                    n_conv=n_conv,
                    seed=settings.seed,
                )
                fold_accs.append(res.final_test_accuracy)
            accs[n_conv] = float(np.mean(fold_accs))
        return accs

    accs = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_gcn_depth",
        render_table(
            ["conv layers", "mean held-out accuracy"],
            [[k, f"{v:.1%}"] for k, v in accs.items()],
            title="Ablation A8: graph convolutions vs MLP (same features).",
        ),
    )
    # aggregation should never hurt; the paper's 2-layer config is best-or-tied
    assert accs[2] >= accs[0] - 0.02
