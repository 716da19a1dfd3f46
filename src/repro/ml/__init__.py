"""Learning substrate: from-scratch numpy GCN and SVM.

The paper uses PyTorch Geometric for the datapath-DSP classifier (Fig. 3(c):
two 32-unit graph-convolution layers, three fully-connected layers, softmax,
dropout, class-weighted loss) and compares against PADE's SVM. Both are
implemented here on numpy with hand-derived, gradient-checked backprop.
"""

from repro.ml.gcn import GCN, GCNConfig, normalized_adjacency
from repro.ml.losses import weighted_cross_entropy
from repro.ml.optim import Adam
from repro.ml.svm import LinearSVM
from repro.ml.metrics import accuracy, confusion_matrix, f1_score
from repro.ml.train import TrainResult, train_gcn, leave_one_out

__all__ = [
    "GCN",
    "GCNConfig",
    "normalized_adjacency",
    "weighted_cross_entropy",
    "Adam",
    "LinearSVM",
    "accuracy",
    "confusion_matrix",
    "f1_score",
    "TrainResult",
    "train_gcn",
    "leave_one_out",
]
