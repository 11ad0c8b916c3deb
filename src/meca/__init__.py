"""Minimal-entropy correlation alignment (MECA) for unsupervised domain
adaptation: geodesic covariance alignment trained jointly with source
cross-entropy, with the alignment weight selected by minimizing target
prediction entropy.
"""

__version__ = "0.1.0"

from .alignment import AlignmentPenalty, covariance
from .data import Dataset, ShiftSpec, apply_shift, gen_blobs, read_csv, read_idx, write_csv
from .network import (
    LabeledBatch,
    MlpModel,
    UnlabeledBatch,
    backward,
    cross_entropy,
    entropy,
    forward,
    init_model,
    load_model,
    save_model,
)
from .selection import SweepRecord, SweepResult, selection_gap, sweep
from .spd import (
    SpdMatrix,
    dist_euclidean,
    dist_log_euclidean,
    grad_dist_euclidean,
    grad_dist_log_euclidean,
    make_spd,
    mat_log,
    sym_eig,
)
from .trainer import EpochMetrics, TrainConfig, TrainRunResult, evaluate, kl_diagnostic, train_run

__all__ = [
    "__version__",
    "AlignmentPenalty",
    "Dataset",
    "EpochMetrics",
    "LabeledBatch",
    "MlpModel",
    "ShiftSpec",
    "SpdMatrix",
    "SweepRecord",
    "SweepResult",
    "TrainConfig",
    "TrainRunResult",
    "UnlabeledBatch",
    "apply_shift",
    "backward",
    "covariance",
    "cross_entropy",
    "dist_euclidean",
    "dist_log_euclidean",
    "entropy",
    "evaluate",
    "forward",
    "gen_blobs",
    "grad_dist_euclidean",
    "grad_dist_log_euclidean",
    "init_model",
    "kl_diagnostic",
    "load_model",
    "make_spd",
    "mat_log",
    "read_csv",
    "read_idx",
    "save_model",
    "selection_gap",
    "sweep",
    "sym_eig",
    "train_run",
    "write_csv",
]
