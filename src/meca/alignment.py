"""Covariance construction from activations and the composite objectives.

The covariance of a batch of column-wise activations A is C = A J A^T with
J = I - (1/n) 11^T the centering matrix; the alignment penalty measures the
distance between the source and target covariances and is backpropagated into
the activations by the chain rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .errors import BadShapeError, TooFewSamplesError
from .network import ForwardTrace, cross_entropy
from .spd import SpdMatrix

PENALTY_KINDS = ("none", "euclidean", "log_euclidean")


@dataclass(frozen=True)
class AlignmentPenalty:
    """Choice of covariance distance, its weight, and covariance options."""

    kind: str = "log_euclidean"
    lam: float = 1.0
    jitter_rel: float = spd.DEFAULT_JITTER_REL
    normalize_cov: bool = False

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise BadShapeError(f"unknown penalty kind {self.kind!r}")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise BadShapeError(f"penalty weight must be finite and >= 0, got {self.lam}")


def _centered(acts: np.ndarray) -> np.ndarray:
    acts = np.asarray(acts, dtype=np.float64)
    if acts.ndim != 2:
        raise BadShapeError("activations must be 2-d (features x samples)")
    if acts.shape[1] < 2:
        raise TooFewSamplesError(f"covariance needs >= 2 samples, got {acts.shape[1]}")
    return acts - acts.mean(axis=1, keepdims=True)


def raw_covariance(acts: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Pre-jitter covariance A J A^T (optionally divided by n - 1)."""
    m = _centered(acts)
    c = m @ m.T
    if normalize:
        c = c / (acts.shape[1] - 1)
    return c


def covariance(
    acts: np.ndarray,
    jitter_rel: float = spd.DEFAULT_JITTER_REL,
    normalize: bool = False,
) -> SpdMatrix:
    """Second-order statistics of a batch, repaired to strict SPD.

    Jitter is applied here so every penalty and gradient downstream sees a
    strictly positive definite matrix even for rank-deficient batches.  The
    eigendecomposition waits for first use, so the Euclidean penalty never
    computes one.  An overflowed batch raises DegenerateMatrixError.
    """
    return SpdMatrix(spd.add_jitter(raw_covariance(acts, normalize=normalize), jitter_rel))


def penalty_distance(cs: SpdMatrix, ct: SpdMatrix, kind: str) -> float:
    if kind == "euclidean":
        return spd.dist_euclidean(cs, ct)
    if kind == "log_euclidean":
        return spd.dist_log_euclidean(cs, ct)
    raise BadShapeError(f"no distance for penalty kind {kind!r}")


def _grad_through_covariance(
    acts: np.ndarray, g_cov: np.ndarray, jitter_rel: float, normalize: bool
) -> np.ndarray:
    """Chain a covariance gradient back to the activations.

    C = s A J A^T + eps I with s the optional 1/(n-1) factor and eps the
    trace-proportional jitter, so the gradient has a main term through the
    quadratic form and a small term through the jitter's trace dependence.
    """
    m = _centered(acts)
    n = acts.shape[1]
    s = 1.0 / (n - 1) if normalize else 1.0
    grad = s * ((g_cov + g_cov.T) @ m)
    raw_trace = s * float(np.sum(m * m))
    d = acts.shape[0]
    if jitter_rel * raw_trace / d > spd.JITTER_FLOOR:
        grad += (2.0 * jitter_rel / d) * float(np.trace(g_cov)) * s * m
    return grad


def penalty_value_and_grads(
    acts_s: np.ndarray, acts_t: np.ndarray, penalty: AlignmentPenalty
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted penalty value and its gradients w.r.t. both activation sets.

    Builds each covariance once and reuses it, and its eigendecomposition
    when the penalty is log-Euclidean, for the value and the gradient.
    """
    if penalty.kind == "none" or penalty.lam == 0.0:
        acts_s = np.asarray(acts_s, dtype=np.float64)
        acts_t = np.asarray(acts_t, dtype=np.float64)
        return 0.0, np.zeros_like(acts_s), np.zeros_like(acts_t)
    cs = covariance(acts_s, penalty.jitter_rel, penalty.normalize_cov)
    ct = covariance(acts_t, penalty.jitter_rel, penalty.normalize_cov)
    if penalty.kind == "euclidean":
        value = spd.dist_euclidean(cs, ct)
        gs, gt = spd.grad_dist_euclidean(cs, ct)
    else:
        value = spd.dist_log_euclidean(cs, ct)
        gs, gt = spd.grad_dist_log_euclidean(cs, ct)
    ga_s = penalty.lam * _grad_through_covariance(
        acts_s, gs, penalty.jitter_rel, penalty.normalize_cov
    )
    ga_t = penalty.lam * _grad_through_covariance(
        acts_t, gt, penalty.jitter_rel, penalty.normalize_cov
    )
    return penalty.lam * value, ga_s, ga_t


def grad_covariance_penalty(
    acts_s: np.ndarray, acts_t: np.ndarray, penalty: AlignmentPenalty
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the weighted penalty w.r.t. source and target activations."""
    _, ga_s, ga_t = penalty_value_and_grads(acts_s, acts_t, penalty)
    return ga_s, ga_t


def composite_loss(
    trace_s: ForwardTrace,
    labels_s: np.ndarray,
    trace_t: ForwardTrace,
    penalty: AlignmentPenalty,
) -> tuple[float, float, float]:
    """Source cross-entropy plus the weighted alignment penalty.

    Returns (total, h_source, pen_value) with total = h_source + pen_value;
    the components are reported separately for logging.
    """
    if trace_s.alignment_layer != trace_t.alignment_layer:
        raise BadShapeError(
            "source and target traces use different alignment layers "
            f"({trace_s.alignment_layer} vs {trace_t.alignment_layer})"
        )
    h = cross_entropy(trace_s.probs, labels_s)
    if penalty.kind == "none" or penalty.lam == 0.0:
        return h, h, 0.0
    cs = covariance(trace_s.feature_acts, penalty.jitter_rel, penalty.normalize_cov)
    ct = covariance(trace_t.feature_acts, penalty.jitter_rel, penalty.normalize_cov)
    pen = penalty.lam * penalty_distance(cs, ct, penalty.kind)
    return h + pen, h, pen
