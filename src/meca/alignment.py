"""Covariance construction from activations and the alignment penalty.

The covariance of a batch of column-wise activations A is C = A J A^T with
J = I - (1/n) 11^T the centering matrix; the alignment penalty measures the
distance between the source and target covariances and is backpropagated into
the activations by the chain rule.  Activations may carry a leading lane axis
(one model per lane); every result then holds one entry per lane.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .errors import BadShapeError, TooFewSamplesError
from .spd import SpdMatrix

PENALTY_KINDS = ("none", "euclidean", "log_euclidean")


@dataclass(frozen=True)
class AlignmentPenalty:
    """Choice of covariance distance, its weight, and covariance options.

    ``lam`` is one weight, or an array with one weight per lane.
    """

    kind: str = "log_euclidean"
    lam: float | np.ndarray = 1.0
    jitter_rel: float = spd.DEFAULT_JITTER_REL
    normalize_cov: bool = False

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise BadShapeError(f"unknown penalty kind {self.kind!r}")
        lam = np.asarray(self.lam)
        if not np.isfinite(lam).all() or (lam < 0.0).any():
            raise BadShapeError(f"penalty weight must be finite and >= 0, got {self.lam}")


def _centered(acts: np.ndarray) -> np.ndarray:
    acts = np.asarray(acts, dtype=np.float64)
    if acts.ndim not in (2, 3):
        raise BadShapeError("activations must be (features x samples), optionally per lane")
    if acts.shape[-1] < 2:
        raise TooFewSamplesError(f"covariance needs >= 2 samples, got {acts.shape[-1]}")
    return acts - acts.mean(axis=-1, keepdims=True)


def raw_covariance(acts: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Pre-jitter covariance A J A^T (optionally divided by n - 1)."""
    m = _centered(acts)
    c = m @ m.swapaxes(-1, -2)
    if normalize:
        c = c / (acts.shape[-1] - 1)
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


def penalty_distance(cs: SpdMatrix, ct: SpdMatrix, kind: str) -> float | np.ndarray:
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
    quadratic form and a small term through the jitter's trace dependence,
    which vanishes where the jitter sits at its floor.
    """
    m = _centered(acts)
    d, n = acts.shape[-2:]
    s = 1.0 / (n - 1) if normalize else 1.0
    grad = s * ((g_cov + g_cov.swapaxes(-1, -2)) @ m)
    raw_trace = s * (m * m).sum(axis=(-2, -1))
    above_floor = jitter_rel * raw_trace / d > spd.JITTER_FLOOR
    if above_floor.any():
        coef = (2.0 * jitter_rel / d) * g_cov.trace(axis1=-2, axis2=-1) * s
        jitter_term = coef[..., None, None] * m
        grad = np.where(above_floor[..., None, None], grad + jitter_term, grad)
    return grad


def penalty_value_and_grads(
    acts_s: np.ndarray, acts_t: np.ndarray, penalty: AlignmentPenalty
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Weighted penalty value and its gradients w.r.t. both activation sets.

    Builds each covariance once and reuses it, and its eigendecomposition
    when the penalty is log-Euclidean, for the value and the gradient.
    """
    acts_s = np.asarray(acts_s, dtype=np.float64)
    acts_t = np.asarray(acts_t, dtype=np.float64)
    if acts_s.shape[-2:-1] != acts_t.shape[-2:-1]:
        raise BadShapeError(
            f"source and target activations of shapes {acts_s.shape} and "
            f"{acts_t.shape} differ in feature count"
        )
    lam = np.asarray(penalty.lam)
    if penalty.kind == "none" or not lam.any():
        return 0.0, np.zeros_like(acts_s), np.zeros_like(acts_t)
    cs = covariance(acts_s, penalty.jitter_rel, penalty.normalize_cov)
    ct = covariance(acts_t, penalty.jitter_rel, penalty.normalize_cov)
    if penalty.kind == "euclidean":
        value = spd.dist_euclidean(cs, ct)
        gs, gt = spd.grad_dist_euclidean(cs, ct)
    else:
        value = spd.dist_log_euclidean(cs, ct)
        gs, gt = spd.grad_dist_log_euclidean(cs, ct)
    lam_m = lam[..., None, None]
    ga_s = lam_m * _grad_through_covariance(
        acts_s, gs, penalty.jitter_rel, penalty.normalize_cov
    )
    ga_t = lam_m * _grad_through_covariance(
        acts_t, gt, penalty.jitter_rel, penalty.normalize_cov
    )
    return penalty.lam * value, ga_s, ga_t
