"""Covariance construction from activations and the alignment penalty.

The covariance of a batch of column-wise activations A is C = A J A^T with
J = I - (1/n) 11^T the centering matrix; the alignment penalty measures the
distance between the source and target covariances and is backpropagated into
the activations by the chain rule.  Activations may carry a leading lane axis
(one model per lane); every result then holds one entry per lane.
"""
from __future__ import annotations

import numpy as np

from . import spd
from .errors import BadShapeError, TooFewSamplesError
from .spd import SpdMatrix


def _centered(acts: np.ndarray) -> np.ndarray:
    acts = np.asarray(acts, dtype=np.float64)
    if acts.ndim not in (2, 3):
        raise BadShapeError("activations must be (features x samples), optionally per lane")
    if acts.shape[-1] < 2:
        raise TooFewSamplesError(f"covariance needs >= 2 samples, got {acts.shape[-1]}")
    return acts - acts.mean(axis=-1, keepdims=True)


def _jittered_covariance(m: np.ndarray, jitter_rel: float) -> SpdMatrix:
    return SpdMatrix(spd.add_jitter(m @ m.swapaxes(-1, -2), jitter_rel))


def raw_covariance(acts: np.ndarray) -> np.ndarray:
    """Pre-jitter covariance A J A^T."""
    m = _centered(acts)
    return m @ m.swapaxes(-1, -2)


def covariance(acts: np.ndarray, jitter_rel: float = spd.DEFAULT_JITTER_REL) -> SpdMatrix:
    """Second-order statistics of a batch, repaired to strict SPD.

    Unnormalized: no 1/(n - 1) factor, whose scale the penalty's weight
    absorbs.  Jitter is applied here so every penalty and gradient
    downstream sees a strictly positive definite matrix even for
    rank-deficient batches.  The eigendecomposition waits for first use, so
    the Euclidean penalty never computes one.  An overflowed batch raises
    DegenerateMatrixError.
    """
    return _jittered_covariance(_centered(acts), jitter_rel)


def penalty_distance(cs: SpdMatrix, ct: SpdMatrix, kind: str) -> float | np.ndarray:
    if kind == "euclidean":
        return spd.dist_euclidean(cs, ct)
    if kind == "log_euclidean":
        return spd.dist_log_euclidean(cs, ct)
    raise BadShapeError(f"no distance for penalty kind {kind!r}")


def _grad_through_covariance(m: np.ndarray, g_cov: np.ndarray, jitter_rel: float) -> np.ndarray:
    """Chain a covariance gradient back to the activations, given the
    centered activations ``m``.

    C = A J A^T + eps I with eps the trace-proportional jitter, so the
    gradient has a main term through the quadratic form and a small term
    through the jitter's trace dependence, which vanishes where the jitter
    sits at its floor.
    """
    d = m.shape[-2]
    grad = (g_cov + g_cov.swapaxes(-1, -2)) @ m
    raw_trace = (m * m).sum(axis=(-2, -1))
    above_floor = jitter_rel * raw_trace / d > spd.JITTER_FLOOR
    if above_floor.any():
        coef = (2.0 * jitter_rel / d) * g_cov.trace(axis1=-2, axis2=-1)
        jitter_term = coef[..., None, None] * m
        grad = np.where(above_floor[..., None, None], grad + jitter_term, grad)
    return grad


def penalty_value_and_grads(
    acts_s: np.ndarray,
    acts_t: np.ndarray,
    kind: str,
    jitter_rel: float = spd.DEFAULT_JITTER_REL,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Unweighted penalty value and its gradients w.r.t. both activation sets.

    ``kind`` is "euclidean" or "log_euclidean".  Centers each batch and builds
    each covariance once, and reuses them, and the eigendecomposition when the
    penalty is log-Euclidean, for the value and the gradient.
    """
    acts_s = np.asarray(acts_s, dtype=np.float64)
    acts_t = np.asarray(acts_t, dtype=np.float64)
    if acts_s.shape[-2:-1] != acts_t.shape[-2:-1]:
        raise BadShapeError(
            f"source and target activations of shapes {acts_s.shape} and "
            f"{acts_t.shape} differ in feature count"
        )
    ms, mt = _centered(acts_s), _centered(acts_t)
    cs = _jittered_covariance(ms, jitter_rel)
    ct = _jittered_covariance(mt, jitter_rel)
    value = penalty_distance(cs, ct, kind)  # raises BadShapeError for an unknown kind
    if kind == "euclidean":
        gs, gt = spd.grad_dist_euclidean(cs, ct)
    else:
        gs, gt = spd.grad_dist_log_euclidean(cs, ct)
    ga_s = _grad_through_covariance(ms, gs, jitter_rel)
    ga_t = _grad_through_covariance(mt, gt, jitter_rel)
    return value, ga_s, ga_t
