"""Symmetric eigendecomposition and distances between SPD matrices.

Covariances of feature activations are symmetric positive definite, so they
live on a curved manifold rather than in a flat vector space.  This module
provides the eigendecomposition (LAPACK ``eigh`` with a fixed order and sign
convention), the matrix logarithm, the Euclidean and log-Euclidean covariance
distances, and their closed-form gradients, used as training penalties.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMatrixError,
    DimMismatchError,
    NoConvergenceError,
    NonSymmetricError,
)

SYMMETRY_RTOL = 1e-10
JITTER_FLOOR = 1e-12
DEFAULT_JITTER_REL = 1e-5
# Eigenvalue pairs closer than this (relatively) use the limit value of the
# divided difference, which removes the removable singularity continuously.
LOEWNER_DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix; its eigendecomposition (by
    ``sym_eig``) and its matrix logarithm are computed on first use and cached.

    ``eigvals`` are sorted descending and all strictly positive; ``eigvecs``
    holds the matching eigenvectors as columns and is orthogonal.  Reading
    either raises DegenerateMatrixError when ``mat`` is not positive definite.
    Callers that need only ``mat`` (the Euclidean distance) never pay for a
    decomposition.  ``mat`` must be symmetric with finite entries; treat
    instances as immutable.
    """

    mat: np.ndarray

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = sym_eig(self.mat)
        if vals[-1] <= 0.0:
            raise DegenerateMatrixError(
                f"matrix is not positive definite (min eigenvalue {vals[-1]:.3e})"
            )
        return vals, vecs

    @cached_property
    def _log(self) -> np.ndarray:
        out = (self.eigvecs * np.log(self.eigvals)) @ self.eigvecs.T
        out = 0.5 * (out + out.T)
        out.flags.writeable = False  # shared by every caller of mat_log
        return out

    @property
    def eigvals(self) -> np.ndarray:
        return self._eig[0]

    @property
    def eigvecs(self) -> np.ndarray:
        return self._eig[1]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise NonSymmetricError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = _check_square(m)
    scale = np.max(np.abs(m))  # NaN or inf when any entry is
    if not np.isfinite(scale):
        raise DegenerateMatrixError("matrix has non-finite entries")
    asym = np.max(np.abs(m - m.T))
    if asym > SYMMETRY_RTOL * scale:
        raise NonSymmetricError(
            f"asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_RTOL * scale:.3e}"
        )
    return m


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns eigenvalues sorted descending and the matching orthonormal
    eigenvectors as columns, with each column's sign fixed so its
    largest-magnitude component is positive.  Deterministic for identical
    input bits on one numpy/LAPACK build.  Raises NonSymmetricError for a
    non-square or asymmetric matrix, DegenerateMatrixError for non-finite
    entries and NoConvergenceError when LAPACK does not converge.
    """
    m = _check_symmetric(m)
    try:
        vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh failed for n={m.shape[0]}: {exc}") from None
    order = np.argsort(-vals, kind="stable")  # ties keep LAPACK's order
    vals, vecs = vals[order], vecs[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return vals, vecs * signs


def _decomposed(c: SpdMatrix) -> SpdMatrix:
    """``c`` with its eigendecomposition computed, so that a matrix that is
    not symmetric positive definite raises now rather than on first use."""
    c.eigvals
    return c


def spd_from_symmetric(m: np.ndarray) -> SpdMatrix:
    """Wrap a symmetric matrix as SpdMatrix; raises if not positive definite."""
    m = _check_symmetric(m)
    return _decomposed(SpdMatrix(0.5 * (m + m.T)))


def add_jitter(m: np.ndarray, jitter_rel: float = DEFAULT_JITTER_REL) -> np.ndarray:
    """``m + eps * I`` with ``eps = max(jitter_rel * trace(m) / dim, 1e-12)``.

    ``m`` must be square.  Raises DegenerateMatrixError when ``m`` has
    non-finite entries, as an overflowed batch covariance does.
    """
    if not np.all(np.isfinite(m)):
        raise DegenerateMatrixError("matrix has non-finite entries")
    dim = m.shape[0]
    eps = max(jitter_rel * float(np.trace(m)) / dim, JITTER_FLOOR)
    return m + eps * np.eye(dim)


def make_spd(m: np.ndarray, jitter_rel: float = DEFAULT_JITTER_REL) -> SpdMatrix:
    """Repair a symmetric (near-)PSD matrix into a strict SpdMatrix, decomposed.

    Adds ``eps * I`` as ``add_jitter`` does.  Batch covariances with fewer
    samples than features are rank deficient and the matrix logarithm is
    undefined at zero eigenvalues; the jitter keeps every eigenvalue strictly
    positive.
    Raises DegenerateMatrixError if the result is still not positive definite.
    """
    return _decomposed(SpdMatrix(add_jitter(_check_square(m), jitter_rel)))


def mat_log(c: SpdMatrix) -> np.ndarray:
    """Matrix logarithm via the cached eigenbasis: U diag(log(vals)) U^T.

    Computed once per matrix and cached, so a penalty's value and gradient
    share it; the returned array is read-only.
    """
    return c._log


def _check_same_dim(cs: SpdMatrix, ct: SpdMatrix) -> int:
    if cs.dim != ct.dim:
        raise DimMismatchError(f"dimension mismatch: {cs.dim} vs {ct.dim}")
    return cs.dim


def dist_euclidean(cs: SpdMatrix, ct: SpdMatrix) -> float:
    """Squared Frobenius distance, normalized: ||Cs - Ct||_F^2 / (4 d^2)."""
    d = _check_same_dim(cs, ct)
    diff = cs.mat - ct.mat
    return float(np.sum(diff * diff)) / (4.0 * d * d)


def dist_log_euclidean(cs: SpdMatrix, ct: SpdMatrix) -> float:
    """Squared log-Euclidean distance: ||log Cs - log Ct||_F^2 / (4 d^2).

    A geodesic-inspired distance on the SPD manifold; the normalization makes
    the value independent of the feature-layer width.
    """
    d = _check_same_dim(cs, ct)
    diff = mat_log(cs) - mat_log(ct)
    return float(np.sum(diff * diff)) / (4.0 * d * d)


def loewner_log(eigvals: np.ndarray) -> np.ndarray:
    """Divided differences of log at eigenvalue pairs.

    L[i, j] = (log a_i - log a_j) / (a_i - a_j), with the limit 1/a_i on the
    diagonal and for near-degenerate pairs.
    """
    a = np.asarray(eigvals, dtype=np.float64)
    diff = a[:, None] - a[None, :]
    degenerate = np.abs(diff) < LOEWNER_DEGENERACY_RTOL * np.maximum(
        a[:, None], a[None, :]
    )
    safe = np.where(degenerate, 1.0, diff)
    log_diff = np.log(a)[:, None] - np.log(a)[None, :]
    return np.where(degenerate, 1.0 / a[:, None], log_diff / safe)


def _log_frechet_adjoint(c: SpdMatrix, sym_grad: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. log(C) back to a gradient w.r.t. C.

    The Frechet derivative of the matrix log at C = U diag(a) U^T acts as
    H -> U (L o (U^T H U)) U^T with L the divided-difference (Loewner) matrix;
    it is self-adjoint on symmetric matrices.
    """
    lo = loewner_log(c.eigvals)
    inner = c.eigvecs.T @ sym_grad @ c.eigvecs
    out = c.eigvecs @ (lo * inner) @ c.eigvecs.T
    return 0.5 * (out + out.T)


def grad_dist_log_euclidean(
    cs: SpdMatrix, ct: SpdMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dist_log_euclidean w.r.t. both arguments.

    With delta = log Cs - log Ct, the gradient w.r.t. Cs is the Frechet
    adjoint of delta / (2 d^2) in Cs's eigenbasis; the gradient w.r.t. Ct is
    the same with opposite sign in Ct's eigenbasis.  Both outputs symmetric.
    """
    d = _check_same_dim(cs, ct)
    delta = mat_log(cs) - mat_log(ct)
    scale = 1.0 / (2.0 * d * d)
    gs = scale * _log_frechet_adjoint(cs, delta)
    gt = -scale * _log_frechet_adjoint(ct, delta)
    return gs, gt


def grad_dist_euclidean(
    cs: SpdMatrix, ct: SpdMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dist_euclidean: gs = (Cs - Ct) / (2 d^2), gt = -gs."""
    d = _check_same_dim(cs, ct)
    gs = (cs.mat - ct.mat) / (2.0 * d * d)
    return gs, -gs
