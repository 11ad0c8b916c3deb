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
    """Symmetric positive definite matrix, or a stack of them along axis 0
    (one per training lane); its eigendecomposition (by ``sym_eig``) and its
    matrix logarithm are computed on first use and cached.

    ``eigvals`` are sorted descending and all strictly positive; ``eigvecs``
    holds the matching eigenvectors as columns and is orthogonal.  Reading
    either raises DegenerateMatrixError, naming the failed lanes of a stack,
    when ``mat`` is not positive definite.  Callers that need only ``mat``
    (the Euclidean distance) never pay for a decomposition.  ``mat`` must be
    symmetric with finite entries; treat instances as immutable.
    """

    mat: np.ndarray

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = sym_eig(self.mat)
        bad = vals[..., -1] <= 0.0
        if bad.any():
            raise DegenerateMatrixError(
                "matrix is not positive definite "
                f"(min eigenvalue {np.min(vals[..., -1]):.3e})",
                lanes=_lanes(bad),
            )
        return vals, vecs

    @cached_property
    def _log(self) -> np.ndarray:
        vecs = self.eigvecs
        out = (vecs * np.log(self.eigvals)[..., None, :]) @ vecs.swapaxes(-1, -2)
        out = 0.5 * (out + out.swapaxes(-1, -2))
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
        return self.mat.shape[-1]


def _lanes(bad: np.ndarray) -> tuple[int, ...] | None:
    """The failed lanes of a per-matrix mask; None for a single matrix."""
    return None if bad.ndim == 0 else tuple(int(i) for i in np.flatnonzero(bad))


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise NonSymmetricError(
            f"expected a non-empty square matrix or a stack of them, got shape {m.shape}"
        )
    return m


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = _check_square(m)
    scale = np.abs(m).max(axis=(-2, -1))  # NaN or inf when any entry is
    bad = ~np.isfinite(scale)
    if bad.any():
        raise DegenerateMatrixError("matrix has non-finite entries", lanes=_lanes(bad))
    asym = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = asym > SYMMETRY_RTOL * scale
    if bad.any():
        raise NonSymmetricError(
            f"asymmetry {asym[bad][0]:.3e} exceeds tolerance "
            f"{SYMMETRY_RTOL * scale[bad][0]:.3e}",
            lanes=_lanes(bad),
        )
    return m


def _unsolvable(stack: np.ndarray) -> tuple[int, ...]:
    """Lanes of a stack on which LAPACK fails, found by solving each alone."""
    failed = []
    for lane, m in enumerate(stack):
        try:
            np.linalg.eigh(m)
        except np.linalg.LinAlgError:
            failed.append(lane)
    return tuple(failed) or tuple(range(len(stack)))  # none fails alone: name all


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    stack, by LAPACK (``np.linalg.eigh``).

    Returns eigenvalues sorted descending and the matching orthonormal
    eigenvectors as columns, with each column's sign fixed so its
    largest-magnitude component is positive.  Each matrix of a stack gets the
    bits it gets alone; deterministic for identical input bits on one
    numpy/LAPACK build.  Raises NonSymmetricError for a non-square or
    asymmetric matrix, DegenerateMatrixError for non-finite entries and
    NoConvergenceError when LAPACK does not converge; on a stack each error
    names the failed lanes.
    """
    m = _check_symmetric(m)
    stack = m.reshape((-1,) + m.shape[-2:])  # a single matrix is a stack of one
    sym = 0.5 * (stack + stack.swapaxes(-1, -2))
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(
            f"eigh failed for n={m.shape[-1]}: {exc}",
            lanes=None if m.ndim == 2 else _unsolvable(sym),
        ) from None
    lane = np.arange(len(stack))[:, None]
    order = np.argsort(-vals, axis=-1, kind="stable")  # ties keep LAPACK's order
    rows = vecs.swapaxes(-1, -2)[lane, order]  # eigenvectors as rows, descending
    lead = np.argmax(np.abs(rows), axis=-1)
    signs = np.where(rows[lane, np.arange(rows.shape[-1]), lead] < 0.0, -1.0, 1.0)
    vecs = (rows * signs[..., None]).swapaxes(-1, -2)
    return vals[lane, order].reshape(m.shape[:-1]), vecs.reshape(m.shape)


def _decomposed(c: SpdMatrix) -> SpdMatrix:
    """``c`` with its eigendecomposition computed, so that a matrix that is
    not symmetric positive definite raises now rather than on first use."""
    c.eigvals
    return c


def spd_from_symmetric(m: np.ndarray) -> SpdMatrix:
    """Wrap a symmetric matrix as SpdMatrix; raises if not positive definite."""
    m = _check_symmetric(m)
    return _decomposed(SpdMatrix(0.5 * (m + m.swapaxes(-1, -2))))


def add_jitter(m: np.ndarray, jitter_rel: float = DEFAULT_JITTER_REL) -> np.ndarray:
    """``m + eps * I`` with ``eps = max(jitter_rel * trace(m) / dim, 1e-12)``,
    per matrix of a stack.

    ``m`` must be square.  Raises DegenerateMatrixError when ``m`` has
    non-finite entries, as an overflowed batch covariance does.
    """
    finite = np.isfinite(m)
    if not finite.all():
        bad = ~finite.all(axis=(-2, -1))
        raise DegenerateMatrixError("matrix has non-finite entries", lanes=_lanes(bad))
    dim = m.shape[-1]
    eps = np.maximum(jitter_rel * m.trace(axis1=-2, axis2=-1) / dim, JITTER_FLOOR)
    return m + eps[..., None, None] * np.eye(dim)


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


def _squared_norm(diff: np.ndarray) -> float | np.ndarray:
    """Squared Frobenius norm of a matrix, or of each matrix of a stack."""
    return (diff * diff).sum(axis=(-2, -1))


def dist_euclidean(cs: SpdMatrix, ct: SpdMatrix) -> float | np.ndarray:
    """Squared Frobenius distance, normalized: ||Cs - Ct||_F^2 / (4 d^2).

    A float for two matrices; one distance per lane for stacks.
    """
    d = _check_same_dim(cs, ct)
    return _squared_norm(cs.mat - ct.mat) / (4.0 * d * d)


def dist_log_euclidean(cs: SpdMatrix, ct: SpdMatrix) -> float | np.ndarray:
    """Squared log-Euclidean distance: ||log Cs - log Ct||_F^2 / (4 d^2).

    A geodesic-inspired distance on the SPD manifold; the normalization makes
    the value independent of the feature-layer width.  A float for two
    matrices; one distance per lane for stacks.
    """
    d = _check_same_dim(cs, ct)
    return _squared_norm(mat_log(cs) - mat_log(ct)) / (4.0 * d * d)


def loewner_log(eigvals: np.ndarray) -> np.ndarray:
    """Divided differences of log at eigenvalue pairs, per row of a stack.

    L[i, j] = (log a_i - log a_j) / (a_i - a_j), with the limit 1/a_i on the
    diagonal and for near-degenerate pairs.
    """
    a = np.asarray(eigvals, dtype=np.float64)
    col, row = a[..., :, None], a[..., None, :]
    diff = col - row
    degenerate = np.abs(diff) < LOEWNER_DEGENERACY_RTOL * np.maximum(col, row)
    safe = np.where(degenerate, 1.0, diff)
    log_a = np.log(a)
    log_diff = log_a[..., :, None] - log_a[..., None, :]
    return np.where(degenerate, 1.0 / col, log_diff / safe)


def _log_frechet_adjoint(c: SpdMatrix, sym_grad: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. log(C) back to a gradient w.r.t. C.

    The Frechet derivative of the matrix log at C = U diag(a) U^T acts as
    H -> U (L o (U^T H U)) U^T with L the divided-difference (Loewner) matrix;
    it is self-adjoint on symmetric matrices.
    """
    lo = loewner_log(c.eigvals)
    vecs = c.eigvecs
    inner = vecs.swapaxes(-1, -2) @ sym_grad @ vecs
    out = vecs @ (lo * inner) @ vecs.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


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
