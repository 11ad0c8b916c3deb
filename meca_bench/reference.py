"""Reference computations for meca's outputs, written apart from meca.

Each quantity comes with a first-order bound on the float64 rounding error
that any faithful evaluation of the same formula carries: dot products of
length n by the standard ``gamma(n) = n u / (1 - n u)`` bound, with u the unit
roundoff, and an eigendecomposition by a backward error of ``d^2 u ||C||``.
Two faithful implementations can differ by the sum of their bounds, so a
check compares meca's value with the reference within twice the bound.  No
tolerance here is fitted to any observed output.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

U = 2.0 ** -53
PROB_CLAMP = 1e-12       # meca clamps probabilities before every log
VAR_FLOOR = 1e-8         # and floors the KL diagnostic's variances
JITTER_FLOOR = 1e-12
MODEL_MAGIC = b"MECA"


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


@dataclass
class Model:
    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def read_model(path) -> Model:
    """Parse the documented ``model.bin`` layout: magic ``MECA``, version u32
    (1), layer count u32, layer sizes u32 each, then per layer the weights
    (out x in) and biases as little-endian float64, row-major."""
    blob = open(path, "rb").read()
    if blob[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1 or count < 2:
        raise ValueError(f"{path}: version {version}, {count} layer sizes")
    sizes = list(struct.unpack_from(f"<{count}I", blob, 12))
    offset = 12 + 4 * count
    expected = offset + 8 * sum(o * i + o for i, o in zip(sizes, sizes[1:]))
    if len(blob) != expected:
        raise ValueError(f"{path}: {len(blob)} bytes, layout needs {expected}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = np.frombuffer(blob, "<f8", fan_in * fan_out, offset).reshape(fan_out, fan_in)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(blob, "<f8", fan_out, offset)
        offset += 8 * fan_out
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    return Model(sizes, weights, biases)


@dataclass
class Forward:
    features: np.ndarray   # penultimate activations, (d, n)
    feat_err: np.ndarray   # elementwise rounding bound of ``features``
    probs: np.ndarray      # softmax output, (K, n)
    prob_err: np.ndarray   # elementwise rounding bound of ``probs``


def forward(model: Model, x: np.ndarray, activation: str) -> Forward:
    """Hidden layers relu or tanh (the record does not say which), softmax output."""
    if activation not in ("relu", "tanh"):
        raise ValueError(f"unknown activation {activation!r}")
    a, err = x, np.zeros_like(x)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = w @ a + b[:, None]
        z_err = np.abs(w) @ err + gamma(w.shape[1] + 1) * (
            np.abs(w) @ np.abs(a) + np.abs(b)[:, None]
        )
        if i == last:
            break
        if activation == "relu":
            a = np.maximum(z, 0.0)
            err = np.where(z < -z_err, 0.0, z_err)   # exactly 0 when surely negative
        else:
            a = np.tanh(z)
            err = z_err + 4.0 * U * np.abs(a)         # tanh is 1-Lipschitz, libm ~1 ulp
        features, feat_err = a, err
    k = z.shape[0]
    e = np.exp(z - z.max(axis=0, keepdims=True))
    probs = e / e.sum(axis=0, keepdims=True)
    # p_k = 1 / sum_j exp(z_j - z_k): each logit difference is off by at most
    # twice the column's largest logit error, plus exp, sum and division
    rel = 2.0 * z_err.max(axis=0, keepdims=True) + gamma(k + 4)
    return Forward(features, feat_err, probs, probs * rel)


def entropy(fw: Forward) -> tuple[float, float]:
    """Summed target entropy -sum p log max(p, clamp), and its bound."""
    p = fw.probs
    logp = np.log(np.maximum(p, PROB_CLAMP))
    terms = -p * logp
    err = np.sum(np.abs(1.0 + logp) * fw.prob_err) + gamma(p.size + 2) * np.sum(np.abs(terms))
    return float(np.sum(terms)), float(err)


def cross_entropy(fw: Forward, labels: np.ndarray) -> tuple[float, float]:
    """Summed source cross-entropy -sum log clip(p[label]), and its bound."""
    cols = np.arange(labels.size)
    picked = fw.probs[labels, cols]
    picked_err = fw.prob_err[labels, cols]
    clipped = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    logs = np.log(clipped)
    floor = np.maximum(clipped - picked_err, PROB_CLAMP)
    err = np.sum(picked_err / floor) + gamma(labels.size + 2) * np.sum(np.abs(logs))
    return float(-np.sum(logs)), float(err)


def accuracy(fw: Forward, labels: np.ndarray) -> tuple[float, float]:
    """Share of argmax hits; the bound counts rows whose top two
    probabilities are closer than their rounding bounds, as either could win."""
    p = fw.probs
    order = np.argsort(-p, axis=0, kind="stable")
    cols = np.arange(p.shape[1])
    top, second = order[0], order[1]
    margin = p[top, cols] - p[second, cols]
    ambiguous = np.sum(margin <= fw.prob_err[top, cols] + fw.prob_err[second, cols])
    return float(np.mean(top == labels)), float(ambiguous) / labels.size


@dataclass
class Covariance:
    mat: np.ndarray   # A J A^T + eps I
    err: np.ndarray   # elementwise rounding bound


def covariance(acts: np.ndarray, acts_err: np.ndarray, jitter_rel: float) -> Covariance:
    """Jittered covariance ``A J A^T + eps I`` with J the centering matrix and
    ``eps = max(jitter_rel * trace / d, 1e-12)``."""
    d, n = acts.shape
    mean = acts.mean(axis=1, keepdims=True)
    m = acts - mean
    m_err = (
        acts_err + acts_err.mean(axis=1, keepdims=True)
        + gamma(n + 1) * (np.abs(acts) + np.abs(acts).mean(axis=1, keepdims=True))
    )
    c = m @ m.T
    c_err = np.abs(m) @ m_err.T + m_err @ np.abs(m).T + gamma(n) * (np.abs(m) @ np.abs(m).T)
    trace = float(np.trace(c))
    eps = max(jitter_rel * trace / d, JITTER_FLOOR)
    eps_err = jitter_rel * (float(np.trace(c_err)) + gamma(d + 2) * trace) / d
    return Covariance(c + eps * np.eye(d), c_err + eps_err * np.eye(d))


def dist_euclidean(cs: Covariance, ct: Covariance) -> tuple[float, float]:
    """||Cs - Ct||_F^2 / (4 d^2), and its bound."""
    d = cs.mat.shape[0]
    diff = cs.mat - ct.mat
    value = float(np.sum(diff * diff)) / (4.0 * d * d)
    err = 2.0 * float(np.sum(np.abs(diff) * (cs.err + ct.err))) / (4.0 * d * d)
    return value, err + gamma(d * d + 2) * value


def _log_with_err(c: Covariance) -> tuple[np.ndarray, float]:
    """log C through np.linalg.eigh, with a Frobenius bound on its error.

    The Frechet derivative of log at C has norm 1 / lambda_min on symmetric
    perturbations, which come from the input bound and from the eigensolver's
    backward error; forming U diag(log a) U^T adds the last term.
    """
    vals, vecs = np.linalg.eigh(c.mat)
    d = vals.size
    log_vals = np.log(vals)
    out = (vecs * log_vals) @ vecs.T
    perturbation = np.linalg.norm(c.err) + d * d * U * vals[-1]
    err = perturbation / vals[0] + gamma(d + 2) * d * float(np.max(np.abs(log_vals)))
    return 0.5 * (out + out.T), err


def dist_log_euclidean(cs: Covariance, ct: Covariance) -> tuple[float, float]:
    """||log Cs - log Ct||_F^2 / (4 d^2) via eigh, and its bound."""
    d = cs.mat.shape[0]
    log_s, err_s = _log_with_err(cs)
    log_t, err_t = _log_with_err(ct)
    diff = log_s - log_t
    value = float(np.sum(diff * diff)) / (4.0 * d * d)
    err = 2.0 * float(np.linalg.norm(diff)) * (err_s + err_t) / (4.0 * d * d)
    return value, err + gamma(d * d + 2) * value


def kl_diagonal(fs: Forward, ft: Forward) -> tuple[float, float]:
    """KL between per-feature Gaussians of source and target features, with
    variances floored at 1e-8, and its bound."""
    def moments(acts, acts_err):
        n = acts.shape[1]
        mu = acts.mean(axis=1)
        mu_err = acts_err.mean(axis=1) + gamma(n) * np.abs(acts).mean(axis=1)
        dev = np.abs(acts - mu[:, None])
        var = acts.var(axis=1)
        var_err = 2.0 * np.mean(dev * (acts_err + mu_err[:, None]), axis=1) + gamma(n + 3) * var
        return mu, mu_err, np.maximum(var, VAR_FLOOR), var_err

    mu_s, emu_s, var_s, evar_s = moments(fs.features, fs.feat_err)
    mu_t, emu_t, var_t, evar_t = moments(ft.features, ft.feat_err)
    dm = mu_s - mu_t
    ratio = (var_s + dm * dm) / var_t
    terms = 0.5 * (np.log(var_t / var_s) + ratio - 1.0)
    term_err = (
        0.5 * np.abs(1.0 / var_t - 1.0 / var_s) * evar_s
        + 0.5 * np.abs(1.0 / var_t - ratio / var_t) * evar_t
        + np.abs(dm) / var_t * (emu_s + emu_t)
        + gamma(8) * (np.abs(np.log(var_t / var_s)) + ratio + 1.0)
    )
    err = float(np.sum(term_err)) + gamma(terms.size) * float(np.sum(np.abs(terms)))
    return float(np.sum(terms)), err


def last_row(model: Model, activation: str, xs, ys, xt, yt, penalty: str,
             jitter_rel: float) -> dict[str, tuple[float, float]]:
    """Every metrics-CSV column of the epoch that produced ``model``, each as
    (value, rounding bound); target_acc's bound is a share of rows."""
    fs = forward(model, xs, activation)
    ft = forward(model, xt, activation)
    cs = covariance(fs.features, fs.feat_err, jitter_rel)
    ct = covariance(ft.features, ft.feat_err, jitter_rel)
    dist = dist_euclidean if penalty == "euclidean" else dist_log_euclidean
    return {
        "h_source": cross_entropy(fs, ys),
        "e_target": entropy(ft),
        "pen_value": dist(cs, ct),
        "target_acc": accuracy(ft, yt),
        "kl_st": kl_diagonal(fs, ft),
    }
