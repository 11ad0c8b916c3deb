"""Feed-forward softmax classifier with hand-written forward/backward passes.

Activations flow column-wise (features x samples) so the feature layer can be
handed straight to the covariance operators; prediction probabilities are kept
row-wise (samples x classes).  A model may stack the parameters of several
lanes along a leading axis; every activation, probability and gradient then
gains that axis, and each lane computes exactly what it computes alone.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadShapeError, ParseError

PROB_CLAMP = 1e-12
HIDDEN_ACTIVATIONS = ("relu", "tanh")

MODEL_MAGIC = b"MECA"
MODEL_VERSION = 1


@dataclass
class MlpModel:
    """Layer weights/biases plus the hidden activation choice.

    ``weights[i]`` has shape (layer_sizes[i+1], layer_sizes[i]) and biases
    are 1-d; a lane stack prefixes both with the lane axis.  forward and
    backward never modify a model; the trainer's stacked copy holds views of
    one flat parameter buffer, which its momentum step updates in place.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            hidden_activation=self.hidden_activation,
        )


@dataclass
class ForwardTrace:
    """Everything backward needs from one forward pass."""

    acts: list[np.ndarray]       # acts[0] = inputs (no lane axis), acts[i] = hidden activation i
    probs: np.ndarray            # ([lanes,] n, K) row-stochastic
    feature_acts: np.ndarray     # ([lanes,] d, n) at the alignment layer
    alignment_layer: int


@dataclass
class LabeledBatch:
    """Inputs (d0 x n) with one-hot labels (n x K)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.inputs.ndim != 2 or self.labels.ndim != 2:
            raise BadShapeError("inputs and labels must be 2-d")
        if self.inputs.shape[1] != self.labels.shape[0]:
            raise BadShapeError(
                f"{self.inputs.shape[1]} input columns vs {self.labels.shape[0]} label rows"
            )
        if not np.all(np.isfinite(self.inputs)):
            raise BadShapeError("non-finite inputs")
        one_hot = np.all((self.labels == 0.0) | (self.labels == 1.0)) and np.all(
            self.labels.sum(axis=1) == 1.0
        )
        if not one_hot:
            raise BadShapeError("labels must be one-hot rows")

    @property
    def n(self) -> int:
        return self.inputs.shape[1]


@dataclass
class UnlabeledBatch:
    """Inputs (d0 x n) without labels."""

    inputs: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise BadShapeError("inputs must be 2-d")
        if not np.all(np.isfinite(self.inputs)):
            raise BadShapeError("non-finite inputs")

    @property
    def n(self) -> int:
        return self.inputs.shape[1]


@dataclass
class ParamGrads:
    """Gradients matching MlpModel parameter shapes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add_(self, other: "ParamGrads") -> "ParamGrads":
        for gw, ow in zip(self.weights, other.weights):
            gw += ow
        for gb, ob in zip(self.biases, other.biases):
            gb += ob
        return self


def init_model(layer_sizes: list[int], seed: int, hidden_activation: str = "relu") -> MlpModel:
    """Glorot-uniform weights, zero biases; bit-reproducible per seed."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise BadShapeError(f"need at least two positive layer sizes, got {layer_sizes}")
    if hidden_activation not in HIDDEN_ACTIVATIONS:
        raise BadShapeError(f"unknown hidden activation {hidden_activation!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(list(layer_sizes), weights, biases, hidden_activation)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output ``a``."""
    if kind == "relu":
        return a > 0.0
    return 1.0 - a * a


def _softmax_columns(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-2, keepdims=True)


def forward(
    model: MlpModel, inputs: np.ndarray, alignment_layer_index: int | None = None
) -> ForwardTrace:
    """Run the network on a batch of columns; capture the alignment layer.

    ``alignment_layer_index`` indexes the activation list (0 = inputs,
    i = hidden layer i); defaults to the penultimate (feature) layer.  The
    inputs are (d, n), shared by every lane of a stacked model.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != model.layer_sizes[0]:
        raise BadShapeError(
            f"inputs shape {inputs.shape} incompatible with input width {model.layer_sizes[0]}"
        )
    n_layers = model.n_layers
    if alignment_layer_index is None:
        alignment_layer_index = n_layers - 1
    if not 0 <= alignment_layer_index <= n_layers - 1:
        raise BadShapeError(
            f"alignment layer {alignment_layer_index} out of range for {n_layers} layers"
        )

    acts = [inputs]
    a = inputs
    for i in range(n_layers):
        z = model.weights[i] @ a + model.biases[i][..., None]
        if i < n_layers - 1:
            a = _activate(z, model.hidden_activation)
            acts.append(a)
    probs = _softmax_columns(z).swapaxes(-1, -2)
    feature_acts = acts[alignment_layer_index]
    if alignment_layer_index == 0:  # the shared inputs, seen by every lane
        feature_acts = np.broadcast_to(inputs, probs.shape[:-2] + inputs.shape)
    return ForwardTrace(
        acts=acts,
        probs=probs,
        feature_acts=feature_acts,
        alignment_layer=alignment_layer_index,
    )


def _check_probs(probs: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim not in (2, 3):
        raise BadShapeError("probs must be (samples x classes), optionally per lane")
    if labels is not None and labels.shape != probs.shape[-2:]:
        raise BadShapeError(f"labels shape {labels.shape} != probs shape {probs.shape}")
    return probs


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Summed cross-entropy -sum_i log p[i, class(i)], clamped before the log;
    one value per lane for stacked probabilities."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = _check_probs(probs, labels)
    picked = (probs * labels).sum(axis=-1)
    return -np.log(np.minimum(np.maximum(picked, PROB_CLAMP), 1.0 - PROB_CLAMP)).sum(axis=-1)


def entropy(probs: np.ndarray) -> float | np.ndarray:
    """Summed Shannon entropy of the prediction rows, with 0 log 0 := 0.

    Exactly zero on one-hot rows: zero entries contribute 0 times a finite
    log, and log(1) is 0.  One value per lane for stacked probabilities.
    """
    probs = _check_probs(probs)
    terms = probs * np.log(np.maximum(probs, PROB_CLAMP))
    return -terms.sum(axis=(-2, -1)) + 0.0


def grad_cross_entropy_wrt_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Entrywise -label/p, to be paired with the softmax Jacobian in backward."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = _check_probs(probs, labels)
    return -labels / np.minimum(np.maximum(probs, PROB_CLAMP), 1.0 - PROB_CLAMP)


def grad_entropy_wrt_probs(probs: np.ndarray) -> np.ndarray:
    """Entrywise -(1 + log p); finite everywhere under the probability clamp."""
    probs = _check_probs(probs)
    return -(1.0 + np.log(np.maximum(probs, PROB_CLAMP)))


def zero_grads(model: MlpModel) -> ParamGrads:
    return ParamGrads(
        weights=[np.zeros(w.shape) for w in model.weights],
        biases=[np.zeros(b.shape) for b in model.biases],
    )


def backward(
    model: MlpModel,
    trace: ForwardTrace,
    loss_grads_at_probs: np.ndarray | None,
    loss_grads_at_feature_acts: np.ndarray | None,
    out: ParamGrads | None = None,
) -> ParamGrads:
    """Backpropagate gradients injected at the probabilities and/or the
    alignment-layer activations; contributions accumulate additively through
    shared layers.  Either injection may be None (treated as zero); with no
    gradient at the probabilities, backpropagation starts at the alignment
    layer and the layers above it get zero gradients.  When given, ``out``
    (C-contiguous, the parameters' shapes) takes every entry of the result.
    """
    a = trace.alignment_layer
    g_feat = None
    if loss_grads_at_feature_acts is not None:
        g_feat = np.asarray(loss_grads_at_feature_acts, dtype=np.float64)
        if g_feat.shape != trace.feature_acts.shape:
            raise BadShapeError(
                f"feature-gradient shape {g_feat.shape} != "
                f"feature shape {trace.feature_acts.shape}"
            )

    if loss_grads_at_probs is not None:
        g = np.asarray(loss_grads_at_probs, dtype=np.float64)
        if g.shape != trace.probs.shape:
            raise BadShapeError(
                f"probs-gradient shape {g.shape} != probs shape {trace.probs.shape}"
            )
        p = trace.probs
        # softmax Jacobian, row-wise: dz_k = p_k (g_k - sum_j p_j g_j)
        delta = (p * (g - (p * g).sum(axis=-1, keepdims=True))).swapaxes(-1, -2)
        top = model.n_layers - 1
    elif g_feat is not None and a > 0:
        delta = g_feat * _activate_grad(trace.acts[a], model.hidden_activation)
        top = a - 1
    else:
        top = -1  # nothing to backpropagate

    out = zero_grads(model) if out is None else out
    for g in out.weights[top + 1 :] + out.biases[top + 1 :]:
        g.fill(0.0)  # a reused buffer holds the last step's gradients
    for i in range(top, -1, -1):
        np.matmul(delta, trace.acts[i].swapaxes(-1, -2), out=out.weights[i])
        delta.sum(axis=-1, out=out.biases[i])
        if i == 0:
            break
        g_act = model.weights[i].swapaxes(-1, -2) @ delta
        if g_feat is not None and a == i:
            g_act = g_act + g_feat
        delta = g_act * _activate_grad(trace.acts[i], model.hidden_activation)
    return out


def save_model(model: MlpModel, path) -> None:
    """Flat binary record: magic, version u32, layer count u32, layer sizes
    u32 each, then per-layer weights and biases as little-endian f64 row-major.
    """
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<I", len(model.layer_sizes)))
        for s in model.layer_sizes:
            fh.write(struct.pack("<I", s))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path, hidden_activation: str = "relu") -> MlpModel:
    """Read the binary record written by save_model.

    The record does not carry the activation choice; pass it explicitly when
    it differs from the relu default.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise ParseError(f"bad model magic {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != MODEL_VERSION:
        raise ParseError(f"unsupported model version {version}")
    (n_sizes,) = struct.unpack_from("<I", blob, 8)
    if n_sizes < 2:
        raise ParseError(f"model record declares {n_sizes} layer sizes")
    offset = 12
    sizes = list(struct.unpack_from(f"<{n_sizes}I", blob, offset))
    offset += 4 * n_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        n_w = fan_in * fan_out
        end = offset + 8 * (n_w + fan_out)
        if end > len(blob):
            raise ParseError("model record truncated")
        w = np.frombuffer(blob, dtype="<f8", count=n_w, offset=offset).reshape(
            fan_out, fan_in
        )
        offset += 8 * n_w
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    return MlpModel(sizes, weights, biases, hidden_activation)
