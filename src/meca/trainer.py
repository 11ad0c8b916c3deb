"""Optimization loop for one method at one or several weights (lambda or gamma).

Each step pairs an equal-size source and target mini-batch, applies one
SGD-with-momentum update on the method's loss, and each epoch records
full-set metrics: source cross-entropy, target entropy, covariance distance,
target accuracy, and a KL diagnostic.  Target labels are touched only inside
the accuracy metric, never in any gradient.

The loop trains lanes in lockstep: copies of one model that share the seed
and the data order and differ only in the weight (lambda, or gamma for
entropy_reg), with their parameters stacked along a leading axis.  A lambda
sweep is one lane per grid value and a single run is one lane; every lane
gets the bits it gets alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import network
from .alignment import AlignmentPenalty, covariance, penalty_distance, penalty_value_and_grads
from .data import format_float
from .errors import (
    BadShapeError,
    ConfigInvalidError,
    DegenerateMatrixError,
    MecaError,
    NoConvergenceError,
    TooFewSamplesError,
)
from .network import LabeledBatch, MlpModel, ParamGrads, UnlabeledBatch

METHODS = ("source_only", "entropy_reg", "coral_euclidean", "meca_geodesic")
METHOD_PENALTY_KIND = {
    "source_only": "none",
    "entropy_reg": "none",
    "coral_euclidean": "euclidean",
    "meca_geodesic": "log_euclidean",
}
METRICS_HEADER = "epoch,h_source,e_target,pen_value,target_acc,kl_st"
VAR_FLOOR = 1e-8


@dataclass
class TrainConfig:
    method: str = "meca_geodesic"
    lambda_or_gamma: float = 0.1
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    alignment_layer_index: int | None = None  # None = penultimate layer
    jitter_rel: float = 1e-5
    normalize_cov: bool = False

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigInvalidError(f"unknown method {self.method!r}")
        if self.epochs < 1:
            raise ConfigInvalidError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigInvalidError(f"batch_size must be >= 2, got {self.batch_size}")
        if not self.learning_rate > 0.0:
            raise ConfigInvalidError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigInvalidError(f"momentum must be in [0, 1), got {self.momentum}")
        if not np.isfinite(self.lambda_or_gamma) or self.lambda_or_gamma < 0.0:
            raise ConfigInvalidError(
                f"lambda/gamma must be finite and >= 0, got {self.lambda_or_gamma}"
            )


@dataclass
class EpochMetrics:
    epoch: int
    h_source: float
    e_target: float
    pen_value: float
    target_accuracy: float
    kl_st: float


NON_FINITE_LOSS = "non-finite loss"
NON_FINITE_METRICS = "non-finite metrics"


@dataclass(frozen=True)
class Divergence:
    """Where and why a run stopped early.

    ``epoch`` and ``step`` count from 1 (``step`` is the mini-batch within the
    epoch, None when the epoch's metrics rather than a step failed); ``cause``
    is the exception type or NON_FINITE_LOSS / NON_FINITE_METRICS.
    """

    epoch: int
    step: int | None
    cause: str


@dataclass
class TrainRunResult:
    model: MlpModel
    metrics: list[EpochMetrics] = field(default_factory=list)
    diverged: bool = False
    divergence: Divergence | None = None


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    # np.argmax breaks ties toward the lowest class index
    return np.mean(np.argmax(probs, axis=-1) == np.argmax(labels, axis=1), axis=-1)


def evaluate(model: MlpModel, batch: LabeledBatch) -> tuple[float, float, float]:
    """(accuracy, entropy, cross_entropy) of the model on a labeled set."""
    if batch.n == 0:
        raise BadShapeError("cannot evaluate on an empty dataset")
    trace = network.forward(model, batch.inputs)
    return (
        _accuracy(trace.probs, batch.labels),
        network.entropy(trace.probs),
        network.cross_entropy(trace.probs, batch.labels),
    )


def kl_diagnostic(feature_acts_s: np.ndarray, feature_acts_t: np.ndarray) -> float | np.ndarray:
    """KL divergence between diagonal Gaussians fitted per feature.

    Reported as an alignment diagnostic only, never optimized.  Variances are
    floored at 1e-8; asymmetric in its arguments, as KL is.  One value per
    lane for stacked feature sets.
    """
    fs = np.asarray(feature_acts_s, dtype=np.float64)
    ft = np.asarray(feature_acts_t, dtype=np.float64)
    if fs.ndim not in (2, 3) or ft.ndim not in (2, 3) or fs.shape[-2] != ft.shape[-2]:
        raise BadShapeError("feature sets must be (features x samples) with equal feature counts")
    if fs.shape[-1] < 2 or ft.shape[-1] < 2:
        raise TooFewSamplesError("KL diagnostic needs >= 2 samples per domain")
    mu_s, mu_t = fs.mean(axis=-1), ft.mean(axis=-1)
    var_s = np.maximum(fs.var(axis=-1), VAR_FLOOR)
    var_t = np.maximum(ft.var(axis=-1), VAR_FLOOR)
    terms = 0.5 * (np.log(var_t / var_s) + (var_s + (mu_s - mu_t) ** 2) / var_t - 1.0)
    return terms.sum(axis=-1)


def _epoch_metrics(
    model: MlpModel,
    source: LabeledBatch,
    target: UnlabeledBatch,
    config: TrainConfig,
    epoch: int,
    metric_kind: str,
    eval_labels: np.ndarray | None,
) -> list[EpochMetrics]:
    """Full-set metrics of each lane of a stacked model."""
    trace_s = network.forward(model, source.inputs, config.alignment_layer_index)
    trace_t = network.forward(model, target.inputs, config.alignment_layer_index)
    cs = covariance(trace_s.feature_acts, config.jitter_rel, config.normalize_cov)
    ct = covariance(trace_t.feature_acts, config.jitter_rel, config.normalize_cov)
    h = network.cross_entropy(trace_s.probs, source.labels)
    e = network.entropy(trace_t.probs)
    pen = penalty_distance(cs, ct, metric_kind)
    kl = kl_diagnostic(trace_s.feature_acts, trace_t.feature_acts)
    _require_finite(NON_FINITE_METRICS, h, e, pen, kl)
    if eval_labels is None:
        acc = np.full(len(h), np.nan)
    else:
        acc = _accuracy(trace_t.probs, eval_labels)
    return [EpochMetrics(epoch, *map(float, row)) for row in zip(h, e, pen, acc, kl)]


class _NonFinite(MecaError):
    """Some lanes' loss or metrics are not finite; the message is the cause."""


def _require_finite(cause: str, *per_lane: np.ndarray) -> None:
    """Raise _NonFinite naming each lane with a non-finite value."""
    bad = ~np.isfinite(np.stack(per_lane)).all(axis=0)
    if bad.any():
        raise _NonFinite(cause, lanes=tuple(int(i) for i in np.flatnonzero(bad)))


def _lane_grads(
    lanes: _Lanes, xs: np.ndarray, zs: np.ndarray, xt: np.ndarray, config: TrainConfig
) -> ParamGrads:
    """Each lane's parameter gradients on one mini-batch pair; raises
    _NonFinite for the lanes whose loss is not finite."""
    model, lam = lanes.model, lanes.lambdas
    layer = config.alignment_layer_index
    trace_s = network.forward(model, xs, layer)
    total = network.cross_entropy(trace_s.probs, zs)
    g_probs_s = network.grad_cross_entropy_wrt_probs(trace_s.probs, zs)
    if config.method == "source_only":
        grads = network.backward(model, trace_s, g_probs_s, None)
    elif config.method == "entropy_reg":
        trace_t = network.forward(model, xt, layer)
        total = total + lam * network.entropy(trace_t.probs)
        g_probs_t = lam[:, None, None] * network.grad_entropy_wrt_probs(trace_t.probs)
        grads = network.backward(model, trace_s, g_probs_s, None)
        grads.add_(network.backward(model, trace_t, g_probs_t, None))
    else:
        trace_t = network.forward(model, xt, layer)
        pen_val, ga_s, ga_t = penalty_value_and_grads(
            trace_s.feature_acts, trace_t.feature_acts, lanes.penalty
        )
        total = total + pen_val
        grads = network.backward(model, trace_s, g_probs_s, ga_s)
        grads.add_(network.backward(model, trace_t, None, ga_t))
    _require_finite(NON_FINITE_LOSS, total)
    return grads


class _Lanes:
    """The lanes of one lockstep run.

    The lanes still training keep their lambdas (also as the alignment
    penalty's weights), parameters and momentum velocities stacked along axis
    0, with ``ids`` giving each one's position in the grid; a lane that
    diverges is frozen into its result and dropped from the stacks.
    """

    def __init__(self, model: MlpModel, lambdas: np.ndarray, config: TrainConfig):
        n = lambdas.size
        self.ids = np.arange(n)
        self.lambdas = lambdas
        self.penalty = AlignmentPenalty(
            kind=METHOD_PENALTY_KIND[config.method],
            lam=lambdas,
            jitter_rel=config.jitter_rel,
            normalize_cov=config.normalize_cov,
        )
        self.model = MlpModel(
            layer_sizes=list(model.layer_sizes),
            weights=[np.repeat(w[None], n, axis=0) for w in model.weights],
            biases=[np.repeat(b[None], n, axis=0) for b in model.biases],
            hidden_activation=model.hidden_activation,
        )
        self.vel_w = [np.zeros_like(w) for w in self.model.weights]
        self.vel_b = [np.zeros_like(b) for b in self.model.biases]
        self.metrics: list[list[EpochMetrics]] = [[] for _ in range(n)]
        self.results: list[TrainRunResult | None] = [None] * n

    def _model_of(self, pos: int) -> MlpModel:
        return MlpModel(
            layer_sizes=list(self.model.layer_sizes),
            weights=[w[pos].copy() for w in self.model.weights],
            biases=[b[pos].copy() for b in self.model.biases],
            hidden_activation=self.model.hidden_activation,
        )

    def retire(self, failed: np.ndarray, divergence: Divergence) -> None:
        """Freeze the lanes flagged in ``failed`` with their current parameters."""
        for pos in np.flatnonzero(failed):
            lane = self.ids[pos]
            self.results[lane] = TrainRunResult(
                self._model_of(pos), self.metrics[lane], True, divergence
            )
        keep = ~failed
        self.ids, self.lambdas = self.ids[keep], self.lambdas[keep]
        self.penalty = replace(self.penalty, lam=self.lambdas)
        self.model.weights = [w[keep] for w in self.model.weights]
        self.model.biases = [b[keep] for b in self.model.biases]
        self.vel_w = [v[keep] for v in self.vel_w]
        self.vel_b = [v[keep] for v in self.vel_b]

    def attempt(self, compute, epoch: int, step: int | None):
        """``compute()`` on the lanes still training.  When it fails for some
        lanes (a non-finite loss or metric, or a covariance path poisoned by
        overflowed activations), those lanes are retired and the rest
        computed again; None once no lane is left.
        """
        while self.ids.size:
            try:
                return compute()
            except (DegenerateMatrixError, NoConvergenceError, _NonFinite) as exc:
                cause = str(exc) if isinstance(exc, _NonFinite) else type(exc).__name__
                failed = np.zeros(self.ids.size, dtype=bool)
                failed[slice(None) if exc.lanes is None else list(exc.lanes)] = True
                self.retire(failed, Divergence(epoch, step, cause))
        return None

    def momentum_step(self, grads: ParamGrads, lr: float, momentum: float) -> None:
        model = self.model
        for i in range(model.n_layers):
            self.vel_w[i] = momentum * self.vel_w[i] - lr * grads.weights[i]
            self.vel_b[i] = momentum * self.vel_b[i] - lr * grads.biases[i]
            model.weights[i] = model.weights[i] + self.vel_w[i]
            model.biases[i] = model.biases[i] + self.vel_b[i]

    def finish(self) -> list[TrainRunResult]:
        for pos, lane in enumerate(self.ids):
            self.results[lane] = TrainRunResult(self._model_of(pos), self.metrics[lane])
        return self.results


def train_lanes(
    model: MlpModel,
    source: LabeledBatch,
    target: UnlabeledBatch,
    config: TrainConfig,
    lambdas,
    eval_labels: np.ndarray | None = None,
) -> list[TrainRunResult]:
    """Train one copy of ``model`` per lambda, all in lockstep, for
    ``config.epochs`` epochs; ``lambdas`` (the gammas for entropy_reg)
    replaces ``config.lambda_or_gamma``.

    Returns one result per lambda, each byte-identical to ``train_run`` at
    that lambda.  Deterministic per seed.  ``eval_labels`` (target ground
    truth) feeds only the per-epoch accuracy metric; passing None records NaN
    accuracy and changes nothing else.  A lane whose loss or metrics turn
    non-finite, or whose covariance path fails, stops there: its result keeps
    the partial metrics, the parameters of that moment and the Divergence,
    while the other lanes go on.
    """
    config.validate()
    if eval_labels is not None and np.asarray(eval_labels).shape[0] != target.n:
        raise BadShapeError("eval_labels row count must match the target set")
    lambdas = np.array(lambdas, dtype=np.float64).reshape(-1)
    if lambdas.size == 0 or not np.all(np.isfinite(lambdas)) or np.any(lambdas < 0.0):
        raise ConfigInvalidError(f"lambdas must be finite and >= 0, got {lambdas.tolist()}")
    has_alignment = config.method in ("coral_euclidean", "meca_geodesic")
    # the distance reported per epoch: the method's own penalty when it has
    # one, the geodesic distance as a diagnostic otherwise
    metric_kind = METHOD_PENALTY_KIND[config.method] if has_alignment else "log_euclidean"

    lanes = _Lanes(model, lambdas, config)
    rng = np.random.default_rng(config.seed)
    for epoch in range(1, config.epochs + 1):
        perm_s = rng.permutation(source.n)
        perm_t = rng.permutation(target.n)
        for step, start in enumerate(range(0, source.n, config.batch_size), start=1):
            idx_s = perm_s[start : start + config.batch_size]
            if idx_s.size < 2:
                continue  # covariance needs two samples
            idx_t = perm_t[(start + np.arange(idx_s.size)) % target.n]
            xs, zs = source.inputs[:, idx_s], source.labels[idx_s]
            xt = target.inputs[:, idx_t]

            grads = lanes.attempt(
                lambda: _lane_grads(lanes, xs, zs, xt, config),
                epoch,
                step,
            )
            if grads is None:
                return lanes.results
            lanes.momentum_step(grads, config.learning_rate, config.momentum)

        rows = lanes.attempt(
            lambda: _epoch_metrics(
                lanes.model, source, target, config, epoch, metric_kind, eval_labels
            ),
            epoch,
            None,
        )
        if rows is None:
            return lanes.results
        for lane, m in zip(lanes.ids, rows):
            lanes.metrics[lane].append(m)
    return lanes.finish()


def train_run(
    model: MlpModel,
    source: LabeledBatch,
    target: UnlabeledBatch,
    config: TrainConfig,
    eval_labels: np.ndarray | None = None,
) -> TrainRunResult:
    """Train a copy of ``model`` for ``config.epochs`` epochs: the one-lane
    case of ``train_lanes`` at ``config.lambda_or_gamma``.

    On a non-finite loss or metric, or a failed covariance, the run stops and
    returns the partial metrics with ``diverged`` set and the Divergence.
    """
    return train_lanes(model, source, target, config, [config.lambda_or_gamma], eval_labels)[0]


def write_metrics_csv(metrics: list[EpochMetrics], path) -> None:
    """One row per epoch, floats with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for m in metrics:
            fields = (m.h_source, m.e_target, m.pen_value, m.target_accuracy, m.kl_st)
            fh.write(",".join([str(m.epoch)] + [format_float(v) for v in fields]) + "\n")
