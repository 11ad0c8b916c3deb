"""Optimization loop for one method at one or several weights (lambda or gamma).

Each step runs an equal-size source and target mini-batch through the network
as one batch and applies one SGD-with-momentum update, in place, on the
method's loss; each epoch records full-set metrics: source cross-entropy,
target entropy, covariance distance, target accuracy, and a KL diagnostic.
Target labels are touched only inside the accuracy metric, never in any gradient.

The loop trains lanes in lockstep: copies of one model that share the seed
and the data order and differ only in the weight (lambda, or gamma for
entropy_reg).  Their parameters, velocities and gradients are stacked along a
leading axis, each kind in one flat buffer that backward and the momentum
step write in place.  A lambda sweep is one lane per grid value and a single
run is one lane; every lane gets the bits it gets alone, but for a weight-0
lane among nonzero ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .alignment import covariance, penalty_distance, penalty_value_and_grads
from .data import FLOAT_FORMAT, write_rows
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
    divergence: Divergence | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None


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
    """A lane's loss or metrics are not finite; the message is the cause."""


def _require_finite(cause: str, *per_lane: np.ndarray) -> None:
    if not all(np.isfinite(v).all() for v in per_lane):
        raise _NonFinite(cause)


# what ends a lane: a non-finite loss or metric, or a covariance path
# poisoned by overflowed activations
_LANE_FAILURES = (DegenerateMatrixError, NoConvergenceError, _NonFinite)


def _cause(exc: Exception) -> str:
    return str(exc) if isinstance(exc, _NonFinite) else type(exc).__name__


def _lane_grads(
    model: MlpModel,
    lambdas: np.ndarray,
    xs: np.ndarray,
    zs: np.ndarray,
    xt: np.ndarray,
    config: TrainConfig,
    out: ParamGrads | None = None,
) -> ParamGrads:
    """Each lane's parameter gradients on one mini-batch pair (into ``out``
    when given), its regularizer (the alignment penalty, or the target
    entropy for entropy_reg) weighted by its lambda; raises _NonFinite when a
    lane's loss is not finite.  With a regularizer the source and target
    batches run as one batch of 2b columns, source first, in one forward and
    one backward pass; without one (source_only, or every lambda 0) the
    source batch alone.
    """
    layer = config.alignment_layer_index
    lam = lambdas[:, None, None]
    b = xs.shape[1]
    fused = config.method != "source_only" and lambdas.any()
    trace = network.forward(model, np.concatenate([xs, xt], axis=1) if fused else xs, layer)
    probs_s, probs_t = trace.probs[..., :b, :], trace.probs[..., b:, :]
    total = network.cross_entropy(probs_s, zs)
    g_probs = network.grad_cross_entropy_wrt_probs(probs_s, zs)
    g_feat = None
    if fused and config.method == "entropy_reg":
        total = total + lambdas * network.entropy(probs_t)
        g_probs = np.concatenate([g_probs, lam * network.grad_entropy_wrt_probs(probs_t)], -2)
    elif fused:
        pen_val, ga_s, ga_t = penalty_value_and_grads(
            trace.feature_acts[..., :b],
            trace.feature_acts[..., b:],
            METHOD_PENALTY_KIND[config.method],
            config.jitter_rel,
            config.normalize_cov,
        )
        total = total + lambdas * pen_val
        g_probs = np.concatenate([g_probs, np.zeros_like(g_probs)], -2)
        g_feat = lam * np.concatenate([ga_s, ga_t], axis=-1)
    _require_finite(NON_FINITE_LOSS, total)
    return network.backward(model, trace, g_probs, g_feat, out)


class _Lanes:
    """The lanes of one lockstep run.

    The lanes still training keep their lambdas, parameters and momentum
    velocities stacked along axis 0, with ``ids`` giving each one's position
    in the grid; a lane that diverges is frozen into its result and dropped
    from the stacks.  Rows 0, 1 and 2 of ``flat`` hold the parameters,
    velocities and gradients, parameter by parameter: the model's weights
    and biases, ``vels`` and ``grads`` are contiguous views of it, and a
    momentum step is four ufunc calls.  ``retire`` lays out a fresh ``flat``.
    """

    def __init__(self, model: MlpModel, lambdas: np.ndarray):
        n = lambdas.size
        self.ids = np.arange(n)
        self.lambdas = lambdas
        self.model = MlpModel(list(model.layer_sizes), [], [], model.hidden_activation)
        stacks = [np.repeat(p[None], n, axis=0) for p in model.weights + model.biases]
        self._lay_out(stacks + [np.zeros_like(p) for p in stacks])
        self.metrics: list[list[EpochMetrics]] = [[] for _ in range(n)]
        self.results: list[TrainRunResult | None] = [None] * n

    def _lay_out(self, arrays: list[np.ndarray]) -> None:
        """Copy ``arrays``, the stacked parameters (weights first) and then
        their velocities, into rows 0 and 1 of a fresh ``flat``."""
        params = arrays[: len(arrays) // 2]
        ends = np.cumsum([a.size for a in params])
        self.flat = np.zeros((3, ends[-1]))
        self.flat[:2] = np.concatenate([a.reshape(-1) for a in arrays]).reshape(2, -1)
        p, v, g = ([row[e - a.size : e].reshape(a.shape) for a, e in zip(params, ends)]
                   for row in self.flat)
        k = len(p) // 2
        self.model.weights, self.model.biases, self.vels = p[:k], p[k:], v
        self.grads = ParamGrads(g[:k], g[k:])

    def _model_of(self, pos: int | slice) -> MlpModel:
        """A copy of lane ``pos``'s parameters; a slice keeps the lane axis."""
        return MlpModel(
            layer_sizes=list(self.model.layer_sizes),
            weights=[w[pos].copy() for w in self.model.weights],
            biases=[b[pos].copy() for b in self.model.biases],
            hidden_activation=self.model.hidden_activation,
        )

    def retire(self, causes: list[str | None], epoch: int, step: int | None) -> None:
        """Freeze each lane that has a cause with its current parameters."""
        keep = np.array([cause is None for cause in causes])
        for pos in np.flatnonzero(~keep):
            lane = self.ids[pos]
            divergence = Divergence(epoch, step, causes[pos])
            self.results[lane] = TrainRunResult(self._model_of(pos), self.metrics[lane], divergence)
        self.ids, self.lambdas = self.ids[keep], self.lambdas[keep]
        self._lay_out([a[keep] for a in self.model.weights + self.model.biases + self.vels])

    def _failure_alone(self, compute, pos: int) -> str | None:
        """The cause of lane ``pos`` failing when computed on its own, as a
        one-lane stack; None when it succeeds."""
        try:
            compute(self._model_of(slice(pos, pos + 1)), self.lambdas[pos : pos + 1], None)
        except _LANE_FAILURES as exc:
            return _cause(exc)
        return None

    def attempt(self, compute, epoch: int, step: int | None):
        """``compute(model, lambdas, grads)`` on the lanes still training.
        When it fails, each lane is computed alone, on a copy with ``grads``
        None: the lanes that fail are retired, each with its own cause, and
        the rest computed again.  When no lane fails alone, every lane ends
        with the failure of the stack.  None once no lane is left.
        """
        while self.ids.size:
            try:
                return compute(self.model, self.lambdas, self.grads)
            except _LANE_FAILURES as exc:
                causes = [self._failure_alone(compute, pos) for pos in range(self.ids.size)]
                if not any(causes):
                    causes = [_cause(exc)] * self.ids.size
                self.retire(causes, epoch, step)
        return None

    def momentum_step(self, lr: float, momentum: float) -> None:
        """v <- momentum v - lr g; p <- p + v, in place, with g the gradients
        last written into ``grads``, which it overwrites."""
        p, v, g = self.flat
        v *= momentum
        g *= lr
        v -= g
        p += v

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
    that lambda (a 0 among nonzero lambdas to the last digits).  Deterministic
    per seed.  ``eval_labels`` (target ground truth) feeds only the per-epoch
    accuracy metric; passing None records NaN accuracy and changes nothing
    else.  A lane whose loss or metrics turn non-finite, or whose covariance
    path fails, stops there: its result keeps the partial metrics, the
    parameters of that moment and the Divergence, while the other lanes go on.
    """
    config.validate()
    if eval_labels is not None and np.asarray(eval_labels).shape[0] != target.n:
        raise BadShapeError("eval_labels row count must match the target set")
    lambdas = np.array(lambdas, dtype=np.float64).reshape(-1)
    if lambdas.size == 0 or not np.all(np.isfinite(lambdas)) or np.any(lambdas < 0.0):
        raise ConfigInvalidError(f"lambdas must be finite and >= 0, got {lambdas.tolist()}")
    # the distance reported per epoch: the method's own penalty when it has
    # one, the geodesic distance as a diagnostic otherwise
    metric_kind = METHOD_PENALTY_KIND.get(config.method, "log_euclidean")

    lanes = _Lanes(model, lambdas)
    rng = np.random.default_rng(config.seed)
    for epoch in range(1, config.epochs + 1):
        perm_s = rng.permutation(source.n)
        perm_t = rng.permutation(target.n)
        order_t = perm_t[np.arange(source.n) % target.n]  # target batches cycle
        for step, start in enumerate(range(0, source.n, config.batch_size), start=1):
            idx_s = perm_s[start : start + config.batch_size]
            if idx_s.size < 2:
                continue  # covariance needs two samples
            idx_t = order_t[start : start + config.batch_size]
            xs, zs = source.inputs[:, idx_s], source.labels[idx_s]
            xt = target.inputs[:, idx_t]

            grads = lanes.attempt(
                lambda m, lam, out: _lane_grads(m, lam, xs, zs, xt, config, out), epoch, step
            )
            if grads is None:
                return lanes.results
            lanes.momentum_step(config.learning_rate, config.momentum)

        rows = lanes.attempt(
            lambda m, lam, _: _epoch_metrics(
                m, source, target, config, epoch, metric_kind, eval_labels
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
    rows = [
        (m.epoch, m.h_source, m.e_target, m.pen_value, m.target_accuracy, m.kl_st)
        for m in metrics
    ]
    write_rows(path, METRICS_HEADER, rows, ["%d"] + [FLOAT_FORMAT] * 5)
