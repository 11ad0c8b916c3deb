"""Executable verification suites: gradient checks against central finite
differences, metric axioms of the geodesic distance, the aligned-domain
entropy construction, and the constant-predictor counterexample.

These back the ``verify`` CLI command and the release test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import network, spd
from .alignment import penalty_value_and_grads, raw_covariance
from .data import gen_blobs
from .network import MlpModel, ParamGrads
from .trainer import TrainConfig, kl_diagnostic, train_run

FD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_FLOOR = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# finite-difference machinery


def finite_difference_model_grads(
    loss_fn: Callable[[MlpModel], float], model: MlpModel, step: float = FD_STEP
) -> ParamGrads:
    """Central finite differences of a scalar loss over every parameter."""
    work = model.copy()
    grads = network.zero_grads(model)
    for arrays, outs in ((work.weights, grads.weights), (work.biases, grads.biases)):
        for arr, out in zip(arrays, outs):
            flat = arr.reshape(-1)
            gflat = out.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = loss_fn(work)
                flat[i] = orig - step
                f_minus = loss_fn(work)
                flat[i] = orig
                gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grads


def max_relative_grad_error(
    analytic: ParamGrads, numeric: ParamGrads, floor: float = GRAD_FLOOR
) -> float:
    """Largest |ga - gf| / max(|ga|, |gf|) over coordinates with |ga| > floor."""
    worst = 0.0
    for ga_arrays, gf_arrays in (
        (analytic.weights, numeric.weights),
        (analytic.biases, numeric.biases),
    ):
        for ga, gf in zip(ga_arrays, gf_arrays):
            mask = np.abs(ga) > floor
            if not np.any(mask):
                continue
            denom = np.maximum(np.abs(ga[mask]), np.abs(gf[mask]))
            worst = max(worst, float(np.max(np.abs(ga[mask] - gf[mask]) / denom)))
    return worst


def gradient_check_losses(
    xs: np.ndarray,
    zs: np.ndarray,
    xt: np.ndarray,
    lam: float = 0.7,
    jitter_rel: float = 1e-5,
):
    """The four loss/gradient pairs exercised by the gradient suite.

    Each entry is (name, loss_fn(model) -> float, grads_fn(model) -> ParamGrads);
    the loss functions recompute everything from scratch so finite differences
    stay independent of the analytic path.
    """

    def ce_loss(m):
        return network.cross_entropy(network.forward(m, xs).probs, zs)

    def ce_grads(m):
        tr = network.forward(m, xs)
        return network.backward(
            m, tr, network.grad_cross_entropy_wrt_probs(tr.probs, zs), None
        )

    def ent_loss(m):
        return network.entropy(network.forward(m, xt).probs)

    def ent_grads(m):
        tr = network.forward(m, xt)
        return network.backward(m, tr, network.grad_entropy_wrt_probs(tr.probs), None)

    def make_pen(kind):
        def loss(m):
            tr_s = network.forward(m, xs)
            tr_t = network.forward(m, xt)
            value, _, _ = penalty_value_and_grads(
                tr_s.feature_acts, tr_t.feature_acts, kind, jitter_rel
            )
            return lam * value

        def grads(m):
            tr_s = network.forward(m, xs)
            tr_t = network.forward(m, xt)
            _, ga_s, ga_t = penalty_value_and_grads(
                tr_s.feature_acts, tr_t.feature_acts, kind, jitter_rel
            )
            out = network.backward(m, tr_s, None, lam * ga_s)
            out.add_(network.backward(m, tr_t, None, lam * ga_t))
            return out

        return loss, grads

    euc_loss, euc_grads = make_pen("euclidean")
    log_loss, log_grads = make_pen("log_euclidean")
    return [
        ("cross_entropy", ce_loss, ce_grads),
        ("entropy", ent_loss, ent_grads),
        ("euclidean_penalty", euc_loss, euc_grads),
        ("log_euclidean_penalty", log_loss, log_grads),
    ]


def check_gradients(
    n_seeds: int = 5,
    sizes: tuple[int, ...] = (3, 5, 4, 3),
    batch: int = 6,
) -> CheckResult:
    """End-to-end analytic gradients vs central finite differences."""
    worst = 0.0
    worst_label = ""
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        model = network.init_model(list(sizes), seed=seed, hidden_activation="tanh")
        xs = rng.standard_normal((sizes[0], batch))
        xt = rng.standard_normal((sizes[0], batch))
        classes = rng.integers(0, sizes[-1], size=batch)
        zs = np.zeros((batch, sizes[-1]))
        zs[np.arange(batch), classes] = 1.0
        for name, loss_fn, grads_fn in gradient_check_losses(xs, zs, xt):
            analytic = grads_fn(model)
            numeric = finite_difference_model_grads(loss_fn, model)
            err = max_relative_grad_error(analytic, numeric)
            if err > worst:
                worst, worst_label = err, f"{name} (seed {seed})"
    passed = worst < GRAD_RTOL
    return CheckResult(
        "gradients",
        passed,
        f"max relative error {worst:.3e} at {worst_label or 'n/a'} (tolerance {GRAD_RTOL:g})",
    )


# ---------------------------------------------------------------------------
# metric axioms


def random_spd(rng: np.random.Generator, dim: int) -> spd.SpdMatrix:
    """Random SPD matrix built independently of the package eigensolver."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = rng.uniform(0.5, 3.0, size=dim)
    return spd.spd_from_symmetric((q * vals) @ q.T)


def check_metric_axioms(
    n_pairs: int = 100, dims: tuple[int, ...] = (2, 4, 8), seed: int = 0
) -> CheckResult:
    """Non-negativity, symmetry, identity of indiscernibles, scale invariance,
    orthogonal-congruence invariance, and inversion invariance of the
    log-Euclidean distance on random SPD pairs.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n_pairs):
        d = dims[i % len(dims)]
        a = random_spd(rng, d)
        b = random_spd(rng, d)
        dist = spd.dist_log_euclidean(a, b)
        if not dist >= 0.0:
            failures.append(f"pair {i}: negative distance {dist}")
        if abs(dist - spd.dist_log_euclidean(b, a)) > 1e-10 * max(dist, 1.0):
            failures.append(f"pair {i}: asymmetric")
        if spd.dist_log_euclidean(a, a) > 1e-18:
            failures.append(f"pair {i}: self-distance not zero")
        if dist <= 1e-12:
            failures.append(f"pair {i}: distinct matrices at zero distance")
        for s in (0.1, 10.0):
            scaled = spd.dist_log_euclidean(
                spd.spd_from_symmetric(s * a.mat), spd.spd_from_symmetric(s * b.mat)
            )
            if abs(scaled - dist) > 1e-9 * max(dist, 1e-30):
                failures.append(f"pair {i}: scale invariance broken at s={s}")
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = spd.dist_log_euclidean(
            spd.spd_from_symmetric(q @ a.mat @ q.T),
            spd.spd_from_symmetric(q @ b.mat @ q.T),
        )
        if abs(rotated - dist) > 1e-8 * max(dist, 1e-30):
            failures.append(f"pair {i}: congruence invariance broken")
        inverted = spd.dist_log_euclidean(
            spd.spd_from_symmetric((a.eigvecs / a.eigvals) @ a.eigvecs.T),
            spd.spd_from_symmetric((b.eigvecs / b.eigvals) @ b.eigvecs.T),
        )
        if abs(inverted - dist) > 1e-8 * max(dist, 1e-30):
            failures.append(f"pair {i}: inversion invariance broken")
        if failures:
            break
    passed = not failures
    detail = failures[0] if failures else f"{n_pairs} pairs over dims {dims}"
    return CheckResult("metric_axioms", passed, detail)


# ---------------------------------------------------------------------------
# entropy/alignment constructions


def check_aligned_domain_entropy(seed: int = 0) -> CheckResult:
    """With the target an exact copy of the source, geodesic alignment trained
    to near-zero source cross-entropy must leave the target entropy near its
    minimum and the covariance distance at zero.
    """
    ds = gen_blobs(k_classes=3, per_class=60, dim=4, seed=seed)
    source = ds.as_labeled_batch()
    target = ds.as_unlabeled_batch()
    n, k = ds.n, 3
    model = network.init_model([4, 16, 8, 3], seed=seed, hidden_activation="relu")
    config = TrainConfig(
        method="meca_geodesic",
        lambda_or_gamma=1.0,
        epochs=150,
        batch_size=60,
        learning_rate=0.002,
        momentum=0.9,
        seed=seed,
    )
    result = train_run(model, source, target, config)
    if result.diverged:
        return CheckResult("aligned_entropy", False, "training diverged")
    last = result.metrics[-1]
    if not last.h_source < 0.01 * n:
        return CheckResult(
            "aligned_entropy",
            False,
            f"source cross-entropy {last.h_source:.4f} did not reach {0.01 * n:.4f}",
        )
    entropy_bound = 0.05 * n * np.log(k)
    ok = last.e_target < entropy_bound and last.pen_value < 1e-3
    detail = (
        f"h_source {last.h_source:.4f} < {0.01 * n:.2f}, "
        f"e_target {last.e_target:.4f} (bound {entropy_bound:.2f}), "
        f"pen {last.pen_value:.2e} (bound 1e-3)"
    )
    return CheckResult("aligned_entropy", ok, detail)


def check_constant_predictor(seed: int = 0) -> CheckResult:
    """A predictor that always emits the same one-hot class has exactly zero
    target entropy while both domain-alignment diagnostics are untouched:
    minimal entropy does not imply alignment.
    """
    source = gen_blobs(k_classes=4, per_class=40, dim=6, seed=seed)
    target = gen_blobs(k_classes=4, per_class=40, dim=6, seed=seed + 1)
    target.inputs = target.inputs * 1.7 + 1.5  # guarantee a real mismatch

    def domain_distance():
        cs = spd.make_spd(raw_covariance(source.inputs))
        ct = spd.make_spd(raw_covariance(target.inputs))
        return spd.dist_log_euclidean(cs, ct), kl_diagnostic(source.inputs, target.inputs)

    dist_before, kl_before = domain_distance()
    constant_probs = np.zeros((target.n, 4))
    constant_probs[:, 0] = 1.0
    e_target = network.entropy(constant_probs)
    dist_after, kl_after = domain_distance()

    ok = (
        e_target == 0.0
        and dist_after == dist_before
        and kl_after == kl_before
        and dist_before > 0.0
        and kl_before > 0.0
    )
    detail = (
        f"entropy {e_target}, distance {dist_before:.4e} -> {dist_after:.4e}, "
        f"KL {kl_before:.4e} -> {kl_after:.4e}"
    )
    return CheckResult("entropy_not_sufficient", ok, detail)


CHECKS = {
    "gradients": check_gradients,
    "metric_axioms": check_metric_axioms,
    "aligned_entropy": check_aligned_domain_entropy,
    "entropy_not_sufficient": check_constant_predictor,
}


def run_checks(names=None) -> list[CheckResult]:
    selected = list(CHECKS) if names is None else list(names)
    results = []
    for name in selected:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; available: {', '.join(CHECKS)}")
        results.append(CHECKS[name]())
    return results
