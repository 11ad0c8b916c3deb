import numpy as np
import pytest

from meca import network, spd, trainer
from meca.alignment import (
    AlignmentPenalty,
    covariance,
    penalty_value_and_grads,
    raw_covariance,
)
from meca.errors import BadShapeError, DegenerateMatrixError, TooFewSamplesError
from meca.spd import dist_log_euclidean


def one_hot(classes, k):
    z = np.zeros((len(classes), k))
    z[np.arange(len(classes)), classes] = 1.0
    return z


def composite(trace_s, labels_s, trace_t, penalty):
    """(total, h_source, pen_value) of the composite objective."""
    h = network.cross_entropy(trace_s.probs, labels_s)
    pen, _, _ = penalty_value_and_grads(trace_s.feature_acts, trace_t.feature_acts, penalty)
    return h + pen, h, pen


class TestCovariance:
    def test_hand_example(self):
        a = np.array([[1.0, -1.0], [0.0, 0.0]])
        assert np.allclose(raw_covariance(a), [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_columns_center_to_zero(self):
        a = np.tile(np.array([[1.5], [-2.0], [0.7]]), (1, 5))
        assert np.allclose(raw_covariance(a), 0.0)

    def test_identity_activations(self):
        assert np.allclose(raw_covariance(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]])

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 7))
        perm = rng.permutation(7)
        assert np.allclose(raw_covariance(a), raw_covariance(a[:, perm]))

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 7))
        shift = rng.standard_normal((3, 1))
        assert np.allclose(raw_covariance(a), raw_covariance(a + shift), atol=1e-12)

    def test_normalized_variant(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 9))
        assert np.allclose(raw_covariance(a, normalize=True), raw_covariance(a) / 8.0)

    def test_jitter_applied(self):
        a = np.array([[1.0, -1.0], [0.0, 0.0]])
        c = covariance(a, jitter_rel=1e-5)
        # eps = 1e-5 * trace(2) / 2 = 1e-5
        assert np.allclose(sorted(c.eigvals), [1e-5, 2.0 + 1e-5], atol=1e-17)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            covariance(np.ones((3, 1)))


class TestPenaltyGradients:
    def test_kind_none_zero(self):
        rng = np.random.default_rng(3)
        a_s, a_t = rng.standard_normal((3, 5)), rng.standard_normal((3, 6))
        _, gs, gt = penalty_value_and_grads(a_s, a_t, AlignmentPenalty(kind="none", lam=0.0))
        assert np.all(gs == 0.0) and gs.shape == (3, 5)
        assert np.all(gt == 0.0) and gt.shape == (3, 6)

    @pytest.mark.parametrize("kind", ["euclidean", "log_euclidean"])
    def test_identical_batches_zero_gradient(self, kind):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        _, gs, gt = penalty_value_and_grads(a, a.copy(), AlignmentPenalty(kind=kind, lam=1.0))
        assert np.max(np.abs(gs)) < 1e-8
        assert np.max(np.abs(gt)) < 1e-8

    @pytest.mark.parametrize("kind,normalize", [
        ("euclidean", False),
        ("euclidean", True),
        ("log_euclidean", False),
        ("log_euclidean", True),
    ])
    def test_matches_finite_differences(self, kind, normalize):
        rng = np.random.default_rng(5)
        a_s = rng.standard_normal((3, 5))
        a_t = rng.standard_normal((3, 5)) * 1.4 + 0.2
        penalty = AlignmentPenalty(kind=kind, lam=0.37, normalize_cov=normalize)
        value, gs, gt = penalty_value_and_grads(a_s, a_t, penalty)
        assert value > 0.0

        def loss(s, t):
            return penalty_value_and_grads(s, t, penalty)[0]

        h = 1e-5
        for arr, grad, which in ((a_s, gs, "s"), (a_t, gt, "t")):
            fd = np.zeros_like(arr)
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    p, q = arr.copy(), arr.copy()
                    p[i, j] += h
                    q[i, j] -= h
                    if which == "s":
                        fd[i, j] = (loss(p, a_t) - loss(q, a_t)) / (2 * h)
                    else:
                        fd[i, j] = (loss(a_s, p) - loss(a_s, q)) / (2 * h)
            mask = np.abs(grad) > 1e-8
            denom = np.maximum(np.abs(grad[mask]), np.abs(fd[mask]))
            assert np.max(np.abs(grad[mask] - fd[mask]) / denom) < 1e-4

    def test_lambda_scales_gradients(self):
        rng = np.random.default_rng(6)
        a_s, a_t = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        _, g1, _ = penalty_value_and_grads(a_s, a_t, AlignmentPenalty(lam=1.0))
        _, g2, _ = penalty_value_and_grads(a_s, a_t, AlignmentPenalty(lam=2.5))
        assert np.allclose(g2, 2.5 * g1)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            penalty_value_and_grads(np.ones((2, 1)), np.ones((2, 4)), AlignmentPenalty())


class TestEuclideanPathNeverDecomposes:
    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m.shape)
            return original(m)

        original = spd.sym_eig
        monkeypatch.setattr(spd, "sym_eig", counting)
        return calls

    def test_penalty(self, eig_calls):
        rng = np.random.default_rng(8)
        a_s, a_t = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        penalty_value_and_grads(a_s, a_t, AlignmentPenalty(kind="euclidean", lam=1.0))
        assert eig_calls == []
        # the counter sees the decompositions of the geodesic penalty
        penalty_value_and_grads(a_s, a_t, AlignmentPenalty(kind="log_euclidean", lam=1.0))
        assert eig_calls == [(4, 4), (4, 4)]

    def test_coral_epoch(self, eig_calls):
        rng = np.random.default_rng(9)
        model = network.init_model([3, 5, 4, 2], seed=0)
        source = network.LabeledBatch(rng.standard_normal((3, 12)), one_hot(np.arange(12) % 2, 2))
        target = network.UnlabeledBatch(rng.standard_normal((3, 12)))
        config = trainer.TrainConfig(method="coral_euclidean", lambda_or_gamma=1.0,
                                     epochs=1, batch_size=4)
        result = trainer.train_run(model, source, target, config)
        assert not result.diverged and len(result.metrics) == 1
        assert eig_calls == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_covariance_still_raises(self, eig_calls):
        a_s = np.array([[1e200, -1e200, 0.0], [0.0, 1.0, 2.0]])
        a_t = np.ones((2, 3)) + np.eye(2, 3)
        with pytest.raises(DegenerateMatrixError):
            penalty_value_and_grads(a_s, a_t, AlignmentPenalty(kind="euclidean", lam=1.0))
        assert eig_calls == []


class TestCompositeLoss:
    def _traces(self, seed=0, lam=0.1):
        rng = np.random.default_rng(seed)
        model = network.init_model([3, 5, 4, 3], seed=seed)
        xs, xt = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
        labels = one_hot(rng.integers(0, 3, size=6), 3)
        return network.forward(model, xs), labels, network.forward(model, xt)

    def test_lambda_zero(self):
        tr_s, labels, tr_t = self._traces()
        total, h, pen = composite(tr_s, labels, tr_t, AlignmentPenalty(lam=0.0))
        assert pen == 0.0
        assert total == h

    def test_identical_activations(self):
        tr_s, labels, _ = self._traces()
        total, h, pen = composite(tr_s, labels, tr_s, AlignmentPenalty(lam=0.5))
        assert pen == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(h, abs=1e-12)

    def test_components_sum_to_total(self):
        tr_s, labels, tr_t = self._traces(seed=1)
        penalty = AlignmentPenalty(kind="log_euclidean", lam=0.1)
        total, h, pen = composite(tr_s, labels, tr_t, penalty)
        assert total == pytest.approx(h + pen, rel=1e-15)
        assert h == pytest.approx(network.cross_entropy(tr_s.probs, labels))
        cs = covariance(tr_s.feature_acts, penalty.jitter_rel)
        ct = covariance(tr_t.feature_acts, penalty.jitter_rel)
        assert pen == pytest.approx(0.1 * dist_log_euclidean(cs, ct), rel=1e-12)

    def test_mismatched_alignment_layers(self):
        rng = np.random.default_rng(2)
        model = network.init_model([3, 5, 4, 3], seed=2)
        tr_s = network.forward(model, rng.standard_normal((3, 6)), 1)
        tr_t = network.forward(model, rng.standard_normal((3, 6)), 2)
        labels = one_hot([0] * 6, 3)
        with pytest.raises(BadShapeError):
            composite(tr_s, labels, tr_t, AlignmentPenalty())


class TestPenaltyConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(BadShapeError):
            AlignmentPenalty(kind="hyperbolic")

    def test_rejects_negative_weight(self):
        with pytest.raises(BadShapeError):
            AlignmentPenalty(lam=-1.0)
