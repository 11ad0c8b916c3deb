import numpy as np
import pytest

from meca import alignment, network, spd, trainer
from meca.alignment import covariance, penalty_value_and_grads, raw_covariance
from meca.errors import (
    BadShapeError,
    ConfigInvalidError,
    DegenerateMatrixError,
    TooFewSamplesError,
)
from meca.spd import dist_log_euclidean


def one_hot(classes, k):
    z = np.zeros((len(classes), k))
    z[np.arange(len(classes)), classes] = 1.0
    return z


def composite(trace_s, labels_s, trace_t, lam, kind="log_euclidean"):
    """(total, h_source, weighted pen_value) of the composite objective."""
    h = network.cross_entropy(trace_s.probs, labels_s)
    pen, _, _ = penalty_value_and_grads(trace_s.feature_acts, trace_t.feature_acts, kind)
    return h + lam * pen, h, lam * pen


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

    def test_jitter_applied(self):
        a = np.array([[1.0, -1.0], [0.0, 0.0]])
        c = covariance(a, jitter_rel=1e-5)
        # eps = 1e-5 * trace(2) / 2 = 1e-5
        assert np.allclose(sorted(c.eigvals), [1e-5, 2.0 + 1e-5], atol=1e-17)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            covariance(np.ones((3, 1)))


def lane_grads(method, lambdas, seed=6):
    """trainer._lane_grads of one mini-batch pair, one lane per weight."""
    rng = np.random.default_rng(seed)
    model = network.init_model([3, 5, 4, 3], seed=seed)
    xs, xt = rng.standard_normal((3, 6)), rng.standard_normal((3, 6))
    zs = one_hot(rng.integers(0, 3, size=6), 3)
    lambdas = np.array(lambdas)
    stacked = trainer._Lanes(model, lambdas).model
    return trainer._lane_grads(stacked, lambdas, xs, zs, xt, trainer.TrainConfig(method=method))


class TestPenaltyGradients:
    def test_kind_none_zero(self):
        # a method without an alignment penalty gets no penalty gradient,
        # whatever its weight
        grads = lane_grads("source_only", [0.0, 1.0, 2.5])
        for g in grads.weights + grads.biases:
            assert g[1].tobytes() == g[0].tobytes() and g[2].tobytes() == g[0].tobytes()

    @pytest.mark.parametrize("kind", ["euclidean", "log_euclidean"])
    def test_identical_batches_zero_gradient(self, kind):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        _, gs, gt = penalty_value_and_grads(a, a.copy(), kind)
        assert np.max(np.abs(gs)) < 1e-8
        assert np.max(np.abs(gt)) < 1e-8

    @pytest.mark.parametrize("kind", ["euclidean", "log_euclidean"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        a_s = rng.standard_normal((3, 5))
        a_t = rng.standard_normal((3, 5)) * 1.4 + 0.2
        value, gs, gt = penalty_value_and_grads(a_s, a_t, kind)
        assert value > 0.0

        def loss(s, t):
            return penalty_value_and_grads(s, t, kind)[0]

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
        # the trainer weights the unweighted penalty gradient by each lane's
        # lambda; the layers below the alignment layer feel it
        for method in ("coral_euclidean", "meca_geodesic"):
            grads = lane_grads(method, [0.0, 1.0, 2.5])
            assert np.max(np.abs(grads.weights[0][1] - grads.weights[0][0])) > 0.0
            for g in grads.weights + grads.biases:
                pen = g[1] - g[0]
                assert np.allclose(g[2] - g[0], 2.5 * pen, rtol=1e-9, atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            penalty_value_and_grads(np.ones((2, 1)), np.ones((2, 4)), "log_euclidean")


class TestCenterOnce:
    @pytest.mark.parametrize("kind", ["euclidean", "log_euclidean"])
    def test_two_centerings_per_penalty(self, kind, monkeypatch):
        calls = []

        def counting(acts):
            calls.append(np.shape(acts))
            return original(acts)

        original = alignment._centered
        monkeypatch.setattr(alignment, "_centered", counting)
        rng = np.random.default_rng(7)
        penalty_value_and_grads(rng.standard_normal((4, 6)), rng.standard_normal((4, 5)), kind)
        assert calls == [(4, 6), (4, 5)]


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
        penalty_value_and_grads(a_s, a_t, "euclidean")
        assert eig_calls == []
        # the counter sees the decompositions of the geodesic penalty
        penalty_value_and_grads(a_s, a_t, "log_euclidean")
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
            penalty_value_and_grads(a_s, a_t, "euclidean")
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
        total, h, pen = composite(tr_s, labels, tr_t, lam=0.0)
        assert pen == 0.0
        assert total == h

    def test_identical_activations(self):
        tr_s, labels, _ = self._traces()
        total, h, pen = composite(tr_s, labels, tr_s, lam=0.5)
        assert pen == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(h, abs=1e-12)

    def test_components_sum_to_total(self):
        tr_s, labels, tr_t = self._traces(seed=1)
        total, h, pen = composite(tr_s, labels, tr_t, lam=0.1)
        assert total == pytest.approx(h + pen, rel=1e-15)
        assert h == pytest.approx(network.cross_entropy(tr_s.probs, labels))
        cs = covariance(tr_s.feature_acts)
        ct = covariance(tr_t.feature_acts)
        assert pen == pytest.approx(0.1 * dist_log_euclidean(cs, ct), rel=1e-12)

    def test_mismatched_alignment_layers(self):
        rng = np.random.default_rng(2)
        model = network.init_model([3, 5, 4, 3], seed=2)
        tr_s = network.forward(model, rng.standard_normal((3, 6)), 1)
        tr_t = network.forward(model, rng.standard_normal((3, 6)), 2)
        labels = one_hot([0] * 6, 3)
        with pytest.raises(BadShapeError):
            composite(tr_s, labels, tr_t, lam=1.0)


class TestPenaltyConfig:
    def test_rejects_unknown_kind(self):
        a = np.random.default_rng(10).standard_normal((3, 5))
        for kind in ("hyperbolic", "none"):
            with pytest.raises(BadShapeError):
                penalty_value_and_grads(a, a, kind)

    def test_rejects_negative_weight(self):
        # the weight lives in the trainer, which checks it before any step
        with pytest.raises(ConfigInvalidError):
            trainer.TrainConfig(lambda_or_gamma=-1.0).validate()
        rng = np.random.default_rng(11)
        labels = one_hot([0, 1, 2, 0, 1, 2, 0, 1], 3)
        source = network.LabeledBatch(rng.standard_normal((3, 8)), labels)
        target = network.UnlabeledBatch(rng.standard_normal((3, 8)))
        with pytest.raises(ConfigInvalidError):
            trainer.train_lanes(network.init_model([3, 4, 3], seed=0), source, target,
                                trainer.TrainConfig(epochs=1, batch_size=4), [0.5, -1.0])
