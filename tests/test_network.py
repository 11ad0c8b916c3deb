import numpy as np
import pytest

from meca import network
from meca.errors import BadShapeError, ParseError
from meca.network import (
    LabeledBatch,
    UnlabeledBatch,
    backward,
    cross_entropy,
    entropy,
    forward,
    grad_cross_entropy_wrt_probs,
    grad_entropy_wrt_probs,
    init_model,
    load_model,
    save_model,
)
from meca.verify import finite_difference_model_grads, max_relative_grad_error


def one_hot(classes, k):
    z = np.zeros((len(classes), k))
    z[np.arange(len(classes)), classes] = 1.0
    return z


class TestInitModel:
    def test_shapes_and_determinism(self):
        m1 = init_model([2, 8, 64, 3], seed=7)
        m2 = init_model([2, 8, 64, 3], seed=7)
        assert len(m1.weights) == 3
        assert m1.weights[1].shape == (64, 8)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b in m1.biases:
            assert np.all(b == 0.0)

    def test_seed_sensitivity(self):
        m7 = init_model([2, 8, 64, 3], seed=7)
        m8 = init_model([2, 8, 64, 3], seed=8)
        assert not np.array_equal(m7.weights[0], m8.weights[0])

    def test_glorot_bounds(self):
        m = init_model([10, 20, 4], seed=0)
        limit = np.sqrt(6.0 / 30.0)
        assert np.max(np.abs(m.weights[0])) <= limit

    def test_degenerate_sizes(self):
        with pytest.raises(BadShapeError):
            init_model([2], seed=0)
        with pytest.raises(BadShapeError):
            init_model([2, 0, 3], seed=0)


class TestForward:
    def test_zero_model_uniform_probs(self):
        m = init_model([3, 5, 4], seed=0)
        for w in m.weights:
            w[:] = 0.0
        trace = forward(m, np.random.default_rng(0).standard_normal((3, 7)))
        assert np.allclose(trace.probs, 0.25)

    def test_single_linear_layer_identity(self):
        m = init_model([3, 3], seed=0)
        m.weights[0][:] = np.eye(3)
        x = np.zeros((3, 1))
        x[1, 0] = 1.0
        trace = forward(m, x)
        e = np.exp([0.0, 1.0, 0.0])
        assert np.allclose(trace.probs[0], e / e.sum())

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            m = init_model([4, 6, 5, 3], seed=seed)
            trace = forward(m, 3.0 * rng.standard_normal((4, 9)))
            assert np.allclose(trace.probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(trace.probs > 0.0)
            assert np.all(trace.probs < 1.0)

    def test_feature_acts_default_penultimate(self):
        m = init_model([4, 6, 5, 3], seed=0)
        x = np.random.default_rng(2).standard_normal((4, 9))
        trace = forward(m, x)
        assert trace.alignment_layer == 2
        assert trace.feature_acts.shape == (5, 9)
        early = forward(m, x, alignment_layer_index=1)
        assert early.feature_acts.shape == (6, 9)
        assert np.array_equal(forward(m, x, 0).feature_acts, x)

    def test_deterministic(self):
        m = init_model([4, 6, 3], seed=0)
        x = np.random.default_rng(3).standard_normal((4, 5))
        t1, t2 = forward(m, x), forward(m, x)
        assert np.array_equal(t1.probs, t2.probs)

    def test_bad_shapes(self):
        m = init_model([4, 6, 3], seed=0)
        with pytest.raises(BadShapeError):
            forward(m, np.zeros((5, 2)))
        with pytest.raises(BadShapeError):
            forward(m, np.zeros((4, 2)), alignment_layer_index=5)


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        labels = one_hot([0, 2, 1], 3)
        assert cross_entropy(labels, labels) == pytest.approx(0.0, abs=1e-9)

    def test_cross_entropy_uniform(self):
        probs = np.full((3, 4), 0.25)
        labels = one_hot([0, 1, 2], 4)
        assert cross_entropy(probs, labels) == pytest.approx(3.0 * np.log(4.0))

    def test_cross_entropy_hand_value(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        labels = one_hot([0], 3)
        assert cross_entropy(probs, labels) == pytest.approx(-np.log(0.7))

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(BadShapeError):
            cross_entropy(np.full((2, 3), 1 / 3), one_hot([0], 3))

    def test_entropy_one_hot_exactly_zero(self):
        assert entropy(one_hot([1, 0, 3], 4)) == 0.0

    def test_entropy_uniform(self):
        assert entropy(np.full((2, 4), 0.25)) == pytest.approx(2.0 * np.log(4.0))

    def test_entropy_two_point(self):
        assert entropy(np.array([[0.5, 0.5, 0.0, 0.0]])) == pytest.approx(np.log(2.0))

    def test_entropy_nonnegative_on_softmax_rows(self):
        rng = np.random.default_rng(0)
        m = init_model([3, 4, 5], seed=0)
        probs = forward(m, rng.standard_normal((3, 11))).probs
        assert entropy(probs) >= 0.0


class TestProbGradients:
    def test_entropy_grad_uniform_row(self):
        g = grad_entropy_wrt_probs(np.array([[0.5, 0.5]]))
        assert np.allclose(g, -(1.0 + np.log(0.5)))

    def test_entropy_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=6)
        g = grad_entropy_wrt_probs(probs)
        h = 1e-6
        for i in range(probs.shape[0]):
            for k in range(probs.shape[1]):
                p_plus, p_minus = probs.copy(), probs.copy()
                p_plus[i, k] += h
                p_minus[i, k] -= h
                fd = (entropy(p_plus) - entropy(p_minus)) / (2.0 * h)
                assert g[i, k] == pytest.approx(fd, rel=1e-5)

    def test_entropy_grad_finite_on_clamped_one_hot(self):
        g = grad_entropy_wrt_probs(one_hot([0, 1], 3))
        assert np.all(np.isfinite(g))

    def test_cross_entropy_grad_is_neg_label_over_prob(self):
        probs = np.array([[0.7, 0.2, 0.1]])
        labels = one_hot([0], 3)
        g = grad_cross_entropy_wrt_probs(probs, labels)
        assert g[0, 0] == pytest.approx(-1.0 / 0.7)
        assert g[0, 1] == 0.0


class TestBackward:
    def test_zero_injections_give_zero_grads(self):
        m = init_model([3, 5, 4, 3], seed=0)
        x = np.random.default_rng(0).standard_normal((3, 6))
        trace = forward(m, x)
        grads = backward(m, trace, np.zeros_like(trace.probs), np.zeros_like(trace.feature_acts))
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    def test_none_injections_give_zero_grads(self):
        m = init_model([3, 5, 3], seed=0)
        trace = forward(m, np.ones((3, 2)))
        grads = backward(m, trace, None, None)
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_cross_entropy_grads_match_fd(self, activation):
        rng = np.random.default_rng(13)
        m = init_model([4, 5, 3], seed=3, hidden_activation=activation)
        x = rng.standard_normal((4, 6))
        labels = one_hot(rng.integers(0, 3, size=6), 3)

        def loss(model):
            return cross_entropy(forward(model, x).probs, labels)

        trace = forward(m, x)
        analytic = backward(m, trace, grad_cross_entropy_wrt_probs(trace.probs, labels), None)
        numeric = finite_difference_model_grads(loss, m)
        assert max_relative_grad_error(analytic, numeric) < 1e-4

    def test_entropy_grads_match_fd(self):
        rng = np.random.default_rng(17)
        m = init_model([3, 5, 4, 3], seed=1, hidden_activation="tanh")
        x = rng.standard_normal((3, 6))

        def loss(model):
            return entropy(forward(model, x).probs)

        trace = forward(m, x)
        analytic = backward(m, trace, grad_entropy_wrt_probs(trace.probs), None)
        numeric = finite_difference_model_grads(loss, m)
        assert max_relative_grad_error(analytic, numeric) < 1e-4

    def test_feature_injection_accumulates(self):
        # gradient injected at the alignment layer must flow through the
        # shared layers additively with the probs-side gradient
        rng = np.random.default_rng(19)
        m = init_model([3, 5, 4, 3], seed=2, hidden_activation="tanh")
        x = rng.standard_normal((3, 6))
        labels = one_hot(rng.integers(0, 3, size=6), 3)
        trace = forward(m, x)
        g_probs = grad_cross_entropy_wrt_probs(trace.probs, labels)
        g_feat = rng.standard_normal(trace.feature_acts.shape)
        combined = backward(m, trace, g_probs, g_feat)
        a = backward(m, trace, g_probs, None)
        b = backward(m, trace, None, g_feat)
        for gc, ga, gb in zip(combined.weights, a.weights, b.weights):
            assert np.allclose(gc, ga + gb, atol=1e-12)

    @pytest.mark.parametrize("layer", [1, 2])
    def test_feature_only_pass_starts_at_alignment_layer(self, layer):
        # no gradient at the probabilities: the layers above the alignment
        # layer get exact zeros, the ones below what a zero probs-gradient
        # backpropagated through every layer gives them
        rng = np.random.default_rng(23)
        m = init_model([3, 5, 4, 3], seed=4, hidden_activation="tanh")
        trace = forward(m, rng.standard_normal((3, 6)), layer)
        g_feat = rng.standard_normal(trace.feature_acts.shape)
        short = backward(m, trace, None, g_feat)
        full = backward(m, trace, np.zeros_like(trace.probs), g_feat)
        for i in range(m.n_layers):
            if i >= layer:
                assert np.all(short.weights[i] == 0.0) and np.all(short.biases[i] == 0.0)
            assert np.array_equal(short.weights[i], full.weights[i])
            assert np.array_equal(short.biases[i], full.biases[i])

    def test_lane_stack_matches_single_models(self):
        rng = np.random.default_rng(29)
        models = [init_model([3, 5, 4, 3], seed=s, hidden_activation="tanh") for s in range(3)]
        stacked = network.MlpModel(
            [3, 5, 4, 3],
            [np.stack([mm.weights[i] for mm in models]) for i in range(3)],
            [np.stack([mm.biases[i] for mm in models]) for i in range(3)],
            "tanh",
        )
        x = rng.standard_normal((3, 7))
        labels = one_hot(rng.integers(0, 3, size=7), 3)
        trace = forward(stacked, x)
        g_feat = rng.standard_normal(trace.feature_acts.shape)
        grads = backward(stacked, trace, grad_cross_entropy_wrt_probs(trace.probs, labels), g_feat)
        ce = cross_entropy(trace.probs, labels)
        ent = entropy(trace.probs)
        for lane, mm in enumerate(models):
            tr = forward(mm, x)
            g = backward(mm, tr, grad_cross_entropy_wrt_probs(tr.probs, labels), g_feat[lane])
            assert trace.probs[lane].tobytes() == tr.probs.tobytes()
            assert ce[lane] == cross_entropy(tr.probs, labels)
            assert ent[lane] == entropy(tr.probs)
            for a, b in zip(grads.weights + grads.biases, g.weights + g.biases):
                assert a[lane].tobytes() == b.tobytes()

    def test_bad_gradient_shapes(self):
        m = init_model([3, 5, 3], seed=0)
        trace = forward(m, np.ones((3, 2)))
        with pytest.raises(BadShapeError):
            backward(m, trace, np.zeros((3, 3)), None)
        with pytest.raises(BadShapeError):
            backward(m, trace, None, np.zeros((2, 2)))


class TestBatches:
    def test_labeled_batch_validation(self):
        with pytest.raises(BadShapeError):
            LabeledBatch(np.ones((2, 3)), np.array([[0.5, 0.5], [1, 0], [0, 1]]))
        with pytest.raises(BadShapeError):
            LabeledBatch(np.ones((2, 3)), one_hot([0, 1], 2))
        batch = LabeledBatch(np.ones((2, 3)), one_hot([0, 1, 1], 2))
        assert batch.n == 3

    def test_unlabeled_batch_rejects_nan(self):
        with pytest.raises(BadShapeError):
            UnlabeledBatch(np.array([[np.nan, 1.0]]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = init_model([4, 7, 3], seed=9, hidden_activation="tanh")
        path = tmp_path / "model.bin"
        save_model(m, path)
        loaded = load_model(path, hidden_activation="tanh")
        assert loaded.layer_sizes == m.layer_sizes
        assert loaded.hidden_activation == "tanh"
        for w1, w2 in zip(m.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m.biases, loaded.biases):
            assert np.array_equal(b1, b2)

    def test_header_layout(self, tmp_path):
        m = init_model([2, 3], seed=0)
        path = tmp_path / "model.bin"
        save_model(m, path)
        blob = path.read_bytes()
        assert blob[:4] == b"MECA"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 2
        assert int.from_bytes(blob[16:20], "little") == 3
        assert len(blob) == 20 + 8 * (6 + 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_model(path)

    def test_truncated(self, tmp_path):
        m = init_model([2, 3], seed=0)
        path = tmp_path / "model.bin"
        save_model(m, path)
        (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            load_model(tmp_path / "cut.bin")
