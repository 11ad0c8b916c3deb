import dataclasses

import numpy as np
import pytest

from meca import alignment, data, network, trainer
from meca.errors import (
    BadShapeError,
    ConfigInvalidError,
    NoConvergenceError,
    TooFewSamplesError,
)
from meca.network import LabeledBatch, MlpModel, UnlabeledBatch, init_model
from meca.trainer import (
    METHOD_PENALTY_KIND,
    METRICS_HEADER,
    NON_FINITE_LOSS,
    NON_FINITE_METRICS,
    Divergence,
    TrainConfig,
    evaluate,
    kl_diagnostic,
    train_lanes,
    train_run,
    write_metrics_csv,
)


def one_hot(classes, k):
    z = np.zeros((len(classes), k))
    z[np.arange(len(classes)), classes] = 1.0
    return z


def small_domains(seed=0, per_class=40, k=3, dim=4):
    source_ds = data.gen_blobs(k, per_class, dim, seed=seed)
    target_ds = data.apply_shift(
        data.gen_blobs(k, per_class, dim, seed=seed + 1),
        data.ShiftSpec(rotation_deg=20.0, scale=1.2, noise_sigma=0.1),
        seed=seed + 2,
    )
    return source_ds, target_ds


def quick_config(**kwargs):
    base = dict(
        method="meca_geodesic",
        lambda_or_gamma=1.0,
        epochs=5,
        batch_size=32,
        learning_rate=1e-3,
        momentum=0.9,
        seed=0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestConfig:
    def test_valid(self):
        quick_config().validate()
        quick_config(jitter_rel=0.0, alignment_layer_index=0).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("method", "adversarial"),
            ("epochs", 0),
            ("batch_size", 1),
            ("learning_rate", 0.0),
            ("learning_rate", float("inf")),
            ("learning_rate", float("nan")),
            ("momentum", 1.0),
            ("momentum", -0.1),
            ("lambda_or_gamma", -2.0),
            ("lambda_or_gamma", float("inf")),
            ("jitter_rel", -1.0),
            ("jitter_rel", float("nan")),
            ("jitter_rel", float("inf")),
            ("alignment_layer_index", -1),
        ],
    )
    def test_invalid(self, field, value):
        with pytest.raises(ConfigInvalidError):
            dataclasses.replace(quick_config(), **{field: value}).validate()


class TestEvaluate:
    def test_perfect_predictor(self):
        # one layer with a large identity weight pushes softmax to the labels
        model = init_model([3, 3], seed=0)
        model.weights[0][:] = 50.0 * np.eye(3)
        batch = LabeledBatch(one_hot([0, 1, 2, 1], 3).T, one_hot([0, 1, 2, 1], 3))
        acc, ent, ce = evaluate(model, batch)
        assert acc == 1.0
        assert ent == pytest.approx(0.0, abs=1e-9)
        assert ce == pytest.approx(0.0, abs=1e-9)

    def test_constant_class_zero_predictor(self):
        model = init_model([2, 4], seed=0)
        model.weights[0][:] = 0.0
        model.biases[0][:] = np.array([30.0, 0.0, 0.0, 0.0])
        inputs = np.random.default_rng(0).standard_normal((2, 8))
        labels = one_hot([0, 1, 2, 3] * 2, 4)
        acc, ent, _ = evaluate(model, LabeledBatch(inputs, labels))
        assert acc == 0.25
        assert ent == pytest.approx(0.0, abs=1e-9)

    def test_empty_dataset(self):
        model = init_model([2, 3], seed=0)
        with pytest.raises(BadShapeError):
            evaluate(model, LabeledBatch(np.zeros((2, 0)), np.zeros((0, 3))))


class TestKlDiagnostic:
    def test_identical_sets(self):
        a = np.random.default_rng(0).standard_normal((4, 10))
        assert kl_diagnostic(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance_mean_shift(self):
        # population variance of [-1, 1] is exactly 1; means 0 vs 1
        d = 5
        fs = np.tile(np.array([[-1.0, 1.0]]), (d, 1))
        ft = fs + 1.0
        assert kl_diagnostic(fs, ft) == pytest.approx(0.5 * d)

    def test_asymmetry(self):
        rng = np.random.default_rng(1)
        fs = rng.standard_normal((3, 50))
        ft = 2.5 * rng.standard_normal((3, 50))
        assert kl_diagnostic(fs, ft) != pytest.approx(kl_diagnostic(ft, fs))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            fs = rng.standard_normal((3, 20)) * rng.uniform(0.5, 2)
            ft = rng.standard_normal((3, 20)) + rng.uniform(-1, 1)
            assert kl_diagnostic(fs, ft) >= 0.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            kl_diagnostic(np.ones((2, 1)), np.ones((2, 5)))

    def test_variance_floor(self):
        fs = np.zeros((2, 4))  # zero variance hits the floor, stays finite
        ft = np.ones((2, 4))
        assert np.isfinite(kl_diagnostic(fs, ft))


class TestTrainRun:
    @pytest.mark.parametrize("layer", [3, 7])
    def test_alignment_layer_above_penultimate(self, layer):
        # [4, 8, 5, 3] has activations 0 (the inputs) to 2 (the penultimate)
        source_ds, target_ds = small_domains()
        with pytest.raises(ConfigInvalidError, match="alignment layer must be <= 2"):
            train_run(init_model([4, 8, 5, 3], seed=0), source_ds.as_labeled_batch(),
                      target_ds.as_unlabeled_batch(), quick_config(alignment_layer_index=layer))

    def test_deterministic_per_seed(self):
        source_ds, target_ds = small_domains()
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, 8, 5, 3], seed=0)
        cfg = quick_config(epochs=4)
        r1 = train_run(model, source, target, cfg, target_ds.labels)
        r2 = train_run(model, source, target, cfg, target_ds.labels)
        assert [dataclasses.astuple(m) for m in r1.metrics] == [
            dataclasses.astuple(m) for m in r2.metrics
        ]
        for w1, w2 in zip(r1.model.weights, r2.model.weights):
            assert np.array_equal(w1, w2)

    def test_source_only_fits_separable_blobs(self):
        source_ds = data.gen_blobs(2, 60, 2, seed=0)
        source = source_ds.as_labeled_batch()
        target = source_ds.as_unlabeled_batch()
        model = init_model([2, 8, 4, 2], seed=0)
        cfg = quick_config(method="source_only", epochs=50, learning_rate=2e-3)
        result = train_run(model, source, target, cfg)
        acc, _, _ = evaluate(result.model, source)
        assert acc > 0.99

    def test_aligned_target_drives_penalty_down(self):
        source_ds = data.gen_blobs(3, 40, 4, seed=1)
        source = source_ds.as_labeled_batch()
        target = source_ds.as_unlabeled_batch()  # exact copy of the source
        model = init_model([4, 8, 5, 3], seed=1)
        cfg = quick_config(epochs=30, learning_rate=2e-3)
        result = train_run(model, source, target, cfg, source_ds.labels)
        assert not result.diverged and result.divergence is None
        assert result.metrics[-1].pen_value < 1e-3
        assert result.metrics[-1].h_source < result.metrics[0].h_source

    def test_input_model_not_mutated(self):
        source_ds, target_ds = small_domains()
        model = init_model([4, 6, 3], seed=0)
        before = [w.copy() for w in model.weights]
        train_run(model, source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch(),
                  quick_config(epochs=2))
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)

    def test_target_labels_never_touch_training(self):
        source_ds, target_ds = small_domains(seed=3)
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, 8, 5, 3], seed=3)
        cfg = quick_config(epochs=4)
        rng = np.random.default_rng(0)
        scrambled = one_hot(rng.integers(0, 3, size=target.n), 3)
        with_true = train_run(model, source, target, cfg, target_ds.labels)
        with_scrambled = train_run(model, source, target, cfg, scrambled)
        without = train_run(model, source, target, cfg, None)
        for a, b, c in zip(with_true.model.weights, with_scrambled.model.weights,
                           without.model.weights):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)
        # the labels feed only the accuracy column
        assert with_true.metrics[0].target_accuracy != pytest.approx(
            with_scrambled.metrics[0].target_accuracy
        )
        assert np.isnan(without.metrics[0].target_accuracy)
        assert [m.e_target for m in with_true.metrics] == [
            m.e_target for m in without.metrics
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_flag(self):
        # the unnormalized euclidean penalty at a huge weight blows up the
        # activations; the run must abort with partial metrics, not raise
        source_ds, target_ds = small_domains()
        model = init_model([4, 8, 3], seed=0)
        cfg = quick_config(method="coral_euclidean", lambda_or_gamma=100.0,
                           epochs=20, learning_rate=0.05)
        result = train_run(model, source_ds.as_labeled_batch(),
                           target_ds.as_unlabeled_batch(), cfg)
        assert result.diverged
        assert len(result.metrics) < 20
        assert result.divergence == Divergence(epoch=1, step=None, cause=NON_FINITE_METRICS)

    def test_target_batches_cycle(self):
        source_ds, _ = small_domains()
        tiny_target = UnlabeledBatch(source_ds.inputs[:, :7])
        model = init_model([4, 6, 3], seed=0)
        result = train_run(model, source_ds.as_labeled_batch(), tiny_target,
                           quick_config(epochs=2, batch_size=16))
        assert len(result.metrics) == 2

    def test_coral_lambda_zero_equals_source_only(self):
        source_ds, target_ds = small_domains(seed=5)
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, 8, 5, 3], seed=5)
        r_coral = train_run(model, source, target,
                            quick_config(method="coral_euclidean", lambda_or_gamma=0.0,
                                         epochs=5), target_ds.labels)
        r_src = train_run(model, source, target,
                          quick_config(method="source_only", epochs=5), target_ds.labels)
        assert r_coral.metrics[-1].target_accuracy == r_src.metrics[-1].target_accuracy
        assert r_coral.metrics[-1].h_source == r_src.metrics[-1].h_source

    def test_entropy_reg_reduces_target_entropy(self):
        source_ds, target_ds = small_domains(seed=7)
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, 8, 5, 3], seed=7)
        r_ent = train_run(model, source, target,
                          quick_config(method="entropy_reg", lambda_or_gamma=0.5,
                                       epochs=25, learning_rate=2e-3), target_ds.labels)
        r_src = train_run(model, source, target,
                          quick_config(method="source_only", epochs=25,
                                       learning_rate=2e-3), target_ds.labels)
        assert not r_ent.diverged
        assert r_ent.metrics[-1].e_target < r_src.metrics[-1].e_target

    def test_eval_labels_shape_checked(self):
        source_ds, target_ds = small_domains()
        model = init_model([4, 6, 3], seed=0)
        with pytest.raises(BadShapeError):
            train_run(model, source_ds.as_labeled_batch(),
                      target_ds.as_unlabeled_batch(), quick_config(),
                      eval_labels=one_hot([0, 1], 3))


def lane_bytes(result, path):
    """(metrics CSV bytes, parameter bytes, divergence) of one run."""
    write_metrics_csv(result.metrics, path)
    params = b"".join(a.tobytes() for a in result.model.weights + result.model.biases)
    return path.read_bytes(), params, result.divergence


class TestLockstep:
    """Each lane of a lockstep run is byte-identical to train_run at its weight."""

    def check_lanes(self, tmp_path, config, grid, hidden, activation):
        source_ds, target_ds = small_domains()
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, *hidden, 3], seed=0, hidden_activation=activation)
        lanes = train_lanes(model, source, target, config, grid, target_ds.labels)
        assert len(lanes) == len(grid)
        for lam, lane in zip(grid, lanes):
            alone = train_run(model, source, target,
                              dataclasses.replace(config, lambda_or_gamma=lam), target_ds.labels)
            assert (lane_bytes(lane, tmp_path / "lane.csv")
                    == lane_bytes(alone, tmp_path / "alone.csv"))
        return lanes

    @pytest.mark.parametrize("method,activation", [
        ("meca_geodesic", "tanh"),
        ("coral_euclidean", "relu"),
    ])
    def test_lanes_match_standalone_runs(self, tmp_path, method, activation):
        config = quick_config(method=method, epochs=3, batch_size=16)
        self.check_lanes(tmp_path, config, [0.1, 1.0, 5.0], (64, 32), activation)

    @pytest.mark.parametrize("method", ["source_only", "entropy_reg"])
    def test_methods_without_alignment(self, tmp_path, method):
        config = quick_config(method=method, epochs=2, batch_size=16)
        self.check_lanes(tmp_path, config, [0.1, 0.5], (8, 5), "tanh")

    def test_single_lane(self, tmp_path):
        config = quick_config(epochs=2, batch_size=16, alignment_layer_index=1)
        self.check_lanes(tmp_path, config, [2.0], (64, 32), "tanh")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_lanes_stop_alone(self, tmp_path):
        config = quick_config(method="coral_euclidean", epochs=5, learning_rate=0.01)
        lanes = self.check_lanes(tmp_path, config, [1.0, 3.0, 30.0, 100.0], (64, 32), "relu")
        assert [len(r.metrics) for r in lanes] == [5, 5, 2, 1]
        assert [r.diverged for r in lanes] == [False, False, True, True]
        assert lanes[2].divergence.epoch == 3 and lanes[3].divergence.epoch == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_retires_only_its_lane(self):
        source_ds, target_ds = small_domains()
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, 6, 3], seed=0)
        config = quick_config(method="entropy_reg", epochs=2)
        lanes = train_lanes(model, source, target, config, [0.5, 1e308, 0.1])
        assert lanes[1].divergence == Divergence(epoch=1, step=1, cause=NON_FINITE_LOSS)
        assert lanes[1].metrics == [] and not lanes[0].diverged and not lanes[2].diverged
        for w0, w1 in zip(model.weights, lanes[1].model.weights):
            assert np.array_equal(w0, w1)  # frozen before its first step

    def test_lane_failing_alone_retires_with_its_cause(self, tmp_path, monkeypatch):
        real = trainer._lane_grads

        def lane_grads(model, lambdas, *args):
            if 1.0 in lambdas:  # the lane at lambda 1 fails, in a stack or alone
                raise NoConvergenceError("Eigenvalues did not converge")
            return real(model, lambdas, *args)

        monkeypatch.setattr(trainer, "_lane_grads", lane_grads)
        config = quick_config(epochs=2, batch_size=16)
        lanes = self.check_lanes(tmp_path, config, [0.1, 1.0, 5.0], (8, 5), "tanh")
        assert lanes[1].divergence == Divergence(epoch=1, step=1, cause="NoConvergenceError")
        assert [len(r.metrics) for r in lanes] == [2, 0, 2]

    def test_stack_failing_with_no_lane_failing_alone_ends_all(self, monkeypatch):
        real = trainer._lane_grads

        def lane_grads(model, lambdas, *args):
            if len(lambdas) > 1:
                raise NoConvergenceError("Eigenvalues did not converge")
            return real(model, lambdas, *args)

        monkeypatch.setattr(trainer, "_lane_grads", lane_grads)
        source_ds, target_ds = small_domains()
        model = init_model([4, 6, 3], seed=0)
        lanes = train_lanes(model, source_ds.as_labeled_batch(),
                            target_ds.as_unlabeled_batch(), quick_config(), [0.1, 0.5, 2.0])
        for lane in lanes:
            assert lane.divergence == Divergence(epoch=1, step=1, cause="NoConvergenceError")
            assert lane.metrics == []

    def test_stacked_reductions_match_slices(self):
        # the numpy kernels a lane stack runs through: reductions along
        # contiguous and strided axes, and matmul with transposed operands,
        # must give each slice the bits it gets alone
        rng = np.random.default_rng(31)
        c_stack = rng.standard_normal((5, 6, 40))
        for stack in (c_stack, np.swapaxes(c_stack, -1, -2)):
            for axis in (-1, -2, (-2, -1)):
                whole = np.sum(stack, axis=axis)
                means = np.mean(stack, axis=axis)
                for i in range(len(stack)):
                    assert whole[i].tobytes() == np.sum(stack[i], axis=axis).tobytes()
                    assert means[i].tobytes() == np.mean(stack[i], axis=axis).tobytes()
            var = np.var(stack, axis=-1)
            gram = stack @ np.swapaxes(stack, -1, -2)
            for i in range(len(stack)):
                assert var[i].tobytes() == np.var(stack[i], axis=-1).tobytes()
                assert gram[i].tobytes() == (stack[i] @ stack[i].T).tobytes()
        shared = rng.standard_normal((40, 7))
        product = c_stack @ shared
        for i in range(len(c_stack)):
            assert product[i].tobytes() == (c_stack[i] @ shared).tobytes()

    def test_lambdas_validated(self):
        source_ds, target_ds = small_domains()
        model = init_model([4, 6, 3], seed=0)
        for bad in ([], [1.0, -1.0], [float("nan")]):
            with pytest.raises(ConfigInvalidError):
                train_lanes(model, source_ds.as_labeled_batch(),
                            target_ds.as_unlabeled_batch(), quick_config(), bad)


def stacked_model(layer_sizes, seeds, activation="tanh"):
    """One lane per seed, each with its own initial parameters."""
    models = [init_model(layer_sizes, seed, activation) for seed in seeds]
    return MlpModel(
        layer_sizes=list(layer_sizes),
        weights=[np.stack(ws) for ws in zip(*(m.weights for m in models))],
        biases=[np.stack(bs) for bs in zip(*(m.biases for m in models))],
        hidden_activation=activation,
    )


def two_pass_grads(model, lambdas, xs, zs, xt, config):
    """A step's gradients built from separate source and target passes."""
    layer = config.alignment_layer_index
    lam = lambdas[:, None, None]
    trace_s = network.forward(model, xs, layer)
    trace_t = network.forward(model, xt, layer)
    g_probs_s = network.grad_cross_entropy_wrt_probs(trace_s.probs, zs)
    if config.method == "entropy_reg":
        g_probs_t = lam * network.grad_entropy_wrt_probs(trace_t.probs)
        grads = network.backward(model, trace_s, g_probs_s, None)
        return grads.add_(network.backward(model, trace_t, g_probs_t, None))
    _, ga_s, ga_t = alignment.penalty_value_and_grads(
        trace_s.feature_acts, trace_t.feature_acts, METHOD_PENALTY_KIND[config.method],
        config.jitter_rel)
    grads = network.backward(model, trace_s, g_probs_s, lam * ga_s)
    return grads.add_(network.backward(model, trace_t, None, lam * ga_t))


class TestStep:
    @pytest.mark.parametrize("method", ["entropy_reg", "coral_euclidean", "meca_geodesic"])
    @pytest.mark.parametrize("layer", [0, 1, None])
    @pytest.mark.parametrize("lambdas", [[2.0], [0.1, 1.0, 5.0]])
    @pytest.mark.parametrize("b", [16, 5])
    def test_joint_pass_matches_two_passes(self, method, layer, lambdas, b):
        source_ds, target_ds = small_domains()
        xs, zs = source_ds.inputs[:, :b], source_ds.labels[:b]
        xt = target_ds.inputs[:, 7 : 7 + b]
        model = stacked_model([4, 8, 5, 3], seeds=range(len(lambdas)))
        config = quick_config(method=method, alignment_layer_index=layer)
        lambdas = np.array(lambdas)
        joint = trainer._lane_grads(model, lambdas, xs, zs, xt, config)
        apart = two_pass_grads(model, lambdas, xs, zs, xt, config)
        for g1, g2 in zip(joint.weights + joint.biases, apart.weights + apart.biases):
            np.testing.assert_allclose(g1, g2, rtol=1e-12)

    def test_in_place_step_never_aliases(self):
        source_ds, target_ds = small_domains()
        source, target = source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch()
        model = init_model([4, 6, 3], seed=0)
        config = quick_config(batch_size=16)
        lanes = trainer._Lanes(model, np.array([0.1, 1.0, 5.0]))

        def live():
            return (lanes.model.weights + lanes.model.biases + lanes.vels
                    + lanes.grads.weights + lanes.grads.biases + [lanes.flat])

        def stacks():
            return lanes.model.weights + lanes.model.biases + lanes.vels

        def laid_out():
            views = stacks() + lanes.grads.weights + lanes.grads.biases
            return all(v.base is lanes.flat and v.flags.c_contiguous for v in views)

        def grads(m, lambdas, out):
            return trainer._lane_grads(m, lambdas, source.inputs[:, :16], source.labels[:16],
                                       target.inputs[:, :16], config, out)

        def steps(count):
            for _ in range(count):
                grads(lanes.model, lanes.lambdas, lanes.grads)
                lanes.momentum_step(config.learning_rate, config.momentum)

        def params(result):
            return result.model.weights + result.model.biases

        def shares(arrays, others):
            return any(np.shares_memory(a, b) for a in arrays for b in others)

        assert not shares(model.weights + model.biases, live())
        steps(2)
        assert laid_out()
        # a lane computed alone writes nothing into the live buffers
        flat = lanes.flat.tobytes()
        assert lanes._failure_alone(grads, 1) is None and lanes.flat.tobytes() == flat
        # the survivors keep their parameters and velocities bit for bit, in
        # a fresh layout
        survivors = [a[[0, 2]].tobytes() for a in stacks()]
        lanes.retire([None, "stop", None], epoch=1, step=2)
        assert laid_out() and [a.tobytes() for a in stacks()] == survivors
        frozen = [a.copy() for a in params(lanes.results[1])]
        steps(2)
        results = lanes.finish()
        frozen += [a.copy() for r in (results[0], results[2]) for a in params(r)]
        steps(2)
        now = params(results[1]) + params(results[0]) + params(results[2])
        assert all(np.array_equal(a, b) for a, b in zip(now, frozen, strict=True))
        assert not any(shares(params(r), live()) for r in results)
        assert not shares(model.weights + model.biases, live())


class TestMetricsCsv:
    def test_format(self, tmp_path):
        source_ds, target_ds = small_domains()
        model = init_model([4, 6, 3], seed=0)
        result = train_run(model, source_ds.as_labeled_batch(),
                           target_ds.as_unlabeled_batch(), quick_config(epochs=3),
                           target_ds.labels)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first) == 6
        # 17 significant digits round-trip exactly
        assert float(first[1]) == result.metrics[0].h_source
        assert float(first[5]) == result.metrics[0].kl_st
