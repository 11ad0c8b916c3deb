import numpy as np
import pytest

from meca import verify


class TestGradientSuite:
    def test_passes_on_clean_build(self):
        result = verify.check_gradients(n_seeds=3)
        assert result.passed, result.detail

    @pytest.mark.usefixtures("corrupted_gradients")
    def test_detects_corruption(self):
        result = verify.check_gradients(n_seeds=1)
        assert not result.passed

    def test_fd_helper_on_quadratic(self):
        # sanity-check the oracle itself on a loss with a known gradient
        from meca.network import init_model

        model = init_model([2, 3], seed=0)

        def loss(m):
            return float(np.sum(m.weights[0] ** 2) + np.sum(m.biases[0] ** 2))

        grads = verify.finite_difference_model_grads(loss, model, step=1e-6)
        assert np.allclose(grads.weights[0], 2.0 * model.weights[0], atol=1e-6)
        assert np.allclose(grads.biases[0], 2.0 * model.biases[0], atol=1e-6)


class TestMetricSuite:
    def test_passes(self):
        result = verify.check_metric_axioms(n_pairs=30)
        assert result.passed, result.detail

    def test_random_spd_is_spd(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 8):
            c = verify.random_spd(rng, dim)
            assert np.all(c.eigvals > 0.0)
            assert np.allclose(c.mat, c.mat.T)


class TestConstructions:
    def test_aligned_domain_entropy(self):
        result = verify.check_aligned_domain_entropy()
        assert result.passed, result.detail

    def test_constant_predictor_counterexample(self):
        result = verify.check_constant_predictor()
        assert result.passed, result.detail


class TestRunner:
    def test_run_all(self):
        results = verify.run_checks(["metric_axioms", "entropy_not_sufficient"])
        assert [r.name for r in results] == ["metric_axioms", "entropy_not_sufficient"]
        assert all(r.passed for r in results)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            verify.run_checks(["bogus"])
