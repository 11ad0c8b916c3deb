import dataclasses

import numpy as np
import pytest

from meca import data, selection
from meca.errors import ConfigInvalidError, InsufficientRecordsError
from meca.network import init_model
from meca.selection import (
    DEFAULT_LAMBDA_GRID,
    SweepRecord,
    SweepResult,
    final_readout,
    selection_gap,
    sweep,
    write_sweep_csv,
)
from meca.trainer import (
    NON_FINITE_LOSS,
    Divergence,
    EpochMetrics,
    TrainConfig,
    TrainRunResult,
    train_run,
    write_metrics_csv,
)

DIVERGED = Divergence(epoch=1, step=1, cause=NON_FINITE_LOSS)


def fake_metrics(e_targets, accs):
    return [
        EpochMetrics(epoch=i + 1, h_source=1.0, e_target=e, pen_value=0.1,
                     target_accuracy=a, kl_st=0.2)
        for i, (e, a) in enumerate(zip(e_targets, accs))
    ]


def stub_train_run(entropy_by_lambda, acc_by_lambda):
    def fake(model, source, target, config, eval_labels=None):
        lam = config.lambda_or_gamma
        e = entropy_by_lambda[lam]
        a = acc_by_lambda[lam]
        return TrainRunResult(model, fake_metrics([e] * 6, [a] * 6))

    return fake


def patch_runs(monkeypatch, run_one):
    """Stub the lockstep trainer with one call of ``run_one`` per lambda."""

    def fake_lanes(model, source, target, config, lambdas, eval_labels=None):
        return [
            run_one(model, source, target,
                    dataclasses.replace(config, lambda_or_gamma=w), eval_labels)
            for w in lambdas
        ]

    monkeypatch.setattr(selection, "train_lanes", fake_lanes)


def tiny_setup(seed=0):
    source_ds, target_ds = data.rotated_blobs_benchmark(seed=seed, per_class=8)
    model = init_model([16, 8, 4, 4], seed=seed)
    config = TrainConfig(method="meca_geodesic", epochs=3, batch_size=8,
                         learning_rate=1e-3, momentum=0.9, seed=seed)
    return (config, source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch(),
            model, target_ds.labels)


class TestGridValidation:
    def test_default_grid_is_the_standard_one(self):
        assert DEFAULT_LAMBDA_GRID == (0.1, 0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 20.0)

    @pytest.mark.parametrize("grid", [[], [0.0, 1.0], [-1.0], [1.0, 1.0], [2.0, 1.0]])
    def test_bad_grids(self, grid):
        config, source, target, model, _ = tiny_setup()
        with pytest.raises(ConfigInvalidError):
            sweep(config, grid, source, target, model)


class TestSelectionRule:
    def test_single_element_grid(self, monkeypatch):
        config, source, target, model, _ = tiny_setup()
        patch_runs(monkeypatch, stub_train_run({3.0: 5.0}, {3.0: 0.8}))
        result = sweep(config, [3.0], source, target, model)
        assert result.selected_lambda == 3.0
        assert result.selection_rule == "argmin final target entropy"

    def test_argmin_entropy(self, monkeypatch):
        config, source, target, model, _ = tiny_setup()
        patch_runs(
            monkeypatch,
            stub_train_run({0.1: 9.0, 1.0: 4.0, 10.0: 6.0},
                           {0.1: 0.5, 1.0: 0.7, 10.0: 0.9}),
        )
        result = sweep(config, [0.1, 1.0, 10.0], source, target, model)
        assert result.selected_lambda == 1.0

    def test_tie_breaks_toward_smaller_lambda(self, monkeypatch):
        config, source, target, model, _ = tiny_setup()
        patch_runs(
            monkeypatch,
            stub_train_run({1.0: 4.0, 2.0: 4.0 - 1e-13, 5.0: 8.0},
                           {1.0: 0.5, 2.0: 0.9, 5.0: 0.6}),
        )
        result = sweep(config, [1.0, 2.0, 5.0], source, target, model)
        assert result.selected_lambda == 1.0

    def test_selection_ignores_accuracy(self, monkeypatch):
        config, source, target, model, _ = tiny_setup()
        patch_runs(
            monkeypatch,
            stub_train_run({1.0: 2.0, 2.0: 3.0}, {1.0: 0.1, 2.0: 0.99}),
        )
        result = sweep(config, [1.0, 2.0], source, target, model)
        assert result.selected_lambda == 1.0

    def test_failed_runs_excluded(self, monkeypatch):
        config, source, target, model, _ = tiny_setup()

        def fake(model, source, target, config, eval_labels=None):
            lam = config.lambda_or_gamma
            if lam == 1.0:
                return TrainRunResult(model, fake_metrics([0.001], [0.9]), DIVERGED)
            return TrainRunResult(model, fake_metrics([5.0] * 6, [0.7] * 6))

        patch_runs(monkeypatch, fake)
        result = sweep(config, [1.0, 2.0], source, target, model)
        assert result.selected_lambda == 2.0
        assert result.records[0].failed

    def test_all_failed_raises(self, monkeypatch):
        config, source, target, model, _ = tiny_setup()

        def fake(model, source, target, config, eval_labels=None):
            return TrainRunResult(model, [], DIVERGED)

        patch_runs(monkeypatch, fake)
        with pytest.raises(InsufficientRecordsError):
            sweep(config, [1.0, 2.0], source, target, model)


class TestFinalReadout:
    def test_mean_of_last_five(self):
        metrics = fake_metrics([10, 9, 8, 7, 6, 5, 4], [0.1] * 7)
        e, _ = final_readout(metrics)
        assert e == pytest.approx(np.mean([8, 7, 6, 5, 4]))

    def test_short_runs_use_what_exists(self):
        metrics = fake_metrics([4, 2], [0.5, 0.7])
        e, a = final_readout(metrics)
        assert e == pytest.approx(3.0)
        assert a == pytest.approx(0.6)


class TestSelectionGap:
    def test_zero_when_selected_is_best(self):
        records = [
            SweepRecord(0.1, 5.0, 0.6),
            SweepRecord(1.0, 2.0, 0.9),
            SweepRecord(5.0, 4.0, 0.8),
        ]
        result = SweepResult(records, selected_lambda=1.0)
        assert selection_gap(result) == 0.0

    def test_positive_gap(self):
        records = [SweepRecord(0.1, 2.0, 0.6), SweepRecord(1.0, 3.0, 0.9)]
        result = SweepResult(records, selected_lambda=0.1)
        assert selection_gap(result) == pytest.approx(0.3)

    def test_needs_two_successful_records(self):
        records = [SweepRecord(0.1, 2.0, 0.6), SweepRecord(1.0, 3.0, 0.9, divergence=DIVERGED)]
        result = SweepResult(records, selected_lambda=0.1)
        with pytest.raises(InsufficientRecordsError):
            selection_gap(result)


class TestRealSweep:
    def test_records_and_files(self, tmp_path):
        config, source, target, model, eval_labels = tiny_setup()
        result = sweep(config, [0.5, 2.0], source, target, model,
                       eval_labels=eval_labels, out_dir=tmp_path)
        assert [r.lam for r in result.records] == [0.5, 2.0]
        for r in result.records:
            assert r.metrics_path is not None
            lines = open(r.metrics_path).read().splitlines()
            assert len(lines) == 4  # header + 3 epochs
        summary = tmp_path / "sweep.csv"
        write_sweep_csv(result, summary)
        lines = summary.read_text().splitlines()
        assert lines[0] == "lambda,final_e_target,final_target_acc,selected"
        assert sum(ln.endswith(",1") for ln in lines[1:]) == 1

    def test_lanes_match_standalone_runs(self, tmp_path):
        # the sweep trains its grid in lockstep; each lane's files must hold
        # the bytes of a standalone run at its lambda
        config, source, target, model, eval_labels = tiny_setup()
        result = sweep(config, [0.5, 2.0], source, target, model,
                       eval_labels=eval_labels, out_dir=tmp_path / "sweep")
        for r in result.records:
            alone = train_run(model, source, target,
                              dataclasses.replace(config, lambda_or_gamma=r.lam), eval_labels)
            path = tmp_path / f"alone_{r.lam:g}.csv"
            write_metrics_csv(alone.metrics, path)
            assert open(r.metrics_path, "rb").read() == path.read_bytes()
            assert (r.final_e_target, r.final_target_acc) == final_readout(alone.metrics)

    def test_shared_seed_and_init(self, tmp_path):
        # identical lambda twice in separate sweeps must reproduce bit-for-bit
        config, source, target, model, eval_labels = tiny_setup()
        r1 = sweep(config, [1.0], source, target, model, eval_labels=eval_labels,
                   out_dir=tmp_path / "a")
        r2 = sweep(config, [1.0], source, target, model, eval_labels=eval_labels,
                   out_dir=tmp_path / "b")
        assert (open(r1.records[0].metrics_path, "rb").read()
                == open(r2.records[0].metrics_path, "rb").read())
