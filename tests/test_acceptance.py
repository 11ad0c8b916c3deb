"""Release acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line.  The rotated-blobs benchmark settings live in BENCH
below; the trace, sweep, and gain experiments use their own training horizons,
each within its stated runtime budget on a single core.
"""
import struct
import time

import numpy as np
import pytest

from meca import cli, data, network, selection, trainer, verify
from meca.errors import BadMagicError, InsufficientRecordsError, TruncatedFileError

# canonical rotated-blobs benchmark model/optimizer settings
BENCH = dict(
    per_class=75,
    layer_sizes=[16, 16, 6, 4],
    hidden_activation="tanh",
    batch_size=16,
    learning_rate=5e-4,
    momentum=0.9,
)
BENCH_SEED = 1          # seed of the trace and sweep experiments
TRACE_EPOCHS = 500      # criterion 5
SWEEP_EPOCHS = 500      # criterion 6
GAIN_EPOCHS = 600       # criterion 7
GAIN_SEEDS = range(5)
SELECTED_LAMBDA = 20.0  # the value the criterion-6 sweep selects


# one line per criterion, echoed by the terminal-summary hook in conftest.py
REPORT_LINES = []


def report(num, name, passed, detail, t0):
    line = f"CRITERION {num} {'PASS' if passed else 'FAIL'}  {name}: {detail} [{time.perf_counter() - t0:.1f}s]"
    REPORT_LINES.append(line)
    print(line)
    assert passed, line


def bench_domains(seed):
    source_ds, target_ds = data.rotated_blobs_benchmark(seed=seed, per_class=BENCH["per_class"])
    return source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch(), target_ds.labels


def bench_model(seed):
    return network.init_model(
        BENCH["layer_sizes"], seed=seed, hidden_activation=BENCH["hidden_activation"]
    )


def bench_config(method, weight, epochs, seed):
    return trainer.TrainConfig(
        method=method,
        lambda_or_gamma=weight,
        epochs=epochs,
        batch_size=BENCH["batch_size"],
        learning_rate=BENCH["learning_rate"],
        momentum=BENCH["momentum"],
        seed=seed,
    )


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    result = verify.check_gradients(n_seeds=20, sizes=(3, 5, 4, 3), batch=6)
    report(1, "gradient fidelity", result.passed, result.detail, t0)


def test_criterion_2_metric_axioms():
    t0 = time.perf_counter()
    result = verify.check_metric_axioms(n_pairs=100, dims=(2, 4, 8))
    report(2, "SPD metric axioms and invariances", result.passed, result.detail, t0)


def test_criterion_3_alignment_implies_minimal_entropy():
    t0 = time.perf_counter()
    result = verify.check_aligned_domain_entropy()
    report(3, "aligned-domain entropy construction", result.passed, result.detail, t0)


def test_criterion_4_minimal_entropy_does_not_imply_alignment():
    t0 = time.perf_counter()
    result = verify.check_constant_predictor()
    report(4, "constant-predictor counterexample", result.passed, result.detail, t0)


def test_criterion_5_entropy_descent_under_alignment():
    t0 = time.perf_counter()
    source, target, eval_labels = bench_domains(BENCH_SEED)
    model = bench_model(BENCH_SEED)
    run_src = trainer.train_run(
        model, source, target,
        bench_config("source_only", 0.0, TRACE_EPOCHS, BENCH_SEED), eval_labels,
    )
    run_meca = trainer.train_run(
        model, source, target,
        bench_config("meca_geodesic", 0.1, TRACE_EPOCHS, BENCH_SEED), eval_labels,
    )
    assert not run_src.diverged and not run_meca.diverged
    e_src = [m.e_target for m in run_src.metrics]
    e_meca = [m.e_target for m in run_meca.metrics]
    lower = e_meca[-1] < e_src[-1]
    # non-increasing over 10-epoch windows after epoch 20, 5% noise tolerance
    violations = [
        t for t in range(20, TRACE_EPOCHS - 10 + 1)
        if e_meca[t - 1 + 10] > 1.05 * e_meca[t - 1]
    ]
    detail = (
        f"final entropy {e_meca[-1]:.2f} (geodesic, lambda=0.1) vs {e_src[-1]:.2f} "
        f"(source only); window violations {len(violations)}"
    )
    report(5, "entropy descent under alignment", lower and not violations, detail, t0)


def test_criterion_6_entropy_selection_matches_accuracy():
    t0 = time.perf_counter()
    source, target, eval_labels = bench_domains(BENCH_SEED)
    model = bench_model(BENCH_SEED)
    geo = selection.sweep(
        bench_config("meca_geodesic", 1.0, SWEEP_EPOCHS, BENCH_SEED),
        selection.DEFAULT_LAMBDA_GRID, source, target, model, eval_labels=eval_labels,
    )
    geo_gap = selection.selection_gap(geo)

    euc = selection.sweep(
        bench_config("coral_euclidean", 1.0, SWEEP_EPOCHS, BENCH_SEED),
        selection.DEFAULT_LAMBDA_GRID, source, target, model, eval_labels=eval_labels,
    )
    try:
        euc_gap = f"{selection.selection_gap(euc):.4f}"
    except InsufficientRecordsError:
        euc_gap = "n/a (runs diverged)"
    euc_failed = sum(r.failed for r in euc.records)
    detail = (
        f"geodesic gap {geo_gap:.4f} at selected lambda {geo.selected_lambda:g} "
        f"(tolerance 0.02); euclidean gap {euc_gap} "
        f"[{euc_failed} diverged runs], no threshold asserted"
    )
    report(6, "selection gap on the lambda grid", geo_gap <= 0.02, detail, t0)
    assert geo.selected_lambda == SELECTED_LAMBDA


def test_criterion_7_adaptation_benefit():
    t0 = time.perf_counter()
    gains = []
    for seed in GAIN_SEEDS:
        source, target, eval_labels = bench_domains(seed)
        model = bench_model(seed)
        run_src = trainer.train_run(
            model, source, target,
            bench_config("source_only", 0.0, GAIN_EPOCHS, seed), eval_labels,
        )
        run_meca = trainer.train_run(
            model, source, target,
            bench_config("meca_geodesic", SELECTED_LAMBDA, GAIN_EPOCHS, seed), eval_labels,
        )
        assert not run_src.diverged and not run_meca.diverged
        _, acc_src = selection.final_readout(run_src.metrics)
        _, acc_meca = selection.final_readout(run_meca.metrics)
        gains.append(acc_meca - acc_src)
    median_gain = float(np.median(gains))
    detail = (
        f"median accuracy gain {median_gain:+.3f} over seeds {list(GAIN_SEEDS)} "
        f"(threshold +0.05); per-seed {[f'{g:+.3f}' for g in gains]}"
    )
    report(7, "adaptation benefit of geodesic alignment", median_gain >= 0.05, detail, t0)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    gen_dir = tmp_path / "data"
    assert cli.main(["gen", "--preset", "blobs", "--seed", "0", "--per-class", "8",
                     "--out-dir", str(gen_dir)]) == 0
    src, tgt = str(gen_dir / "source.csv"), str(gen_dir / "target.csv")
    tiny = ["--epochs", "3", "--batch-size", "8", "--hidden", "8,4",
            "--lr", "0.001", "--seed", "0", "--source", src, "--target", tgt]

    for name in ("t1", "t2"):
        assert cli.main(["train", "--method", "meca", "--lambda", "1",
                         "--out-dir", str(tmp_path / name), *tiny]) == 0
    train_ok = (
        (tmp_path / "t1" / "metrics.csv").read_bytes()
        == (tmp_path / "t2" / "metrics.csv").read_bytes()
        and (tmp_path / "t1" / "model.bin").read_bytes()
        == (tmp_path / "t2" / "model.bin").read_bytes()
    )

    # the sweep trains its grid in lockstep; each lane must hold the bytes of
    # a standalone train at its lambda
    assert cli.main(["sweep", "--grid", "0.5,2,5", "--out-dir", str(tmp_path / "s"), *tiny]) == 0
    sweep_ok = True
    for v in ("0.5", "2", "5"):
        assert cli.main(["train", "--method", "meca", "--lambda", v,
                         "--out-dir", str(tmp_path / f"alone_{v}"), *tiny]) == 0
        sweep_ok &= (
            (tmp_path / "s" / f"metrics_lambda_{v}.csv").read_bytes()
            == (tmp_path / f"alone_{v}" / "metrics.csv").read_bytes()
        )
    detail = (
        f"train bytes identical: {train_ok}; "
        f"sweep lanes identical to standalone trains: {sweep_ok}"
    )
    report(8, "byte-identical reruns", train_ok and sweep_ok, detail, t0)


def test_criterion_9_format_round_trips(tmp_path):
    t0 = time.perf_counter()
    ds = data.gen_blobs(3, 11, 5, seed=42)
    csv_path = tmp_path / "ds.csv"
    data.write_csv(ds, csv_path)
    back = data.read_csv(csv_path)
    csv_err = float(np.max(np.abs(back.inputs - ds.inputs)))
    csv_ok = csv_err <= 1e-15 and np.array_equal(back.labels, ds.labels)

    images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
    blob = struct.pack(">IIII", 0x00000803, 2, 28, 28) + images.tobytes()
    idx_path = tmp_path / "img.idx"
    idx_path.write_bytes(blob)
    parsed = data.read_idx(idx_path)
    idx_ok = parsed.inputs.shape == (784, 2) and parsed.inputs.max() <= 1.0

    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000777, 2, 28, 28) + images.tobytes())
    with pytest.raises(BadMagicError):
        data.read_idx(bad_magic)
    cut = tmp_path / "cut.idx"
    cut.write_bytes(blob[:-100])
    with pytest.raises(TruncatedFileError):
        data.read_idx(cut)

    detail = f"CSV max error {csv_err:.1e} (tolerance 1e-15); IDX fixture parsed, corrupt files rejected"
    report(9, "format round-trips", csv_ok and idx_ok, detail, t0)
