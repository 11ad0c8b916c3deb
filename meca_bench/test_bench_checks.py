"""The benchmark's output checks pass on meca's outputs and fail on each
kind of corruption: a nudged metric, a moved selection flag, a tanh model read
as relu, and a truncated metrics CSV."""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from meca import cli  # noqa: E402

TINY = workloads.Workload(
    "tiny", "train", "meca", per_class=12, hidden=(8, 4), activation="tanh",
    batch_size=8, lr=1e-3, epochs=6, weight=1.0,
)
GRID = (0.5, 2.0, 5.0)
SEED = 3


def meca(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    data = workloads.make_domains(TINY, SEED)
    source, target = root / "source.csv", root / "target.csv"
    workloads.write_dataset_csv(data[0], data[1], source)
    workloads.write_dataset_csv(data[2], data[3], target)
    meca(workloads.argv(TINY, SEED, source, target, root / "train"))
    sweep = workloads.train_flags(TINY, SEED, source, target, root / "sweep")[:-2]
    meca(["sweep", *sweep, "--grid", ",".join(f"{v:g}" for v in GRID)])
    return root, data


def check_train(train_dir: Path, data, activation: str = "tanh") -> None:
    metrics = checks.read_metrics_csv(train_dir / "metrics.csv", TINY.epochs)
    checks.check_rows(metrics, data[2].shape[1], TINY.classes)
    checks.check_last_row(metrics, train_dir / "model.bin", activation, *data, "log_euclidean")


def check_sweep(sweep_dir: Path, data) -> float:
    return checks.check_sweep(sweep_dir, GRID, TINY.epochs, data[2].shape[1], TINY.classes)


def copy_dir(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_clean_outputs_pass(runs):
    root, data = runs
    check_train(root / "train", data)
    assert check_sweep(root / "sweep", data) in GRID


@pytest.mark.parametrize("column", ["h_source", "e_target", "pen_value", "target_acc", "kl_st"])
def test_metric_nudged_by_1e_6_relative_fails(runs, tmp_path, column):
    root, data = runs
    bad = copy_dir(root / "train", tmp_path / "train")
    lines = (bad / "metrics.csv").read_text().splitlines()
    i = checks.METRICS_HEADER.split(",").index(column)
    row = lines[-1].split(",")
    row[i] = format(float(row[i]) * (1.0 + 1e-6), ".17g")
    lines[-1] = ",".join(row)
    (bad / "metrics.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match=column):
        check_train(bad, data)


def test_selected_flag_moved_fails(runs, tmp_path):
    root, data = runs
    bad = copy_dir(root / "sweep", tmp_path / "sweep")
    lines = (bad / "sweep_summary.csv").read_text().splitlines()
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    moved = (flags.index("1") + 1) % len(flags)
    for j, line in enumerate(lines[1:], start=1):
        lines[j] = line.rsplit(",", 1)[0] + ("," + ("1" if j - 1 == moved else "0"))
    (bad / "sweep_summary.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="selected flags"):
        check_sweep(bad, data)


def test_tanh_model_read_as_relu_fails(runs):
    root, data = runs
    with pytest.raises(checks.CheckError, match="last-row"):
        check_train(root / "train", data, activation="relu")


def test_metrics_csv_truncated_by_one_row_fails(runs, tmp_path):
    root, data = runs
    bad = copy_dir(root / "train", tmp_path / "train")
    lines = (bad / "metrics.csv").read_text().splitlines()
    (bad / "metrics.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckError, match="rows"):
        check_train(bad, data)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
