import json

import numpy as np
import pytest

from meca import cli
from meca.trainer import METRICS_HEADER


def run(*argv):
    return cli.main(list(argv))


def gen_pair(tmp_path, per_class=8, seed=0):
    d = tmp_path / "data"
    code = run("gen", "--preset", "blobs", "--seed", str(seed),
               "--per-class", str(per_class), "--out-dir", str(d))
    assert code == 0
    return d / "source.csv", d / "target.csv"


TINY_TRAIN = ["--epochs", "3", "--batch-size", "8", "--lr", "0.001",
              "--hidden", "8,4", "--seed", "0"]


class TestGen:
    def test_writes_pair(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        assert src.exists() and tgt.exists()
        header = src.read_text().splitlines()[0]
        assert header == ",".join([f"f{i}" for i in range(16)] + ["label"])

    def test_deterministic(self, tmp_path):
        a_src, _ = gen_pair(tmp_path / "a")
        b_src, _ = gen_pair(tmp_path / "b")
        assert a_src.read_bytes() == b_src.read_bytes()

    def test_moons_preset(self, tmp_path):
        d = tmp_path / "m"
        assert run("gen", "--preset", "moons", "--seed", "1",
                   "--per-class", "10", "--out-dir", str(d)) == 0
        assert (d / "source.csv").exists()

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run("gen", "--preset", "spirals", "--out-dir", str(tmp_path)) == 1


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        out = tmp_path / "run"
        code = run("train", "--method", "meca", "--lambda", "0.5",
                   "--source", str(src), "--target", str(tgt),
                   "--out-dir", str(out), *TINY_TRAIN)
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines[1].split(",")) == 6
        assert (out / "model.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["method"] == "meca_geodesic"
        assert manifest["layer_sizes"] == [16, 8, 4, 4]
        assert manifest["build"]["numpy"] == np.__version__
        assert manifest["build"]["lapack"]["name"]

    def test_train_deterministic_bytes(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        for name in ("r1", "r2"):
            assert run("train", "--method", "meca", "--lambda", "1",
                       "--source", str(src), "--target", str(tgt),
                       "--out-dir", str(tmp_path / name), *TINY_TRAIN) == 0
        assert ((tmp_path / "r1" / "metrics.csv").read_bytes()
                == (tmp_path / "r2" / "metrics.csv").read_bytes())
        assert ((tmp_path / "r1" / "model.bin").read_bytes()
                == (tmp_path / "r2" / "model.bin").read_bytes())

    def test_coral_lambda_zero_matches_source_only(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        assert run("train", "--method", "coral", "--lambda", "0",
                   "--source", str(src), "--target", str(tgt),
                   "--out-dir", str(tmp_path / "coral0"), *TINY_TRAIN) == 0
        assert run("train", "--method", "source_only",
                   "--source", str(src), "--target", str(tgt),
                   "--out-dir", str(tmp_path / "srconly"), *TINY_TRAIN) == 0
        acc = {}
        for name in ("coral0", "srconly"):
            last = (tmp_path / name / "metrics.csv").read_text().splitlines()[-1]
            acc[name] = float(last.split(",")[4])
        assert acc["coral0"] == acc["srconly"]

    def test_missing_source_is_usage_error(self, tmp_path):
        assert run("train", "--target", "t.csv", "--out-dir", str(tmp_path)) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("train", "--source", str(tmp_path / "no.csv"),
                   "--target", str(tmp_path / "no.csv"),
                   "--out-dir", str(tmp_path / "out"), *TINY_TRAIN) == 3

    def test_empty_target_is_io_error(self, tmp_path, capsys):
        src, tgt = gen_pair(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text(tgt.read_text().splitlines()[0] + "\n")
        assert run("train", "--source", str(src), "--target", str(empty),
                   "--out-dir", str(tmp_path / "out"), *TINY_TRAIN) == 3
        assert "no data rows" in capsys.readouterr().err

    def test_unlabeled_source_rejected(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        unlabeled = tmp_path / "unlabeled.csv"
        text = src.read_text().splitlines()
        rows = [text[0]] + [",".join(r.split(",")[:-1] + ["-1"]) for r in text[1:]]
        unlabeled.write_text("\n".join(rows) + "\n")
        assert run("train", "--source", str(unlabeled), "--target", str(tgt),
                   "--out-dir", str(tmp_path / "out"), *TINY_TRAIN) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        src, tgt = gen_pair(tmp_path)
        code = run("train", "--method", "coral", "--lambda", "1e6", "--lr", "0.05",
                   "--epochs", "10", "--batch-size", "8", "--hidden", "8,4",
                   "--source", str(src), "--target", str(tgt),
                   "--out-dir", str(tmp_path / "div"))
        assert code == 2
        manifest = json.loads((tmp_path / "div" / "manifest.json").read_text())
        assert manifest["diverged"] is True
        assert manifest["divergence"] == {"epoch": 1, "step": 3, "cause": "non-finite loss"}
        assert "epoch 1, step 3: non-finite loss" in capsys.readouterr().err


class TestSweep:
    def test_single_value_grid(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        out = tmp_path / "sweep1"
        code = run("sweep", "--grid", "1", "--source", str(src), "--target", str(tgt),
                   "--out-dir", str(out), *TINY_TRAIN)
        assert code == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "lambda,final_e_target,final_target_acc,selected"
        assert len(lines) == 2
        assert lines[1].endswith(",1")

    def test_jobs_is_usage_error(self, tmp_path):
        # the grid trains as one lockstep run; there are no workers to set
        src, tgt = gen_pair(tmp_path)
        assert run("sweep", "--grid", "0.5,2", "--jobs", "2",
                   "--source", str(src), "--target", str(tgt),
                   "--out-dir", str(tmp_path / "jobs"), *TINY_TRAIN) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_recorded_per_lambda(self, tmp_path, capsys):
        src, tgt = gen_pair(tmp_path)
        out = tmp_path / "div"
        code = run("sweep", "--method", "coral", "--grid", "0.01,1,1e6", "--lr", "0.05",
                   "--epochs", "10", "--batch-size", "8", "--hidden", "8,4",
                   "--source", str(src), "--target", str(tgt), "--out-dir", str(out))
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["build"]["numpy"] == np.__version__
        assert manifest["grid"] == [0.01, 1.0, 1e6]
        assert manifest["divergence"] == [
            None, None, {"epoch": 1, "step": 3, "cause": "non-finite loss"}
        ]
        err = capsys.readouterr().err
        assert "lambda 1e+06 (epoch 1, step 3: non-finite loss)" in err
        assert "lambda 1 " not in err
        # the other lanes ran every epoch
        for lam in ("0.01", "1"):
            assert len((out / f"metrics_lambda_{lam}.csv").read_text().splitlines()) == 11

    def test_bad_grid_is_usage_error(self, tmp_path):
        src, tgt = gen_pair(tmp_path)
        assert run("sweep", "--grid", "2,1", "--source", str(src),
                   "--target", str(tgt), "--out-dir", str(tmp_path / "bad"),
                   *TINY_TRAIN) == 1


class TestVerify:
    def test_subset_passes(self):
        assert run("verify", "--checks", "metric_axioms,entropy_not_sufficient") == 0

    def test_corrupted_gradient_detected(self):
        assert run("verify", "--checks", "gradients",
                   "--corrupt-gradient", "0.05") == 2

    def test_unknown_check_is_usage_error(self):
        assert run("verify", "--checks", "nonsense") == 1
