"""The lambda sweep: train at each grid value, pick the weight that minimizes
final target entropy, and report how far that choice sits from the best
achievable accuracy.

Selection never sees target labels; accuracy is recorded for reporting only.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import format_float
from .errors import ConfigInvalidError, InsufficientRecordsError
from .network import LabeledBatch, MlpModel, UnlabeledBatch
from .trainer import Divergence, EpochMetrics, TrainConfig, train_lanes, write_metrics_csv

DEFAULT_LAMBDA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 20.0)
SELECTION_RULE = "argmin final target entropy"
FINAL_WINDOW = 5          # final readout = mean over the last 5 epochs
ENTROPY_TIE_ATOL = 1e-12  # entropies this close count as a tie; smaller lambda wins
SWEEP_HEADER = "lambda,final_e_target,final_target_acc,selected"


@dataclass
class SweepRecord:
    lam: float
    final_e_target: float
    final_target_acc: float
    metrics_path: str | None = None
    failed: bool = False
    divergence: Divergence | None = None


@dataclass
class SweepResult:
    records: list[SweepRecord]
    selected_lambda: float
    selection_rule: str = SELECTION_RULE

    def selected_record(self) -> SweepRecord:
        for r in self.records:
            if r.lam == self.selected_lambda:
                return r
        raise InsufficientRecordsError("selected lambda missing from records")


def final_readout(metrics: list[EpochMetrics]) -> tuple[float, float]:
    """(entropy, accuracy) averaged over the last few epochs to damp batch noise."""
    window = metrics[-FINAL_WINDOW:]
    e = float(np.mean([m.e_target for m in window]))
    a = float(np.mean([m.target_accuracy for m in window]))
    return e, a


def _check_grid(lambda_grid) -> list[float]:
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ConfigInvalidError("lambda grid is empty")
    if any(v <= 0.0 for v in grid):
        raise ConfigInvalidError(f"lambda grid values must be > 0: {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigInvalidError(f"lambda grid must be strictly increasing: {grid}")
    return grid


def sweep(
    base_config: TrainConfig,
    lambda_grid,
    source: LabeledBatch,
    target: UnlabeledBatch,
    model: MlpModel,
    eval_labels: np.ndarray | None = None,
    out_dir=None,
) -> SweepResult:
    """Train at every lambda of the grid, all from the same initial model,
    seed, and data order, so curves differ only through lambda.  The grid
    trains as one lockstep run (``train_lanes``, one lane per lambda), and
    each lane's outcome is byte-identical to ``train_run`` at its lambda.  A
    diverged run is flagged and excluded from selection.
    """
    grid = _check_grid(lambda_grid)
    base_config.validate()
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    results = train_lanes(model, source, target, base_config, grid, eval_labels)

    records: list[SweepRecord] = []
    for lam, result in zip(grid, results):
        if result.metrics:
            final_e, final_acc = final_readout(result.metrics)
        else:
            final_e, final_acc = float("nan"), float("nan")
        path = None
        if out_dir is not None:
            path = str(Path(out_dir) / f"metrics_lambda_{lam:g}.csv")
            write_metrics_csv(result.metrics, path)
        records.append(
            SweepRecord(
                lam=lam,
                final_e_target=final_e,
                final_target_acc=final_acc,
                metrics_path=path,
                failed=result.diverged,
                divergence=result.divergence,
            )
        )

    usable = [r for r in records if not r.failed and np.isfinite(r.final_e_target)]
    if not usable:
        raise InsufficientRecordsError("every sweep run failed; nothing to select")
    best = usable[0]
    for r in usable[1:]:
        if r.final_e_target < best.final_e_target - ENTROPY_TIE_ATOL:
            best = r
    return SweepResult(records=records, selected_lambda=best.lam)


def selection_gap(result: SweepResult) -> float:
    """Best achievable accuracy over the grid minus accuracy at the selected
    lambda; zero when entropy selection also maximizes accuracy.
    """
    usable = [r for r in result.records if not r.failed and np.isfinite(r.final_target_acc)]
    if len(usable) < 2:
        raise InsufficientRecordsError(
            f"selection gap needs >= 2 successful records, got {len(usable)}"
        )
    best_acc = max(r.final_target_acc for r in usable)
    return best_acc - result.selected_record().final_target_acc


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in result.records:
            selected = int(r.lam == result.selected_lambda)
            fh.write(
                ",".join(
                    [format_float(v) for v in (r.lam, r.final_e_target, r.final_target_acc)]
                    + [str(selected)]
                )
                + "\n"
            )
