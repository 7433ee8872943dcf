import re

import numpy as np
import pytest

from ortho_lora import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    ConflictPair,
    ConflictReport,
    MetricsLog,
    ParameterError,
    build_summary,
    conflict_frequency,
    config_from_dict,
    rank_sweep,
    recovery,
    run_experiment,
    summarize_dir,
    write_metrics,
)
from ortho_lora.reporting import format_summary, read_metrics, read_rank_rows, write_rank_rows
from ortho_lora.trainer import EvalRecord


def small_config(**overrides):
    raw = {
        "version": 1,
        "seed": 1,
        "modes": [SINGLE_TASK, JOINT, ORTHO_STRUCTURED],
        "model": {"layer_dims": [6, 6], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
        "optimizer": {"lr_base": 0.01},
        "schedule": {"epochs": 1, "batch_size": 8},
        "tasks": {"kind": "classification", "num_tasks": 2, "in_dim": 6, "out_dim": 2,
                  "conflict_level": 0.9, "noise_sigma": 0.0, "n_train": 32, "n_eval": 16},
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestRecovery:
    # the quadruples exercise the published summary-table arithmetic
    @pytest.mark.parametrize(
        "single,joint,ortho,expected",
        [
            (87.4, 85.9, 87.1, 80.0),
            (88.1, 86.5, 87.9, 87.5),
            (94.2, 92.8, 93.9, 78.6),
            (89.9, 88.4, 89.6, 80.0),
        ],
    )
    def test_reference_values(self, single, joint, ortho, expected):
        assert recovery(single, joint, ortho) == pytest.approx(expected, abs=0.05)

    def test_full_recovery(self):
        assert recovery(90.0, 85.0, 90.0) == 100.0

    def test_no_recovery(self):
        assert recovery(90.0, 85.0, 85.0) == 0.0

    def test_undefined_when_single_equals_joint(self):
        with pytest.raises(ParameterError):
            recovery(90.0, 90.0, 95.0)


class TestConflictFrequency:
    def _log_with_dots(self, dots):
        log = MetricsLog(mode=JOINT)
        log.conflicts.append(ConflictReport(
            step=0,
            scope="PER_MATRIX",
            pairs=[ConflictPair(0, 1, "L0.A", d, 0.0, d < 0) for d in dots],
        ))
        return log

    def test_all_positive(self):
        assert conflict_frequency(self._log_with_dots([0.1, 0.2, 0.0])) == 0.0

    def test_all_negative(self):
        assert conflict_frequency(self._log_with_dots([-0.1, -0.2])) == 1.0

    def test_three_of_eight(self):
        dots = [-1.0, 0.5, -0.2, 0.1, 0.9, -0.3, 0.4, 0.7]
        assert conflict_frequency(self._log_with_dots(dots)) == 0.375

    def test_empty_log_rejected(self):
        with pytest.raises(ParameterError):
            conflict_frequency(MetricsLog(mode=JOINT))


class TestCsvRoundTrip:
    def test_metrics_round_trip_exact(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        for mode, log in result.logs.items():
            mode_dir = tmp_path / mode
            write_metrics(log, mode_dir)
            back = read_metrics(mode_dir, mode)
            assert back == log

    def test_summarize_equals_in_memory(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        for mode, log in result.logs.items():
            write_metrics(log, tmp_path / mode)
        assert summarize_dir(tmp_path) == build_summary(result.logs)

    def test_rank_rows_round_trip(self, tmp_path):
        from ortho_lora import RankRow

        # adversarial float values must survive the 17-digit serialization
        rows = [RankRow(2, 0.1 + 0.2, -1e-17, 3.0000000000000004)]
        path = tmp_path / "rank_sweep.csv"
        write_rank_rows(rows, path)
        assert read_rank_rows(path) == rows


class TestBuildSummary:
    def _log(self, mode, metrics_by_task):
        log = MetricsLog(mode=mode)
        for task, metric in metrics_by_task.items():
            log.evals.append(EvalRecord(epoch=1, mode=mode, task=task, metric=metric))
        return log

    def test_recovery_cells(self):
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, {"0": 87.4, "1": 88.1, "avg": 87.75}),
            JOINT: self._log(JOINT, {"0": 85.9, "1": 86.5, "avg": 86.2}),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, {"0": 87.1, "1": 87.9, "avg": 87.5}),
        }
        table = build_summary(logs)
        rec = table.recovery[ORTHO_STRUCTURED]
        assert rec["0"] == pytest.approx(80.0, abs=0.05)
        assert rec["1"] == pytest.approx(87.5, abs=0.05)

    def test_recovery_undefined_cell_is_none(self):
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, {"0": 85.9}),
            JOINT: self._log(JOINT, {"0": 85.9}),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, {"0": 87.0}),
        }
        assert build_summary(logs).recovery[ORTHO_STRUCTURED]["0"] is None

    def test_no_recovery_without_baselines(self):
        logs = {JOINT: self._log(JOINT, {"0": 85.9})}
        assert build_summary(logs).recovery == {}

    def test_format_summary_smoke(self):
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, {"0": 1.0, "avg": 1.0}),
            JOINT: self._log(JOINT, {"0": 0.5, "avg": 0.5}),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, {"0": 0.9, "avg": 0.9}),
        }
        text = format_summary(build_summary(logs))
        assert "SINGLE_TASK" in text and "recovery" in text

    def test_format_summary_columns_align(self):
        # "recovery ORTHO_STRUCTURED" is the longest label; an undefined cell prints "-"
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, {"0": 1.0, "1": 2.0, "avg": 1.5}),
            JOINT: self._log(JOINT, {"0": 0.5, "1": 2.0, "avg": 1.25}),
            ORTHO_FLAT: self._log(ORTHO_FLAT, {"0": 0.75, "1": 1.0, "avg": 0.875}),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, {"0": 0.9, "1": 3.0, "avg": 1.95}),
        }
        lines = format_summary(build_summary(logs)).splitlines()
        header, rows = lines[1], lines[2:]
        assert len(rows) == 6

        def cell_ends(line):  # end offsets of the three value cells, the last three tokens
            return [m.end() for m in re.finditer(r"\S+", line)][-3:]

        assert header.split()[-3:] == ["0", "1", "avg"]
        for row in rows:
            assert cell_ends(row) == cell_ends(header), f"{row!r} vs {header!r}"


class TestRankSweep:
    def test_single_rank_single_seed(self):
        cfg = small_config(modes=[JOINT])
        rows = rank_sweep(cfg, [2], num_seeds=1)
        assert len(rows) == 1
        assert rows[0].rank == 2
        assert rows[0].delta == pytest.approx(rows[0].ortho - rows[0].joint, abs=0)

    def test_rows_sorted_ascending(self):
        cfg = small_config(modes=[JOINT])
        rows = rank_sweep(cfg, [4, 1], num_seeds=1)
        assert [r.rank for r in rows] == [1, 4]

    def test_invalid_rank_rejected(self):
        cfg = small_config()
        with pytest.raises(ParameterError):
            rank_sweep(cfg, [64], num_seeds=1)

    def test_empty_ranks_rejected(self):
        with pytest.raises(ParameterError):
            rank_sweep(small_config(), [], num_seeds=1)
