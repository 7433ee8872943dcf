import math
import re
import tempfile
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reference_evals, reference_steps_csv, seed_task_sets

from ortho_lora.config import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    config_from_dict,
    save_config,
)
from ortho_lora.errors import ParameterError
from ortho_lora.model import FLAT, PER_MATRIX, PER_ROLE_CONCAT
from ortho_lora.reporting import (
    RankRow,
    build_summary,
    format_summary,
    rank_sweep,
    read_metrics,
    read_rank_rows,
    recovery,
    summarize_dir,
    write_metrics,
    write_rank_rows,
)
from ortho_lora.surgery import ConflictReport
from ortho_lora.trainer import MetricsLog, run_experiment

# any finite float, with -0.0, the smallest subnormals and +-max always in the mix
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308])


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


def log_config(mode, num_tasks, epochs, steps_per_epoch, record_conflicts=True):
    """The config of a hand-made log of mode: num_tasks regression tasks, one adapter
    layer (PER_MATRIX labels L0.A and L0.B) and epochs * steps_per_epoch steps."""
    return small_config(
        modes=[mode],
        schedule={"epochs": epochs, "batch_size": 8, "steps_per_epoch": steps_per_epoch},
        tasks={"kind": "regression", "num_tasks": num_tasks, "in_dim": 6, "out_dim": 2,
               "conflict_level": 0.0, "noise_sigma": 0.0, "n_train": 32, "n_eval": 16},
        surgery={"record_conflicts": record_conflicts})


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


class TestCsvRoundTrip:
    def test_metrics_round_trip_exact(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        for mode, log in result.logs.items():
            mode_dir = tmp_path / mode
            write_metrics(log, mode_dir)
            back = read_metrics(mode_dir, mode, cfg)
            assert back == log

    @pytest.mark.parametrize("mode", [JOINT, ORTHO_STRUCTURED])
    def test_one_task_run_round_trips(self, tmp_path, mode):
        # one task has no pair, so its run keeps no conflict report
        cfg = small_config(modes=[mode], tasks={
            "kind": "regression", "num_tasks": 1, "in_dim": 6, "out_dim": 2,
            "conflict_level": 0.0, "noise_sigma": 0.0, "n_train": 32, "n_eval": 16})
        log = run_experiment(cfg).logs[mode]
        assert log.steps and log.conflicts == []
        write_metrics(log, tmp_path)
        assert read_metrics(tmp_path, mode, cfg) == log

    def test_summarize_equals_in_memory(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg)
        save_config(cfg, tmp_path / "config.json")
        for mode, log in result.logs.items():
            write_metrics(log, tmp_path / mode)
        assert summarize_dir(tmp_path) == build_summary(result.logs)

    def test_cosine_rounded_past_one_reads_back(self, tmp_path):
        # parallel gradients give cosines a few ulps past +-1; a run can write them
        log = MetricsLog(ORTHO_FLAT, np.full((1, 3), 0.5), np.array([0.01]),
                         metrics=np.full((2, 3), 0.5))
        log.conflicts.append(ConflictReport(FLAT, ["flat"], 3,
                                            np.array([[[2.0], [-2.0], [1.0]]]),
                                            np.array([[[1.0 + 2**-49], [-1.0 - 2**-49], [1.0]]])))
        write_metrics(log, tmp_path)
        assert read_metrics(tmp_path, ORTHO_FLAT, log_config(ORTHO_FLAT, 3, 1, 1)) == log

    def test_rank_rows_round_trip(self, tmp_path):
        # adversarial float values must survive the 17-digit serialization
        rows = [RankRow(2, 0.1 + 0.2, -1e-17, -1e-17 - (0.1 + 0.2)),
                RankRow(4, 3.0000000000000004, 5e-324, 5e-324 - 3.0000000000000004)]
        path = tmp_path / "rank_sweep.csv"
        write_rank_rows(rows, path)
        assert read_rank_rows(path, [2, 4]) == rows


def _hex(floats):
    """Each float's exact hex spelling (-0.0 differs from 0.0)."""
    return [x.hex() for x in floats]


def _log_bits(log):
    """Every field of a log, floats as their exact hex spelling."""
    return (log.losses.shape, [(r.step, r.task, r.loss.hex(), r.lr.hex()) for r in log.steps],
            [(c.scope, c.labels, c.num_tasks, c.dot.shape, _hex(c.dot.ravel().tolist()),
              _hex(c.cosine.ravel().tolist())) for c in log.conflicts],
            log.metrics.shape, _hex(log.metrics.ravel().tolist()))


def _eval_bits(evals):
    return [(r.epoch, r.mode, r.task, r.metric.hex()) for r in evals]


def _drawn(data, elements, shape):
    """A float array of shape whose cells cycle through up to 16 values drawn
    from elements: any value can sit in any cell, while a 12-task run's
    thousands of conflict cells stay cheap to draw."""
    count = min(math.prod(shape), 16)
    values = data.draw(st.lists(elements, min_size=count, max_size=count))
    return np.resize(np.array(values, dtype=float), shape)


# a cosine in [-1, 1], with -0.0, the smallest subnormals and +-1 always in the mix
COSINE = st.floats(-1.0, 1.0) | st.sampled_from([-0.0, 5e-324, -5e-324, 1.0, -1.0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_write_read_metrics_round_trip_bit_exact_on_any_finite_floats(data):
    # like a run of T tasks and E epochs: every step has its conflict rows when
    # JOINT records them and has a task pair, and the (E + 1, T) eval metrics
    # list every task in every epoch
    tasks, epochs = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 4))
    config = log_config(JOINT, tasks, epochs, data.draw(st.integers(1, 2)),
                        record_conflicts=data.draw(st.booleans()))
    steps = config.total_steps()
    rows = [data.draw(st.lists(FINITE, min_size=tasks, max_size=tasks)) for _ in range(epochs + 1)]
    for row in rows:
        try:
            avg = fmean(row)
        except OverflowError:  # the exact sum leaves the float range
            avg = math.inf
        assume(math.isfinite(avg))
    log = MetricsLog(JOINT, _drawn(data, FINITE, (steps, tasks)), _drawn(data, FINITE, (steps,)),
                     metrics=np.array(rows))
    if config.surgery.record_conflicts and tasks > 1 and steps:  # one report, as a run keeps
        shape = (steps, tasks * (tasks - 1) // 2, 2)
        log.conflicts.append(ConflictReport(PER_MATRIX, ["L0.A", "L0.B"], tasks,
                                            _drawn(data, FINITE, shape), _drawn(data, COSINE, shape)))
    with tempfile.TemporaryDirectory() as tmp:
        write_metrics(log, Path(tmp))
        back = read_metrics(Path(tmp), JOINT, config)
    assert _log_bits(back) == _log_bits(log)
    assert _hex(back.final_metrics().values()) == _hex([*rows[-1], fmean(rows[-1])])
    assert list(back.final_metrics()) == [*map(str, range(tasks)), "avg"]
    assert _eval_bits(back.evals) == _eval_bits(reference_evals(log))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_write_metrics_steps_bytes_equal_csv_writer_rendering(data):
    scope, labels = data.draw(st.sampled_from([(FLAT, ["flat"]), (PER_ROLE_CONCAT, ["A", "B"]),
                                               (PER_MATRIX, ["L0.A", "L0.B", "L1.A", "L1.B"])]))
    tasks = data.draw(st.integers(1, 4))
    steps = data.draw(st.integers(0, 3))
    shape = (steps, tasks * (tasks - 1) // 2, len(labels))
    log = MetricsLog(JOINT, np.array([data.draw(FINITE) for _ in range(steps * tasks)])
                     .reshape(steps, tasks), np.array([data.draw(FINITE) for _ in range(steps)]),
                     metrics=np.array([[0.5] * tasks]))
    if data.draw(st.booleans()):  # JOINT without diagnostics writes no conflict rows
        log.conflicts.append(ConflictReport(
            scope, labels, tasks,
            np.array([data.draw(FINITE) for _ in range(math.prod(shape))]).reshape(shape),
            np.array([data.draw(FINITE) for _ in range(math.prod(shape))]).reshape(shape)))
    with tempfile.TemporaryDirectory() as tmp:
        write_metrics(log, Path(tmp))
        assert (Path(tmp) / "steps.csv").read_bytes() == reference_steps_csv(log)


class TestBuildSummary:
    def _log(self, mode, metrics):
        """A log of mode whose last epoch's task metrics are metrics."""
        return MetricsLog(mode=mode, metrics=np.array([[0.0] * len(metrics), metrics]))

    def test_recovery_cells(self):
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, [87.4, 88.1]),
            JOINT: self._log(JOINT, [85.9, 86.5]),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, [87.1, 87.9]),
        }
        table = build_summary(logs)
        rec = table.recovery[ORTHO_STRUCTURED]
        assert rec["0"] == pytest.approx(80.0, abs=0.05)
        assert rec["1"] == pytest.approx(87.5, abs=0.05)

    def test_recovery_undefined_cell_is_none(self):
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, [85.9]),
            JOINT: self._log(JOINT, [85.9]),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, [87.0]),
        }
        assert build_summary(logs).recovery[ORTHO_STRUCTURED]["0"] is None

    def test_no_recovery_without_baselines(self):
        logs = {JOINT: self._log(JOINT, [85.9])}
        assert build_summary(logs).recovery == {}

    def test_format_summary_smoke(self):
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, [1.0]),
            JOINT: self._log(JOINT, [0.5]),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, [0.9]),
        }
        text = format_summary(build_summary(logs))
        assert "SINGLE_TASK" in text and "recovery" in text

    def test_format_summary_columns_align(self):
        # "recovery ORTHO_STRUCTURED" is the longest label; an undefined cell prints "-"
        logs = {
            SINGLE_TASK: self._log(SINGLE_TASK, [1.0, 2.0]),
            JOINT: self._log(JOINT, [0.5, 2.0]),
            ORTHO_FLAT: self._log(ORTHO_FLAT, [0.75, 1.0]),
            ORTHO_STRUCTURED: self._log(ORTHO_STRUCTURED, [0.9, 3.0]),
        }
        lines = format_summary(build_summary(logs)).splitlines()
        header, rows = lines[1], lines[2:]
        assert len(rows) == 6

        def cell_ends(line):  # end offsets of the three value cells, the last three tokens
            return [m.end() for m in re.finditer(r"\S+", line)][-3:]

        assert header.split()[-3:] == ["0", "1", "avg"]
        for row in rows:
            assert cell_ends(row) == cell_ends(header), f"{row!r} vs {header!r}"

    def test_format_summary_orders_task_columns_by_number_then_avg(self):
        # as strings, task 10 would sort between tasks 1 and 2
        logs = {mode: self._log(mode, [float(t) for t in range(12)])
                for mode in (SINGLE_TASK, JOINT)}
        header = format_summary(build_summary(logs)).splitlines()[1]
        assert header.split() == ["mode", *map(str, range(12)), "avg"]


class TestRankSweep:
    def test_single_rank_single_seed(self):
        cfg = small_config(modes=[JOINT])
        rows = rank_sweep(cfg, [2], seed_task_sets(cfg, 1))
        assert len(rows) == 1
        assert rows[0].rank == 2
        assert rows[0].delta == pytest.approx(rows[0].ortho - rows[0].joint, abs=0)

    def test_rows_sorted_ascending(self):
        cfg = small_config(modes=[JOINT])
        rows = rank_sweep(cfg, [4, 1], seed_task_sets(cfg, 1))
        assert [r.rank for r in rows] == [1, 4]

    def test_invalid_rank_rejected(self):
        cfg = small_config()
        with pytest.raises(ParameterError):
            rank_sweep(cfg, [64], seed_task_sets(cfg, 1))

    def test_repeated_rank_rejected_before_training(self):
        cfg = small_config(modes=[JOINT])
        with pytest.raises(ParameterError, match="--ranks 2: repeated"):
            rank_sweep(cfg, [2, 4, 2], seed_task_sets(cfg, 1))

    def test_empty_ranks_rejected(self):
        cfg = small_config()
        with pytest.raises(ParameterError):
            rank_sweep(cfg, [], seed_task_sets(cfg, 1))

    def test_no_task_set_rejected_as_no_seed(self):
        # the seed count is the number of task sets: none is --seeds 0
        with pytest.raises(ParameterError, match="--seeds 0: must be >= 1"):
            rank_sweep(small_config(modes=[JOINT]), [2], [])

    def test_last_seed_past_the_seed_range_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr("ortho_lora.reporting.run_experiment", lambda *args: pytest.fail("trained"))
        cfg = small_config(modes=[JOINT], seed=2**64 - 1)
        with pytest.raises(ParameterError, match="config.seed: must be <="):
            rank_sweep(cfg, [2], seed_task_sets(cfg, 1) * 2)
