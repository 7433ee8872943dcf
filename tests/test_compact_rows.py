"""The rows a run logs and that summarize reads back stay compact.

A run's log holds its losses and lrs as (steps, T) and (steps,) columns, one
columnar ConflictReport for the whole run and its eval metrics as an
(epochs + 1, T) array (StepRecords and EvalRecords are built only on
demand, by ``MetricsLog.steps`` and ``MetricsLog.evals``), and
``summarize`` reads every mode's rows back; per-row Python objects, not
arrays, set a run's peak memory.
"""

import tracemalloc

import pytest

from ortho_lora.config import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    VALID_MODES,
    config_from_dict,
    save_config,
)
from ortho_lora.model import FLAT
from ortho_lora.reporting import read_metrics, summarize_dir, write_metrics
from ortho_lora.surgery import ConflictReport
from ortho_lora.trainer import EvalRecord, StepRecord, run_experiment, run_mode


CONFIG = config_from_dict({
    "version": 1,
    "seed": 3,
    "modes": list(VALID_MODES),
    "model": {"layer_dims": [6, 5, 4], "rank": 2, "alpha": 4.0, "sigma_init": 0.02},
    "optimizer": {"lr_base": 0.01},
    "schedule": {"epochs": 3, "batch_size": 4},
    "tasks": {"kind": "regression", "num_tasks": 3, "in_dim": 6, "out_dim": 2,
              "conflict_level": 0.9, "noise_sigma": 0.0, "n_train": 64, "n_eval": 16},
    "surgery": {"scope": "PER_MATRIX"},
})


@pytest.mark.parametrize("record", [
    StepRecord(0, 0, 0.5, 0.01),
    EvalRecord(0, JOINT, "avg", 0.5),
    ConflictReport(FLAT, ["flat"], 2, None, None),
], ids=lambda r: type(r).__name__)
def test_records_have_slots_and_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("mode", [JOINT, ORTHO_FLAT, ORTHO_STRUCTURED])
def test_reports_of_a_run_share_one_labels_list(mode):
    log, models = run_mode(CONFIG, mode)
    (report,) = log.conflicts
    layout = models[0].layout
    assert report.labels is layout.labels(report.scope)
    assert report.num_tasks == 3 and report.pair_ids() == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("mode", [JOINT, ORTHO_FLAT, ORTHO_STRUCTURED])
def test_report_dot_owns_only_its_own_rows(mode):
    # a view would keep the 3x larger (dots, both diagonals) array alive with
    # it, and the log keeps no Gram array: the one report owns its (S, P, G) columns
    log, _ = run_mode(CONFIG, mode)
    (report,) = log.conflicts
    shape = (CONFIG.total_steps(), 3, len(report.labels))
    for column in (report.dot, report.cosine):
        assert column.base is None and column.shape == shape
        assert column.nbytes == shape[0] * shape[1] * shape[2] * 8
    assert set(vars(log)) == {"mode", "losses", "lrs", "conflicts", "metrics"}
    assert log.losses.shape == (CONFIG.total_steps(), 3) and log.lrs.shape == shape[:1]
    assert log.losses.nbytes == 3 * log.lrs.nbytes == shape[0] * 3 * 8
    assert log.metrics.shape == (CONFIG.schedule.epochs + 1, 3)
    assert len(log.steps) == log.losses.size and len(log.evals) == log.metrics.size + len(log.metrics)


def _peak(fn, *args):
    """fn(*args)'s traced peak in bytes, over what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_summarize_holds_one_modes_step_rows_at_a_time(tmp_path):
    # the summary reads only eval rows, so each mode's read-back is dropped
    # once checked: the peak is about one read_metrics, not the sum of all
    result = run_experiment(CONFIG)
    save_config(CONFIG, tmp_path / "config.json")
    for mode, log in result.logs.items():
        write_metrics(log, tmp_path / mode)
    largest = max(_peak(read_metrics, tmp_path / mode, mode, CONFIG)
                  for mode in VALID_MODES)
    assert _peak(summarize_dir, tmp_path) <= 1.5 * largest
