"""Atomic output files: a write that fails part-way keeps the old file and
leaves no temporary file; a write that succeeds leaves only its target."""

import numpy as np
import pytest

from ortho_lora.adapter import init_adapter, load_adapter, save_adapter
from ortho_lora.config import JOINT, config_from_dict, load_config, save_config
from ortho_lora.dense import Rng
from ortho_lora.files import atomic_write
from ortho_lora.reporting import RankRow, read_rank_rows, write_metrics, write_rank_rows
from ortho_lora.trainer import MetricsLog


def _files(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_failing_block_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_write(path) as fh:
            fh.write("new, in part")
            fh.flush()
            raise RuntimeError("disk full")
    assert _files(tmp_path) == {path.relative_to(tmp_path): b"old\n"}


def _log(steps):
    """A one-task log of these losses; a None loss is an object cell the writer
    fails on, after the rows before it."""
    return MetricsLog(JOINT, np.array([[loss] for loss in steps]), np.full(len(steps), 0.01),
                      metrics=np.array([[0.5]]))


@pytest.mark.parametrize("write,good,bad", [
    (write_metrics, _log([0.5, 0.25]), _log([0.5, None])),
    (lambda rows, d: write_rank_rows(rows, d / "rank_sweep.csv"),
     [RankRow(2, 0.5, 0.4, -0.1)], [RankRow(2, 0.5, 0.4, -0.1), RankRow(4, 0.5, None, 0.1)]),
], ids=["write_metrics", "write_rank_rows"])
def test_writer_failing_after_its_first_rows_keeps_the_old_files(tmp_path, write, good, bad):
    write(good, tmp_path)
    before = _files(tmp_path)
    with pytest.raises(TypeError):  # the None cell fails after earlier rows were written
        write(bad, tmp_path)
    assert _files(tmp_path) == before


def test_writers_leave_only_their_targets(tmp_path):
    cfg = config_from_dict({
        "version": 1, "seed": 0, "modes": [JOINT],
        "model": {"layer_dims": [4, 4], "rank": 2, "alpha": 2.0, "sigma_init": 0.02},
        "optimizer": {"lr_base": 0.01}, "schedule": {"epochs": 1, "batch_size": 4},
        "tasks": {"kind": "regression", "num_tasks": 2, "in_dim": 4, "out_dim": 2,
                  "conflict_level": 0.5, "noise_sigma": 0.0, "n_train": 8, "n_eval": 4}})
    adapter = init_adapter(4, 4, 2, 0.02, 2.0, Rng(0))
    rows = [RankRow(2, 0.5, 0.25, -0.25)]  # delta = ortho - joint, as sweep-rank writes it
    for _ in range(2):  # the second round replaces every file
        save_config(cfg, tmp_path / "config.json")
        save_adapter(adapter, tmp_path / "adapter.json")
        write_rank_rows(rows, tmp_path / "rank_sweep.csv")
        write_metrics(_log([0.5]), tmp_path / JOINT)
    assert sorted(map(str, _files(tmp_path))) == [
        "JOINT/eval.csv", "JOINT/steps.csv", "adapter.json", "config.json", "rank_sweep.csv"]
    assert load_config(tmp_path / "config.json") == cfg
    assert read_rank_rows(tmp_path / "rank_sweep.csv", [2]) == rows
    assert (load_adapter(tmp_path / "adapter.json").a == adapter.a).all()
