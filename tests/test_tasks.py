import numpy as np
import pytest

from helpers import dump_csv, stack_of, task_gradient

from ortho_lora import (
    CLASSIFICATION,
    REGRESSION,
    ParameterError,
    Rng,
    TaskSpec,
    build_conflict_report,
    build_model,
    make_conflict_set,
    subset_batch,
)
from ortho_lora.surgery import PER_MATRIX


class TestRegressionConflict:
    def test_zero_conflict_identical_teachers_and_gradients(self):
        ts = make_conflict_set([REGRESSION] * 3, 6, 3, conflict_level=0.0,
                               noise_sigma=0.0, n_train=32, n_eval=8, rng=Rng(0))
        for w in ts.teachers[1:]:
            assert np.array_equal(w, ts.teachers[0])
        # at a shared parameter point (identical heads included) with shared
        # inputs, all task gradients agree
        model = build_model([6, 5], 2, 4.0, 0.1, ts.specs, Rng(1))
        for layer in model.layers:
            layer.adapter.b[...] = Rng(2).standard_normal(layer.adapter.b.shape)
        for head in model.heads[1:]:
            head[...] = model.heads[0]
        shared_x = ts.train[0].x
        grads = []
        for t in range(3):
            batch = subset_batch(ts.train[t], list(range(16)))
            batch.x[...] = shared_x[:, :16]
            batch.y[...] = ts.teachers[t] @ batch.x
            grads.append(task_gradient(model, batch))
        report = build_conflict_report(0, stack_of(grads), PER_MATRIX)
        for p in report.pairs:
            assert p.cosine == pytest.approx(1.0, abs=1e-9)

    def test_full_conflict_antipodal_teachers(self):
        ts = make_conflict_set([REGRESSION] * 2, 6, 3, conflict_level=1.0,
                               noise_sigma=0.0, n_train=32, n_eval=8,
                               rng=Rng(3), shared_scale=0.0)
        assert np.allclose(ts.teachers[0], -ts.teachers[1], rtol=0, atol=0)

    def test_fresh_model_sees_conflict_on_an_adapter_block(self):
        ts = make_conflict_set([REGRESSION] * 2, 6, 3, conflict_level=1.0,
                               noise_sigma=0.0, n_train=64, n_eval=8,
                               rng=Rng(4), shared_scale=0.0)
        model = build_model([6, 5], 2, 4.0, 0.02, ts.specs, Rng(5))
        grads = [task_gradient(model, ts.train[t]) for t in range(2)]
        report = build_conflict_report(0, stack_of(grads), PER_MATRIX)
        assert any(p.conflicted for p in report.pairs)

    def test_pool_sizes_and_disjointness(self):
        ts = make_conflict_set([REGRESSION] * 2, 4, 2, conflict_level=0.5,
                               noise_sigma=0.0, n_train=10, n_eval=7, rng=Rng(6))
        for t in range(2):
            assert ts.train[t].x.shape == (4, 10)
            assert ts.eval[t].x.shape == (4, 7)
            # continuous draws: no train column reappears in eval
            joined = np.concatenate([ts.train[t].x, ts.eval[t].x], axis=1)
            assert np.unique(joined, axis=1).shape[1] == 17

    def test_deterministic_from_seed(self):
        a = make_conflict_set([REGRESSION] * 2, 4, 2, 0.5, 0.1, 8, 4, Rng(7))
        b = make_conflict_set([REGRESSION] * 2, 4, 2, 0.5, 0.1, 8, 4, Rng(7))
        for t in range(2):
            assert np.array_equal(a.train[t].x, b.train[t].x)
            assert np.array_equal(a.train[t].y, b.train[t].y)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            make_conflict_set([REGRESSION] * 2, 0, 2, 0.5, 0.0, 8, 4, Rng(0))
        with pytest.raises(ParameterError):
            make_conflict_set([REGRESSION] * 1, 4, 2, 0.5, 0.0, 8, 4, Rng(0))
        with pytest.raises(ParameterError):
            make_conflict_set([REGRESSION] * 2, 4, 2, 1.5, 0.0, 8, 4, Rng(0))
        with pytest.raises(ParameterError):
            make_conflict_set([REGRESSION] * 2, 4, 2, 0.5, -0.1, 8, 4, Rng(0))


class TestClassificationConflict:
    def test_zero_conflict_shared_labels(self):
        ts = make_conflict_set([CLASSIFICATION] * 3, 6, 2, conflict_level=0.0,
                               noise_sigma=0.0, n_train=40, n_eval=10, rng=Rng(8))
        # identical teachers relabel identical inputs identically
        for t in range(3):
            want = (ts.teachers[t] @ ts.train[t].x).argmax(axis=0)
            assert np.array_equal(ts.train[t].y, want)

    def test_labels_reproducible(self):
        a = make_conflict_set([CLASSIFICATION] * 2, 5, 3, 0.5, 0.0, 30, 10, Rng(9))
        b = make_conflict_set([CLASSIFICATION] * 2, 5, 3, 0.5, 0.0, 30, 10, Rng(9))
        for t in range(2):
            assert np.array_equal(a.train[t].y, b.train[t].y)
            assert np.array_equal(a.eval[t].y, b.eval[t].y)

    def test_class_balance_guard(self):
        for seed in range(5):
            ts = make_conflict_set([CLASSIFICATION] * 3, 8, 4, 0.8, 0.0, 100, 50, Rng(seed))
            for t in range(3):
                for pool in (ts.train[t], ts.eval[t]):
                    counts = np.bincount(pool.y, minlength=4)
                    assert counts.min() >= 0.10 * pool.y.size

    def test_too_few_classes(self):
        with pytest.raises(ParameterError):
            make_conflict_set([CLASSIFICATION] * 2, 4, 1, 0.5, 0.0, 8, 4, Rng(0))

    def test_mixed_kinds(self):
        ts = make_conflict_set([REGRESSION, CLASSIFICATION], 5, 2, 0.5, 0.0, 20, 8, Rng(10))
        assert ts.specs[0] == TaskSpec(REGRESSION, 2)
        assert ts.specs[1] == TaskSpec(CLASSIFICATION, 2)
        assert ts.train[0].y.shape == (2, 20)
        assert ts.train[1].y.shape == (20,)


def test_conflict_frequency_monotone_in_conflict_level():
    # measured conflict frequency during joint training is non-decreasing in
    # the conflict level, averaged over 5 seeds
    import ortho_lora as ol

    def mean_freq(level):
        freqs = []
        for seed in range(5):
            cfg = ol.config_from_dict({
                "version": 1, "seed": seed, "modes": ["JOINT"],
                "model": {"layer_dims": [16, 16], "rank": 4, "alpha": 16.0, "sigma_init": 0.02},
                "optimizer": {"lr_base": 0.01},
                "schedule": {"epochs": 2, "batch_size": 16},
                "tasks": {"kind": "regression", "num_tasks": 3, "in_dim": 16, "out_dim": 4,
                          "conflict_level": level, "noise_sigma": 0.0, "shared_scale": 1.0,
                          "n_train": 480, "n_eval": 16},
            })
            result = ol.run_experiment(cfg)
            freqs.append(ol.conflict_frequency(result.logs["JOINT"]))
        return sum(freqs) / len(freqs)

    freq_0 = mean_freq(0.0)
    freq_half = mean_freq(0.5)
    freq_full = mean_freq(1.0)
    assert freq_0 <= freq_half <= freq_full
    assert freq_full > 0.1  # full conflict produces substantial disagreement


@pytest.mark.parametrize("kind", [REGRESSION, CLASSIFICATION])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_subset_batch_copies_rows_once(kind, as_array):
    ts = make_conflict_set([kind], 3, 2, 0.0, 0.0, 12, 2, Rng(12))
    pool = ts.train[0]
    cols = [5, 0, 7, 7]
    sub = subset_batch(pool, np.array(cols) if as_array else cols)
    assert not np.shares_memory(sub.x, pool.x) and not np.shares_memory(sub.y, pool.y)
    assert sub.x.flags["C_CONTIGUOUS"] and sub.y.flags["C_CONTIGUOUS"]
    assert np.array_equal(sub.x, pool.x[:, cols])
    assert np.array_equal(sub.y, pool.y[..., cols])
    sub.x[...] = 0.0
    assert np.count_nonzero(pool.x[:, cols]) == pool.x[:, cols].size


def test_dump_csv(tmp_path):
    ts = make_conflict_set([REGRESSION, CLASSIFICATION], 3, 2, 0.5, 0.0, 4, 2, Rng(11))
    path = tmp_path / "tasks.csv"
    dump_csv(ts, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "task,split,example,x0,x1,x2,target"
    assert len(lines) == 1 + 2 * (4 + 2)
