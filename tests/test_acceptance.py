"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. The conflict-heavy default experiment lives in
configs/default.json; the conflict-free twin in configs/no_conflict.json.

The default experiment uses regression tasks, whose eval metric is MSE
(lower is better), so the negative-transfer ordering reads
single <= ortho <= joint and the rank-trend gain is joint minus ortho.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    TaskView,
    conflict_set,
    fd_gradient,
    generator,
    measure_surgery_floats,
    predict,
    project_pair,
    seed_task_sets,
    shuffle,
    step_batch,
    step_grams,
    step_outs,
    task_gradient,
    task_loss,
    task_step,
    train_views,
)

from ortho_lora.cli import run_cli
from ortho_lora.config import JOINT, ORTHO_FLAT, ORTHO_STRUCTURED, SINGLE_TASK, load_config
from ortho_lora.dense import Rng
from ortho_lora.model import (
    CLASSIFICATION,
    FLAT,
    PER_MATRIX,
    REGRESSION,
    GradientStack,
    build_model,
    stack_runs,
    task_loss_and_gradient,
)
from ortho_lora.optim import AdamWState
from ortho_lora.reporting import rank_sweep, recovery
from ortho_lora.surgery import group_grams, scope_groups, surgery
from ortho_lora.trainer import run_experiment, train_step

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {message}", flush=True)


def test_criterion_01_gradient_correctness():
    """Analytic gradients match central finite differences, 50+ random instances."""
    start = time.time()
    instances = 0
    worst = 0.0
    seed = 0
    while instances < 50:
        seed += 1
        rng = Rng(seed)
        draw = generator(seed)  # Rng(seed)'s own stream, for the integer draws
        depth = int(draw.integers(2, 4))
        dims = [int(d) for d in draw.integers(3, 17, size=depth)]
        rank = int((1, 2, 4)[int(draw.integers(0, 3))])
        if rank > min(dims):
            continue
        num_tasks = int(draw.integers(1, 4))
        # every head takes the first task's drawn out dim
        drawn = [(REGRESSION if draw.integers(0, 2) else CLASSIFICATION, int(draw.integers(2, 5)))
                 for _ in range(num_tasks)]
        kinds, out_dim = [kind for kind, _ in drawn], drawn[0][1]
        model = build_model(dims, rank, 2.0 * rank, 0.1, kinds, out_dim, rng.child(0))
        for layer in model.layers:
            layer.adapter.b[...] = rng.child(1).standard_normal(layer.adapter.b.shape) * 0.2
        task = int(draw.integers(0, num_tasks))
        xrng = generator(seed, 2)  # the stream of rng.child(2)
        x = xrng.standard_normal((model.in_dim, 4))
        if kinds[task] == REGRESSION:
            y = xrng.standard_normal((out_dim, 4))
        else:
            y = np.asarray(xrng.integers(0, out_dim, 4), dtype=np.int64)
        batch = TaskView(task, x, y)
        grad = task_gradient(model, batch)
        for bid, analytic in grad.blocks.items():
            fd = fd_gradient(model, batch, bid, h=1e-5)
            denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-6)
            rel = np.abs(analytic - fd).max() / denom
            worst = max(worst, rel)
            assert rel < 1e-5, f"instance {seed} block {bid}: rel error {rel}"
        instances += 1
    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _report(1, f"{instances} instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_projection_orthogonality():
    """1000 conflicting pairs: projected dot vanishes, norm never grows."""
    rng = generator(7)  # the stream of Rng(7)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 65))
        gi = rng.standard_normal(n)
        gj = rng.standard_normal(n)
        if float(gi @ gj) >= 0:
            gj = -gj
        out = project_pair(gi, gj)
        bound = 1e-10 * np.linalg.norm(gi) * np.linalg.norm(gj)
        assert abs(float(out @ gj)) < bound
        assert np.linalg.norm(out) <= np.linalg.norm(gi) + 1e-12
        checked += 1
    _report(2, f"{checked} conflicting pairs projected orthogonally, norms non-increasing")


def test_criterion_03_no_conflict_identity():
    """Zero-conflict tasks: both projection modes track joint training to 1e-8."""
    config = load_config(CONFIG_DIR / "no_conflict.json")
    assert config.tasks.conflict_level == 0.0
    assert config.schedule.epochs == 3
    worst = 0.0
    fired = 0
    for offset in range(3):
        result = run_experiment(config.with_updates(seed=config.seed + offset))
        joint_losses = {(r.step, r.task): r.loss for r in result.logs[JOINT].steps}
        joint_params = result.models[JOINT][0].params
        for mode in (ORTHO_FLAT, ORTHO_STRUCTURED):
            fired += sum(p.conflicted for rep in result.logs[mode].conflicts for p in rep.pairs)
            for rec in result.logs[mode].steps:
                ref = joint_losses[(rec.step, rec.task)]
                worst = max(worst, abs(rec.loss - ref) / max(abs(ref), 1e-12))
            model = result.models[mode][0]
            for sl, _ in model.layout.blocks.values():  # block by block
                arr, ref = model.params[sl], joint_params[sl]
                worst = max(worst, np.abs(arr - ref).max() / max(np.abs(ref).max(), 1e-12))
    assert fired == 0, f"{fired} projections fired on a conflict-free family"
    assert worst < 1e-8, f"trajectory divergence {worst:.2e} exceeds 1e-8"
    _report(3, f"3 seeds x 3 epochs: zero projections, max divergence {worst:.2e}")


def test_criterion_04_init_equivalence():
    """Fresh adapters leave the model exactly equal to its backbone."""
    rng = Rng(11)
    kinds = [REGRESSION, CLASSIFICATION]
    model = build_model([16, 12, 8], 4, 16.0, 0.02, kinds, 4, rng.child(0))
    xrng = rng.child(1)
    for _ in range(100):
        x = xrng.standard_normal((16, 5))
        h = x
        for layer in model.layers:
            h = np.tanh(layer.w0 @ h)
        for task in range(len(kinds)):
            with_adapters = predict(model, task, x)
            backbone_only = model.heads[task] @ h
            assert np.array_equal(with_adapters, backbone_only)
    _report(4, "100 random batches: fresh-adapter outputs identical to backbone outputs")


def _directional_fd(model, batch, direction, h):
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    # each named block's entries in the model's params
    blocks = {name: model.params[model.layout.blocks[name][0]] for name in direction}
    saved = {name: block.copy() for name, block in blocks.items()}

    def offset(s):
        for name, v in direction.items():
            blocks[name][...] = saved[name] + (s / norm) * v.ravel()

    offset(h)
    loss_plus = task_loss(model, batch)
    offset(-h)
    loss_minus = task_loss(model, batch)
    for name in direction:
        blocks[name][...] = saved[name]
    return (loss_plus - loss_minus) / (2.0 * h)


def test_criterion_05_local_non_harm():
    """Moving along a projected gradient never ascends the other task's loss."""
    checked = 0
    worst = np.inf
    state = 0
    while checked < 20:
        state += 1
        rng = Rng(100 + state)
        tasks = conflict_set([REGRESSION] * 2, 12, 3, 1.0, 0.0, 128, 16,
                             rng.child(1), shared_scale=0.3)
        stack = stack_runs(build_model([12, 12], 4, 8.0, 0.02, tasks.kinds, 3, rng.child(0)), 1)
        model, opt_state = stack.models[0], AdamWState()
        steps = int(generator(100 + state, 2).integers(1, 30))  # the stream of rng.child(2)
        orders = rng.child(3).permutations(steps, 2).tolist()
        pools = train_views(tasks)
        for step in range(steps):
            batches = [TaskView(t, pool.x[:, :16], pool.y[:, :16]) for t, pool in enumerate(pools)]
            train_step(ORTHO_STRUCTURED, stack, step_batch(model, batches), opt_state, 0.01,
                       PER_MATRIX, step_grams(stack, PER_MATRIX), orders[step])
        rows = [task_loss_and_gradient(model, task_step(model, pool))[1].rows for pool in pools]
        grads = GradientStack([0, 1], np.concatenate(rows), model.layout)
        ((_, bids),) = scope_groups(grads[0], FLAT)
        flat = [np.concatenate([g.blocks[b].ravel() for b in bids]) for g in grads]
        if float(flat[0] @ flat[1]) >= 0:
            continue
        projected = surgery(grads, FLAT, shuffle(100 + state, 2),
                            group_grams(grads, FLAT, step_outs(grads).grams), step_outs(grads).projected)
        for i, j in ((0, 1), (1, 0)):
            derivative = _directional_fd(model, pools[j], projected[i].blocks, h=5e-5)
            worst = min(worst, derivative)
            assert derivative >= -1e-6, f"state {state}: derivative {derivative}"
        checked += 1
    _report(5, f"20 conflicting states: worst directional derivative {worst:.2e} >= -1e-6")


def test_criterion_06_negative_transfer_mitigation():
    """Default conflict-heavy run: single best, projected in between, joint worst."""
    start = time.time()
    config = load_config(CONFIG_DIR / "default.json")
    assert config.tasks.num_tasks == 3
    assert config.tasks.conflict_level == 0.8
    assert config.model.rank == 4
    assert all(k == REGRESSION for k in config.tasks.kinds)

    singles, joints, orthos, ordered = [], [], [], 0
    for offset in range(5):
        result = run_experiment(config.with_updates(seed=config.seed + offset))
        s = result.final_average(SINGLE_TASK)
        j = result.final_average(JOINT)
        o = result.final_average(ORTHO_STRUCTURED)
        singles.append(s)
        joints.append(j)
        orthos.append(o)
        # eval metric is MSE (lower better): negative-transfer ordering is s <= o <= j
        if s <= o <= j:
            ordered += 1
        print(f"\n  seed {config.seed + offset}: single={s:.4f} ortho={o:.4f} joint={j:.4f}"
              f" {'ordered' if s <= o <= j else 'violated'}", flush=True)
    mean_s, mean_j, mean_o = (float(np.mean(v)) for v in (singles, joints, orthos))
    rec = recovery(mean_s, mean_j, mean_o)
    elapsed = time.time() - start
    print(f"  means: single={mean_s:.4f} ortho={mean_o:.4f} joint={mean_j:.4f} "
          f"recovery={rec:.1f}% ordered {ordered}/5 [{elapsed:.0f}s]", flush=True)
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.0f}s"
    assert ordered >= 4, f"ordering held in only {ordered}/5 seeds"
    assert rec > 50.0, f"recovery {rec:.1f}% not above 50%"
    _report(6, f"ordering {ordered}/5 seeds, mean recovery {rec:.1f}%, {elapsed:.0f}s")


def test_criterion_07_rank_trend():
    """The projection gain is at least as large at rank 2 as at rank 16."""
    start = time.time()
    config = load_config(CONFIG_DIR / "default.json")
    rows = rank_sweep(config, [2, 16], seed_task_sets(config, 5))
    assert [r.rank for r in rows] == [2, 16]
    # MSE metric: the gain of projection over joint is joint - ortho
    gain_low = rows[0].joint - rows[0].ortho
    gain_high = rows[1].joint - rows[1].ortho
    elapsed = time.time() - start
    print(f"\n  gain(r=2)={gain_low:+.5f} gain(r=16)={gain_high:+.5f} [{elapsed:.0f}s]", flush=True)
    assert gain_low >= gain_high, f"gain at r=2 ({gain_low}) below gain at r=16 ({gain_high})"
    _report(7, f"5-seed mean gain {gain_low:+.5f} at r=2 >= {gain_high:+.5f} at r=16")


def test_criterion_08_reference_recovery_arithmetic():
    """Recovery reproduces the published summary-row values."""
    cases = [
        ((87.4, 85.9, 87.1), 80.0),
        ((88.1, 86.5, 87.9), 87.5),
        ((94.2, 92.8, 93.9), 78.6),
        ((89.9, 88.4, 89.6), 80.0),
    ]
    for (s, j, o), expected in cases:
        got = recovery(s, j, o)
        assert abs(got - expected) <= 0.05, f"recovery{(s, j, o)} = {got}, want {expected}"
    _report(8, "all four reference recovery figures reproduced to within 0.05")


def test_criterion_09_overhead_locality():
    """Surgery touches exactly T x (adapter floats), independent of backbone width."""
    rng = Rng(21)
    results = {}
    for dims in ([12, 8], [24, 16]):
        model = build_model(dims, 2, 4.0, 0.02, [REGRESSION] * 3, 3, rng.child(dims[0]))
        for layer in model.layers:
            layer.adapter.b[...] = rng.child(dims[0] + 1).standard_normal(layer.adapter.b.shape)
        batches = []
        brng = rng.child(dims[0] + 2)
        for t in range(3):
            x = brng.standard_normal((dims[0], 6))
            batches.append(TaskView(t, x, brng.standard_normal((3, 6))))
        touched = measure_surgery_floats(model, batches, PER_MATRIX)
        assert touched == 3 * model.layout.heads.start  # the adapter columns
        results[tuple(dims)] = (touched, sum(l.w0.size for l in model.layers))
    (narrow_touch, narrow_w0) = results[(12, 8)]
    (wide_touch, wide_w0) = results[(24, 16)]
    # doubling the backbone doubles adapter floats but quadruples backbone floats;
    # the touch count follows the adapters, not the backbone
    assert wide_touch == 2 * narrow_touch
    assert wide_w0 == 4 * narrow_w0
    _report(9, f"touched {narrow_touch} -> {wide_touch} floats when backbone {narrow_w0} -> {wide_w0}")


def test_criterion_10_byte_identical_runs(tmp_path):
    """Same config and seed produce byte-identical CSV outputs."""
    import json

    raw = json.loads((CONFIG_DIR / "default.json").read_text())
    raw["schedule"]["epochs"] = 2
    raw["modes"] = [SINGLE_TASK, JOINT, ORTHO_STRUCTURED]
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(raw))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(["run", str(cfg_path), "--out", str(out1)]) == 0
    assert run_cli(["run", str(cfg_path), "--out", str(out2)]) == 0
    compared = 0
    for p1 in sorted(out1.rglob("*.csv")):
        p2 = out2 / p1.relative_to(out1)
        assert p1.read_bytes() == p2.read_bytes(), f"{p1.name} differs between runs"
        compared += 1
    assert compared >= 6
    _report(10, f"{compared} CSV files byte-identical across repeated runs")
