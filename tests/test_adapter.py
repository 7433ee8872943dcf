import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import step_losses

from ortho_lora.adapter import (
    ADAPTER_FORMAT,
    FrozenLayer,
    LoraAdapter,
    init_adapter,
    load_adapter,
    save_adapter,
)
from ortho_lora.dense import Rng
from ortho_lora.errors import ConfigError, ParameterError, ShapeError
from ortho_lora.model import REGRESSION, MultiTaskModel, StepBatch, joint_gradient, stack_runs

# any finite float, with -0.0, the smallest subnormals and +-max always in the mix
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308])


def test_init_shapes():
    ad = init_adapter(d=8, k=8, rank=4, sigma=0.02, alpha=8.0, rng=Rng(0))
    assert ad.a.shape == (4, 8)
    assert ad.b.shape == (8, 4)


def test_init_b_is_zero_and_delta_zero():
    ad = init_adapter(6, 5, 2, 0.02, 4.0, Rng(1))
    assert np.array_equal(ad.b, np.zeros((6, 2)))
    assert np.array_equal(ad.scale * (ad.b @ ad.a), np.zeros((6, 5)))


def test_init_deterministic():
    a1 = init_adapter(6, 5, 2, 0.02, 4.0, Rng(7)).a
    a2 = init_adapter(6, 5, 2, 0.02, 4.0, Rng(7)).a
    assert np.array_equal(a1, a2)


@pytest.mark.parametrize("rank", [0, 6, -1])
def test_init_rank_out_of_range(rank):
    with pytest.raises(ParameterError):
        init_adapter(8, 5, rank, 0.02, 4.0, Rng(0))


def test_init_bad_sigma():
    with pytest.raises(ParameterError):
        init_adapter(8, 5, 2, -0.1, 4.0, Rng(0))


def one_layer(w0, ad):
    """A one-layer regression model around (w0, adapter) whose head is the
    identity, so its outputs are the layer's forward pass."""
    return MultiTaskModel([FrozenLayer(w0=w0, adapter=ad)], heads=np.eye(len(w0))[None],
                          kinds=[REGRESSION])


def step_forward(model, x):
    """(features, loss) of the inputs x from the step: joint_gradient on a
    one-run stack of model against zero targets, whose identity head writes
    the features unchanged into the step's output buffer."""
    stack = stack_runs(model, 1)
    zeros = np.zeros((1, len(model.layers[0].w0), x.shape[1]))
    batch = StepBatch(x[None], [(REGRESSION, [0], zeros)])
    joint_gradient(stack, batch)
    return stack.step.out[0], step_losses(stack, batch)[0]


def test_adapted_forward_fresh_equals_backbone_exactly():
    rng = Rng(6)
    w0 = rng.standard_normal((5, 4))
    model = one_layer(w0, init_adapter(5, 4, 2, 0.02, 4.0, rng))
    x = rng.standard_normal((4, 9))
    features, loss = step_forward(model, x)
    backbone = np.tanh(w0 @ x)
    assert np.array_equal(features, backbone)
    assert loss == 0.5 * float(np.add.reduce((backbone * backbone).ravel())) / 9


def test_adapted_forward_backbone_removed():
    rng = Rng(7)
    ad = init_adapter(5, 4, 2, 0.02, 2.0, rng)  # alpha == rank, scale 1
    ad.b[...] = rng.standard_normal(ad.b.shape)
    model = one_layer(np.zeros((5, 4)), ad)
    x = rng.standard_normal((4, 3))
    got = step_forward(model, x)[0]
    assert np.allclose(got, np.tanh(ad.b @ (ad.a @ x)), rtol=1e-15, atol=0)


def test_adapted_forward_two_route_agreement():
    # the cheap b(a x) route against the dense effective weight w0 + s b a
    rng = Rng(8)
    for _ in range(10):
        w0 = rng.standard_normal((6, 5))
        ad = init_adapter(6, 5, 3, 0.1, 7.0, rng)
        ad.b[...] = rng.standard_normal(ad.b.shape)
        x = rng.standard_normal((5, 4))
        via_delta = np.tanh((w0 + ad.scale * (ad.b @ ad.a)) @ x)
        via_layer = step_forward(one_layer(w0, ad), x)[0]
        denom = np.linalg.norm(via_delta)
        assert np.linalg.norm(via_layer - via_delta) < 1e-12 * max(denom, 1.0)


def test_adapted_forward_shape_error():
    model = one_layer(np.zeros((5, 4)), init_adapter(5, 4, 2, 0.02, 4.0, Rng(0)))
    with pytest.raises(ShapeError):
        step_forward(model, np.zeros((3, 2)))


def test_serialization_round_trip_exact(tmp_path):
    rng = Rng(9)
    ad = init_adapter(6, 5, 2, 0.3, 5.0, rng)
    ad.b[...] = rng.standard_normal(ad.b.shape)
    path = tmp_path / "adapter.json"
    save_adapter(ad, path)
    back = load_adapter(path)
    assert back.rank == ad.rank
    assert back.alpha == ad.alpha
    assert np.array_equal(back.a, ad.a)
    assert np.array_equal(back.b, ad.b)


def test_load_reads_integer_entries_as_c_ordered_float64(tmp_path):
    path = tmp_path / "adapter.json"
    path.write_text('{"format": "ortho-lora-adapter", "version": 1, "d": 3, "k": 2, "rank": 1, '
                    '"alpha": 2, "a": [[1, -2]], "b": [[0], [3], [-0.0]]}')
    back = load_adapter(path)
    for got, want in ((back.a, [[1.0, -2.0]]), (back.b, [[0.0], [3.0], [-0.0]])):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, want)
    assert np.signbit(back.b[2, 0]) and back.alpha == 2.0 and type(back.alpha) is float


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(1, 4), rank=st.integers(1, 3),
       alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), data=st.data())
def test_save_load_round_trip_bit_exact_on_any_finite_floats(d, k, rank, alpha, data):
    a = np.array(data.draw(st.lists(FINITE, min_size=rank * k, max_size=rank * k))).reshape(rank, k)
    b = np.array(data.draw(st.lists(FINITE, min_size=d * rank, max_size=d * rank))).reshape(d, rank)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "adapter.json"
        save_adapter(LoraAdapter(a=a, b=b, rank=rank, alpha=alpha), path)
        back = load_adapter(path)
    assert (back.rank, back.alpha.hex()) == (rank, alpha.hex())
    for got, want in ((back.a, a), (back.b, b)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ParameterError, match="adapter.format"):
        load_adapter(path)


def _dump(tmp_path, edit):
    path = tmp_path / "adapter.json"
    save_adapter(init_adapter(4, 3, 2, 0.1, 2.0, Rng(1)), path)
    path.write_text(edit(path.read_text()))
    return path


@pytest.mark.parametrize("edit,field", [
    pytest.param(lambda text: text[: len(text) // 2], "invalid JSON", id="invalid JSON"),
    pytest.param(lambda text: re.sub(r'"a": \[\[.*?\]\], ', "", text),
                 "adapter.a: missing required field", id="a missing"),
    pytest.param(lambda text: re.sub(r'"b": \[\[.*\]\]', '"b": 7', text),
                 "adapter.b: expected a list of rows", id="b not a list"),
    pytest.param(lambda text: text.replace('"b": [', '"b": [7, '),
                 "adapter.b: expected a list of rows", id="b row not a list"),
    pytest.param(lambda text: text.replace('"b": [', '"unused": [], "b": ['),
                 "adapter: unknown field(s) ['unused']", id="unknown key"),
    pytest.param(lambda text: re.sub(r'"a": \[\[[^,]+', '"a": [[NaN', text), "adapter.a[0][0]",
                 id="a NaN"),
    pytest.param(lambda text: re.sub(r'"a": \[\[[^,]+', '"a": [["0.5"', text), "adapter.a[0][0]",
                 id="a text"),
    pytest.param(lambda text: re.sub(r'"a": \[\[[^,]+', '"a": [[1' + "0" * 400, text),
                 "adapter.a[0][0]: expected a finite number", id="a integer past the float range"),
    pytest.param(lambda text: text.replace('"b": [[0.0', '"b": [[Infinity'), "adapter.b[0][0]",
                 id="b inf"),
    pytest.param(lambda text: text.replace('"b": [[0.0', '"b": [[-Infinity'), "adapter.b[0][0]",
                 id="b -inf"),
    pytest.param(lambda text: text.replace('"b": [[0.0, 0.0', '"b": [[0.0, true'), "adapter.b[0][1]",
                 id="b true"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": NaN'), "adapter.alpha",
                 id="alpha NaN"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": Infinity'), "adapter.alpha",
                 id="alpha inf"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": 0.0'), "adapter.alpha",
                 id="alpha 0"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": -2.0'), "adapter.alpha",
                 id="alpha negative"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": "2.5"'),
                 "adapter.alpha: expected a number, got '2.5'", id="alpha text"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": true'),
                 "adapter.alpha: expected a number, got True", id="alpha true"),
    pytest.param(lambda text: text.replace('"d": 4', '"d": 4.9'), "adapter.d", id="d 4.9"),
    pytest.param(lambda text: text.replace('"k": 3', '"k": true'), "adapter.k", id="k true"),
    pytest.param(lambda text: text.replace('"rank": 2', '"rank": 2.0'), "adapter.rank", id="rank 2.0"),
    pytest.param(lambda text: text.replace('"rank": 2', '"rank": "2"'), "adapter.rank", id="rank text"),
    pytest.param(lambda text: text.replace('"version": 1', '"version": 2'),
                 "adapter.version: expected 1, got 2", id="version 2"),
    pytest.param(lambda text: text.replace('"k": 3', '"k": 5'),
                 "adapter.a: expected 2 rows of 5 numbers, as the header d=4, k=5, rank=2 says",
                 id="k disagrees with a"),
])
def test_load_rejects_malformed_dump_naming_file_and_field(tmp_path, edit, field):
    path = _dump(tmp_path, edit)
    with pytest.raises(ConfigError) as info:
        load_adapter(path)
    assert str(path) in str(info.value)
    assert field in str(info.value)


@pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["missing", "directory"])
def test_load_of_no_file_names_the_path(tmp_path, make):
    path = tmp_path / "adapter.json"
    make(path)
    with pytest.raises(ConfigError, match=f"adapter file not found: {re.escape(str(path))}"):
        load_adapter(path)


HEADER = ["format", "version", "d", "k", "rank", "alpha"]
NOT_A_VALUE = (st.text().filter(lambda s: s != ADAPTER_FORMAT) | st.booleans() | st.none()
               | st.lists(st.integers(), max_size=2) | st.dictionaries(st.text(max_size=2), st.integers(),
                                                                     max_size=2))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), k=st.integers(1, 3), data=st.data(), bad=NOT_A_VALUE)
def test_load_names_the_field_of_any_non_value(d, k, data, bad):
    rank = data.draw(st.integers(1, min(d, k)))
    raw = {"format": ADAPTER_FORMAT, "version": 1, "d": d, "k": k, "rank": rank, "alpha": 1.5,
           "a": [[0.25] * k for _ in range(rank)], "b": [[-0.5] * rank for _ in range(d)]}
    entries = [(name, i, j) for name in "ab" for i, row in enumerate(raw[name]) for j in range(len(row))]
    target = data.draw(st.sampled_from(HEADER + entries))
    if isinstance(target, str):
        raw[target], field = bad, f"adapter.{target}"
    else:
        name, i, j = target
        raw[name][i][j], field = bad, f"adapter.{name}[{i}][{j}]"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "adapter.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as info:
            load_adapter(path)
    assert str(info.value).startswith(f"{path}: {field}: ")
