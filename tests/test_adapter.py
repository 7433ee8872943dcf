import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_lora.adapter import FrozenLayer, LoraAdapter, init_adapter, load_adapter, save_adapter
from ortho_lora.dense import Rng
from ortho_lora.errors import ConfigError, ParameterError, ShapeError
from ortho_lora.model import REGRESSION, MultiTaskModel, forward_features

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
    """A one-layer model around (w0, adapter), so its forward pass can be read."""
    return MultiTaskModel([FrozenLayer(w0=w0, adapter=ad)], heads=np.zeros((1, 1, w0.shape[0])),
                          kinds=[REGRESSION])


def test_adapted_forward_fresh_equals_backbone_exactly():
    rng = Rng(6)
    w0 = rng.standard_normal((5, 4))
    model = one_layer(w0, init_adapter(5, 4, 2, 0.02, 4.0, rng))
    x = rng.standard_normal((4, 9))
    assert np.array_equal(forward_features(model, x)[0], np.tanh(w0 @ x))


def test_adapted_forward_backbone_removed():
    rng = Rng(7)
    ad = init_adapter(5, 4, 2, 0.02, 2.0, rng)  # alpha == rank, scale 1
    ad.b[...] = rng.standard_normal(ad.b.shape)
    model = one_layer(np.zeros((5, 4)), ad)
    x = rng.standard_normal((4, 3))
    got = forward_features(model, x)[0]
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
        via_layer = forward_features(one_layer(w0, ad), x)[0]
        denom = np.linalg.norm(via_delta)
        assert np.linalg.norm(via_layer - via_delta) < 1e-12 * max(denom, 1.0)


def test_adapted_forward_shape_error():
    model = one_layer(np.zeros((5, 4)), init_adapter(5, 4, 2, 0.02, 4.0, Rng(0)))
    with pytest.raises(ShapeError):
        forward_features(model, np.zeros((3, 2)))


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
    with pytest.raises(ParameterError):
        load_adapter(path)


def _dump(tmp_path, edit):
    path = tmp_path / "adapter.json"
    save_adapter(init_adapter(4, 3, 2, 0.1, 2.0, Rng(1)), path)
    path.write_text(edit(path.read_text()))
    return path


@pytest.mark.parametrize("edit,field", [
    (lambda text: text[: len(text) // 2], "JSON"),
    (lambda text: text.replace('"a":', '"a_renamed":'), "'a'"),
    (lambda text: text.replace('"b": [', '"b": 7, "unused": ['), "'b'"),
    pytest.param(lambda text: re.sub(r'"a": \[\[[^,]+', '"a": [[NaN', text), "'a'", id="a NaN"),
    pytest.param(lambda text: text.replace('"b": [[0.0', '"b": [[Infinity'), "'b'", id="b inf"),
    pytest.param(lambda text: text.replace('"b": [[0.0', '"b": [[-Infinity'), "'b'", id="b -inf"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": NaN'), "'alpha'",
                 id="alpha NaN"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": Infinity'), "'alpha'",
                 id="alpha inf"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": 0.0'), "'alpha'",
                 id="alpha 0"),
    pytest.param(lambda text: text.replace('"alpha": 2.0', '"alpha": -2.0'), "'alpha'",
                 id="alpha negative"),
    pytest.param(lambda text: text.replace('"d": 4', '"d": 4.9'), "'d'", id="d 4.9"),
    pytest.param(lambda text: text.replace('"k": 3', '"k": true'), "'k'", id="k true"),
    pytest.param(lambda text: text.replace('"rank": 2', '"rank": 2.0'), "'rank'", id="rank 2.0"),
    pytest.param(lambda text: text.replace('"rank": 2', '"rank": "2"'), "'rank'", id="rank text"),
    pytest.param(lambda text: text.replace('"version": 1', '"version": 2'),
                 "unsupported adapter format version 2", id="version 2"),
    pytest.param(lambda text: text.replace('"k": 3', '"k": 5'),
                 "stored shapes a=(2, 3), b=(4, 2) disagree with header (d=4, k=5, rank=2)",
                 id="k disagrees with a"),
])
def test_load_rejects_malformed_dump_naming_file_and_field(tmp_path, edit, field):
    path = _dump(tmp_path, edit)
    with pytest.raises(ConfigError) as info:
        load_adapter(path)
    assert str(path) in str(info.value)
    assert field in str(info.value)
