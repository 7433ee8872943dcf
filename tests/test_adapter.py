import numpy as np
import pytest

from ortho_lora import (
    ConfigError,
    FrozenLayer,
    ParameterError,
    Rng,
    ShapeError,
    adapted_forward,
    delta_weight,
    init_adapter,
    load_adapter,
    save_adapter,
)


def test_init_shapes():
    ad = init_adapter(d=8, k=8, rank=4, sigma=0.02, alpha=8.0, rng=Rng(0))
    assert ad.a.shape == (4, 8)
    assert ad.b.shape == (8, 4)


def test_init_b_is_zero_and_delta_zero():
    ad = init_adapter(6, 5, 2, 0.02, 4.0, Rng(1))
    assert np.array_equal(ad.b, np.zeros((6, 2)))
    assert np.array_equal(delta_weight(ad), np.zeros((6, 5)))


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


def test_delta_weight_rank1_outer_product():
    ad = init_adapter(4, 3, 1, 0.02, 1.0, Rng(2))
    u = Rng(3).standard_normal((4, 1))
    v = Rng(4).standard_normal((1, 3))
    ad.b[...] = u
    ad.a[...] = v
    assert np.allclose(delta_weight(ad), np.outer(u.ravel(), v.ravel()), rtol=1e-15, atol=0)


def test_delta_weight_rank_bound():
    rng = Rng(5)
    for rank in (1, 2, 3):
        ad = init_adapter(8, 7, rank, 0.5, float(rank), rng)
        ad.b[...] = rng.standard_normal(ad.b.shape)
        sv = np.linalg.svd(delta_weight(ad), compute_uv=False)
        assert np.all(sv[rank:] < 1e-10)


def test_adapted_forward_fresh_equals_backbone_exactly():
    rng = Rng(6)
    w0 = rng.standard_normal((5, 4))
    layer = FrozenLayer(w0=w0, adapter=init_adapter(5, 4, 2, 0.02, 4.0, rng))
    x = rng.standard_normal((4, 9))
    assert np.array_equal(adapted_forward(layer, x), w0 @ x)


def test_adapted_forward_backbone_removed():
    rng = Rng(7)
    ad = init_adapter(5, 4, 2, 0.02, 2.0, rng)  # alpha == rank, scale 1
    ad.b[...] = rng.standard_normal(ad.b.shape)
    layer = FrozenLayer(w0=np.zeros((5, 4)), adapter=ad)
    x = rng.standard_normal((4, 3))
    assert np.allclose(adapted_forward(layer, x), ad.b @ (ad.a @ x), rtol=1e-15, atol=0)


def test_adapted_forward_two_route_agreement():
    rng = Rng(8)
    for _ in range(10):
        w0 = rng.standard_normal((6, 5))
        ad = init_adapter(6, 5, 3, 0.1, 7.0, rng)
        ad.b[...] = rng.standard_normal(ad.b.shape)
        layer = FrozenLayer(w0=w0, adapter=ad)
        x = rng.standard_normal((5, 4))
        via_delta = (w0 + delta_weight(ad)) @ x
        via_layer = adapted_forward(layer, x)
        denom = np.linalg.norm(via_delta)
        assert np.linalg.norm(via_layer - via_delta) < 1e-12 * max(denom, 1.0)


def test_adapted_forward_shape_error():
    layer = FrozenLayer(w0=np.zeros((5, 4)), adapter=init_adapter(5, 4, 2, 0.02, 4.0, Rng(0)))
    with pytest.raises(ShapeError):
        adapted_forward(layer, np.zeros((3, 2)))


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
])
def test_load_rejects_malformed_dump_naming_file_and_field(tmp_path, edit, field):
    path = _dump(tmp_path, edit)
    with pytest.raises(ConfigError) as info:
        load_adapter(path)
    assert str(path) in str(info.value)
    assert field in str(info.value)
