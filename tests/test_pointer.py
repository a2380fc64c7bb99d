import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biaslab.pointer import (
    PARAM_ORDER,
    StepOutput,
    flatten,
    forward_step,
    init_params,
    interpolate,
    load_params,
    save_params,
    state_terms,
    unflatten,
)


def test_init_deterministic():
    a = init_params(3, 8, 4, 6)
    b = init_params(3, 8, 4, 6)
    assert np.array_equal(a.token_embed, b.token_embed)
    assert np.array_equal(a.w_query, b.w_query)
    assert np.array_equal(a.w_gate, b.w_gate)
    assert a.b_gate == b.b_gate


def test_init_seed_sensitivity():
    assert not np.array_equal(init_params(1, 8, 4, 6).token_embed,
                              init_params(2, 8, 4, 6).token_embed)


def test_init_shapes():
    params = init_params(0, 8, 4, 6)
    assert params.token_embed.shape == (8, 4)
    assert params.w_query.shape == (4, 6)
    assert params.w_gate.shape == (10,)
    assert params.b_gate == -9.0


def test_init_bounds_follow_fan_in():
    params = init_params(5, 64, 16, 25)
    assert np.abs(params.token_embed).max() <= 1 / np.sqrt(16)
    assert np.abs(params.w_query).max() <= 1 / np.sqrt(25)
    assert np.abs(params.w_gate).max() <= 1 / np.sqrt(41)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_params(0, 0, 4, 6)


def test_forward_empty_valid_set():
    params = init_params(7, 8, 4, 6)
    step = forward_step(params, np.zeros(6), [])
    assert step.p_gen == 0.0
    assert np.all(step.p_ptr == 0.0)
    assert np.all(step.context == 0.0)


def test_forward_singleton_is_certain():
    params = init_params(7, 8, 4, 6)
    step = forward_step(params, np.linspace(-1, 1, 6), [3])
    assert step.p_ptr[3] == 1.0
    assert step.p_ptr.sum() == 1.0


def test_forward_normalization_seed7():
    params = init_params(7, 8, 4, 6)
    step = forward_step(params, np.linspace(-1, 1, 6), [1, 4, 6])
    assert abs(step.p_ptr.sum() - 1.0) < 1e-12
    assert 0.0 < step.p_gen < 1.0
    assert set(np.nonzero(step.p_ptr)[0]) == {1, 4, 6}


def test_forward_rejects_nonfinite_state():
    params = init_params(7, 8, 4, 6)
    with pytest.raises(ValueError, match="non-finite"):
        forward_step(params, np.array([np.nan] + [0.0] * 5), [1])


def test_forward_deterministic():
    params = init_params(9, 8, 4, 6)
    h = np.linspace(0, 1, 6)
    a = forward_step(params, h, [0, 2, 5])
    b = forward_step(params, h, [0, 2, 5])
    assert np.array_equal(a.p_ptr, b.p_ptr)
    assert a.p_gen == b.p_gen


def make_step(p_ptr, p_gen, valid):
    p = np.asarray(p_ptr, dtype=np.float64)
    members = np.asarray(sorted(valid), dtype=np.intp)
    ctx = np.zeros(2)
    return StepOutput(p, p_gen, tuple(int(m) for m in members), ctx)


def test_interpolate_hand_example():
    p_mdl = np.array([0.5, 0.3, 0.2])
    step = make_step([0.0, 0.0, 1.0], 0.4, [2])
    scaled = interpolate(p_mdl, step, "scaled")
    assert np.allclose(scaled, [0.30, 0.18, 0.52], atol=1e-15)
    unscaled = interpolate(p_mdl, step, "unscaled")
    assert np.allclose(unscaled, [0.5, 0.3, 0.52], atol=1e-15)


def test_interpolate_gate_closed_is_base_model():
    p_mdl = np.array([0.5, 0.3, 0.2])
    step = make_step([0.0, 1.0, 0.0], 0.0, [1])
    for mode in ("scaled", "unscaled"):
        assert np.array_equal(interpolate(p_mdl, step, mode), p_mdl)


def test_interpolate_gate_open_scaled_is_bias():
    p_mdl = np.array([0.5, 0.3, 0.2])
    step = make_step([0.0, 1.0, 0.0], 1.0, [1])
    assert np.array_equal(interpolate(p_mdl, step, "scaled"), step.p_ptr)


def test_interpolate_unscaled_outside_set_untouched():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vocab_size = int(rng.integers(3, 12))
        p_mdl = rng.dirichlet(np.ones(vocab_size))
        k = int(rng.integers(1, vocab_size))
        valid = sorted(rng.choice(vocab_size, size=k, replace=False).tolist())
        raw = np.zeros(vocab_size)
        raw[valid] = rng.dirichlet(np.ones(k))
        gate = float(rng.uniform(0.01, 1))
        step = make_step(raw, gate, valid)
        out = interpolate(p_mdl, step, "unscaled")
        outside = [i for i in range(vocab_size) if i not in valid]
        assert np.array_equal(out[outside], p_mdl[outside])
        for c in valid:
            if raw[c] > p_mdl[c]:
                assert out[c] > p_mdl[c]


def test_interpolate_scaled_stays_normalized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        vocab_size = int(rng.integers(3, 12))
        p_mdl = rng.dirichlet(np.ones(vocab_size))
        k = int(rng.integers(1, vocab_size))
        valid = sorted(rng.choice(vocab_size, size=k, replace=False).tolist())
        raw = np.zeros(vocab_size)
        raw[valid] = rng.dirichlet(np.ones(k))
        step = make_step(raw, float(rng.uniform(0, 1)), valid)
        assert abs(interpolate(p_mdl, step, "scaled").sum() - 1.0) < 1e-9


def test_interpolate_length_mismatch():
    step = make_step([0.0, 1.0, 0.0], 0.5, [1])
    with pytest.raises(ValueError, match="length mismatch"):
        interpolate(np.array([0.5, 0.5]), step, "scaled")


def test_interpolate_rejects_unnormalized_base():
    step = make_step([0.0, 1.0, 0.0], 0.5, [1])
    with pytest.raises(ValueError, match="sum to 1"):
        interpolate(np.array([0.5, 0.3, 0.1]), step, "scaled")


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(13, 9, 5, 7)
    params.b_gate = -1.25
    path = str(tmp_path / "ckpt.bin")
    save_params(params, path)
    loaded = load_params(path)
    assert np.array_equal(loaded.token_embed, params.token_embed)
    assert np.array_equal(loaded.w_query, params.w_query)
    assert np.array_equal(loaded.w_gate, params.w_gate)
    assert loaded.b_gate == params.b_gate
    assert loaded.seed == 13


def test_checkpoint_bytes_deterministic(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_params(init_params(4, 6, 3, 5), a)
    save_params(init_params(4, 6, 3, 5), b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_checkpoint_with_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_params(init_params(4, 6, 3, 5), str(path))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_params(str(path))


@pytest.mark.parametrize("name, shape", [("w_query", (5, 8)), ("w_gate", (11,))],
                         ids=["w_query", "w_gate"])
def test_checkpoint_with_disagreeing_shapes_rejected(tmp_path, name, shape):
    params = init_params(0, 25, 4, 8)
    setattr(params, name, np.zeros(shape))
    path = str(tmp_path / "ckpt.bin")
    save_params(params, path)
    with pytest.raises(ValueError, match=r"token_embed \(25, 4\)") as caught:
        load_params(path)
    assert f"{name} {shape}" in str(caught.value)


def _edit_header(path, edit):
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("edit, key", [
    (lambda h: h["shapes"].pop("w_gate"), "shapes.w_gate"),
    (lambda h: h.pop("order"), "order"),
    (lambda h: h.pop("seed"), "seed"),
], ids=["shapes.w_gate", "order", "seed"])
def test_checkpoint_header_lacking_a_key_is_named(tmp_path, edit, key):
    path = tmp_path / "ckpt.bin"
    save_params(init_params(4, 6, 3, 5), str(path))
    _edit_header(path, edit)
    with pytest.raises(ValueError, match=f"lacks key '{key}'") as caught:
        load_params(str(path))
    assert str(path) in str(caught.value)


def test_checkpoint_in_another_order_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_params(init_params(4, 6, 3, 5), str(path))
    _edit_header(path, lambda h: h["order"].reverse())
    with pytest.raises(ValueError, match="order") as caught:
        load_params(str(path))
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("name, dims", [
    ("token_embed", [6.0, 3]),
    ("b_gate", [True]),
    ("token_embed", [-6, 3]),
], ids=["non-integer", "boolean", "negative"])
def test_checkpoint_header_with_a_bad_dimension_names_file_and_parameter(tmp_path, name, dims):
    path = tmp_path / "ckpt.bin"
    save_params(init_params(4, 6, 3, 5), str(path))
    _edit_header(path, lambda h: h["shapes"].__setitem__(name, dims))
    with pytest.raises(ValueError, match=f"shape of {name} must be a list of non-negative "
                                         "integers") as caught:
        load_params(str(path))
    assert str(path) in str(caught.value)


def test_unflatten_puts_leading_axes_in_front_of_every_parameter():
    params = init_params(3, 5, 2, 4)
    stack = np.stack([flatten(params) + k for k in range(6)]).reshape(2, 3, -1)
    stacked = unflatten(stack, params.shapes)
    assert stacked.token_embed.shape == (2, 3, 5, 2) and stacked.b_gate.shape == (2, 3)
    assert (stacked.vocab_size, stacked.embed_dim, stacked.state_dim) == (5, 2, 4)
    one = unflatten(stack[1, 2], params.shapes)
    for name in PARAM_ORDER:
        assert np.array_equal(getattr(stacked, name)[1, 2], getattr(one, name))


def test_state_terms_with_leading_axes_matches_each_slice():
    params = init_params(3, 7, 4, 5)
    params.b_gate = 0.25
    h = np.random.default_rng(0).standard_normal((9, 5))
    one = state_terms(params, h)
    d_h = params.state_dim
    assert np.array_equal(one.query_logits,
                          h @ params.w_query.T @ params.token_embed.T / np.sqrt(4))
    assert np.array_equal(one.gate_state, h @ params.w_gate[:d_h] + params.b_gate)
    assert np.array_equal(one.gate_token, params.token_embed @ params.w_gate[d_h:])
    steps = np.random.default_rng(1).standard_normal((2, 3, flatten(params).size))
    stack = flatten(params) + steps
    stacked = state_terms(unflatten(stack, params.shapes), h)
    assert stacked.query_logits.shape == (2, 3, 9, 7) and stacked.gate_state.shape == (2, 3, 9)
    for idx in np.ndindex(2, 3):
        want = state_terms(unflatten(stack[idx], params.shapes), h)
        for name in ("query", "query_logits", "gate_state", "gate_token"):
            got, ref = getattr(stacked, name)[idx], getattr(want, name)
            assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (idx, name)


def test_flatten_follows_the_checkpoint_order_and_unflatten_views_it():
    params = init_params(3, 5, 2, 4)
    params.b_gate = 0.5
    vec = flatten(params)
    assert vec.size == 5 * 2 + 2 * 4 + 6 + 1 and vec[-1] == 0.5
    back = unflatten(vec, params.shapes, params.seed)
    for name in PARAM_ORDER[:3]:
        assert np.array_equal(getattr(back, name), getattr(params, name))
        assert np.shares_memory(getattr(back, name), vec)
    assert back.b_gate == 0.5 and back.seed == 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), vocab_size=st.integers(1, 6), embed_dim=st.integers(1, 4),
       state_dim=st.integers(1, 4), seed=st.integers(0, 2**63))
def test_checkpoint_roundtrip_is_bit_exact(tmp_path_factory, data, vocab_size, embed_dim,
                                           state_dim, seed):
    def draw(*shape):
        return data.draw(arrays(np.float64, shape))  # any float64, NaN and -0.0 included

    params = init_params(seed, vocab_size, embed_dim, state_dim)
    params.token_embed = draw(vocab_size, embed_dim)
    params.w_query = draw(embed_dim, state_dim)
    params.w_gate = draw(state_dim + embed_dim)
    params.b_gate = float(draw(1)[0])
    path = str(tmp_path_factory.mktemp("ckpt") / "ckpt.bin")
    save_params(params, path)
    loaded = load_params(path)
    for name in ("token_embed", "w_query", "w_gate"):
        want, got = getattr(params, name), getattr(loaded, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert np.float64(loaded.b_gate).tobytes() == np.float64(params.b_gate).tobytes()
    assert loaded.seed == seed
