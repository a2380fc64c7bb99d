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
    masked_forward,
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
    """Each dimension is a ``simulator.Count``, checked with the range rule's message."""
    for dims, message in [
        ((0, 4, 6), "vocab_size must be in [1, inf), got 0"),
        ((8, 0, 6), "embed_dim must be in [1, inf), got 0"),
        ((8, 4, -1), "state_dim must be in [1, inf), got -1"),
        ((8, 2.5, 6), "embed_dim must be a number written as an integer, got 2.5"),
    ]:
        with pytest.raises(ValueError) as caught:
            init_params(0, *dims)
        assert str(caught.value) == message


def test_forward_empty_valid_set():
    params = init_params(7, 8, 4, 6)
    step = forward_step(params, np.zeros(6), [])
    assert step.p_gen == 0.0
    assert np.all(step.p_ptr == 0.0)


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


def test_masked_softmax_shifts_logits_near_1e3():
    """Logits near 1e3 overflow ``exp`` unless the masked softmax shifts them
    by their maximum; shifted, its weights and gate are ``forward_step``'s."""
    params = init_params(4, 8, 4, 6)
    params.token_embed = 1.0 + 0.01 * np.random.default_rng(0).standard_normal((8, 4))
    params.w_query[:] = 1000.0 * np.sqrt(4) / (6 * 4)  # every logit near 1000
    h = np.ones(6)
    logits = state_terms(params, h[None]).query_logits[:, 0]
    assert 980.0 < logits.min() and logits.max() < 1020.0
    allowed = np.zeros((8, 2), dtype=bool)
    allowed[[1, 4, 6], 0] = allowed[[0, 7], 1] = True
    terms = state_terms(params, np.stack([h, h]))
    p, _, gate = masked_forward(terms.query_logits, terms.gate_state, terms.gate_token, allowed)
    for t, valid in enumerate(([1, 4, 6], [0, 7])):
        step = forward_step(params, h, valid)
        assert np.isfinite(p[:, t]).all() and 0.0 < p[valid, t].min()
        assert np.allclose(p[:, t], step.p_ptr, rtol=1e-12, atol=0.0)
        assert gate[t] == pytest.approx(step.p_gen, rel=1e-12, abs=0.0)


def test_masked_forward_gives_exactly_0_in_a_disallowed_row_whatever_its_logit():
    """+inf, -inf and NaN logits in disallowed rows (column 3 allows nothing)
    leave those weights exactly 0, and the weights and the gate bit-equal to a
    call with the finite logits there."""
    params = init_params(5, 8, 4, 6)
    terms = state_terms(params, np.random.default_rng(0).standard_normal((4, 6)))
    allowed = np.zeros((8, 4), dtype=bool)
    allowed[[1, 4, 6], 0] = allowed[[0, 7], 1] = allowed[2, 2] = True
    logits = terms.query_logits.copy()
    logits[~allowed] = np.resize([np.inf, -np.inf, np.nan], np.count_nonzero(~allowed))
    want = masked_forward(terms.query_logits, terms.gate_state, terms.gate_token, allowed)
    got = masked_forward(logits, terms.gate_state, terms.gate_token, allowed)
    assert np.all(got[0][~allowed] == 0.0) and got[2][3] == 0.0
    for mine, theirs in zip(got, want):
        assert np.array_equal(mine, theirs)


def make_step(p_ptr, p_gen, valid):
    p = np.asarray(p_ptr, dtype=np.float64)
    members = np.asarray(sorted(valid), dtype=np.intp)
    return StepOutput(p, p_gen, tuple(int(m) for m in members))


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


def test_interpolate_rejects_an_unknown_mode():
    step = make_step([0.0, 1.0, 0.0], 0.5, [1])
    with pytest.raises(ValueError) as caught:
        interpolate(np.array([0.5, 0.3, 0.2]), step, "none")
    assert str(caught.value) == "mode must be 'scaled' or 'unscaled', got 'none'"


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


@pytest.mark.parametrize("name, dims, problem", [
    ("token_embed", [6.0, 3], "'shapes.token_embed.0' must be a number written as an integer"),
    ("b_gate", [True], "'shapes.b_gate.0' must be a number written as an integer"),
    ("token_embed", [-6, 3], r"'shapes.token_embed.0' must be in \[0, inf\), got -6"),
    ("token_embed", [10**12, 3], "truncated checkpoint"),  # found before reading 24 TB
], ids=["non-integer", "boolean", "negative", "larger_than_the_file"])
def test_checkpoint_header_with_a_bad_dimension_names_file_and_parameter(tmp_path, name, dims,
                                                                         problem):
    path = tmp_path / "ckpt.bin"
    save_params(init_params(4, 6, 3, 5), str(path))
    _edit_header(path, lambda h: h["shapes"].__setitem__(name, dims))
    with pytest.raises(ValueError, match=problem) as caught:
        load_params(str(path))
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("name, value", [("w_query", np.nan), ("b_gate", -np.inf)])
def test_checkpoint_with_a_non_finite_value_names_file_and_parameter(tmp_path, name, value):
    params = init_params(4, 6, 3, 5)
    vec = flatten(params)
    before = PARAM_ORDER[:PARAM_ORDER.index(name)]
    vec[sum(np.size(getattr(params, other)) for other in before)] = value
    path = tmp_path / "ckpt.bin"
    save_params(unflatten(vec, params.shapes, params.seed), str(path))
    with pytest.raises(ValueError, match=f"{name} holds non-finite values") as caught:
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
    query = h @ params.w_query.T / np.sqrt(4)
    assert np.array_equal(one.query, query)
    assert np.array_equal(one.query_logits, params.token_embed @ query.T)
    assert np.array_equal(one.gate_state, h @ params.w_gate[:d_h] + params.b_gate)
    assert np.array_equal(one.gate_token, params.token_embed @ params.w_gate[d_h:])
    # one to three probe axes, and a (2, 40) stack of more than 64 probes
    for lead in ((2, 3), (2, 40), (5,), (2, 2, 3)):
        steps = np.random.default_rng(1).standard_normal((*lead, flatten(params).size))
        stack = flatten(params) + steps
        stacked = state_terms(unflatten(stack, params.shapes), h)
        assert stacked.query.shape == (*lead, 9, 4) and stacked.query_logits.shape == (*lead, 7, 9)
        assert stacked.gate_state.shape == (*lead, 9) and stacked.gate_token.shape == (*lead, 7)
        for idx in np.ndindex(*lead):
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
        # any finite float64, -0.0 and subnormals included: a checkpoint holding NaN or
        # an infinity is rejected
        return data.draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False,
                                                                      allow_infinity=False)))

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
