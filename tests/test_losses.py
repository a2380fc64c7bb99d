import dataclasses
import math

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslab import losses
from biaslab.biastrie import build_trie
from biaslab.harness import make_check_setup
from biaslab.losses import (
    BiasMask,
    bias_positions,
    evaluate,
    fd_check,
    grad,
    loss_asr,
    loss_gen,
    loss_ptr,
    prepare_example,
    teacher_valid_sets,
)
from biaslab.pointer import flatten, forward_step, init_params, interpolate, unflatten
from biaslab.tokenizer import build_vocab, tokenize


def small_world():
    vocab = build_vocab(["my", "name", "is", "kerry", "tom", "to"])
    return vocab


def test_bias_positions_fig_example():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "name", "is", "kerry"])
    mask = bias_positions(ref, {"kerry"})
    _, start, end = ref.word_spans[3]
    assert mask.positions == frozenset(range(start, end))
    assert mask.size == ref.size


def test_bias_positions_empty_list():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "name"])
    assert bias_positions(ref, set()).positions == frozenset()


def test_bias_positions_repeated_word():
    vocab = small_world()
    ref = tokenize(vocab, ["kerry", "kerry"])
    mask = bias_positions(ref, {"kerry"})
    assert mask.positions == frozenset(range(10))  # both 5-token spans


def test_loss_asr_certain_reference():
    vocab = build_vocab(["to"])
    ref = tokenize(vocab, ["to"])
    rows = np.full((3, vocab.size), 0.0)
    for i, tok in enumerate(ref.tokens):
        rows[i, tok] = 1.0
    assert loss_asr(rows, ref) == 0.0


def test_loss_asr_half_probability():
    vocab = build_vocab(["to"])
    ref = tokenize(vocab, ["to"])
    rows = np.full((3, vocab.size), 0.0)
    for i, tok in enumerate(ref.tokens):
        rows[i, tok] = 1.0
    # position 0: probability 0.5 on gold, rest spread
    rows[0] = (1.0 - 0.5) / (vocab.size - 1)
    rows[0, ref.tokens[0]] = 0.5
    assert abs(loss_asr(rows, ref) - math.log(2)) < 1e-12
    rows[1] = (1.0 - 0.5) / (vocab.size - 1)
    rows[1, ref.tokens[1]] = 0.5
    assert abs(loss_asr(rows, ref) - 2 * math.log(2)) < 1e-12


def test_loss_asr_zero_probability_clamped():
    vocab = build_vocab(["to"])
    ref = tokenize(vocab, ["to"])
    rows = np.zeros((3, vocab.size))
    rows[:, 0] = 1.0  # all mass on EOS, so word tokens get probability 0
    value = loss_asr(rows, ref)
    assert math.isfinite(value)
    assert value >= 2 * -math.log(1e-12) - 1e-6


def test_loss_gen_perfect_classification():
    mask = BiasMask(frozenset({0}), 2)
    assert loss_gen(np.array([1.0, 0.0]), mask, 0.7) == 0.0


def test_loss_gen_hand_value():
    mask = BiasMask(frozenset({1}), 2)
    value = loss_gen(np.array([0.2, 0.9]), mask, 0.7)
    expected = -(0.3 * math.log(0.8) + 0.7 * math.log(0.9))
    assert abs(value - expected) < 1e-12
    assert abs(value - 0.1406954264) < 1e-9


def test_loss_gen_empty_mask_closed_gate():
    mask = BiasMask(frozenset(), 3)
    for alpha in (0.1, 0.5, 0.9):
        assert loss_gen(np.zeros(3), mask, alpha) == 0.0


def test_loss_gen_alpha_validated():
    mask = BiasMask(frozenset(), 1)
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="alpha"):
            loss_gen(np.array([0.5]), mask, alpha)


def test_loss_gen_monotonicity():
    mask = BiasMask(frozenset({0}), 2)
    low = loss_gen(np.array([0.4, 0.2]), mask, 0.7)
    assert loss_gen(np.array([0.5, 0.2]), mask, 0.7) < low
    assert loss_gen(np.array([0.4, 0.3]), mask, 0.7) > low


def forced_steps(vocab, ref, bias_words, params):
    tree = build_trie(vocab, bias_words)
    sets = teacher_valid_sets(tree, ref.tokens)
    rng = np.random.default_rng(0)
    h_seq = rng.standard_normal((ref.size, params.state_dim))
    return [forward_step(params, h_seq[i], list(sets[i])) for i in range(ref.size)], h_seq


def test_loss_ptr_empty_mask():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "kerry"])
    params = init_params(1, vocab.size, 4, 6)
    steps, _ = forced_steps(vocab, ref, ["kerry"], params)
    assert loss_ptr(steps, ref, BiasMask(frozenset(), ref.size)) == 0.0


def test_loss_ptr_hand_value():
    vocab = small_world()
    ref = tokenize(vocab, ["kerry"])
    params = init_params(1, vocab.size, 4, 6)
    steps, _ = forced_steps(vocab, ref, ["kerry"], params)
    doctored = []
    for i, step in enumerate(steps):
        p = step.p_ptr.copy()
        if i == 1:
            p[:] = 0.0
            p[ref.tokens[1]] = 0.8
        doctored.append(dataclasses.replace(step, p_ptr=p))
    mask = BiasMask(frozenset({1}), ref.size)
    assert abs(loss_ptr(doctored, ref, mask) - 0.22314355) < 1e-7


def test_loss_ptr_certain_predictions():
    vocab = small_world()
    ref = tokenize(vocab, ["kerry"])
    params = init_params(1, vocab.size, 4, 6)
    steps, _ = forced_steps(vocab, ref, ["kerry"], params)
    certain = []
    for i, step in enumerate(steps):
        p = np.zeros_like(step.p_ptr)
        p[ref.tokens[i]] = 1.0
        certain.append(dataclasses.replace(step, p_ptr=p))
    mask = bias_positions(ref, {"kerry"})
    assert loss_ptr(certain, ref, mask) == 0.0


def test_loss_ptr_positions_outside_mask_ignored():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "kerry"])
    params = init_params(2, vocab.size, 4, 6)
    steps, _ = forced_steps(vocab, ref, ["kerry"], params)
    mask = bias_positions(ref, {"kerry"})
    base = loss_ptr(steps, ref, mask)
    poked = []
    for i, step in enumerate(steps):
        if i not in mask.positions:
            junk = np.zeros_like(step.p_ptr)
            junk[0] = 1.0
            poked.append(dataclasses.replace(step, p_ptr=junk))
        else:
            poked.append(step)
    assert loss_ptr(poked, ref, mask) == base


def test_loss_ptr_inconsistent_mask_raises():
    vocab = small_world()
    ref = tokenize(vocab, ["tom"])
    params = init_params(3, vocab.size, 4, 6)
    steps, _ = forced_steps(vocab, ref, ["kerry"], params)
    bad_mask = BiasMask(frozenset({0}), ref.size)
    with pytest.raises(ValueError, match="mask/trie inconsistency at position 0"):
        loss_ptr(steps, ref, bad_mask)


def example_for(vocab, words, bias_words, seed=0, state_dim=6):
    ref = tokenize(vocab, words)
    rng = np.random.default_rng(seed)
    h_seq = rng.standard_normal((ref.size, state_dim))
    p_mdl = rng.dirichlet(np.ones(vocab.size), size=ref.size)
    return prepare_example(vocab, "u0", ref, h_seq, p_mdl, bias_words)


def test_prepare_example_guarantees_gold_membership():
    vocab = small_world()
    ex = example_for(vocab, ["my", "kerry", "tom"], ["kerry", "tom"])
    for i in ex.mask.positions:
        assert ex.tokens[i] in ex.valid_sets[i]


def test_grad_inconsistent_mask_raises():
    vocab = small_world()
    ex = example_for(vocab, ["tom"], ["kerry"])
    bad = dataclasses.replace(ex, mask=BiasMask(frozenset({0}), len(ex.tokens)))
    params = init_params(0, vocab.size, 4, 6)
    with pytest.raises(ValueError, match="mask/trie inconsistency"):
        grad(params, [bad], "two_loss", 0.7)


def test_clamped_positions_are_counted_in_report():
    vocab = small_world()
    ref = tokenize(vocab, ["my"])
    rows = np.zeros((ref.size, vocab.size))
    rows[:, 0] = 1.0  # all mass on EOS: word tokens get exactly zero
    rng = np.random.default_rng(0)
    ex = prepare_example(vocab, "u0", ref, rng.standard_normal((ref.size, 6)), rows, [])
    params = init_params(0, vocab.size, 4, 6)
    report = evaluate(params, [ex], "asr", 0.7)
    assert report.n_clamped == 2  # both non-EOS positions hit the log floor


def test_report_totals_by_mode():
    params, batch, _ = make_check_setup(3)
    two = evaluate(params, batch, "two_loss", 0.7)
    assert two.total == two.l_gen + two.l_ptr
    asr = evaluate(params, batch, "asr", 0.7)
    assert asr.total == asr.l_asr
    assert min(two.l_gen, two.l_ptr, two.l_asr, asr.total) >= 0.0


def test_two_loss_total_ignores_base_model():
    params, batch, _ = make_check_setup(4)
    before = evaluate(params, batch, "two_loss", 0.7)
    batch = [dataclasses.replace(ex, p_mdl_seq=np.roll(ex.p_mdl_seq, 1, axis=1)) for ex in batch]
    after = evaluate(params, batch, "two_loss", 0.7)
    assert after.l_gen == before.l_gen
    assert after.l_ptr == before.l_ptr
    assert after.total == before.total


def test_asr_loss_follows_base_model_rows_changed_in_place():
    params, batch, _ = make_check_setup(4)
    evaluate(params, batch, "asr", 0.7)
    for ex in batch:
        ex.p_mdl_seq[:] = np.roll(ex.p_mdl_seq, 1, axis=1)
    fresh = [dataclasses.replace(ex, p_mdl_seq=ex.p_mdl_seq.copy()) for ex in batch]
    assert evaluate(params, batch, "asr", 0.7).l_asr == evaluate(params, fresh, "asr", 0.7).l_asr


def test_asr_mode_matches_interpolated_nll():
    params, batch, vocab = make_check_setup(5)
    report = evaluate(params, batch, "asr", 0.7)
    expected = 0.0
    for ex in batch:
        for i, gold in enumerate(ex.tokens):
            step = forward_step(params, ex.h_seq[i], list(ex.valid_sets[i]))
            p_final = interpolate(ex.p_mdl_seq[i], step, "scaled")[gold]
            expected -= math.log(max(p_final, 1e-12))
    assert abs(report.l_asr - expected) < 1e-9


def test_grad_doubling_utterance_doubles_gradient():
    params, batch, _ = make_check_setup(6)
    one = batch[:1]
    single, _ = grad(params, one, "two_loss", 0.7)
    double, _ = grad(params, one + one, "two_loss", 0.7)
    assert np.array_equal(double.token_embed, 2 * single.token_embed)
    assert np.array_equal(double.w_gate, 2 * single.w_gate)
    assert double.b_gate == 2 * single.b_gate


def test_grad_deterministic():
    params, batch, _ = make_check_setup(7)
    a, _ = grad(params, batch, "asr", 0.7)
    b, _ = grad(params, batch, "asr", 0.7)
    assert np.array_equal(a.token_embed, b.token_embed)
    assert np.array_equal(a.w_query, b.w_query)


def test_gate_gradient_direction_off_mask():
    # with no masked positions and the gate below 0.5, descent lowers the gate
    vocab = small_world()
    ex = example_for(vocab, ["my", "name"], ["kerry"])
    assert not ex.mask.positions
    params = init_params(1, vocab.size, 4, 6)
    g, _ = grad(params, [ex], "two_loss", 0.7)
    assert g.b_gate >= 0.0


def test_gate_gradient_zero_when_no_valid_sets():
    vocab = small_world()
    ex = example_for(vocab, ["my", "name"], [])
    params = init_params(1, vocab.size, 4, 6)
    g, report = grad(params, [ex], "two_loss", 0.7)
    assert np.sqrt(np.sum(flatten(g) ** 2)) == 0.0
    assert report.l_gen == 0.0 and report.l_ptr == 0.0


def test_unused_embedding_row_gets_zero_gradient():
    vocab = small_world()
    ex = example_for(vocab, ["kerry"], ["kerry"])
    params = init_params(2, vocab.size, 4, 6)
    g, _ = grad(params, [ex], "two_loss", 0.7)
    used = set()
    for members in ex.valid_sets:
        used.update(members)
    unused = [t for t in range(vocab.size) if t not in used]
    assert unused, "test needs at least one untouched token"
    assert np.all(g.token_embed[unused] == 0.0)


@pytest.mark.parametrize("mode", ["two_loss", "asr"])
def test_fd_check_seed11(mode):
    params, batch, _ = make_check_setup(11, 4, 6)
    assert fd_check(params, batch, mode, 0.7, 1e-5) < 1e-4


def test_fd_check_detects_coarse_steps():
    params, batch, _ = make_check_setup(11, 4, 6)
    fine = fd_check(params, batch, "two_loss", 0.7, 1e-5)
    coarse = fd_check(params, batch, "two_loss", 0.7, 1e-3)
    assert coarse > fine
    with pytest.raises(ValueError, match="outside"):
        fd_check(params, batch, "two_loss", 0.7, 1e-2)


@pytest.mark.parametrize("mode", ["two_loss", "asr"])
def test_step_trace_sums_to_evaluate(mode):
    params, batch, _ = make_check_setup(9, 5, 5, n_utterances=3)
    report = evaluate(params, batch, mode, 0.7)
    records = losses.step_trace(params, batch, mode, 0.7)
    assert len(records) == sum(len(ex.tokens) for ex in batch)
    assert abs(sum(r["l_gen"] for r in records) - report.l_gen) < 1e-9
    assert abs(sum(r["l_ptr"] for r in records) - report.l_ptr) < 1e-9
    assert abs(sum(r["l_asr"] for r in records) - report.l_asr) < 1e-9
    for r in records:
        assert r["valid_count"] > 0 or (r["p_gen"] == 0.0 and r["d_gate_pre"] == 0.0)


def test_grad_reduction_order_stable():
    params, batch, _ = make_check_setup(8, 5, 5, n_utterances=4)
    total, _ = grad(params, batch, "two_loss", 0.7)
    partials = [grad(params, [ex], "two_loss", 0.7)[0] for ex in batch]
    acc = unflatten(sum(flatten(part) for part in partials), params.shapes)
    assert np.allclose(acc.token_embed, total.token_embed, atol=1e-12)
    assert abs(acc.b_gate - total.b_gate) < 1e-12


@pytest.mark.parametrize("mode", ["two_loss", "asr"])
@pytest.mark.parametrize("b_gate", [None, 40.0])
def test_step_trace_gate_gradient_sums_to_b_gate(mode, b_gate):
    # b_gate 40 saturates the gate, so its log is floored and grad uses 0
    params, batch, _ = make_check_setup(9, 5, 5, n_utterances=3)
    if b_gate is not None:
        params.b_gate = b_gate
    grads, _ = grad(params, batch, mode, 0.7)
    records = losses.step_trace(params, batch, mode, 0.7)
    assert abs(sum(r["d_gate_pre"] for r in records) - grads.b_gate) <= 1e-12
    assert b_gate is None or grads.b_gate == 0.0


def test_kernel_groups_match_per_utterance_sums():
    params, batch, _ = make_check_setup(12, 4, 6, n_utterances=2 * losses.GROUP_SIZE + 3)
    whole, report = grad(params, batch, "asr", 0.7)
    parts = [grad(params, [ex], "asr", 0.7) for ex in batch]
    assert math.isclose(report.l_asr, sum(r.l_asr for _, r in parts), rel_tol=1e-12)
    acc = unflatten(sum(flatten(g) for g, _ in parts), params.shapes)
    assert np.allclose(acc.w_query, whole.w_query, rtol=1e-12, atol=1e-14)
    assert np.allclose(acc.token_embed, whole.token_embed, rtol=1e-12, atol=1e-14)


def test_non_finite_parameters_rejected_before_the_pass():
    params, batch, _ = make_check_setup(3)
    params.w_query[0, 0] = np.nan
    with pytest.raises(losses.DivergenceError, match="parameters"):
        evaluate(params, batch, "two_loss", 0.7)


@pytest.mark.filterwarnings("error")
def test_non_finite_input_names_the_utterance():
    params, batch, _ = make_check_setup(3, n_utterances=3)
    batch[1] = dataclasses.replace(batch[1], h_seq=batch[1].h_seq.copy())
    batch[1].h_seq[0, 0] = np.inf
    with pytest.raises(losses.DivergenceError, match=batch[1].utt_id):
        grad(params, batch, "two_loss", 0.7)


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 300),
    b_gate=st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-40.0, 40.0])),
    alpha=st.floats(0.05, 0.95),
    emptied=st.lists(st.integers(0, 40), max_size=6),
)
@example(seed=3, b_gate=40.0, alpha=0.7, emptied=[0, 1, 2, 3, 4, 5])
@example(seed=5, b_gate=-40.0, alpha=0.3, emptied=[6])
def test_kernel_matches_reference_losses_and_forward_step(seed, b_gate, alpha, emptied):
    """The training kernel and the decode-time forward_step compute one model."""
    params, batch, _ = make_check_setup(seed, 4, 5, n_utterances=3)
    params.b_gate = b_gate
    # clear some off-mask valid sets: the kernel must mix empty and full rows
    ex = batch[0]
    drop = {i for i in emptied if i < len(ex.tokens) and i not in ex.mask.positions}
    batch[0] = dataclasses.replace(
        ex, valid_sets=tuple(() if i in drop else v for i, v in enumerate(ex.valid_sets))
    )
    out = losses.teacher_forced(params, batch, "two_loss", alpha)
    gates = out.terms()["p_gen"]
    l_gen = l_ptr = l_asr = 0.0
    offset = 0
    for ex in batch:
        steps = [forward_step(params, ex.h_seq[i], list(ex.valid_sets[i]))
                 for i in range(len(ex.tokens))]
        ref = types.SimpleNamespace(tokens=ex.tokens, size=len(ex.tokens))
        p_gen = np.array([s.p_gen for s in steps])
        for i, step in enumerate(steps):
            assert _close(gates[offset + i], step.p_gen)
        offset += len(steps)
        l_gen += loss_gen(p_gen, ex.mask, alpha)
        l_ptr += loss_ptr(steps, ref, ex.mask)
        rows = [interpolate(ex.p_mdl_seq[i], s, "scaled") for i, s in enumerate(steps)]
        l_asr += loss_asr(np.array(rows), ref)
    assert offset == len(gates)
    assert _close(out.report.l_gen, l_gen)
    assert _close(out.report.l_ptr, l_ptr)
    assert _close(out.report.l_asr, l_asr)


def _empty_off_mask_sets(ex, emptied):
    """``ex`` with the valid sets at the off-mask positions in ``emptied`` cleared."""
    drop = {i for i in emptied if i < len(ex.tokens) and i not in ex.mask.positions}
    return dataclasses.replace(
        ex, valid_sets=tuple(() if i in drop else v for i, v in enumerate(ex.valid_sets))
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 300),
    b_gate=st.one_of(st.sampled_from([-40.0, 40.0]), st.floats(-6.0, 6.0)),
    alpha=st.floats(0.05, 0.95),
    mode=st.sampled_from(losses.MODES),
    emptied=st.lists(st.integers(0, 40), max_size=6),
    cols=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    step=st.sampled_from([1e-5, 1e-3, 0.5]),
)
@example(seed=3, b_gate=40.0, alpha=0.7, mode="asr", emptied=[0, 1, 2, 3], cols=[0], step=1e-5)
@example(seed=5, b_gate=-40.0, alpha=0.3, mode="two_loss", emptied=[6], cols=[7], step=1e-3)
def test_stacked_probe_totals_match_evaluate_at_each_probe(
    seed, b_gate, alpha, mode, emptied, cols, step
):
    """The probe axis runs the training forward: each probe's total is
    ``evaluate``'s at that parameter vector, across groups."""
    params, batch, _ = make_check_setup(seed, 4, 5, n_utterances=losses.GROUP_SIZE + 3)
    params.b_gate = b_gate
    for k in (0, len(batch) - 1):  # one utterance in each group mixes empty and full rows
        batch[k] = _empty_off_mask_sets(batch[k], emptied)
    base = flatten(params)
    cols = [c % base.size for c in cols] + [base.size - 1]  # b_gate is always probed
    rows = np.arange(len(cols))
    probes = np.tile(base, (2, len(cols), 1))
    probes[0, rows, cols] += step
    probes[1, rows, cols] -= step
    groups = list(losses._groups(batch))
    assert len(groups) == 2
    totals = losses.probe_totals(probes, params.shapes, groups, mode, alpha)
    assert totals.shape == (2, len(cols))
    for idx in np.ndindex(totals.shape):
        want = evaluate(unflatten(probes[idx], params.shapes), batch, mode, alpha).total
        assert math.isclose(totals[idx], want, rel_tol=1e-12), idx


def _nan_parameter(params, batch):
    params.w_query[0, 0] = np.nan
    return "non-finite copy-module parameters"


def _inf_input(params, batch):
    batch[1] = dataclasses.replace(batch[1], h_seq=batch[1].h_seq.copy())
    batch[1].h_seq[0, 0] = np.inf
    return f"non-finite input on utterance {batch[1].utt_id}"


def _gold_off_its_valid_set(params, batch):
    b, i = next((b, i) for b, ex in enumerate(batch) for i in sorted(ex.mask.positions))
    ex = batch[b]
    sets = list(ex.valid_sets)
    sets[i] = tuple(t for t in sets[i] if t != ex.tokens[i])
    batch[b] = dataclasses.replace(ex, valid_sets=tuple(sets))
    return f"mask/trie inconsistency at position {i} of utterance {ex.utt_id}"


@pytest.mark.parametrize("corrupt", [_nan_parameter, _inf_input, _gold_off_its_valid_set],
                         ids=["parameter", "input", "mask-trie"])
def test_fd_check_raises_on_bad_parameters_and_inputs(corrupt):
    params, batch, _ = make_check_setup(3, n_utterances=3)
    message = corrupt(params, batch)
    with pytest.raises(ValueError, match=message):
        fd_check(params, batch, "two_loss", 0.7)


@pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
def test_kernel_rejects_alpha_outside_the_open_unit_interval(alpha):
    params, batch, _ = make_check_setup(3)
    for call in (evaluate, fd_check):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            call(params, batch, "two_loss", alpha)
