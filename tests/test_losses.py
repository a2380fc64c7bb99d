import dataclasses
import math

import types
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslab import losses
from biaslab.biastrie import build_trie
from biaslab.harness import make_check_setup
from biaslab.metrics import GATE_THRESHOLD
from biaslab.losses import (
    bias_positions,
    evaluate,
    fd_check,
    grad,
    loss_asr,
    loss_gen,
    loss_ptr,
    prepare_example,
)
from biaslab.pointer import flatten, forward_step, init_params, interpolate, unflatten
from biaslab.tokenizer import build_vocab, tokenize
from biaslab.trainer import TrainConfig
from conftest import shared_start_setup, shared_starts


def members(row):
    """The token ids a bool row over the vocabulary flags, sorted."""
    return np.flatnonzero(row).tolist()


def small_world():
    vocab = build_vocab(["my", "name", "is", "kerry", "tom", "to"])
    return vocab


def test_bias_positions_fig_example():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "name", "is", "kerry"])
    mask = bias_positions(ref, {"kerry"})
    _, start, end = ref.word_spans[3]
    assert members(mask) == list(range(start, end))
    assert mask.dtype == bool and mask.shape == (ref.size,)


def test_bias_positions_empty_list():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "name"])
    assert np.array_equal(bias_positions(ref, set()), np.zeros(ref.size, dtype=bool))


def test_bias_positions_repeated_word():
    vocab = small_world()
    ref = tokenize(vocab, ["kerry", "kerry"])
    mask = bias_positions(ref, {"kerry"})
    assert members(mask) == list(range(10))  # both 5-token spans


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
    mask = np.array([True, False])
    assert loss_gen(np.array([1.0, 0.0]), mask, 0.7) == 0.0


def test_loss_gen_hand_value():
    mask = np.array([False, True])
    value = loss_gen(np.array([0.2, 0.9]), mask, 0.7)
    expected = -(0.3 * math.log(0.8) + 0.7 * math.log(0.9))
    assert abs(value - expected) < 1e-12
    assert abs(value - 0.1406954264) < 1e-9


def test_loss_gen_empty_mask_closed_gate():
    mask = np.zeros(3, dtype=bool)
    for alpha in (0.1, 0.5, 0.9):
        assert loss_gen(np.zeros(3), mask, alpha) == 0.0


def test_loss_gen_alpha_validated():
    mask = np.zeros(1, dtype=bool)
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="alpha"):
            loss_gen(np.array([0.5]), mask, alpha)


def test_loss_gen_monotonicity():
    mask = np.array([True, False])
    low = loss_gen(np.array([0.4, 0.2]), mask, 0.7)
    assert loss_gen(np.array([0.5, 0.2]), mask, 0.7) < low
    assert loss_gen(np.array([0.4, 0.3]), mask, 0.7) > low


def forced_steps(vocab, ref, bias_words, params):
    tree = build_trie(vocab, bias_words)
    _, allowed = tree.walk(ref.tokens)
    rng = np.random.default_rng(0)
    h_seq = rng.standard_normal((ref.size, params.state_dim))
    return [forward_step(params, h_seq[i], members(allowed[i])) for i in range(ref.size)], h_seq


def test_loss_ptr_empty_mask():
    vocab = small_world()
    ref = tokenize(vocab, ["my", "kerry"])
    params = init_params(1, vocab.size, 4, 6)
    steps, _ = forced_steps(vocab, ref, ["kerry"], params)
    assert loss_ptr(steps, ref, np.zeros(ref.size, dtype=bool)) == 0.0


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
    mask = np.arange(ref.size) == 1
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
        if not mask[i]:
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
    bad_mask = np.arange(ref.size) == 0
    with pytest.raises(ValueError, match="mask/trie inconsistency at position 0"):
        loss_ptr(steps, ref, bad_mask)


def example_for(vocab, words, bias_words, seed=0, state_dim=6):
    ref = tokenize(vocab, words)
    rng = np.random.default_rng(seed)
    h_seq = rng.standard_normal((ref.size, state_dim))
    p_mdl = rng.dirichlet(np.ones(vocab.size), size=ref.size)
    return prepare_example(vocab, "u0", ref, h_seq, p_mdl, bias_words,
                           build_trie(vocab, bias_words))


def test_prepare_example_guarantees_gold_membership():
    vocab = small_world()
    ex = example_for(vocab, ["my", "kerry", "tom"], ["kerry", "tom"])
    for i in np.flatnonzero(ex.mask):
        assert ex.allowed[i, ex.tokens[i]]


@pytest.mark.parametrize("rows, states", [
    (lambda p: p[:, :3], lambda h: h),
    (lambda p: p[:-1], lambda h: h),
    (lambda p: p, lambda h: h[:, 0]),
    (lambda p: p, lambda h: h[:-1]),
], ids=["narrow_rows", "short_rows", "one_dim_states", "short_states"])
def test_prepare_example_rejects_rows_and_states_that_do_not_fit(rows, states):
    vocab = small_world()
    ref = tokenize(vocab, ["my", "kerry"])
    rng = np.random.default_rng(0)
    h_seq = states(rng.standard_normal((ref.size, 6)))
    p_mdl = rows(rng.dirichlet(np.ones(vocab.size), size=ref.size))
    with pytest.raises(ValueError, match="utterance u0: base-model rows") as caught:
        prepare_example(vocab, "u0", ref, h_seq, p_mdl, ["kerry"], build_trie(vocab, ["kerry"]))
    assert f"{p_mdl.shape}" in str(caught.value) and f"{h_seq.shape}" in str(caught.value)


@pytest.mark.parametrize("call", [
    lambda params, batch: evaluate(params, batch, "cross_entropy", 0.7),
    lambda params, batch: grad(params, batch, "cross_entropy", 0.7),
    lambda params, batch: fd_check(params, batch, "cross_entropy", 0.7),
    lambda params, batch: TrainConfig(mode="cross_entropy").validate(),
], ids=["evaluate", "grad", "fd_check", "train_config"])
def test_unknown_loss_mode_rejected_by_the_choice_rule(call):
    params, batch, _ = make_check_setup(3)
    with pytest.raises(ValueError) as caught:
        call(params, batch)
    assert str(caught.value) == "mode must be 'two_loss' or 'asr', got 'cross_entropy'"


@pytest.mark.parametrize("alone", [True, False], ids=["alone", "in_a_group"])
def test_kernel_rejects_states_that_do_not_fit_the_module(alone):
    params, batch, _ = make_check_setup(3, n_utterances=3)
    narrow = dataclasses.replace(batch[1], h_seq=batch[1].h_seq[:, :4])
    group = [narrow] if alone else [batch[0], narrow, batch[2]]
    shape = rf"\({len(narrow.tokens)}, 4\)"
    for mode in losses.MODES:
        with pytest.raises(ValueError, match=rf"utterance {narrow.utt_id}: .*{shape}.*width 6"):
            evaluate(params, group, mode, 0.7)
    if not alone:  # packing rejects it before any module is known
        with pytest.raises(ValueError, match=rf"utterance {narrow.utt_id}: .*{shape}.*width 6"):
            losses.pack(group)


def test_grad_inconsistent_mask_raises():
    vocab = small_world()
    ex = example_for(vocab, ["tom"], ["kerry"])
    bad = dataclasses.replace(ex, mask=np.arange(len(ex.tokens)) == 0)
    params = init_params(0, vocab.size, 4, 6)
    with pytest.raises(ValueError, match="mask/trie inconsistency"):
        grad(params, [bad], "two_loss", 0.7)


def test_clamped_positions_are_counted_in_report():
    vocab = small_world()
    ref = tokenize(vocab, ["my"])
    rows = np.zeros((ref.size, vocab.size))
    rows[:, 0] = 1.0  # all mass on EOS: word tokens get exactly zero
    rng = np.random.default_rng(0)
    ex = prepare_example(vocab, "u0", ref, rng.standard_normal((ref.size, 6)), rows, [],
                         build_trie(vocab, []))
    params = init_params(0, vocab.size, 4, 6)
    report = evaluate(params, [ex], "asr", 0.7)
    assert report.n_clamped == 2  # both non-EOS positions hit the log floor


@pytest.mark.parametrize("b_gate, clamped", [(-40.0, 5), (40.0, 6)])
def test_clamped_positions_off_the_mask_are_counted_once(b_gate, clamped):
    """"my kerry" with "kerry" on the list: positions 2-6 are on the mask, and
    the valid set holds kerry's first token everywhere, so 0, 1 and 7 (EOS)
    are off it with a valid set.  A shut gate floors the gate's log at the 5
    masked positions only.  An open gate floors the log of its complement at
    the 3 off-mask positions, and there the gold token has neither bias nor
    base-model probability left, so the final log is floored too."""
    vocab = small_world()
    ref = tokenize(vocab, ["my", "kerry"])
    rows = np.full((ref.size, vocab.size), 1.0 / vocab.size)
    ex = prepare_example(vocab, "u0", ref, np.ones((ref.size, 6)), rows, ["kerry"],
                         build_trie(vocab, ["kerry"]))
    assert members(ex.mask) == [2, 3, 4, 5, 6] and ref.size == 8
    params = init_params(0, vocab.size, 4, 6)
    params.w_query[:] = 0.0  # uniform bias weights: no pointer log is floored
    params.w_gate[:] = 0.0
    params.b_gate = b_gate
    for mode in losses.MODES:
        assert evaluate(params, [ex], mode, 0.7).n_clamped == clamped


def test_gate_at_the_threshold_counts_as_fired():
    """A gate of exactly ``GATE_THRESHOLD`` fires, on and off the mask."""
    params, batch, _ = make_check_setup(3, n_utterances=3)
    params.w_gate[:] = 0.0
    params.b_gate = 0.0  # sigmoid(0) == 0.5 exactly
    rates = losses.gate_rates(params, batch)
    assert GATE_THRESHOLD == 0.5 and rates["tp"] > 0 and rates["fp"] > 0
    assert rates["fn"] == rates["tn"] == 0 and rates["tar"] == rates["far"] == 1.0


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
            step = forward_step(params, ex.h_seq[i], members(ex.allowed[i]))
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
    assert not ex.mask.any()
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
    used = set(members(ex.allowed.any(axis=0)))
    unused = [t for t in range(vocab.size) if t not in used]
    assert unused, "test needs at least one untouched token"
    assert np.all(g.token_embed[unused] == 0.0)


@pytest.mark.parametrize("mode", ["two_loss", "asr"])
def test_fd_check_seed11(mode):
    params, batch, _ = make_check_setup(11, 4, 6)
    assert fd_check(params, batch, mode, 0.7, 1e-5) < 1e-4


@pytest.mark.parametrize("mode", ["two_loss", "asr"])
def test_fd_check_where_non_bias_words_start_like_bias_words(mode):
    params, batch, _ = shared_start_setup(11, 4, 6)
    assert shared_starts(batch) > 0
    assert fd_check(params, batch, mode, 0.7, 1e-5) < 1e-4


def test_fd_check_detects_coarse_steps():
    params, batch, _ = make_check_setup(11, 4, 6)
    fine = fd_check(params, batch, "two_loss", 0.7, 1e-5)
    coarse = fd_check(params, batch, "two_loss", 0.7, 1e-3)
    assert coarse > fine
    with pytest.raises(ValueError, match=r"step must be in \[1e-07, 0.001\], got 0.01"):
        fd_check(params, batch, "two_loss", 0.7, 1e-2)


@pytest.mark.parametrize("mode", losses.MODES)
@pytest.mark.parametrize("setup", [
    lambda: shared_start_setup(11, 4, 6),
    lambda: make_check_setup(3, 4, 5, n_utterances=losses.GROUP_SIZE + 3),
], ids=["shared-starts", "two-groups"])
def test_fd_check_does_not_depend_on_the_probe_budget(mode, setup, monkeypatch):
    """One ±step probe pair per block gives the default budget's error: every
    probe's total is computed alike whatever block it is stacked in."""
    params, batch, _ = setup()
    default = fd_check(params, batch, mode, 0.7, 1e-5)
    monkeypatch.setattr(losses, "PROBE_ELEMENTS", 1)
    assert math.isclose(fd_check(params, batch, mode, 0.7, 1e-5), default, rel_tol=1e-12)


@pytest.mark.parametrize("mode", losses.MODES)
def test_fd_check_reads_a_gradient_off_by_a_factor_two_as_a_relative_error_of_a_half(
    mode, monkeypatch
):
    params, batch, _ = make_check_setup(11, 4, 6)
    kernel = losses.teacher_forced

    def doubled(*args, **kwargs):
        report, grad_out, groups = kernel(*args, **kwargs)
        return report, 2.0 * grad_out, groups

    monkeypatch.setattr(losses, "teacher_forced", doubled)
    assert fd_check(params, batch, mode, 0.7, 1e-5) == pytest.approx(0.5, abs=0.02)


def _count_forwards(monkeypatch):
    """Record, per ``_group_pass`` call, its probe count (0 when unstacked) and
    the elements of its group's (V, n·T) arrays."""
    calls = []
    kernel = losses._group_pass

    def counted(params, group, *args):
        calls.append((math.prod(params.w_query.shape[:-2]) if params.w_query.ndim > 2 else 0,
                      group.allowed.size))
        return kernel(params, group, *args)

    monkeypatch.setattr(losses, "_group_pass", counted)
    return calls


@pytest.mark.parametrize("pairs", [1, 7, 80, 161, 500])
def test_each_group_gets_one_probe_forward_per_block_the_budget_allows(pairs, monkeypatch):
    """AC-1's instance (0, 8, 8): one group, 161 parameters.  A budget of
    ``pairs`` probe pairs of the group's arrays makes one analytic pass and
    one probe forward per block; one element less leaves a pair out."""
    params, batch, _ = make_check_setup(0, 8, 8)
    size = flatten(params).size
    elements = next(losses._groups(batch)).allowed.size
    calls = _count_forwards(monkeypatch)
    for budget, per_block in ((2 * pairs * elements, pairs), (2 * pairs * elements - 1, pairs - 1)):
        calls.clear()
        monkeypatch.setattr(losses, "PROBE_ELEMENTS", budget)
        fd_check(params, batch, "two_loss", 0.7)
        per_block = max(per_block, 1)
        blocks = -(-size // per_block)
        assert [probes for probes, _ in calls] == (
            [0] + [2 * per_block] * (blocks - 1) + [2 * (size - per_block * (blocks - 1))])


def test_default_probe_blocks_fill_the_budget_without_passing_it(monkeypatch):
    """AC-1's instance (4, 8, 8), whose group has the most elements of AC-1's,
    runs all its probes in one forward.  A two-group batch, which needs several
    blocks, keeps every probe forward within ``PROBE_ELEMENTS``, and a block
    one pair larger would not have been."""
    calls = _count_forwards(monkeypatch)
    params, batch, _ = make_check_setup(4, 8, 8)
    fd_check(params, batch, "asr", 0.7)
    assert [probes for probes, _ in calls] == [0, 2 * flatten(params).size]
    calls.clear()
    params, batch, _ = make_check_setup(3, 4, 5, n_utterances=losses.GROUP_SIZE + 3)
    fd_check(params, batch, "asr", 0.7)
    probes, widest = calls[2][0], max(elements for _, elements in calls)
    assert [p for p, _ in calls[:2]] == [0, 0] and probes < 2 * flatten(params).size
    assert probes * widest <= losses.PROBE_ELEMENTS < (probes + 2) * widest


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


def _padded_by_position(examples):
    """A group's kernel inputs built one position at a time: allowed flags
    as (vocabulary, utterance-major positions), their count, gold token ids,
    mask flags, the base model's gold probability and states, padded to the
    longest utterance, where the gold token is 0."""
    n, seq = len(examples), max(len(ex.tokens) for ex in examples)
    vocab, state = examples[0].p_mdl_seq.shape[1], examples[0].h_seq.shape[1]
    allowed, gold = np.zeros((vocab, n * seq), dtype=bool), np.zeros((n, seq), dtype=np.intp)
    valid_count, in_mask = np.zeros((n, seq), dtype=np.intp), np.zeros((n, seq), dtype=bool)
    p_mdl_gold, h = np.ones((n, seq)), np.zeros((n, seq, state))
    for b, ex in enumerate(examples):
        for t, tok in enumerate(ex.tokens):
            allowed[:, b * seq + t] = ex.allowed[t]
            valid_count[b, t] = np.count_nonzero(ex.allowed[t])
            gold[b, t] = tok
            in_mask[b, t] = ex.mask[t]
            p_mdl_gold[b, t], h[b, t] = ex.p_mdl_seq[t, tok], ex.h_seq[t]
    return allowed, valid_count, gold, in_mask, p_mdl_gold, h


def test_groups_of_a_take_match_a_fresh_pack_of_its_rows():
    _, batch, _ = make_check_setup(7, n_utterances=2 * losses.GROUP_SIZE + 5)
    assert len({len(ex.tokens) for ex in batch}) > 1
    rows = np.random.default_rng(0).permutation(len(batch))[:losses.GROUP_SIZE + 7]
    packed = losses.pack(batch)
    taken = packed.take(rows)
    assert taken.allowed is packed.allowed and taken.h is packed.h  # no copy
    chosen = [batch[r] for r in rows]
    assert len(taken) == len(rows)
    assert [taken.utt_ids[r] for r in taken.rows] == [ex.utt_id for ex in chosen]
    groups, fresh = list(losses._groups(taken)), list(losses._groups(losses.pack(chosen)))
    assert len(groups) == len(fresh) == 2
    keys = ("allowed", "valid_count", "gold", "in_mask", "p_mdl_gold", "h", "lengths", "real")
    for start, group, other in zip((0, losses.GROUP_SIZE), groups, fresh):
        members = chosen[start:start + losses.GROUP_SIZE]
        assert group.utt_ids == other.utt_ids == tuple(ex.utt_id for ex in members)
        for key in keys:
            mine, theirs = getattr(group, key), getattr(other, key)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), key
        for key, want in zip(keys, _padded_by_position(members)):
            assert np.array_equal(getattr(group, key), want), key


def test_real_of_a_take_flags_its_own_rows():
    _, batch, _ = make_check_setup(7, n_utterances=5)
    packed = losses.pack(batch)
    taken = packed.take([2, 0])
    assert taken.real.shape == (2, packed.in_mask.shape[1])
    assert np.array_equal(taken.real, packed.real[[2, 0]])
    assert taken.real.sum(axis=1).tolist() == [len(batch[2].tokens), len(batch[0].tokens)]


@pytest.mark.parametrize("mode", losses.MODES)
def test_a_pass_in_length_order_matches_batch_order(mode):
    """The trainer's full-split passes take a split's rows by length: the
    losses and gradient equal batch order's up to the order of the sums, and
    the terms follow the order of the rows passed."""
    params, batch, _ = make_check_setup(7, n_utterances=2 * losses.GROUP_SIZE + 5)
    packed = losses.pack(batch)
    order = np.argsort(packed.lengths, kind="stable")
    assert not np.array_equal(order, np.arange(len(batch)))
    by_length, length_grad, length_groups = losses.teacher_forced(
        params, packed.take(order), mode, 0.7, want_grad=True)
    listed, listed_grad, listed_groups = losses.teacher_forced(
        params, batch, mode, 0.7, want_grad=True)
    for key in ("l_gen", "l_ptr", "l_asr", "total"):
        assert math.isclose(getattr(by_length, key), getattr(listed, key), rel_tol=1e-12), key
    assert by_length.n_clamped == listed.n_clamped
    assert np.allclose(length_grad, listed_grad, rtol=1e-12, atol=0.0)
    starts = np.cumsum([0, *packed.lengths])
    length_terms = losses.terms(length_groups)
    for key, values in losses.terms(listed_groups).items():
        want = np.concatenate([values[starts[r]:starts[r + 1]] for r in order])
        assert np.allclose(length_terms[key], want, rtol=1e-12, atol=0.0), key
    records = losses.step_trace(params, packed.take(order), mode, 0.7)
    assert [(r["utt"], r["step"]) for r in records] == [
        (batch[r].utt_id, i) for r in order for i in range(packed.lengths[r])]


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
    shared=st.booleans(),
)
@example(seed=3, b_gate=40.0, alpha=0.7, emptied=[0, 1, 2, 3, 4, 5], shared=False)
@example(seed=5, b_gate=-40.0, alpha=0.3, emptied=[6], shared=False)
@example(seed=4, b_gate=1.0, alpha=0.7, emptied=[], shared=True)
def test_kernel_matches_reference_losses_and_forward_step(seed, b_gate, alpha, emptied, shared):
    """The training kernel and the decode-time forward_step compute one model,
    also where a non-bias word starts like a bias word (``shared``)."""
    setup = shared_start_setup if shared else make_check_setup
    params, batch, _ = setup(seed, 4, 5, n_utterances=3)
    params.b_gate = b_gate
    # clear some off-mask valid sets: the kernel must mix empty and full rows
    batch[0] = _empty_off_mask_sets(batch[0], emptied)
    report, _, groups = losses.teacher_forced(params, batch, "two_loss", alpha)
    gates = losses.terms(groups)["p_gen"]
    l_gen = l_ptr = l_asr = 0.0
    offset = 0
    for ex in batch:
        steps = [forward_step(params, ex.h_seq[i], members(ex.allowed[i]))
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
    assert _close(report.l_gen, l_gen)
    assert _close(report.l_ptr, l_ptr)
    assert _close(report.l_asr, l_asr)


def _empty_off_mask_sets(ex, emptied):
    """``ex`` with the valid sets at the off-mask positions in ``emptied`` cleared."""
    allowed = ex.allowed.copy()
    allowed[[i for i in emptied if i < len(ex.tokens) and not ex.mask[i]]] = False
    return dataclasses.replace(ex, allowed=allowed)


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
    b, i = next((b, i) for b, ex in enumerate(batch) for i in members(ex.mask))
    ex = batch[b]
    allowed = ex.allowed.copy()
    allowed[i, ex.tokens[i]] = False
    batch[b] = dataclasses.replace(ex, allowed=allowed)
    return f"mask/trie inconsistency at position {i} of utterance {ex.utt_id}"


@pytest.mark.parametrize("corrupt", [_nan_parameter, _inf_input, _gold_off_its_valid_set],
                         ids=["parameter", "input", "mask-trie"])
def test_fd_check_raises_on_bad_parameters_and_inputs(corrupt):
    params, batch, _ = make_check_setup(3, n_utterances=3)
    message = corrupt(params, batch)
    with pytest.raises(ValueError, match=message):
        fd_check(params, batch, "two_loss", 0.7)
    if corrupt is not _nan_parameter:  # a bad input is rejected when the batch is packed
        with pytest.raises(ValueError, match=message):
            losses.pack(batch)


@pytest.mark.parametrize("mode", losses.MODES)
def test_non_finite_gradient_names_its_utterance(mode):
    """A finite state so large that the middle utterance's gradient overflows
    is named by that utterance's id; at 1e307 the gradient stays finite."""
    def run(scale):
        params, batch, _ = make_check_setup(3, n_utterances=3)
        h_seq = batch[1].h_seq.copy()
        h_seq[2] = scale * np.sign(params.w_query.sum(axis=0))
        batch[1] = dataclasses.replace(batch[1], h_seq=h_seq)
        with np.errstate(over="ignore", invalid="ignore"):
            return grad(params, batch, mode, 0.7)

    assert np.isfinite(flatten(run(1e307)[0])).all()
    with pytest.raises(losses.DivergenceError) as caught:
        run(1.7e308)
    assert str(caught.value) == "non-finite gradient on utterance utt00001"


def test_kernel_checks_alpha_against_the_range_on_train_config_alpha():
    hint = typing.get_type_hints(TrainConfig, include_extras=True)["alpha"]
    assert hint.__metadata__ == (losses.ALPHA,) and hint.__metadata__[0] is losses.ALPHA


@pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
def test_kernel_rejects_alpha_outside_the_open_unit_interval(alpha):
    params, batch, _ = make_check_setup(3)
    for call in (evaluate, fd_check):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            call(params, batch, "two_loss", alpha)


@pytest.mark.parametrize("mode", losses.MODES)
def test_non_finite_logits_of_tokens_no_position_allows_move_nothing(mode, monkeypatch):
    """+inf, -inf and NaN logits on the tokens no position of a pack allows
    leave ``evaluate``'s losses and rates, every term and the gradient bit-equal."""
    params, batch, _ = make_check_setup(4, n_utterances=5)
    packed = losses.pack(batch)
    never = np.flatnonzero(~packed.allowed.any(axis=(0, 1)))
    assert never.size
    want = evaluate(params, packed, mode, 0.7)
    _, want_grad, want_groups = losses.teacher_forced(params, packed, mode, 0.7, want_grad=True)
    finite = losses.state_terms

    def poisoned(params, h_seq):
        terms = finite(params, h_seq)
        logits = terms.query_logits.copy()
        logits[never] = np.resize([np.inf, -np.inf, np.nan], logits[never].shape)
        return dataclasses.replace(terms, query_logits=logits)

    monkeypatch.setattr(losses, "state_terms", poisoned)
    assert evaluate(params, packed, mode, 0.7) == want
    _, got_grad, got_groups = losses.teacher_forced(params, packed, mode, 0.7, want_grad=True)
    assert np.array_equal(got_grad, want_grad)
    got_terms = losses.terms(got_groups)
    for key, values in losses.terms(want_groups).items():
        assert np.array_equal(got_terms[key], values), key
