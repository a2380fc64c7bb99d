import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslab.biastrie import TrieCursor, advance_cursor, build_trie, valid_set
from biaslab.decoder import greedy_decode, read_hypotheses, write_hypotheses
from biaslab.pointer import forward_step, init_params, interpolate
from biaslab.simulator import SimConfig, build_sim_vocab, gen_corpus, make_inventories
from biaslab.tokenizer import detokenize


def perfect_config(**overrides):
    common, rare, confusion = make_inventories(6, 3, 2, seed=2)
    base = dict(
        seed=21,
        n_utterances=8,
        words_per_utterance=(2, 4),
        common_words=common,
        rare_words=rare,
        rare_word_rate=0.5,
        base_accuracy_common=1.0,
        base_accuracy_rare=1.0,
        confusion_map={},
        state_dim=6,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_mode_none_reproduces_perfect_corpus():
    config = perfect_config()
    vocab = build_sim_vocab(config)
    for utt in gen_corpus(config):
        hyp, trace = greedy_decode(utt, vocab)
        assert hyp == utt.ref_words
        assert len(trace) <= utt.ref.size
        assert trace[-1].emitted == vocab.eos_id


def test_mode_none_shows_confusions():
    common, rare, confusion = make_inventories(6, 3, 3, seed=2)
    config = perfect_config(
        common_words=common, rare_words=rare, confusion_map=confusion,
        base_accuracy_rare=0.8, rare_word_rate=0.9,
    )
    vocab = build_sim_vocab(config)
    confused_hits = 0
    for utt in gen_corpus(config):
        hyp, _ = greedy_decode(utt, vocab)
        for ref_word, hyp_word in zip(utt.ref_words, hyp):
            if ref_word in confusion:
                assert hyp_word == confusion[ref_word]
                confused_hits += 1
            else:
                assert hyp_word == ref_word
    assert confused_hits > 0


def test_mode_none_ignores_params_and_tree():
    config = perfect_config()
    vocab = build_sim_vocab(config)
    params = init_params(0, vocab.size, 4, config.state_dim)
    tree = build_trie(vocab, config.rare_words)
    for utt in gen_corpus(config)[:3]:
        bare, _ = greedy_decode(utt, vocab)
        loaded, _ = greedy_decode(utt, vocab, params, tree, "none")
        assert bare == loaded


def test_closed_gate_matches_unbiased_decode():
    common, rare, confusion = make_inventories(6, 3, 3, seed=2)
    config = perfect_config(
        common_words=common, rare_words=rare, confusion_map=confusion,
        base_accuracy_rare=0.8, base_accuracy_common=0.9, rare_word_rate=0.6,
    )
    vocab = build_sim_vocab(config)
    params = init_params(0, vocab.size, 4, config.state_dim)
    params.b_gate = -800.0  # gate underflows to exactly zero
    for utt in gen_corpus(config):
        tree = build_trie(vocab, rare)
        plain, _ = greedy_decode(utt, vocab)
        for mode in ("scaled", "unscaled"):
            biased, trace = greedy_decode(utt, vocab, params, tree, mode)
            assert biased == plain
            assert all(entry.p_gen == 0.0 for entry in trace)


def test_forced_gate_restores_confused_word_start():
    # one bias word, pointer uniform over the valid set, gate pinned open:
    # the confused first token flips back to the bias word's start
    common, rare, confusion = make_inventories(6, 3, 3, seed=2)
    word = sorted(confusion)[0]
    config = perfect_config(
        common_words=common, rare_words=rare,
        confusion_map={word: confusion[word]},
        base_accuracy_rare=0.8, rare_word_rate=1.0, n_utterances=20,
        words_per_utterance=(1, 1),
    )
    vocab = build_sim_vocab(config)
    params = init_params(0, vocab.size, len(vocab.tokens), config.state_dim)
    params.w_query[:] = 0.0  # uniform bias distribution over the valid set
    params.w_gate[:] = 0.0
    params.b_gate = 800.0  # gate saturates to exactly one
    tree = build_trie(vocab, [word])
    checked = 0
    for utt in gen_corpus(config):
        if utt.ref_words != [word]:
            continue
        checked += 1
        plain, _ = greedy_decode(utt, vocab)
        assert plain[0] == confusion[word]
        biased, _ = greedy_decode(utt, vocab, params, tree, "unscaled")
        assert biased[0] == word
    assert checked > 0


def test_trace_is_step_indexed():
    config = perfect_config()
    vocab = build_sim_vocab(config)
    utt = gen_corpus(config)[0]
    _, trace = greedy_decode(utt, vocab)
    assert [e.step for e in trace] == list(range(len(trace)))


def test_unknown_mode_rejected():
    config = perfect_config()
    vocab = build_sim_vocab(config)
    utt = gen_corpus(config)[0]
    with pytest.raises(ValueError, match="unknown decode mode"):
        greedy_decode(utt, vocab, mode="beam")
    with pytest.raises(ValueError, match="needs module parameters"):
        greedy_decode(utt, vocab, mode="scaled")


def test_hypotheses_file_roundtrip(tmp_path):
    config = perfect_config()
    vocab = build_sim_vocab(config)
    results = []
    for utt in gen_corpus(config)[:4]:
        hyp, trace = greedy_decode(utt, vocab)
        results.append((utt.utt_id, hyp, trace))
    path = str(tmp_path / "hyps.jsonl")
    write_hypotheses(path, results)
    loaded = read_hypotheses(path)
    for utt_id, hyp, trace in results:
        got_hyp, got_trace = loaded[utt_id]
        assert got_hyp == hyp
        assert got_trace == trace


def reference_decode(utt, vocab, params, tree, mode):
    """Biased greedy decoding one step at a time through the public pieces."""
    emitted_ids, trace = [], []
    cursor = TrieCursor()
    for i in range(utt.ref.size):
        members = valid_set(tree, cursor)
        step = forward_step(params, utt.h_dec_seq[i], members)
        emitted = int(np.argmax(interpolate(utt.p_mdl_seq[i], step, mode)))
        trace.append((i, step.p_gen, bool(members), emitted))
        cursor = advance_cursor(tree, cursor, emitted)
        if emitted == vocab.eos_id:
            break
        emitted_ids.append(emitted)
    return detokenize(vocab, emitted_ids), trace


def confused_setup(seed, n_utterances=2):
    common, rare, confusion = make_inventories(6, 4, 3, seed=2)
    config = perfect_config(
        seed=seed, n_utterances=n_utterances, common_words=common, rare_words=rare,
        confusion_map=confusion, base_accuracy_common=0.9, base_accuracy_rare=0.6,
        rare_word_rate=0.6,
    )
    vocab = build_sim_vocab(config)
    return config, vocab, gen_corpus(config)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    b_gate=st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-40.0, 40.0])),
    sharpness=st.floats(0.0, 8.0),
    n_bias=st.integers(0, 5),
    mode=st.sampled_from(["scaled", "unscaled"]),
)
@example(seed=1, b_gate=40.0, sharpness=3.0, n_bias=3, mode="unscaled")
@example(seed=2, b_gate=-40.0, sharpness=3.0, n_bias=3, mode="scaled")
@example(seed=3, b_gate=0.0, sharpness=1.0, n_bias=0, mode="unscaled")  # empty valid sets
def test_decode_matches_stepwise_reference(seed, b_gate, sharpness, n_bias, mode):
    config, vocab, corpus = confused_setup(seed)
    rng = np.random.default_rng(seed)
    words = config.common_words + config.rare_words
    bias = [words[int(i)] for i in rng.choice(len(words), size=n_bias, replace=False)]
    tree = build_trie(vocab, bias)
    params = init_params(seed, vocab.size, 4, config.state_dim)
    params.w_query *= sharpness
    params.b_gate = b_gate
    for utt in corpus:
        hyp, trace = greedy_decode(utt, vocab, params, tree, mode)
        # a fresh tree: the reference must not read the decoder's memo
        ref_hyp, ref_trace = reference_decode(utt, vocab, params, build_trie(vocab, bias), mode)
        assert hyp == ref_hyp
        assert [(e.step, e.valid_nonempty, e.emitted) for e in trace] == [
            (i, nonempty, emitted) for i, _, nonempty, emitted in ref_trace
        ]
        for entry, (_, p_gen, _, _) in zip(trace, ref_trace):
            assert entry.p_gen == pytest.approx(p_gen, rel=1e-12, abs=0.0)
        assert all(e.valid_nonempty == bool(bias) for e in trace)


def eos_at(utt, vocab, step):
    """The utterance with its base model certain of EOS at ``step``."""
    rows = utt.p_mdl_seq.copy()
    rows[step] = 0.0
    rows[step, vocab.eos_id] = 1.0
    return dataclasses.replace(utt, p_mdl_seq=rows)


@pytest.mark.filterwarnings("error")
def test_bad_rows_after_eos_never_read():
    config, vocab, corpus = confused_setup(4, n_utterances=4)
    utt = max(corpus, key=lambda u: u.ref.size)
    params = init_params(4, vocab.size, 4, config.state_dim)
    params.b_gate = -40.0
    tree = build_trie(vocab, config.rare_words)
    stop = 2
    early = eos_at(utt, vocab, stop)
    h, rows = early.h_dec_seq.copy(), early.p_mdl_seq.copy()
    h[stop + 1:] = np.nan
    rows[stop + 1:] = 0.5  # off the simplex
    broken = dataclasses.replace(early, h_dec_seq=h, p_mdl_seq=rows)
    for mode in ("scaled", "unscaled"):
        hyp, trace = greedy_decode(broken, vocab, params, tree, mode)
        assert (hyp, trace) == greedy_decode(early, vocab, params, tree, mode)
        assert len(trace) == stop + 1 and trace[-1].emitted == vocab.eos_id


def test_bad_row_raises_when_its_step_is_reached():
    config, vocab, corpus = confused_setup(4, n_utterances=1)
    utt = corpus[0]
    params = init_params(4, vocab.size, 4, config.state_dim)
    tree = build_trie(vocab, config.rare_words)
    h = utt.h_dec_seq.copy()
    h[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite decoder state"):
        greedy_decode(dataclasses.replace(utt, h_dec_seq=h), vocab, params, tree, "scaled")
    rows = utt.p_mdl_seq.copy()
    rows[1] *= 0.5
    with pytest.raises(ValueError, match="does not sum to 1"):
        greedy_decode(dataclasses.replace(utt, p_mdl_seq=rows), vocab, params, tree, "unscaled")


@pytest.mark.parametrize("vocab_delta, state_delta", [(-3, 0), (0, 2)])
def test_params_that_do_not_fit_are_named_before_decoding(vocab_delta, state_delta):
    config, vocab, corpus = confused_setup(5, n_utterances=1)
    params = init_params(0, vocab.size + vocab_delta, 4, config.state_dim + state_delta)
    tree = build_trie(vocab, config.rare_words)
    with pytest.raises(ValueError) as info:
        greedy_decode(corpus[0], vocab, params, tree, "unscaled")
    message = str(info.value)
    assert str(params.token_embed.shape) in message and str(params.w_query.shape) in message
    assert f"{vocab.size} tokens" in message and str(corpus[0].h_dec_seq.shape) in message
