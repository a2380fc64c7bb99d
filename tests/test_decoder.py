import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslab import decoder, losses
from biaslab.biaslist import build_lists
from biaslab.biastrie import build_trie, build_tries
from biaslab.decoder import (
    DECODE_MODES,
    decode_corpus,
    greedy_decode,
    read_hypotheses,
    score_corpus,
    write_hypotheses,
)
from biaslab.pointer import INTERPOLATION_MODES, forward_step, init_params, interpolate
from biaslab.simulator import (
    COMMON_ALPHABET,
    RARE_INITIALS,
    SimConfig,
    build_sim_vocab,
    gen_corpus,
    make_inventories,
)
from biaslab.tokenizer import BOUNDARY, detokenize
from biaslab.trainer import TrainConfig, prepare_batch, train
from conftest import toy_experiment


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
    with pytest.raises(ValueError, match="mode must be 'none' or 'scaled' or 'unscaled', got 'beam'"):
        greedy_decode(utt, vocab, mode="beam")
    with pytest.raises(ValueError, match="needs module parameters"):
        greedy_decode(utt, vocab, mode="scaled")
    params = init_params(0, vocab.size, 4, np.shape(utt.h_dec_seq)[1])
    for half in ({"params": params}, {"tree": build_trie(vocab, [])}):  # either one alone
        with pytest.raises(ValueError, match="needs module parameters"):
            greedy_decode(utt, vocab, mode="scaled", **half)


def test_hypotheses_file_roundtrip(tmp_path):
    config = perfect_config()
    vocab = build_sim_vocab(config)
    decoded = decode_corpus(gen_corpus(config)[:4], vocab, None, None, "none")
    path = str(tmp_path / "hyps.jsonl")
    write_hypotheses(path, decoded)
    loaded = read_hypotheses(path)
    assert loaded == decoded and list(loaded) == list(decoded)  # same records, same order


def _drop_trace(lines):
    record = json.loads(lines[1])
    del record["trace"]
    lines[1] = json.dumps(record) + "\n"


def _repeat_first_id(lines):
    record = json.loads(lines[0])
    record["hyp_words"] = ["other", "words"]
    lines.append(json.dumps(record) + "\n")


def _not_json(lines):
    lines[2] = "{not json\n"


def _list_id(lines):
    record = json.loads(lines[3])
    record["id"] = [record["id"]]
    lines[3] = json.dumps(record) + "\n"


def _string_hyp_words(lines):
    record = json.loads(lines[1])
    record["hyp_words"] = " ".join(record["hyp_words"])
    lines[1] = json.dumps(record) + "\n"


def _short_trace_entry(lines):
    record = json.loads(lines[2])
    record["trace"][0].pop()
    lines[2] = json.dumps(record) + "\n"


def _non_number_trace_entry(lines):
    record = json.loads(lines[2])
    record["trace"][0] = ["x", 0.0, False, 3]
    lines[2] = json.dumps(record) + "\n"


@pytest.mark.parametrize("edit, problem", [
    (_drop_trace, "line 2: hypothesis utt00001 lacks key 'trace'"),
    (_repeat_first_id, "line 5: repeated hypothesis id utt00000"),
    (_not_json, "line 3: not a JSON object"),
    (_list_id, r"line 4: hypothesis record: 'id' must be a string, got \['utt00003'\]"),
    (_string_hyp_words, "line 2: hypothesis utt00001: 'hyp_words' must be a list"),
    (_short_trace_entry, "line 3: hypothesis utt00002: 'trace.0' must be a list of 4"),
    (_non_number_trace_entry, "line 3: hypothesis utt00002: 'trace.0.0' must be a number"),
], ids=["without_trace", "repeated_id", "not_json", "list_id", "string_hyp_words",
        "short_trace_entry", "non_number_trace_entry"])
def test_malformed_hypotheses_named(tmp_path, edit, problem):
    config = perfect_config()
    vocab = build_sim_vocab(config)
    path = tmp_path / "hyps.jsonl"
    write_hypotheses(str(path), decode_corpus(gen_corpus(config)[:4], vocab, None, None, "none"))
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=problem) as caught:
        read_hypotheses(str(path))
    assert str(path) in str(caught.value)


def reference_decode(utt, vocab, params, tree, mode):
    """Biased greedy decoding one step at a time through the public pieces."""
    emitted_ids, trace = [], []
    node = 0
    for i in range(utt.ref.size):
        members = list(tree.valid(node)[0])
        step = forward_step(params, utt.h_dec_seq[i], members)
        emitted = int(np.argmax(interpolate(utt.p_mdl_seq[i], step, mode)))
        trace.append((i, step.p_gen, bool(members), emitted))
        node = tree.advance(node, emitted)
        if emitted == vocab.eos_id:
            break
        emitted_ids.append(emitted)
    return detokenize(vocab, emitted_ids), trace


def confused_setup(seed, n_utterances=2, rare_initials=RARE_INITIALS, **overrides):
    common, rare, confusion = make_inventories(6, 4, 3, seed=2, rare_initials=rare_initials)
    config = perfect_config(
        seed=seed, n_utterances=n_utterances, common_words=common, rare_words=rare,
        confusion_map=confusion, base_accuracy_common=0.9, base_accuracy_rare=0.6,
        rare_word_rate=0.6, **overrides,
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
    n_utterances=st.integers(1, 6),
    shared=st.booleans(),
)
@example(seed=1, b_gate=40.0, sharpness=3.0, n_bias=3, mode="unscaled", n_utterances=2,
         shared=False)
@example(seed=2, b_gate=-40.0, sharpness=3.0, n_bias=3, mode="scaled", n_utterances=2,
         shared=False)
@example(seed=3, b_gate=0.0, sharpness=1.0, n_bias=0, mode="unscaled",  # empty valid sets
         n_utterances=2, shared=False)
@example(seed=4, b_gate=40.0, sharpness=8.0, n_bias=5, mode="unscaled", n_utterances=6,
         shared=False)
@example(seed=5, b_gate=2.0, sharpness=3.0, n_bias=4, mode="scaled", n_utterances=6,
         shared=True)
def test_decode_matches_stepwise_reference(seed, b_gate, sharpness, n_bias, mode, n_utterances,
                                           shared):
    """Every utterance of a corpus of mixed lengths, decoded in lockstep with
    one shared tree, matches the one-step-at-a-time reference.  Every other
    utterance has its base model sure of EOS at a random step and, where the
    reference stops there, bad rows past it: an EOS and rows never reached
    change only their own utterance.  With ``shared``, rare words start with
    the letters common words start with."""
    config, vocab, corpus = confused_setup(seed, n_utterances, words_per_utterance=(1, 6),
                                           rare_initials=COMMON_ALPHABET if shared else
                                           RARE_INITIALS)
    rng = np.random.default_rng(seed)
    words = config.common_words + config.rare_words
    bias = [words[int(i)] for i in rng.choice(len(words), size=n_bias, replace=False)]
    tree = build_trie(vocab, bias)
    params = init_params(seed, vocab.size, 4, config.state_dim)
    params.w_query *= sharpness
    params.b_gate = b_gate
    stops = {k: int(rng.integers(corpus[k].ref.size)) for k in range(1, len(corpus), 2)}
    for k, stop in stops.items():
        corpus[k] = eos_at(corpus[k], vocab, stop)
    # fresh trees: the reference must not read the decoder's memo
    refs = [reference_decode(utt, vocab, params, build_trie(vocab, bias), mode) for utt in corpus]
    for k, stop in stops.items():
        if len(refs[k][1]) <= stop + 1:  # the EOS is reached, the rows past it are not
            corpus[k] = broken_after(corpus[k], stop)
    decoded = decode_corpus(corpus, vocab, params, {u.utt_id: tree for u in corpus}, mode)
    for utt, (ref_hyp, ref_trace) in zip(corpus, refs):
        hyp, trace = decoded[utt.utt_id]
        assert hyp == ref_hyp
        assert [(e.step, e.valid_nonempty, e.emitted) for e in trace] == [
            (i, nonempty, emitted) for i, _, nonempty, emitted in ref_trace
        ]
        for entry, (_, p_gen, _, _) in zip(trace, ref_trace):
            assert entry.p_gen == pytest.approx(p_gen, rel=1e-12, abs=0.0)
        assert all(e.valid_nonempty == bool(bias) for e in trace)


def count_rounds(monkeypatch):
    """A list that gets one entry, the positions computed, per decoding round."""
    rounds = []
    forward = decoder.masked_forward

    def counted(logits, *rest):
        rounds.append(logits.shape[1])
        return forward(logits, *rest)

    monkeypatch.setattr(decoder, "masked_forward", counted)
    return rounds


def rows_with(vocab, steps, peaks):
    """Base-model rows: step i gives each token of ``peaks[i]`` ({token: probability})
    its probability and spreads the rest evenly over the other tokens."""
    rows = np.empty((steps, vocab.size))
    for row, peak in zip(rows, peaks):
        row[:] = (1.0 - sum(peak.values())) / (vocab.size - len(peak))
        row[list(peak)] = list(peak.values())
    return rows


def flat_pointer(vocab, config, b_gate):
    """Parameters whose bias weights are uniform over the valid set and whose
    gate is ``sigmoid(b_gate)`` at every position."""
    params = init_params(0, vocab.size, 4, config.state_dim)
    params.w_query[:] = 0.0
    params.w_gate[:] = 0.0
    params.b_gate = b_gate
    return params


def test_guess_wrong_at_every_step_still_matches_reference(monkeypatch):
    """One two-token bias word, a uniform pointer and a gate at exactly 1,
    unscaled, over rows whose argmax is no bias token: the decode spells the
    word over and over, and every round's guess for the next position is wrong,
    so each round decodes exactly one position."""
    config, vocab, corpus = confused_setup(4, n_utterances=4)
    utt = max(corpus, key=lambda u: u.ref.size)
    first = next(t for t in vocab.tokens if t.startswith(BOUNDARY))
    second = next(t for t in vocab.tokens[1:] if not t.startswith(BOUNDARY))
    other = next(t for t in vocab.tokens[1:] if t not in (first, second))
    peaks = [{vocab.id_of(other): 0.3}] * utt.ref.size
    utt = dataclasses.replace(utt, p_mdl_seq=rows_with(vocab, utt.ref.size, peaks))
    params = flat_pointer(vocab, config, 40.0)
    word = first[1:] + second
    rounds = count_rounds(monkeypatch)
    hyp, trace = greedy_decode(utt, vocab, params, build_trie(vocab, [word]), "unscaled")
    assert (hyp, [tuple(e) for e in trace]) == reference_decode(
        utt, vocab, params, build_trie(vocab, [word]), "unscaled")
    assert len(trace) == utt.ref.size and len(rounds) == len(trace)
    assert [vocab.token_of(e.emitted) for e in trace[:4]] == [first, second] * 2


def test_rounds_are_one_plus_the_corrections_on_the_toy_experiment(monkeypatch):
    """Trained parameters on the toy experiment: a decode takes no more rounds
    than one plus the positions whose token differs from the unbiased argmax,
    and unbiased decoding takes none.  Decoding the corpus in lockstep computes
    the same positions in one ``masked_forward`` call per round of its slowest
    utterance: its k-th call, every utterance's k-th round."""
    vocab, train_corpus, test_corpus, train_lists, test_lists = toy_experiment(
        n_train=100, n_test=60)
    config = TrainConfig(mode="two_loss", alpha=0.7, lr=0.3, epochs=4, batch_size=10,
                         seed=3, embed_dim=16)
    params, _ = train(train_corpus, train_lists, vocab, config)
    trees = build_tries(vocab, test_lists)
    rounds = count_rounds(monkeypatch)
    corrected = 0
    for mode in DECODE_MODES:
        each = []
        for utt in test_corpus:
            rounds.clear()
            _, trace = greedy_decode(utt, vocab, params, trees[utt.utt_id], mode)
            each.append(list(rounds))
            unbiased = utt.p_mdl_seq.argmax(axis=1)
            changed = sum(e.emitted != unbiased[e.step] for e in trace)
            corrected += changed
            assert len(rounds) <= (0 if mode == "none" else 1 + changed), utt.utt_id
        rounds.clear()
        decode_corpus(test_corpus, vocab, params, trees, mode)
        slowest = max(map(len, each))
        assert slowest < sum(map(len, each)) or mode == "none"
        assert rounds == [sum(r[k] for r in each if k < len(r)) for k in range(slowest)]
    assert corrected > 0  # biasing changed some tokens


def test_decoded_gate_is_the_kernels_wherever_the_prefix_is_the_reference():
    """Trained parameters on the toy experiment: at every position whose
    decoded prefix equals the reference, the decoder's gate is the
    teacher-forced kernel's, as both run ``masked_forward`` on the same rows."""
    vocab, train_corpus, test_corpus, train_lists, test_lists = toy_experiment(
        n_train=100, n_test=60)
    config = TrainConfig(mode="two_loss", alpha=0.7, lr=0.3, epochs=4, batch_size=10, seed=3)
    params, _ = train(train_corpus, train_lists, vocab, config)
    trees = build_tries(vocab, test_lists)
    batch = prepare_batch(vocab, test_corpus, test_lists, trees)
    kernel = losses.terms(losses.teacher_forced(params, batch, "two_loss", 0.7)[2])["p_gen"]
    starts = np.cumsum([0] + [len(ex.tokens) for ex in batch])
    compared = 0
    for mode in INTERPOLATION_MODES:
        decoded = decode_corpus(test_corpus, vocab, params, trees, mode)
        for utt, start in zip(test_corpus, starts):
            for entry in decoded[utt.utt_id][1]:
                want = kernel[start + entry.step]
                assert entry.p_gen == pytest.approx(want, rel=1e-12, abs=0.0)
                compared += 1
                if entry.emitted != utt.ref.tokens[entry.step]:
                    break  # later positions walk the trie along another prefix
    assert compared > len(kernel)  # over the two modes


def eos_at(utt, vocab, step):
    """The utterance with its base model certain of EOS at ``step``."""
    rows = utt.p_mdl_seq.copy()
    rows[step] = 0.0
    rows[step, vocab.eos_id] = 1.0
    return dataclasses.replace(utt, p_mdl_seq=rows)


def broken_after(utt, step):
    """The utterance with non-finite decoder states and base-model rows off the
    simplex at every step after ``step``."""
    h, rows = utt.h_dec_seq.copy(), utt.p_mdl_seq.copy()
    h[step + 1:] = np.nan
    rows[step + 1:] = 0.5
    return dataclasses.replace(utt, h_dec_seq=h, p_mdl_seq=rows)


@pytest.mark.filterwarnings("error")
def test_bad_rows_after_eos_never_read():
    config, vocab, corpus = confused_setup(4, n_utterances=4)
    utt = max(corpus, key=lambda u: u.ref.size)
    params = init_params(4, vocab.size, 4, config.state_dim)
    params.b_gate = -40.0
    tree = build_trie(vocab, config.rare_words)
    stop = 2
    early = eos_at(utt, vocab, stop)
    broken = broken_after(early, stop)
    for mode in ("none", "scaled", "unscaled"):
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
    for bad, shown in [(0.5, r"0\.5"), (np.nan, "nan")]:  # the row's entries scaled by ``bad``
        rows = utt.p_mdl_seq.copy()
        rows[1] *= bad
        for mode in ("none", "unscaled"):  # unbiased decoding reads the row too
            with pytest.raises(ValueError, match=rf"base-model row must sum to 1, got {shown}"):
                greedy_decode(dataclasses.replace(utt, p_mdl_seq=rows), vocab, params, tree, mode)


def test_the_first_bad_utterance_in_corpus_order_raises_naming_it_and_its_step():
    """Two utterances with a bad step each, the later one's earlier: the first in
    corpus order raises.  Unbiased decoding reads no decoder state, so there the
    utterance with the bad row raises wherever it stands."""
    config, vocab, corpus = confused_setup(4, n_utterances=4)
    rows_bad, state_bad = sorted(corpus, key=lambda u: u.ref.size)[-2:]
    rows, h = rows_bad.p_mdl_seq.copy(), state_bad.h_dec_seq.copy()
    rows[3] *= 0.5
    h[1, 0] = np.inf
    rows_bad = dataclasses.replace(rows_bad, p_mdl_seq=rows)
    state_bad = dataclasses.replace(state_bad, h_dec_seq=h)
    params = init_params(4, vocab.size, 4, config.state_dim)
    tree = build_trie(vocab, config.rare_words)
    trees = {rows_bad.utt_id: tree, state_bad.utt_id: tree}
    row_error = rf"^utterance {rows_bad.utt_id}, step 3: base-model row must sum to 1, got "
    state_error = rf"^utterance {state_bad.utt_id}, step 1: non-finite decoder state$"
    for order, mode, problem in [((rows_bad, state_bad), "scaled", row_error),
                                 ((state_bad, rows_bad), "unscaled", state_error),
                                 ((state_bad, rows_bad), "none", row_error)]:
        with pytest.raises(ValueError, match=problem):
            decode_corpus(list(order), vocab, params, trees, mode)


def test_bad_rows_only_a_wrong_guess_reads_never_raise(monkeypatch):
    """Biasing turns the base model's argmax at step 2, a bias token, into EOS
    (unscaled: three single-letter bias words share the gate's mass), so the
    unbiased first guess reads the bad rows past it.  They are never reached:
    no error, and no warning from their NaN and infinite values either."""
    config, vocab, corpus = confused_setup(4, n_utterances=4)
    utt = max(corpus, key=lambda u: u.ref.size)
    starts = [t for t in vocab.tokens if t.startswith(BOUNDARY)][:3]
    other = next(t for t in vocab.tokens[1:] if not t.startswith(BOUNDARY))
    stop, steps = 2, utt.ref.size
    peaks = [{vocab.id_of(other): 0.5}] * stop + [{vocab.id_of(starts[0]): 0.6, vocab.eos_id: 0.4}]
    rows = rows_with(vocab, steps, peaks + [{}] * (steps - stop - 1))
    clean = dataclasses.replace(utt, p_mdl_seq=rows)
    h, rows = utt.h_dec_seq.copy(), rows.copy()
    h[stop + 1:] = np.nan
    h[stop + 1, 0] = np.inf
    rows[stop + 1:] = 0.5  # off the simplex
    rows[stop + 1, vocab.id_of(starts[1])] = np.inf  # times the closed share 1 - gate = 0
    broken = dataclasses.replace(utt, h_dec_seq=h, p_mdl_seq=rows)
    params = flat_pointer(vocab, config, 40.0)
    tree = build_trie(vocab, [t[1:] for t in starts])
    assert len(greedy_decode(clean, vocab)[1]) > stop + 1  # unbiased, the path goes on
    rounds = count_rounds(monkeypatch)
    hyp, trace = greedy_decode(broken, vocab, params, tree, "unscaled")
    assert rounds[0] > stop + 1  # the first round read a bad row
    assert (hyp, trace) == greedy_decode(clean, vocab, params, tree, "unscaled")
    assert len(trace) == stop + 1 and trace[-1].emitted == vocab.eos_id


def test_bad_row_after_an_overridden_eos_raises_at_its_step():
    """The base model is sure of EOS at step 2, but biasing (scaled, gate 1/2)
    overrides it, so step 3 is reached and its bad row raises."""
    config, vocab, corpus = confused_setup(4, n_utterances=4)
    utt = max(corpus, key=lambda u: u.ref.size)
    starts = [t for t in vocab.tokens if t.startswith(BOUNDARY)][:3]
    other = next(t for t in vocab.tokens[1:] if not t.startswith(BOUNDARY))
    stop, steps = 2, utt.ref.size
    peaks = [{vocab.id_of(other): 0.5}] * stop + [{vocab.eos_id: 0.3}]
    rows = rows_with(vocab, steps, peaks + [{}] * (steps - stop - 1))
    params = flat_pointer(vocab, config, 0.0)
    tree = build_trie(vocab, [t[1:] for t in starts])
    clean = dataclasses.replace(utt, p_mdl_seq=rows)
    assert len(greedy_decode(clean, vocab)[1]) == stop + 1  # unbiased, EOS ends step 2
    assert len(greedy_decode(clean, vocab, params, tree, "scaled")[1]) > stop + 1
    h = utt.h_dec_seq.copy()
    h[stop + 1] = np.nan
    with pytest.raises(ValueError, match="non-finite decoder state"):
        greedy_decode(dataclasses.replace(clean, h_dec_seq=h), vocab, params, tree, "scaled")
    bad_rows = rows.copy()
    bad_rows[stop + 1] *= 0.5
    with pytest.raises(ValueError, match=r"base-model row must sum to 1, got 0\.5"):
        greedy_decode(dataclasses.replace(clean, p_mdl_seq=bad_rows), vocab, params, tree,
                      "scaled")


def scored_setup():
    """A confused corpus decoded with the gate wide open, so that bias words are
    both scored and gated, and its lowercase bias lists."""
    config, vocab, corpus = confused_setup(5, n_utterances=8)
    lists = build_lists(corpus, set(config.common_words), 2, 0)
    params = init_params(5, vocab.size, 4, config.state_dim)
    params.b_gate = 40.0
    return corpus, lists, decode_corpus(corpus, vocab, params, build_tries(vocab, lists), "scaled")


def test_score_matches_bias_words_in_any_case():
    corpus, lists, decoded = scored_setup()
    report, breakdown = score_corpus(corpus, lists, decoded)
    assert report.counts["ref_bias_words"] > 0 and report.tar > 0.0
    capitalized = {utt_id: [word.capitalize() for word in words] for utt_id, words in lists.items()}
    assert score_corpus(corpus, capitalized, decoded) == (report, breakdown)


def test_decode_corpus_names_an_utterance_without_a_trie():
    vocab, _, test_corpus, _, test_lists = toy_experiment(n_train=20, n_test=30)
    trees = build_tries(vocab, test_lists)
    dropped = test_corpus[20].utt_id
    del trees[dropped]
    params = init_params(0, vocab.size, 4, test_corpus[0].h_dec_seq.shape[1])
    with pytest.raises(ValueError) as caught:
        decode_corpus(test_corpus, vocab, params, trees, "scaled")
    assert str(caught.value) == f"no trie for utterances: [{dropped!r}]"


def test_score_names_an_utterance_without_a_bias_list():
    corpus, lists, decoded = scored_setup()
    del lists[corpus[0].utt_id]
    with pytest.raises(ValueError) as caught:
        score_corpus(corpus, lists, decoded)
    assert str(caught.value) == f"no bias list for utterances: [{corpus[0].utt_id!r}]"


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


def test_a_corpus_names_its_first_utterance_that_does_not_fit_before_decoding():
    """The second utterance's states are one wider: the fit check names it,
    although the first utterance fits and has a bad row that is reached."""
    config, vocab, corpus = confused_setup(5, n_utterances=2)
    rows = corpus[0].p_mdl_seq.copy()
    rows[0] *= 0.5
    first = dataclasses.replace(corpus[0], p_mdl_seq=rows)
    wide = dataclasses.replace(corpus[1], h_dec_seq=np.pad(corpus[1].h_dec_seq, ((0, 0), (0, 1))))
    params = init_params(0, vocab.size, 4, config.state_dim)
    tree = build_trie(vocab, config.rare_words)
    with pytest.raises(ValueError, match=f"^utterance {wide.utt_id}: base-model rows"):
        decode_corpus([first, wide], vocab, params, {first.utt_id: tree, wide.utt_id: tree},
                      "scaled")


@pytest.mark.parametrize("mode", DECODE_MODES)
def test_rows_wider_than_the_vocabulary_are_named_before_decoding(mode):
    """An utterance with one extra row column is named with both sizes, in
    every mode: in the corpus (where joining the rows would fail) and alone
    (where the argmax could pick the extra column)."""
    config, vocab, corpus = confused_setup(5, n_utterances=2)
    wide = dataclasses.replace(corpus[1], p_mdl_seq=np.pad(corpus[1].p_mdl_seq, ((0, 0), (0, 1))))
    params = init_params(0, vocab.size, 4, config.state_dim)
    tree = build_trie(vocab, config.rare_words)
    trees = {utt.utt_id: tree for utt in corpus}
    want = (f"utterance {wide.utt_id}: base-model rows {wide.p_mdl_seq.shape} do not fit "
            f"a vocabulary of {vocab.size} tokens")
    with pytest.raises(ValueError) as caught:
        decode_corpus([corpus[0], wide], vocab, params, trees, mode)
    assert str(caught.value) == want
    with pytest.raises(ValueError) as caught:
        greedy_decode(wide, vocab, params, tree, mode)
    assert str(caught.value) == want
