"""Seeded construction of small random instances for gradient verification.

Builds a tiny simulated corpus with bias lists and freshly initialized
module parameters, sized so a full central-difference sweep over every
scalar parameter stays cheap.
"""

from __future__ import annotations

from .biaslist import build_lists
from .biastrie import build_tries
from .losses import BiasExample
from .pointer import PgParams, init_params
from .simulator import SimConfig, build_sim_vocab, gen_corpus, make_inventories, sub_rng
from .tokenizer import Vocab
from .trainer import prepare_batch


def make_check_setup(
    seed: int,
    embed_dim: int = 6,
    state_dim: int = 6,
    n_utterances: int = 2,
    n_distractors: int = 2,
) -> tuple[PgParams, list[BiasExample], Vocab]:
    """Random instance: params plus teacher-forced examples over a tiny corpus."""
    common, rare, confusion = make_inventories(
        4, 3, 1, seed,
        common_alphabet="abc",
        rare_initials="kq",
        rare_internal="abcu",
        confusable_initials="g",
        min_len=3,
        max_len=4,
    )
    config = SimConfig(
        seed=seed,
        n_utterances=n_utterances,
        words_per_utterance=(1, 2),
        common_words=common,
        rare_words=rare,
        rare_word_rate=0.5,
        base_accuracy_common=0.9,
        base_accuracy_rare=0.7,
        confusion_map=confusion,
        state_dim=state_dim,
        domain_shift=0.2,
    )
    vocab = build_sim_vocab(config)
    corpus = gen_corpus(config)
    # distractors come from all three rare words; an utterance holding two gets one, logged
    lists = build_lists(corpus, set(common), n_distractors, seed, pool=set(rare))
    batch = prepare_batch(vocab, corpus, lists, build_tries(vocab, lists))
    params = init_params(seed, vocab.size, embed_dim, state_dim)
    # probe a generic operating point: at the inert training init the gate-path
    # derivatives sit below finite-difference noise
    params.b_gate = float(sub_rng(seed, "fdgate").uniform(-3.0, 0.0))
    return params, batch, vocab
