"""Greedy token-level decoding with optional trie-constrained biasing.

With biasing off the hypothesis is the base model's per-step argmax.  With
biasing on, an utterance is decoded in rounds (Jacobi-style fixed-point
decoding, Santilli et al. 2023).  A round walks the trie along a guess of the
token path (at first the unbiased argmax path), runs the training kernel's
masked forward (``pointer.masked_forward``) on every position not yet decoded
at once, mixes in the base rows and takes each argmax.  Positions up to and
including the first one where it differs from the guess are decoded, as their
trie nodes were walked along decoded tokens; the rest is the next guess.  A
replay in step order builds the gate trace, stops at the first EOS and raises
on a bad row only when its step is reached.  ``decode_corpus`` decodes a
corpus with the tries of one ``biastrie.build_tries`` call, and
``score_corpus`` scores it; every command that decodes or scores goes through
them.

The simulator provides teacher-forced model rows, so free-running decoding
consumes them by step index; hypotheses therefore stay position-aligned
with the reference (a documented desk-scale simplification).
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from . import biaslist, metrics
from .biastrie import PrefixTree
from .losses import bias_positions
from .pointer import INTERPOLATION_MODES, PgParams, check_fit, masked_forward, state_terms
from .simulator import Share, SimUtterance, check, off_simplex, read_records, write_records
from .tokenizer import Vocab, detokenize

DECODE_MODES = ("none", *INTERPOLATION_MODES)


class GateTraceEntry(NamedTuple):
    step: int
    p_gen: float
    valid_nonempty: bool
    emitted: int


def greedy_decode(
    utt: SimUtterance,
    vocab: Vocab,
    params: PgParams | None = None,
    tree: PrefixTree | None = None,
    mode: str = "none",
) -> tuple[list[str], list[GateTraceEntry]]:
    """Decode one utterance; returns hypothesis words and the gate trace.

    Ties in the argmax break toward the lowest token id.  A non-finite
    decoder state or a base-model row off the simplex raises ValueError when
    the step that reads it is reached.
    """
    if mode not in DECODE_MODES:
        check(mode, Literal[DECODE_MODES], "mode")
    if mode != "none" and (params is None or tree is None):
        raise ValueError("biased decoding needs module parameters and a bias trie")
    steps = utt.ref.size
    rows = np.asarray(utt.p_mdl_seq, dtype=np.float64)[:steps]
    off, finite = off_simplex(rows), np.ones(steps, dtype=bool)
    safe = np.where(off[:, None], 0.0, rows)  # the rounds read flagged rows as zeros
    emitted = safe.argmax(axis=1)  # the guess, until a round decodes its position
    p_gen, nonempty = np.zeros(steps), np.zeros(steps, dtype=bool)
    if mode != "none":
        check_fit(params, utt.utt_id, utt.p_mdl_seq, utt.h_dec_seq)
        h = np.asarray(utt.h_dec_seq, dtype=np.float64)[:steps]
        finite = np.isfinite(h).all(axis=1)
        terms = state_terms(params, np.where(finite[:, None], h, 0.0))
        start = node = 0  # positions before ``start`` are decoded; ``node`` is the trie's there
        while start < steps:
            eos = np.flatnonzero(emitted[start:] == vocab.eos_id)  # past it is not reached
            span = slice(start, start + 1 + eos[0] if eos.size else steps)
            nodes, allowed = tree.walk(emitted[span].tolist(), node)
            p, _, gate = masked_forward(terms.query_logits[:, span], terms.gate_state[span],
                                        terms.gate_token, allowed.T)
            gate = gate[:, None]
            scores = safe[span] * (1.0 - gate) + p.T * gate
            if mode == "unscaled":
                scores = np.where(allowed, scores, safe[span])
            out = scores.argmax(axis=1)
            wrong = np.flatnonzero(out != emitted[span])  # decoded: up to the first of these
            done = 1 + wrong[0] if wrong.size else len(out)
            emitted[span], p_gen[span], nonempty[span] = out, gate[:, 0], allowed.any(axis=1)
            node = tree.advance(nodes[done - 1], int(out[done - 1]))
            start = steps if out[done - 1] == vocab.eos_id else start + done  # EOS ends it
    eos = np.flatnonzero(emitted == vocab.eos_id)  # the decoded path's first EOS, if any
    reached = eos[0] + 1 if eos.size else steps
    bad = np.flatnonzero(off[:reached] | ~finite[:reached])
    if bad.size:  # the first bad step reached raises
        off_simplex(rows[bad[0]], "base-model row")
        raise ValueError("non-finite decoder state")
    trace = list(map(GateTraceEntry, range(reached), p_gen[:reached].tolist(),
                     nonempty[:reached].tolist(), emitted[:reached].tolist()))
    return detokenize(vocab, emitted[:eos[0] if eos.size else steps].tolist()), trace


Decoded = dict[str, tuple[list[str], list[GateTraceEntry]]]


def decode_corpus(
    corpus: list[SimUtterance],
    vocab: Vocab,
    params: PgParams | None,
    trees: dict[str, PrefixTree] | None,
    mode: str,
) -> Decoded:
    """Greedy-decode every utterance in corpus order: utterance id ->
    (hypothesis words, gate trace).  ``trees`` maps each id to its bias trie
    and is None when decoding unbiased."""
    if trees is not None:
        trees = biaslist.require_lists([utt.utt_id for utt in corpus], trees, "trie")
    return {utt.utt_id: greedy_decode(utt, vocab, params, trees and trees[utt.utt_id], mode)
            for utt in corpus}


def score_corpus(
    corpus: list[SimUtterance], lists: dict[str, list[str]], decoded: Decoded
) -> tuple[metrics.ScoreReport, list[dict]]:
    """Align each utterance's decoded words with its reference and pool the
    counts and gate traces with ``metrics.score``; returns the report and
    the per-utterance breakdown.  Every utterance needs a bias list and a
    hypothesis; bias words match whatever their case, as in training."""
    lists = biaslist.require_lists([u.utt_id for u in corpus], lists)
    missing = [u.utt_id for u in corpus if u.utt_id not in decoded]
    if missing:
        raise ValueError(f"hypotheses missing for utterances: {missing[:5]}")
    alignments, wordsets, traces, masks = [], [], [], []
    for utt in corpus:
        hyp_words, trace = decoded[utt.utt_id]
        words = {word.lower() for word in lists[utt.utt_id]}
        alignments.append(metrics.align(utt.ref_words, hyp_words))
        wordsets.append(words)
        traces.append(trace)
        masks.append(bias_positions(utt.ref, words))
    return metrics.score(alignments, wordsets, traces, masks, [u.utt_id for u in corpus])


def write_hypotheses(path: str, decoded: Decoded) -> None:
    """JSON-lines decode output: id, hypothesis words, and gate trace."""
    write_records(path, ({"id": utt_id, "hyp_words": hyp_words, "trace": trace}
                         for utt_id, (hyp_words, trace) in decoded.items()))


def check_traces(path: str, decoded: Decoded, corpus: list[SimUtterance], vocab: Vocab) -> None:
    """Reject a gate-trace entry that does not fit its reference: a step that is not
    its index, an entry past the reference's last token, or an emitted token outside
    the vocabulary.  ``path`` is the hypotheses file the traces were read from."""
    for utt in corpus:  # a missing hypothesis is ``score_corpus``'s to report
        for i, entry in enumerate(decoded.get(utt.utt_id, ((), ()))[1]):
            if entry.step != i:
                problem = f"'trace.{i}.0' (step) must be {i}, got {entry.step}"
            elif i >= utt.ref.size:
                problem = f"'trace.{i}' lies past the reference's {utt.ref.size} tokens"
            elif not 0 <= entry.emitted < vocab.size:
                problem = (f"'trace.{i}.3' (emitted) must be a token id below {vocab.size}, "
                           f"got {entry.emitted}")
            else:
                continue
            raise ValueError(f"{path}: hypothesis {utt.utt_id}: {problem}")


def read_hypotheses(path: str) -> Decoded:
    """Read a hypotheses file; a gate probability outside [0, 1] is rejected."""
    decoded = {}
    schema = {"id": str, "hyp_words": list[str], "trace": list[tuple[int, Share, bool, int]]}
    for record in read_records(path, "hypothesis", schema):
        trace = [GateTraceEntry(*entry) for entry in record["trace"]]
        decoded[record["id"]] = (record["hyp_words"], trace)
    return decoded
