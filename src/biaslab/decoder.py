"""Greedy token-level decoding with optional trie-constrained biasing.

With biasing off the hypothesis is the base model's per-step argmax.  With
biasing on, a corpus is decoded in rounds (Jacobi-style fixed-point decoding,
Santilli et al. 2023), all its utterances in lockstep, over its rows
concatenated in corpus order.  A round walks each live utterance's trie along
a guess of its token path (at first the unbiased argmax path), runs the
training kernel's masked forward (``pointer.masked_forward``) once on every
live utterance's positions not yet decoded, mixes in the base rows and takes
each argmax.  In each utterance, positions up to and including the first one
where it differs from the guess are decoded, as their trie nodes were walked
along decoded tokens; the rest is the next guess.  An utterance leaves the
rounds at a decoded EOS or its last step, so rounds take as many kernel calls
as the slowest utterance has rounds.  A replay in step order builds each gate
trace, stops at the first EOS and raises on a bad row only when its step is
reached.  ``greedy_decode`` is the case of one utterance; ``decode_corpus``
decodes a corpus with the tries of one ``biastrie.build_tries`` call, and
``score_corpus`` scores it; every command that decodes or scores goes through
them.

The simulator provides teacher-forced model rows, so free-running decoding
consumes them by step index; hypotheses therefore stay position-aligned
with the reference (a documented desk-scale simplification).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
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

    This is ``decode_corpus`` over a corpus of this one utterance, with the
    same tie-breaking and the same errors.
    """
    return _decode([utt], vocab, params, [tree], mode)[0]


Decoded = dict[str, tuple[list[str], list[GateTraceEntry]]]


def decode_corpus(
    corpus: list[SimUtterance],
    vocab: Vocab,
    params: PgParams | None,
    trees: dict[str, PrefixTree] | None,
    mode: str,
) -> Decoded:
    """Greedy-decode every utterance in lockstep: utterance id -> (hypothesis
    words, gate trace), in corpus order.  ``trees`` maps each id to its bias
    trie and is None when decoding unbiased.

    Ties in the argmax break toward the lowest token id, and an EOS ends only
    its own utterance.  Base-model rows that do not fit the vocabulary, and
    copy-module parameters that do not fit some utterance, raise before
    anything is decoded, naming the first such utterance.  A non-finite
    decoder state or a base-model row off the simplex raises ValueError,
    naming the utterance and the step, only if that step is reached; of
    several, the first utterance in corpus order raises.
    """
    if trees is not None:
        trees = biaslist.require_lists([utt.utt_id for utt in corpus], trees, "trie")
    decoded = _decode(corpus, vocab, params, [trees and trees[utt.utt_id] for utt in corpus],
                      mode)
    return {utt.utt_id: out for utt, out in zip(corpus, decoded)}


def _reached(path: list[int], eos_id: int) -> int:
    """How many of the path's steps are reached: through its first EOS, if any."""
    return path.index(eos_id) + 1 if eos_id in path else len(path)


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The parts concatenated along the first axis; a lone part is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _decode(
    corpus: list[SimUtterance],
    vocab: Vocab,
    params: PgParams | None,
    trees: list[PrefixTree | None],
    mode: str,
) -> list[tuple[list[str], list[GateTraceEntry]]]:
    """Decode each utterance of ``corpus`` with its trie in ``trees``, all in
    one round loop over the corpus's rows concatenated in corpus order."""
    if mode not in DECODE_MODES:
        check(mode, Literal[DECODE_MODES], "mode")
    if mode != "none" and (params is None or None in trees):
        raise ValueError("biased decoding needs module parameters and a bias trie")
    for utt in corpus:  # before any rows are joined
        rows = np.shape(utt.p_mdl_seq)
        if rows[1:] != (vocab.size,):
            raise ValueError(f"utterance {utt.utt_id}: base-model rows {rows} do not fit "
                             f"a vocabulary of {vocab.size} tokens")
        if mode != "none":
            check_fit(params, utt.utt_id, utt.p_mdl_seq, utt.h_dec_seq)
    if not corpus:
        return []
    steps = [utt.ref.size for utt in corpus]
    ends = list(accumulate(steps))  # utterance u holds positions ends[u] - steps[u] .. ends[u] - 1
    starts = [end - n for end, n in zip(ends, steps)]
    rows = _join([np.asarray(utt.p_mdl_seq, dtype=np.float64)[:n]
                  for utt, n in zip(corpus, steps)])
    off, finite = off_simplex(rows), np.ones(len(rows), dtype=bool)
    safe = np.where(off[:, None], 0.0, rows)  # the rounds read flagged rows as zeros
    emitted = safe.argmax(axis=1)  # the guess, until a round decodes its position
    p_gen, nonempty = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)
    eos_id = vocab.eos_id
    if mode != "none":
        h = _join([np.asarray(utt.h_dec_seq, dtype=np.float64)[:n]
                   for utt, n in zip(corpus, steps)])
        finite = np.isfinite(h).all(axis=1)
        terms = state_terms(params, np.where(finite[:, None], h, 0.0))
        done = starts.copy()  # each utterance's positions before ``done[u]`` are decoded,
        node = [0] * len(corpus)  # and ``node[u]`` is its trie's node there
        live = list(range(len(corpus)))  # a reference ends in EOS, so it has a step
        while live:
            guess = emitted.tolist()
            # an utterance's span runs to its guess's first EOS: past it is not reached
            spans = [(done[u], done[u] + _reached(guess[done[u]:ends[u]], eos_id)) for u in live]
            walks = [trees[u].walk(guess[a:b], node[u]) for u, (a, b) in zip(live, spans)]
            # a lone span stays a slice: gathered, it moved p_gen in its last bits (by up
            # to 3.6e-15 relative, at 879 of the decode workload's 4183 trace steps)
            if len(live) == 1:
                span, allowed = slice(*spans[0]), walks[0][1]
            else:
                span = np.concatenate([np.arange(a, b) for a, b in spans])
                allowed = np.concatenate([mask for _, mask in walks])
            p, _, gate = masked_forward(terms.query_logits[:, span], terms.gate_state[span],
                                        terms.gate_token, allowed.T)
            gate = gate[:, None]
            base = safe[span]
            scores = base * (1.0 - gate) + p.T * gate
            if mode == "unscaled":
                scores = np.where(allowed, scores, base)
            out = scores.argmax(axis=1)
            wrong = [*np.flatnonzero(out != emitted[span]).tolist(), len(out)]
            emitted[span], p_gen[span], nonempty[span] = out, gate[:, 0], allowed.any(axis=1)
            out, k, next_live = out.tolist(), 0, []  # k: where the span starts in ``out``
            for u, (a, b), (nodes, _) in zip(live, spans, walks):
                # decoded: the span up to and including its first wrong guess
                n = min(wrong[bisect_left(wrong, k)] - k + 1, b - a)
                node[u] = trees[u].advance(nodes[n - 1], out[k + n - 1])
                done[u] = a + n
                if out[k + n - 1] != eos_id and done[u] < ends[u]:  # EOS ends it
                    next_live.append(u)
                k += b - a
            live = next_live
    path, gates, flags = emitted.tolist(), p_gen.tolist(), nonempty.tolist()
    bad = [*np.flatnonzero(off | ~finite).tolist(), len(rows)]
    decoded = []
    for utt, a, b in zip(corpus, starts, ends):
        reached = _reached(path[a:b], eos_id)
        stop = a + reached
        step = bad[bisect_left(bad, a)]
        if step < stop:  # the utterance's first bad step is reached: it raises
            where = f"utterance {utt.utt_id}, step {step - a}"
            off_simplex(rows[step], f"{where}: base-model row")
            raise ValueError(f"{where}: non-finite decoder state")
        trace = list(map(GateTraceEntry, range(reached), gates[a:stop], flags[a:stop],
                         path[a:stop]))
        decoded.append((detokenize(vocab, path[a:stop]), trace))  # it skips the EOS
    return decoded


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
