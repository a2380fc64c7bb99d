"""Greedy token-level decoding with optional trie-constrained biasing.

With biasing off the hypothesis is the base model's per-step argmax.  With
biasing on, the copy module's terms that do not depend on the trie are
computed for the whole utterance before the first step
(``pointer.state_terms``).  Each step takes the cursor's valid set from the
tree's memo, gathers its columns for the softmax and the gate
(``pointer.bias_step``), mixes them into the base row in the requested
mode, emits the argmax token, and advances the cursor with it.  The
per-step gate trace is kept for acceptance-rate analysis.

The simulator provides teacher-forced model rows, so free-running decoding
consumes them by step index; hypotheses therefore stay position-aligned
with the reference (a documented desk-scale simplification).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .biastrie import PrefixTree, TrieCursor
from .pointer import PgParams, bias_step, mix, state_terms
from .simulator import SimUtterance
from .tokenizer import Vocab, detokenize

DECODE_MODES = ("none", "scaled", "unscaled")


@dataclass(frozen=True)
class GateTraceEntry:
    step: int
    p_gen: float
    valid_nonempty: bool
    emitted: int


def check_params(params: PgParams, vocab: Vocab, utt: SimUtterance) -> None:
    """Raise ValueError, naming both shapes, unless the copy module fits the
    vocabulary and the utterance's base-model rows and decoder states."""
    rows, states = np.shape(utt.p_mdl_seq), np.shape(utt.h_dec_seq)
    need = (params.vocab_size, (params.vocab_size,), (params.state_dim,))
    if (vocab.size, rows[1:], states[1:]) != need:
        raise ValueError(
            f"copy-module parameters (token_embed {params.token_embed.shape}, w_query "
            f"{params.w_query.shape}) need {need[0]} tokens and decoder states of width "
            f"{params.state_dim}; utterance {utt.utt_id} has {vocab.size} tokens, "
            f"base-model rows {rows} and decoder states {states}"
        )


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
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode != "none" and (params is None or tree is None):
        raise ValueError("biased decoding needs module parameters and a bias trie")
    steps = utt.ref.size
    rows = np.asarray(utt.p_mdl_seq, dtype=np.float64)[:steps]
    if mode != "none":
        check_params(params, vocab, utt)
        h = np.asarray(utt.h_dec_seq, dtype=np.float64)[:steps]
        finite = np.isfinite(h).all(axis=1)
        # a non-finite row raises when its step is reached; until then it is zeroed
        terms = state_terms(params, np.where(finite[:, None], h, 0.0))
        finite = finite.tolist()
        off_simplex = (np.abs(rows.sum(axis=1) - 1.0) > 1e-9).tolist()
    emitted_ids: list[int] = []
    trace: list[GateTraceEntry] = []
    cursor = TrieCursor()
    for i in range(steps):
        row = rows[i]
        if mode == "none":
            emitted = int(np.argmax(row))
            trace.append(GateTraceEntry(i, 0.0, False, emitted))
        else:
            if not finite[i]:
                raise ValueError("non-finite decoder state")
            if off_simplex[i]:
                raise ValueError("base-model row does not sum to 1")
            valid, members = tree.valid(cursor)
            p_gen = 0.0
            if valid:
                weights, p_gen = bias_step(terms, i, members)
                row = mix(row, members, weights, p_gen, mode)
            emitted = int(np.argmax(row))
            trace.append(GateTraceEntry(i, p_gen, bool(valid), emitted))
            cursor = tree.advance(cursor, emitted)
        if emitted == vocab.eos_id:
            break
        emitted_ids.append(emitted)
    return detokenize(vocab, emitted_ids), trace


def write_hypotheses(path: str, results: list[tuple[str, list[str], list[GateTraceEntry]]]) -> None:
    """JSON-lines decode output: id, hypothesis words, and gate trace."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, hyp_words, trace in results:
            record = {
                "id": utt_id,
                "hyp_words": hyp_words,
                "trace": [[e.step, e.p_gen, e.valid_nonempty, e.emitted] for e in trace],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_hypotheses(path: str) -> dict[str, tuple[list[str], list[GateTraceEntry]]]:
    out: dict[str, tuple[list[str], list[GateTraceEntry]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            trace = [
                GateTraceEntry(int(s), float(p), bool(v), int(e))
                for s, p, v, e in record["trace"]
            ]
            out[record["id"]] = (list(record["hyp_words"]), trace)
    return out
