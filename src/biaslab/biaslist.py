"""Rare-word extraction and per-utterance bias list construction.

A word is rare when it is absent from the provided common-word list; each
utterance's bias list is its own rare words plus a seeded sample of
distractors from the full rare-word set.
"""

from __future__ import annotations

import logging

from .simulator import NON_NEGATIVE, SimUtterance, read_records, sub_rng, write_records

log = logging.getLogger(__name__)


def extract_rarewords(references: list[list[str]], common_words: set[str]) -> set[str]:
    """All reference words missing from the common-word list."""
    rare: set[str] = set()
    for words in references:
        rare.update(w for w in words if w not in common_words)
    return rare


def build_utterance_list(
    utt_id: str,
    utt_rarewords: set[str],
    all_rarewords: set[str],
    n_distractors: int,
    seed: int,
) -> list[str]:
    """Own rare words plus distractors sampled without replacement.

    Sampling is keyed on (seed, utterance id) so lists survive corpus
    reordering.  When fewer candidates than requested exist, all of them are
    taken and the shortfall is logged.
    """
    NON_NEGATIVE.require(n_distractors, "n_distractors")
    own = sorted(set(utt_rarewords))
    candidates = sorted(set(all_rarewords) - set(own))
    if n_distractors >= len(candidates):
        if n_distractors > len(candidates):
            log.warning(
                "utterance %s: only %d distractor candidates for N=%d",
                utt_id, len(candidates), n_distractors,
            )
        picked = candidates
    else:
        rng = sub_rng(seed, "distractors", utt_id)
        idx = rng.choice(len(candidates), size=n_distractors, replace=False)
        picked = [candidates[i] for i in sorted(idx)]
    return sorted(own + picked)


def build_lists(corpus: list[SimUtterance], common_words: set[str], n_distractors: int,
                seed: int, pool: set[str] | None = None) -> dict[str, list[str]]:
    """Each utterance's list: its own rare words plus distractors drawn from
    the rare words seen in the corpus, or from ``pool`` when given."""
    observed = extract_rarewords([u.ref_words for u in corpus], common_words)
    candidates = observed if pool is None else pool
    return {u.utt_id: build_utterance_list(u.utt_id, set(u.ref_words) & observed, candidates,
                                           n_distractors, seed) for u in corpus}


def require_lists(utt_ids: list[str], lists: dict, what: str = "bias list") -> dict:
    """The lists (or tries: ``what``) of ``utt_ids``, in their order.  Every utterance
    needs them: a missing one is an input error, never silently an empty list."""
    missing = [u for u in utt_ids if u not in lists]
    if missing:
        raise ValueError(f"no {what} for utterances: {missing[:5]}")
    return {u: lists[u] for u in utt_ids}


def write_bias_lists(path: str, lists: dict[str, list[str]]) -> None:
    """JSON-lines bias lists: {"id": ..., "words": [...]} per utterance."""
    write_records(path, ({"id": utt_id, "words": words} for utt_id, words in lists.items()))


def read_bias_lists(path: str) -> dict[str, list[str]]:
    """Read bias lists; words are lowercased, as tokenization does, and a
    word on several lists is held as one string."""
    seen: dict[str, str] = {}
    return {
        record["id"]: [seen.setdefault(word, word) for word in map(str.lower, record["words"])]
        for record in read_records(path, "bias-list", {"id": str, "words": list[str]})
    }
