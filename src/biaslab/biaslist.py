"""Rare-word extraction and per-utterance bias list construction.

A word is rare when it is absent from the provided common-word list; each
utterance's bias list is its own rare words plus a seeded sample of
distractors from the full rare-word set.
"""

from __future__ import annotations

import json
import logging

from .simulator import sub_rng

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
    if n_distractors < 0:
        raise ValueError("distractor count must be non-negative")
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


def require_lists(utt_ids: list[str], lists: dict[str, list[str]]) -> None:
    """Every utterance needs a bias list: a missing one is an input error,
    never silently an empty list."""
    missing = [u for u in utt_ids if u not in lists]
    if missing:
        raise ValueError(f"no bias list for utterances: {missing[:5]}")


def write_bias_lists(path: str, lists: dict[str, list[str]]) -> None:
    """JSON-lines bias lists: {"id": ..., "words": [...]} per utterance."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id in lists:
            fh.write(json.dumps({"id": utt_id, "words": lists[utt_id]}, sort_keys=True) + "\n")


def read_bias_lists(path: str) -> dict[str, list[str]]:
    """Read bias lists; words are lowercased, as tokenization does."""
    lists: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            missing = [key for key in ("id", "words") if key not in record]
            if missing:
                raise ValueError(f"{path}: a bias-list record lacks key {missing[0]!r}")
            if record["id"] in lists:
                raise ValueError(f"{path}: repeated bias-list id {record['id']}")
            lists[record["id"]] = [word.lower() for word in record["words"]]
    return lists
