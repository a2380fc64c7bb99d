"""Synthetic corpus generator standing in for a frozen speech recognizer.

Each utterance carries a reference transcript, a per-step next-token
distribution from the simulated base model, and a per-step decoder-state
vector.  Decoder states encode the gold token (plus position parity and a
per-utterance offset) mixed with condition-specific noise, so a module fit
to the train-condition states degrades on the test condition in proportion
to ``domain_shift``.  Rare words can be systematically confused with a
same-length counterpart (the base model then puts its mass on the wrong
word), which is the error the bias module is meant to fix.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tokenizer import TokenizedUtterance, Vocab, build_vocab, tokenize, tokenize_word

CORPUS_FORMAT_VERSION = 1
SIZE_WARNING_THRESHOLD = 10_000


def sub_rng(*parts) -> np.random.Generator:
    """Deterministic generator derived from a tuple of key parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "little"))


@dataclass
class SimConfig:
    seed: int
    n_utterances: int
    words_per_utterance: tuple[int, int]
    common_words: list[str]
    rare_words: list[str]
    rare_word_rate: float
    base_accuracy_common: float = 0.95
    base_accuracy_rare: float = 0.75
    confusion_map: dict[str, str] = field(default_factory=dict)
    state_dim: int = 24
    domain_shift: float = 0.0
    utterance_noise: float = 0.1

    def validate(self) -> None:
        lo, hi = self.words_per_utterance
        if self.n_utterances <= 0 or lo <= 0 or hi < lo:
            raise ValueError("utterance counts must be positive and ordered")
        for name in ("rare_word_rate", "base_accuracy_common", "base_accuracy_rare",
                     "domain_shift"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.rare_word_rate > 0.0 and not self.rare_words:
            raise ValueError("rare_word_rate > 0 with an empty rare inventory")
        if self.rare_word_rate < 1.0 and not self.common_words:
            raise ValueError("common inventory empty while common words are drawn")
        overlap = set(self.common_words) & set(self.rare_words)
        if overlap:
            raise ValueError(f"inventories overlap: {sorted(overlap)[:3]}")
        taken = set(self.common_words) | set(self.rare_words)
        for word, conf in self.confusion_map.items():
            if word not in self.rare_words:
                raise ValueError(f"confused word {word!r} is not in the rare inventory")
            if len(conf) != len(word):
                raise ValueError(f"confusable {conf!r} must match the length of {word!r}")
            if conf in taken:
                raise ValueError(f"confusable {conf!r} collides with an inventory word")
        if self.state_dim <= 0:
            raise ValueError("state_dim must be positive")

    def all_words(self) -> list[str]:
        return sorted(set(self.common_words) | set(self.rare_words)
                      | set(self.confusion_map.values()))


@dataclass
class SimUtterance:
    utt_id: str
    index: int
    ref_words: list[str]
    ref: TokenizedUtterance
    p_mdl_seq: np.ndarray
    h_dec_seq: np.ndarray


def build_sim_vocab(config: SimConfig) -> Vocab:
    """Inventory-derived vocabulary, independent of which words get sampled."""
    return build_vocab(config.all_words())


def _token_patterns(config: SimConfig, vocab: Vocab) -> np.ndarray:
    rng = sub_rng(config.seed, "patterns")
    return rng.standard_normal((vocab.size, 2, config.state_dim))


def _sample_words(config: SimConfig, index: int) -> list[str]:
    rng = sub_rng(config.seed, "words", index)
    lo, hi = config.words_per_utterance
    n_words = int(rng.integers(lo, hi + 1))
    words = []
    for _ in range(n_words):
        if config.rare_words and rng.random() < config.rare_word_rate:
            words.append(config.rare_words[int(rng.integers(len(config.rare_words)))])
        else:
            words.append(config.common_words[int(rng.integers(len(config.common_words)))])
    return words


def _model_rows(config: SimConfig, vocab: Vocab, ref: TokenizedUtterance) -> np.ndarray:
    vsize = vocab.size
    rows = np.empty((ref.size, vsize))
    rare = set(config.rare_words)
    target = list(ref.tokens)
    accuracy = [config.base_accuracy_common] * ref.size
    for word_idx, start, end in ref.word_spans:
        word = ref.words[word_idx]
        if word in rare:
            for i in range(start, end):
                accuracy[i] = config.base_accuracy_rare
        conf = config.confusion_map.get(word)
        if conf is not None:
            # same-length counterpart: substitute the token at each offset
            conf_tokens = tokenize_word(vocab, conf)
            for offset, i in enumerate(range(start, end)):
                target[i] = conf_tokens[offset]
    for i in range(ref.size):
        acc = accuracy[i]
        rows[i] = (1.0 - acc) / (vsize - 1)
        rows[i, target[i]] = acc
    return rows


def _state_rows(
    config: SimConfig,
    patterns: np.ndarray,
    ref: TokenizedUtterance,
    index: int,
    condition: str,
) -> np.ndarray:
    offset = sub_rng(config.seed, "uttnoise", index).normal(
        0.0, config.utterance_noise, config.state_dim
    )
    base = patterns[list(ref.tokens), [i % 2 for i in range(ref.size)]] + offset
    noise = sub_rng(config.seed, "cond", condition, index).standard_normal(
        (ref.size, config.state_dim)
    )
    return (1.0 - config.domain_shift) * base + config.domain_shift * noise


def _render_utterance(
    config: SimConfig,
    vocab: Vocab,
    patterns: np.ndarray,
    index: int,
    condition: str,
) -> SimUtterance:
    words = _sample_words(config, index)
    ref = tokenize(vocab, words)
    return SimUtterance(
        utt_id=f"utt{index:05d}",
        index=index,
        ref_words=words,
        ref=ref,
        p_mdl_seq=_model_rows(config, vocab, ref),
        h_dec_seq=_state_rows(config, patterns, ref, index, condition),
    )


def gen_corpus(config: SimConfig, condition: str = "train") -> list[SimUtterance]:
    """Generate the full corpus; deterministic given the config seed."""
    config.validate()
    if condition not in ("train", "test"):
        raise ValueError(f"unknown condition {condition!r}")
    vocab = build_sim_vocab(config)
    patterns = _token_patterns(config, vocab)
    return [
        _render_utterance(config, vocab, patterns, index, condition)
        for index in range(config.n_utterances)
    ]


def render_condition(
    corpus: list[SimUtterance], condition: str, config: SimConfig
) -> list[SimUtterance]:
    """Re-render decoder states for a condition; references stay identical."""
    if condition not in ("train", "test"):
        raise ValueError(f"unknown condition {condition!r}")
    vocab = build_sim_vocab(config)
    patterns = _token_patterns(config, vocab)
    return [
        SimUtterance(
            utt.utt_id,
            utt.index,
            list(utt.ref_words),
            utt.ref,
            utt.p_mdl_seq.copy(),
            _state_rows(config, patterns, utt.ref, utt.index, condition),
        )
        for utt in corpus
    ]


def write_corpus(
    path: str, corpus: list[SimUtterance], vocab: Vocab, seed: int, condition: str
) -> None:
    """JSON-lines corpus: one meta line, then one utterance per line."""
    if len(corpus) > SIZE_WARNING_THRESHOLD:
        warnings.warn(
            f"writing {len(corpus)} utterances as JSON-lines; expect a large file",
            stacklevel=2,
        )
    meta = {
        "kind": "meta",
        "version": CORPUS_FORMAT_VERSION,
        "vocab": list(vocab.tokens),
        "state_dim": int(corpus[0].h_dec_seq.shape[1]) if corpus else 0,
        "seed": seed,
        "condition": condition,
        "n_utterances": len(corpus),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for utt in corpus:
            record = {
                "id": utt.utt_id,
                "index": utt.index,
                "ref_words": utt.ref_words,
                "p_mdl_seq": utt.p_mdl_seq.tolist(),
                "h_dec_seq": utt.h_dec_seq.tolist(),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _rows(values, shape: tuple[int, int], what: str) -> np.ndarray:
    """A float64 array of exactly ``shape`` with finite entries, or a
    ValueError that names ``what``."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows or non-numbers
        raise ValueError(f"{what} are not a {shape[0]} x {shape[1]} array") from None
    if rows.shape != shape:
        raise ValueError(f"{what} have shape {rows.shape}, expected {shape}")
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} hold non-finite values")
    return rows


UTTERANCE_KEYS = ("id", "index", "ref_words", "p_mdl_seq", "h_dec_seq")


def read_corpus(path: str) -> tuple[Vocab, list[SimUtterance], dict]:
    """Read a corpus file; reference words are lowercased, as tokenization does."""
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        if (meta.get("kind") != "meta" or meta.get("version") != CORPUS_FORMAT_VERSION
                or not {"vocab", "state_dim"} <= meta.keys()):
            raise ValueError(f"{path} is not a corpus file of a supported version")
        vocab = Vocab(tuple(meta["vocab"]))
        corpus, seen = [], set()
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            missing = [key for key in UTTERANCE_KEYS if key not in record]
            if missing:
                raise ValueError(f"{path}: an utterance record lacks key {missing[0]!r}")
            if record["id"] in seen:
                raise ValueError(f"{path}: repeated utterance id {record['id']}")
            seen.add(record["id"])
            ref = tokenize(vocab, record["ref_words"])
            where = f"{path}: utterance {record['id']}"
            p_mdl = _rows(record["p_mdl_seq"], (ref.size, vocab.size), f"{where} model rows")
            h_dec = _rows(record["h_dec_seq"], (ref.size, meta["state_dim"]),
                          f"{where} decoder states")
            if np.any(np.abs(p_mdl.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError(f"{where}: model rows do not sum to 1")
            corpus.append(
                SimUtterance(record["id"], record["index"], list(ref.words), ref, p_mdl, h_dec)
            )
    return vocab, corpus, meta


COMMON_ALPHABET = "adeinorst"
RARE_INITIALS = "kqvz"
RARE_INTERNAL = COMMON_ALPHABET + "uy"
CONFUSABLE_INITIALS = "gm"


def make_inventories(
    n_common: int,
    n_rare: int,
    n_confused: int,
    seed: int,
    *,
    common_alphabet: str = COMMON_ALPHABET,
    rare_initials: str = RARE_INITIALS,
    rare_internal: str = RARE_INTERNAL,
    confusable_initials: str = CONFUSABLE_INITIALS,
    min_len: int = 3,
    max_len: int = 6,
) -> tuple[list[str], list[str], dict[str, str]]:
    """Generate disjoint word inventories plus a same-length confusion map.

    Rare words start with characters no common word uses, so word starts are
    an unambiguous bias signal, while their inner characters overlap with the
    common alphabet.  Confusables differ from their source word only in the
    initial character and belong to neither inventory.
    """
    if n_confused > n_rare:
        raise ValueError("cannot confuse more words than the rare inventory holds")
    rng = sub_rng(seed, "inventories")
    words: set[str] = set()

    def draw(first_pool: str, rest_pool: str) -> str:
        while True:
            length = int(rng.integers(min_len, max_len + 1))
            first = first_pool[int(rng.integers(len(first_pool)))]
            rest = "".join(
                rest_pool[int(rng.integers(len(rest_pool)))] for _ in range(length - 1)
            )
            word = first + rest
            if word not in words:
                words.add(word)
                return word

    common = [draw(common_alphabet, common_alphabet) for _ in range(n_common)]
    rare = [draw(rare_initials, rare_internal) for _ in range(n_rare)]
    confusion = {}
    for word in rare[:n_confused]:
        first = confusable_initials[int(rng.integers(len(confusable_initials)))]
        confusion[word] = first + word[1:]
    return common, rare, confusion
