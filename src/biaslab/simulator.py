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

import functools
import hashlib
import itertools
import json
import sys
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .tokenizer import TokenizedUtterance, Vocab, build_vocab, tokenize, tokenize_word

CORPUS_FORMAT_VERSION = 1
CONDITIONS = ("train", "test")  # the decoder-state noise a corpus is rendered under


def sub_rng(*parts) -> np.random.Generator:
    """Deterministic generator derived from a tuple of key parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "little"))


@dataclass(frozen=True)
class Range:
    """An interval, its ends written "[" or "]" when closed, "(" or ")" when open."""

    lo: float
    hi: float = float("inf")
    ends: str = "[)"

    def __contains__(self, value) -> bool:
        return ((self.lo <= value if self.ends[0] == "[" else self.lo < value)
                and (value <= self.hi if self.ends[1] == "]" else value < self.hi))

    def require(self, value, where: str, path: tuple = ()):
        """``value``, or ``check``'s ValueError naming ``where`` if it lies outside."""
        return value if value in self else check(value, self, where, path)


NON_NEGATIVE = Range(0)  # a count that may be 0, a seed, a noise scale or a tolerance
Count = typing.Annotated[int, Range(1)]  # a positive count or width
Size = typing.Annotated[int, NON_NEGATIVE]
Share = typing.Annotated[float, Range(0, 1, "[]")]  # a probability or a mixing weight
_type_hints = functools.cache(typing.get_type_hints)  # a dataclass's hints, read once


def check_fields(config) -> None:
    """Check each field of the dataclass ``config`` against its hint, range included,
    and keep the checked value: a float for a ``float`` field, a tuple for a tuple."""
    for name, kind in _type_hints(type(config), include_extras=True).items():
        setattr(config, name, check(getattr(config, name), kind, name))


@dataclass
class SimConfig:
    seed: Size
    n_utterances: Count
    words_per_utterance: tuple[Count, Count]
    common_words: list[str]
    rare_words: list[str]
    rare_word_rate: Share
    base_accuracy_common: Share = 0.95
    base_accuracy_rare: Share = 0.75
    confusion_map: dict[str, str] = field(default_factory=dict)
    state_dim: Count = 24
    domain_shift: Share = 0.0
    utterance_noise: typing.Annotated[float, NON_NEGATIVE] = 0.1

    def validate(self) -> None:
        check_fields(self)
        lo, hi = self.words_per_utterance
        Range(lo).require(hi, "words_per_utterance[1]")  # at least the lower count
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

    def all_words(self) -> list[str]:
        return sorted(set(self.common_words) | set(self.rare_words)
                      | set(self.confusion_map.values()))


@dataclass
class SimUtterance:
    utt_id: str
    index: int
    ref: TokenizedUtterance
    p_mdl_seq: np.ndarray
    h_dec_seq: np.ndarray

    @property
    def ref_words(self) -> list[str]:
        return list(self.ref.words)


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
    rare = set(config.rare_words)
    target = np.array(ref.tokens)
    accuracy = np.full(ref.size, config.base_accuracy_common, dtype=np.float64)
    for word_idx, start, end in ref.word_spans:
        word = ref.words[word_idx]
        if word in rare:
            accuracy[start:end] = config.base_accuracy_rare
        conf = config.confusion_map.get(word)
        if conf is not None:
            # same-length counterpart: substitute the token at each offset
            target[start:end] = tokenize_word(vocab, conf)
    rows = np.repeat(((1.0 - accuracy) / (vocab.size - 1))[:, None], vocab.size, axis=1)
    rows[np.arange(ref.size), target] = accuracy
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
    ref = tokenize(vocab, _sample_words(config, index))
    return SimUtterance(
        utt_id=f"utt{index:05d}",
        index=index,
        ref=ref,
        p_mdl_seq=_model_rows(config, vocab, ref),
        h_dec_seq=_state_rows(config, patterns, ref, index, condition),
    )


def gen_corpus(config: SimConfig, condition: str = "train") -> list[SimUtterance]:
    """Generate the full corpus; deterministic given the config seed."""
    config.validate()
    check(condition, typing.Literal[CONDITIONS], "condition")
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
    check(condition, typing.Literal[CONDITIONS], "condition")
    vocab = build_sim_vocab(config)
    patterns = _token_patterns(config, vocab)
    return [
        SimUtterance(
            utt.utt_id,
            utt.index,
            utt.ref,
            utt.p_mdl_seq.copy(),
            _state_rows(config, patterns, utt.ref, utt.index, condition),
        )
        for utt in corpus
    ]


def write_records(path: str, records: Iterable[dict]) -> None:
    """JSON-lines: one sorted-key JSON object per line, written as ``records`` yields it."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# what ``check`` calls each kind of JSON value
_KINDS = {int: "a number written as an integer", float: "a finite number", str: "a string",
          bool: "a boolean", list: "a list", dict: "an object"}


def check(value, kind, where: str, path: tuple = ()):
    """``value``, parsed from JSON, as the type hint ``kind`` declares it, or ValueError
    naming ``where`` and the path to the part that does not fit.  ``int`` takes no
    float and ``float`` only finite numbers, neither a boolean; ``tuple[X, Y]`` takes a
    list (or a tuple) of that length; a ``Range`` takes a number in it, and
    ``Annotated[X, Range(...)]`` an X in it; a schema (a dict of key -> kind) takes an
    object that has every key it names, and passes the object's other keys unchecked."""
    origin, args = typing.get_origin(kind) or kind, typing.get_args(kind)
    value = value.item() if isinstance(value, np.generic) else value  # numpy's as Python's
    if origin is typing.Annotated:  # Annotated[X, Range(...)]: an X, then in the range
        return args[1].require(check(value, args[0], where, path), where, path)
    if isinstance(kind, Range) and value in kind:
        return value
    if isinstance(kind, dict) and type(value) is dict:
        value = dict(value)
        for key, inner in kind.items():
            if key not in value:
                raise ValueError(f"{where} lacks key {'.'.join(map(str, (*path, key)))!r}")
            value[key] = check(value[key], inner, where, (*path, key))
        return value
    if origin is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # NaN, infinities and integers past the float range fail
    if origin in (int, str, bool) and type(value) is origin:
        return value
    if origin is typing.Literal and any(type(value) is type(arg) and value == arg for arg in args):
        return value
    if origin is list and type(value) is list:
        if not args or args[0] in (int, str) and all(type(item) is args[0] for item in value):
            return value
        return [check(item, args[0], where, (*path, i)) for i, item in enumerate(value)]
    if origin is dict and type(value) is dict:
        return {key: check(item, args[1], where, (*path, key)) for key, item in value.items()}
    if origin is tuple and type(value) in (list, tuple) and len(value) == len(args):
        return tuple(check(item, arg, where, (*path, i)) for i, (item, arg)
                     in enumerate(zip(value, args)))
    if isinstance(kind, dict):
        what = "a JSON object"
    elif origin is typing.Literal:
        what = " or ".join(map(repr, args))
    elif isinstance(kind, Range):
        what = f"in {kind.ends[0]}{kind.lo:g}, {kind.hi:g}{kind.ends[1]}"
    else:  # a tuple is a list of its length
        what = _KINDS.get(origin, f"a list of {len(args)}")
    subject = f"{where}: {'.'.join(map(str, path))!r}" if path else where
    raise ValueError(f"{subject} must be {what}, got {value!r:.60}")


def read_records(path: str, kind: str, schema: dict, start: int = 1) -> Iterator[dict]:
    """The records of a JSON-lines file from line ``start`` on, blank lines skipped,
    each checked against ``schema`` (which has an "id" string).  A line that is not
    a JSON object in UTF-8, a repeated id and a record that does not fit ``schema``
    raise ValueError naming the file, the line and the key or id."""
    seen = set()
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if number < start or not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8
                record = None
            where = f"{path}, line {number}"
            if not isinstance(record, dict):
                raise ValueError(f"{where}: not a JSON object")
            check(record, {"id": str}, f"{where}: {kind} record")
            if record["id"] in seen:
                raise ValueError(f"{where}: repeated {kind} id {record['id']}")
            seen.add(record["id"])
            yield check(record, schema, f"{where}: {kind} {record['id']}")


def write_corpus(
    path: str, corpus: list[SimUtterance], vocab: Vocab, seed: int, condition: str
) -> None:
    """JSON-lines corpus: one meta line, then one utterance per line."""
    meta = {
        "kind": "meta",
        "version": CORPUS_FORMAT_VERSION,
        "vocab": list(vocab.tokens),
        "state_dim": int(corpus[0].h_dec_seq.shape[1]) if corpus else 0,
        "seed": seed,
        "condition": condition,
        "n_utterances": len(corpus),
    }
    utterances = ({"id": utt.utt_id, "index": utt.index, "ref_words": utt.ref_words,
                   "p_mdl_seq": utt.p_mdl_seq.tolist(), "h_dec_seq": utt.h_dec_seq.tolist()}
                  for utt in corpus)
    write_records(path, itertools.chain([meta], utterances))


def off_simplex(rows: np.ndarray, where: str | None = None) -> np.ndarray:
    """Flags rows (last axis) whose sum misses 1 by over 1e-9; given ``where``, raises on any."""
    off = ~(np.abs(np.sum(rows, axis=-1) - 1.0) <= 1e-9)  # a NaN sum is off too
    if where is not None and off.any():
        raise ValueError(f"{where} must sum to 1, got {float(rows[off][0].sum())!r}")
    return off


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


def read_corpus(path: str) -> tuple[Vocab, list[SimUtterance], dict]:
    """Read a corpus file; reference words are lowercased, as tokenization does."""
    with open(path, "rb") as fh:
        try:
            meta = json.loads(fh.readline())
        except ValueError:  # an empty file, or a first line that is not UTF-8 JSON
            meta = None
    meta = check(meta, {"kind": typing.Literal["meta"], "vocab": list[str], "state_dim": int,
                        "n_utterances": Size, "version": typing.Literal[CORPUS_FORMAT_VERSION]},
                 f"{path} is not a corpus file of a supported version: line 1")
    try:
        vocab = Vocab(tuple(meta["vocab"]))
    except ValueError as exc:
        raise ValueError(f"{path}, line 1: 'vocab': {exc}") from None
    corpus = []
    schema = {"id": str, "index": int, "ref_words": list[str], "p_mdl_seq": list,
              "h_dec_seq": list}  # ``_rows`` checks the numbers of the rows
    for record in read_records(path, "utterance", schema, start=2):
        try:
            ref = tokenize(vocab, record["ref_words"])
            p_mdl = _rows(record["p_mdl_seq"], (ref.size, vocab.size), "model rows 'p_mdl_seq'")
            h_dec = _rows(record["h_dec_seq"], (ref.size, meta["state_dim"]),
                          "decoder states 'h_dec_seq'")
            off_simplex(p_mdl, "model rows 'p_mdl_seq'")
        except ValueError as exc:
            raise ValueError(f"{path}: utterance {record['id']}: {exc}") from None
        corpus.append(SimUtterance(record["id"], record["index"], ref, p_mdl, h_dec))
    if len(corpus) != meta["n_utterances"]:
        raise ValueError(f"{path}: the meta line says {meta['n_utterances']} utterances, "
                         f"but the file holds {len(corpus)}")
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
    initial character and belong to neither inventory.  A size larger than the
    distinct words its pools and lengths allow is rejected before any draw (the
    rare initials must stay out of the common alphabet, or common words could
    use up rare ones).
    """
    for key, size in (("n_common", n_common), ("n_rare", n_rare), ("n_confused", n_confused)):
        NON_NEGATIVE.require(size, key)
    if n_confused > n_rare:
        raise ValueError(f"n_confused must be at most n_rare ({n_rare}): cannot confuse more "
                         f"words than the rare inventory holds, got {n_confused}")
    for key, size, first_pool, rest_pool in (
            ("n_common", n_common, common_alphabet, common_alphabet),
            ("n_rare", n_rare, rare_initials, rare_internal)):
        limit = sum(len(set(first_pool)) * len(set(rest_pool)) ** (n - 1)
                    for n in range(min_len, max_len + 1))
        if size > limit:
            raise ValueError(f"{key} must be at most {limit}, the distinct words its pools "
                             f"and lengths allow, got {size}")
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
