"""Training objectives for the copy module and their analytic gradients.

Two bias-specific losses train the module directly: a weighted binary
cross-entropy that teaches the gate to fire exactly on bias-word positions,
and a cross-entropy on the bias distribution masked to those positions.
The recognizer's own cross-entropy (applied to the scaled interpolation
output) is kept as the baseline objective.  A central finite-difference
harness verifies every gradient path.

Position indexing is 0-based.  Per-utterance losses and gradients are plain
sums over positions; ``grad`` sums them over the batch (so duplicating an
utterance doubles the gradient) and leaves any batch-size normalization to
the caller.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .biastrie import PrefixTree
from .metrics import gate_counts
from .pointer import (
    PgParams, StepOutput, check_fit, flatten, masked_forward, state_terms, unflatten,
)
from .simulator import Range, check, off_simplex
from .tokenizer import TokenizedUtterance, Vocab

LOG_FLOOR = 1e-12

TWO_LOSS = "two_loss"
ASR = "asr"
MODES = (TWO_LOSS, ASR)
ALPHA = Range(0, 1, "()")  # the gate loss's weight on bias positions; TrainConfig.alpha's range


class DivergenceError(ValueError):
    """A gradient or loss stopped being finite during optimization."""


@dataclass
class LossReport:
    """Loss values summed over a batch; ``total`` follows the training mode."""

    l_asr: float
    l_gen: float
    l_ptr: float
    total: float
    n_clamped: int = 0
    gate_rates: dict | None = None


@dataclass(frozen=True)
class BiasExample:
    """One utterance prepared for teacher-forced training.

    ``allowed[i]`` flags over the vocabulary the bias-continuation set after
    the reference's first i tokens, and ``mask[i]`` whether position i is on
    the bias mask; at every masked position the gold token is allowed.
    """

    utt_id: str
    tokens: tuple[int, ...]
    h_seq: np.ndarray
    p_mdl_seq: np.ndarray
    allowed: np.ndarray
    mask: np.ndarray


def bias_positions(ref: TokenizedUtterance, bias_words: set[str]) -> np.ndarray:
    """Flags the token positions of reference words that are on the bias list."""
    mask = np.zeros(ref.size, dtype=bool)
    for word_idx, start, end in ref.word_spans:
        if ref.words[word_idx] in bias_words:
            mask[start:end] = True
    return mask


def prepare_example(vocab: Vocab, utt_id: str, ref: TokenizedUtterance, h_seq: np.ndarray,
                    p_mdl_seq: np.ndarray, bias_words: list[str], tree: PrefixTree) -> BiasExample:
    """Bundle an utterance with its bias mask and its trie's teacher-forced valid sets."""
    h_seq = np.asarray(h_seq, dtype=np.float64)
    p_mdl_seq = np.asarray(p_mdl_seq, dtype=np.float64)
    if p_mdl_seq.shape != (ref.size, vocab.size) or h_seq.ndim != 2 or len(h_seq) != ref.size:
        raise ValueError(
            f"utterance {utt_id}: base-model rows {p_mdl_seq.shape} and decoder states "
            f"{h_seq.shape} do not fit {ref.size} tokens over a vocabulary of {vocab.size}"
        )
    mask = bias_positions(ref, set(w.lower() for w in bias_words))
    return BiasExample(utt_id, ref.tokens, h_seq, p_mdl_seq, tree.walk(ref.tokens)[1], mask)


def _floored_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_FLOOR))


def loss_asr(p_seq: np.ndarray, ref: TokenizedUtterance) -> float:
    """Negative log-likelihood of the reference under per-step distributions."""
    p_seq = np.asarray(p_seq, dtype=np.float64)
    if p_seq.shape[0] != ref.size:
        raise ValueError("probability rows do not match the reference length")
    off_simplex(p_seq, "probability rows")
    return float(-np.sum(_floored_log(p_seq[np.arange(ref.size), list(ref.tokens)])))


def loss_gen(p_gen_seq: np.ndarray, mask: np.ndarray, alpha: float) -> float:
    """Weighted binary cross-entropy of the gate against the bias mask.

    Positions on the mask are weighted by ``alpha`` and positions off it by
    ``1 - alpha``; an alpha above 0.5 favors the minority (bias) class.
    """
    ALPHA.require(alpha, "alpha")
    p_gen_seq = np.asarray(p_gen_seq, dtype=np.float64)
    if p_gen_seq.shape[0] != len(mask):
        raise ValueError("gate sequence does not match the mask length")
    return float(-np.sum(np.where(
        mask, alpha * _floored_log(p_gen_seq), (1.0 - alpha) * _floored_log(1.0 - p_gen_seq)
    )))


def loss_ptr(step_outputs: list[StepOutput], ref: TokenizedUtterance, mask: np.ndarray) -> float:
    """Cross-entropy of the bias distribution at the positions ``mask`` flags only."""
    total = 0.0
    for i in np.flatnonzero(mask).tolist():
        gold = ref.tokens[i]
        if gold not in step_outputs[i].valid:
            raise ValueError(f"mask/trie inconsistency at position {i}")
        total -= float(_floored_log(step_outputs[i].p_ptr[gold]))
    return total


def mode_total(mode: str, l_gen: float, l_ptr: float, l_asr: float) -> float:
    return l_gen + l_ptr if mode == TWO_LOSS else l_asr


# Utterances per kernel group.  A pass holds (vocabulary, positions) logits
# for one group at a time, so a pass over a whole split stays near the memory
# of 32 utterances.  On a 2-vCPU Xeon, ten rounds of AC-4 ``fit`` at each size
# took a median 176 ms at 32, 185 ms at 64, 196 ms at 128 and 200 ms at 16.
GROUP_SIZE = 32

# Elements of a block's probe-stacked (V, n·T) arrays.  Every probe carries
# its own logits of a group, so ``fd_check`` sizes its blocks of ±step probe
# pairs from the batch's largest group to stay within this budget, with at
# least one pair per block.  2^16 is the smallest power of two that runs each
# of AC-1's checks (at most 338 probes of 176 elements) in one forward per
# group.  On a 2-vCPU Xeon the benchmark's ``fdcheck`` job took (min of 30
# jobs, 3 fresh processes each) 72-78 ms at 2^13, 65-73 ms at 2^14, 65-68 ms
# at 2^15, 64-70 ms at 2^16 and 65-66 ms at 2^17 and 2^18, against 74-78 ms
# with fixed blocks of 32 pairs: smaller blocks pay more forwards, larger ones
# only more memory.
PROBE_ELEMENTS = 2 ** 16
FD_STEP = Range(1e-7, 1e-3, "[]")  # the central-difference steps ``fd_check`` takes

LOSS_KEYS = ("l_gen", "l_ptr", "l_asr")


@dataclass(frozen=True, eq=False)
class Pack:
    """A batch of examples padded once to its longest utterance, or some of
    its rows; ``pack`` builds one, and only ``pack`` reads the examples.

    The arrays hold a row per example, copied from the example's own arrays:
    ``allowed`` (B, T, V) its valid-set rows over the vocabulary and
    ``valid_count`` their counts, ``gold`` (B, T) the gold token ids,
    ``in_mask`` the bias mask, ``p_mdl_gold`` the base model's probability of
    each gold token, ``h`` the decoder states and ``lengths`` each
    utterance's length; ``utt_ids`` names each row's utterance, for error
    messages and traces.  A padded position has no valid set, gold token 0
    at probability 1 and zero states, so every padded term is 0.  ``rows``
    are the rows this pack holds, in order: ``take`` selects among them
    without copying, and ``_groups`` copies them out a group at a time, with
    ``allowed`` transposed to the kernel's vocabulary-first (V, n·T).
    """

    utt_ids: tuple[str, ...]
    allowed: np.ndarray
    valid_count: np.ndarray
    gold: np.ndarray
    in_mask: np.ndarray
    p_mdl_gold: np.ndarray
    h: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, rows) -> Pack:
        """These rows of this pack, in the order given; shares the arrays."""
        return replace(self, rows=self.rows[np.asarray(rows, dtype=np.intp)])

    @property
    def real(self) -> np.ndarray:
        """Flags the positions of this pack's rows that exist."""
        return np.arange(self.in_mask.shape[1]) < self.lengths[self.rows, None]


def _culprit(utt_ids: Sequence[str], ok: np.ndarray) -> str:
    """The id of the first row whose ``ok`` flags are not all true."""
    return utt_ids[int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))]


def pack(examples: Pack | Sequence[BiasExample]) -> Pack:
    """Pad a batch once for the kernel; a ``Pack`` is returned as it is.

    Every input check runs here, once: rejects examples whose base-model
    rows or decoder states differ in width from the first's (padding would
    hide a narrower one), non-finite inputs (``DivergenceError``) and a
    masked position whose gold token is not in its valid set, each naming
    the utterance.
    """
    if isinstance(examples, Pack):
        return examples
    examples = tuple(examples)
    widths = [(np.shape(ex.p_mdl_seq)[1:], np.shape(ex.h_seq)[1:]) for ex in examples]
    for ex, width in zip(examples, widths):
        if width != widths[0]:
            first = examples[0]
            raise ValueError(
                f"utterance {ex.utt_id}: base-model rows {np.shape(ex.p_mdl_seq)} and decoder "
                f"states {np.shape(ex.h_seq)} differ in width from utterance {first.utt_id}'s "
                f"{np.shape(first.p_mdl_seq)[-1]} tokens and decoder states of width "
                f"{np.shape(first.h_seq)[-1]}")
    vocab, state = widths[0] if widths else ((0,), (0,))
    utt_ids = tuple(ex.utt_id for ex in examples)
    lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.intp)
    shape = (len(examples), int(lengths.max(initial=0)))
    allowed = np.zeros((*shape, *vocab), dtype=bool)
    in_mask = np.zeros(shape, dtype=bool)
    gold = np.zeros(shape, dtype=np.intp)
    p_mdl_gold = np.ones(shape)
    h = np.zeros((*shape, *state))
    for b, ex in enumerate(examples):
        size = len(ex.tokens)
        allowed[b, :size] = ex.allowed
        in_mask[b, :size] = ex.mask
        gold[b, :size] = ex.tokens
        p_mdl_gold[b, :size] = ex.p_mdl_seq[np.arange(size), gold[b, :size]]
        h[b, :size] = ex.h_seq
    finite = np.isfinite(h).all(axis=2) & np.isfinite(p_mdl_gold)
    if not finite.all():
        raise DivergenceError(f"non-finite input on utterance {_culprit(utt_ids, finite)}")
    inconsistent = in_mask & ~np.take_along_axis(allowed, gold[..., None], axis=2)[..., 0]
    if inconsistent.any():
        b, i = np.argwhere(inconsistent)[0]
        raise ValueError(f"mask/trie inconsistency at position {i} of utterance {utt_ids[b]}")
    return Pack(utt_ids, allowed, allowed.sum(axis=2), gold, in_mask, p_mdl_gold, h,
                lengths, np.arange(len(examples)))


def _groups(batch: Pack | Sequence[BiasExample]) -> Iterator[Pack]:
    """The batch's rows ``GROUP_SIZE`` at a time, each group copied out of
    the pack, with its rows' ids, when it is reached and trimmed to its own
    longest utterance; a group's ``allowed`` is (V, n·T), vocabulary first."""
    packed = pack(batch)
    for start in range(0, len(packed), GROUP_SIZE):
        rows = packed.rows[start:start + GROUP_SIZE]
        seq = int(packed.lengths[rows].max())
        yield Pack(tuple(packed.utt_ids[r] for r in rows),
                   packed.allowed[rows, :seq].reshape(len(rows) * seq, -1).T.copy(),
                   *(array[rows, :seq] for array in (packed.valid_count, packed.gold,
                                                     packed.in_mask, packed.p_mdl_gold,
                                                     packed.h)),
                   packed.lengths[rows], np.arange(len(rows)))


def _group_pass(
    params: PgParams,
    group: Pack,
    mode: str,
    alpha: float,
    grad_out: np.ndarray | None,
) -> tuple[dict[str, np.ndarray], int]:
    """Every position of a group (from ``_groups``) at once; adds the
    gradient into ``grad_out``, a vector in ``flatten``'s layout.

    The parameters may carry leading probe axes (``unflatten`` of a stack of
    vectors); every per-position term then carries them in front.  Only
    unstacked parameters take a gradient.
    """
    allowed, gold, in_mask, p_mdl_gold, h = (
        group.allowed, group.gold, group.in_mask, group.p_mdl_gold, group.h,
    )
    n, seq = in_mask.shape
    has_valid = group.valid_count > 0

    # forward: softmax over each position's allowed rows, gate
    terms = state_terms(params, h.reshape(n * seq, -1))
    lead = terms.gate_token.shape[:-1]
    p, gate_ctx, gate = masked_forward(terms.query_logits, terms.gate_state,
                                       terms.gate_token, allowed)
    gate = gate.reshape(*lead, n, seq)

    # floored losses; positions off the mask with a valid set train the gate
    # shut; the gold token's bias probability (read at one flat index per
    # position) is 0 where it is not allowed
    at_gold = gold.ravel() * (n * seq) + np.arange(n * seq)
    ptr_gold = p.reshape(*lead, -1)[..., at_gold].reshape(*lead, n, seq)
    off = has_valid & ~in_mask
    p_final = p_mdl_gold * (1.0 - gate) + ptr_gold * gate
    gate_floor = gate < LOG_FLOOR
    shut_floor = 1.0 - gate < LOG_FLOOR
    ptr_floor = ptr_gold < LOG_FLOOR
    final_floor = p_final < LOG_FLOOR
    found = {
        "p_gen": gate,
        "p_ptr_gold": ptr_gold,
        "l_gen": np.where(
            in_mask,
            -alpha * _floored_log(gate),
            np.where(off, -(1.0 - alpha) * _floored_log(1.0 - gate), 0.0),
        ),
        "l_ptr": np.where(in_mask, -_floored_log(ptr_gold), 0.0),
        "l_asr": -_floored_log(p_final),
        "valid_count": group.valid_count,
        "in_mask": in_mask,
    }
    floored = (in_mask & gate_floor, in_mask & ptr_floor, off & shut_floor, final_floor)
    n_clamped = sum(int(np.count_nonzero(f)) for f in floored)

    if grad_out is None:
        return found, n_clamped

    # gradient seeds match the floored losses: a floored log contributes 0;
    # the bias logits get d_z = coef * (onehot(gold) - p)
    if mode == TWO_LOSS:
        d_pre = np.where(in_mask & ~gate_floor, -alpha * (1.0 - gate), 0.0) + np.where(
            off & ~shut_floor, (1.0 - alpha) * gate, 0.0
        )
        coef = np.where(in_mask & ~ptr_floor, -1.0, 0.0)
    else:
        live = has_valid & ~final_floor
        inv = -1.0 / np.where(live, p_final, 1.0)
        d_pre = np.where(live, inv * (ptr_gold - p_mdl_gold) * gate * (1.0 - gate), 0.0)
        coef = np.where(live, inv * gate * ptr_gold, 0.0)
    found["d_gate_pre"] = d_pre

    # backward in (V, n·T) vocabulary space; the context reaches the loss
    # only through the gate, as the bias weights' average of ``gate_token``:
    # d_z = p * (gate_token d_pre - (d_pre gate_ctx + coef)), plus coef at
    # gold; the bracket is one rank-2 product, written over the spent logits
    d_pre, coef = d_pre.ravel(), coef.ravel()
    vocab, state_dim = len(p), params.state_dim
    d_z = np.matmul(np.stack([terms.gate_token, np.full(vocab, -1.0)], axis=1),
                    np.stack([d_pre, d_pre * gate_ctx + coef]), out=terms.query_logits)
    d_z *= p
    d_z.reshape(-1)[at_gold] += coef
    d_query = params.token_embed.T / np.sqrt(params.embed_dim) @ d_z  # (d, n·T)
    # each utterance is reduced on its own by batched matmuls over (n, V, T)
    # views and the utterances are summed in batch order; the context's
    # token-embedding term, p_pre ⊗ w_gate[d_h:], is added after that sum
    by_utt = (n, seq)
    p_pre = p.reshape(vocab, *by_utt).transpose(1, 0, 2) @ d_pre.reshape(*by_utt, 1)  # (n, V, 1)
    per_utt = (
        d_z.reshape(vocab, *by_utt).transpose(1, 0, 2) @ terms.query.reshape(*by_utt, -1),
        d_query.reshape(-1, *by_utt).transpose(1, 0, 2) @ h,
        np.matmul(d_pre.reshape(n, 1, seq), h)[:, 0],
        (p_pre.transpose(0, 2, 1) @ params.token_embed)[:, 0],
        d_pre.reshape(by_utt).sum(axis=1),
    )
    total = flatten(PgParams(
        per_utt[0].sum(axis=0) + p_pre.sum(axis=0) * params.w_gate[state_dim:],
        per_utt[1].sum(axis=0),
        np.concatenate([per_utt[2].sum(axis=0), per_utt[3].sum(axis=0)]), per_utt[4].sum()))
    # each utterance's own terms (p_pre's show in the fourth) are searched only when needed
    finite = np.isfinite(total).all() or np.all(
        [np.isfinite(g).reshape(n, -1).all(axis=1) for g in per_utt], axis=0)
    if not np.all(finite):
        culprit = _culprit(group.utt_ids, finite)
        raise DivergenceError(f"non-finite gradient on utterance {culprit}")
    grad_out += total
    return found, n_clamped


def _loss_sums(found: dict[str, np.ndarray]) -> np.ndarray:
    """``LOSS_KEYS`` of a group's terms, each summed over the group's
    positions: shape (3, *probe axes)."""
    lead = found["p_gen"].shape[:-2]
    return np.array([found[key].reshape(*lead, -1).sum(axis=-1) for key in LOSS_KEYS])


def run_groups(params: PgParams, batch: Pack, mode: str, alpha: float,
               grad_out: np.ndarray | None) -> tuple[np.ndarray, int, list]:
    """The kernel over each group of a batch, unchecked (``teacher_forced`` checks
    first): the ``LOSS_KEYS`` sums, the count of floored logs and each group's
    terms with its ``real`` flags; adds the gradient into ``grad_out`` unless it
    is None."""
    sums = np.zeros(len(LOSS_KEYS))
    n_clamped = 0
    per_group = []
    for group in _groups(batch):
        found, clamped = _group_pass(params, group, mode, alpha, grad_out)
        sums += _loss_sums(found)
        n_clamped += clamped
        per_group.append((found, group.real))
    return sums, n_clamped, per_group


def terms(groups: list[tuple[dict[str, np.ndarray], np.ndarray]]) -> dict[str, np.ndarray]:
    """Each per-position quantity of a teacher-forced pass's ``groups`` as one array over
    all positions, utterances in batch order: the gate ``p_gen`` (0 where the valid set is
    empty), the gold token's bias probability ``p_ptr_gold``, the three loss terms,
    ``valid_count``, ``in_mask`` and, with gradients, ``d_gate_pre``: the derivative of the
    mode's objective in the gate pre-activation, 0 where the log it flows through is floored."""
    keys = groups[0][0] if groups else ()
    return {key: np.concatenate([f[key][real] for f, real in groups]) for key in keys}


def teacher_forced(
    params: PgParams,
    batch: Pack | Sequence[BiasExample],
    mode: str,
    alpha: float,
    want_grad: bool = False,
) -> tuple[LossReport, np.ndarray | None, list]:
    """Teacher-forced pass over a batch (a ``Pack``, or examples packed on entry):
    the report, the gradient in ``flatten``'s layout or None, and the ``terms`` groups.

    Every position's valid set is known from the reference, so a group of
    utterances runs as array operations: ``state_terms`` over vocabulary
    columns, softmax over each valid set, gate, and the floored losses of
    ``loss_gen``, ``loss_ptr`` and ``loss_asr``.  Raises ``ValueError`` on
    an unknown mode, an alpha outside (0, 1), examples whose rows or states
    do not fit the module or a mask/trie inconsistency, and
    ``DivergenceError`` on non-finite parameters or inputs (before
    computing anything) and on a non-finite gradient.
    """
    if mode not in MODES:
        check(mode, Literal[MODES], "mode")
    ALPHA.require(alpha, "alpha")
    base = flatten(params)
    if not np.isfinite(base).all():
        raise DivergenceError("non-finite copy-module parameters")
    batch = pack(batch)
    if len(batch):  # the pack holds every other row to the first one's widths
        first = batch.rows[0]
        size = batch.lengths[first]
        check_fit(params, batch.utt_ids[first], batch.allowed[first, :size], batch.h[first, :size])
    grad_out = np.zeros_like(base) if want_grad else None
    sums, n_clamped, per_group = run_groups(params, batch, mode, alpha, grad_out)
    l_gen, l_ptr, l_asr = map(float, sums)
    report = LossReport(l_asr, l_gen, l_ptr, mode_total(mode, l_gen, l_ptr, l_asr), n_clamped)
    return report, grad_out, per_group


def _rates(terms: dict[str, np.ndarray]) -> dict[str, float]:
    if not terms:  # an empty batch has no positions
        return {"tar": 0.0, "far": 0.0, "tp": 0, "fn": 0, "fp": 0, "tn": 0,
                "mean_gate_on_mask": 0.0}
    gate, on = terms["p_gen"], terms["in_mask"]
    has_valid = terms["valid_count"] > 0
    counts = gate_counts(gate[has_valid], on[has_valid])
    tp, fn, fp, tn = counts.values()
    return {
        "tar": tp / (tp + fn) if tp + fn else 0.0,
        "far": fp / (fp + tn) if fp + tn else 0.0,
        **counts,
        "mean_gate_on_mask": float(gate[on].sum()) / (tp + fn) if tp + fn else 0.0,
    }


def evaluate(params: PgParams, batch: Pack | Sequence[BiasExample], mode: str,
             alpha: float) -> LossReport:
    """Losses summed over a batch, without gradients, and the batch's
    ``gate_rates`` from the same pass."""
    report, _, groups = teacher_forced(params, batch, mode, alpha)
    report.gate_rates = _rates(terms(groups))
    return report


def gate_rates(params: PgParams, batch: Pack | Sequence[BiasExample]) -> dict[str, float]:
    """Teacher-forced gate acceptance rates at ``metrics.GATE_THRESHOLD``.

    Only positions with a nonempty valid set count; the hit rate is over
    masked positions, the false-fire rate over unmasked ones.
    """
    return evaluate(params, batch, TWO_LOSS, 0.5).gate_rates


def grad(
    params: PgParams, batch: Pack | Sequence[BiasExample], mode: str, alpha: float
) -> tuple[PgParams, LossReport]:
    """Analytic gradient of the mode's objective, summed over the batch."""
    report, grad_out, _ = teacher_forced(params, batch, mode, alpha, want_grad=True)
    return unflatten(grad_out, params.shapes), report


def probe_totals(
    probes: np.ndarray,
    shapes: dict[str, tuple[int, ...]],
    groups: list[Pack],
    mode: str,
    alpha: float,
) -> np.ndarray:
    """The mode's total at every parameter vector of ``probes`` (the last
    axis, in ``flatten``'s layout for ``shapes``), one forward per group."""
    stacked = unflatten(probes, shapes)
    sums = np.zeros((len(LOSS_KEYS), *probes.shape[:-1]))
    for group in groups:
        sums += _loss_sums(_group_pass(stacked, group, mode, alpha, None)[0])
    return mode_total(mode, *sums)


def fd_check(
    params: PgParams,
    batch: Pack | Sequence[BiasExample],
    mode: str,
    alpha: float,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The batch is packed once, for the gradient pass and the ±step probes,
    which run in blocks through one forward per group; a block holds as many
    probe pairs as keep its largest group's stacked (V, n·T) arrays within
    ``PROBE_ELEMENTS``, and at least one.
    """
    FD_STEP.require(step, "step")
    batch = pack(batch)
    _, analytic, _ = teacher_forced(params, batch, mode, alpha, want_grad=True)
    groups = list(_groups(batch))
    base = flatten(params)
    pairs = max(1, PROBE_ELEMENTS // (2 * max((g.allowed.size for g in groups), default=1)))
    worst = 0.0
    for start in range(0, base.size, pairs):
        cols = np.arange(start, min(start + pairs, base.size))
        rows = np.arange(cols.size)
        probes = np.tile(base, (2, cols.size, 1))
        probes[0, rows, cols] += step
        probes[1, rows, cols] -= step
        up, down = probe_totals(probes, params.shapes, groups, mode, alpha)
        numeric = (up - down) / (2.0 * step)
        scale = np.maximum(np.maximum(abs(analytic[cols]), abs(numeric)), 1e-8)
        worst = max(worst, np.max(abs(analytic[cols] - numeric) / scale))
    return worst


def step_trace(
    params: PgParams, batch: Pack | Sequence[BiasExample], mode: str, alpha: float
) -> list[dict]:
    """Per-step diagnostic records: losses, gate, and the gate gradient seed.

    One record per (utterance, position); the per-step loss fields sum to the
    batch report of ``evaluate`` and ``d_gate_pre`` sums to the ``b_gate``
    component of ``grad``.
    """
    batch = pack(batch)
    found = terms(teacher_forced(params, batch, mode, alpha, want_grad=True)[2])
    columns = {key: values.tolist() for key, values in found.items()}
    steps = [(batch.utt_ids[r], i) for r in batch.rows for i in range(batch.lengths[r])]
    return [
        {"utt": utt, "step": i, **{key: values[j] for key, values in columns.items()}}
        for j, (utt, i) in enumerate(steps)
    ]

