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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .biastrie import PrefixTree, TrieCursor, advance_cursor, build_trie, valid_set
from .metrics import gate_counts
from .pointer import PgParams, StepOutput, flatten, sigmoid, state_terms, unflatten
from .tokenizer import TokenizedUtterance, Vocab

LOG_FLOOR = 1e-12

TWO_LOSS = "two_loss"
ASR = "asr"
MODES = (TWO_LOSS, ASR)


class DivergenceError(ValueError):
    """A gradient or loss stopped being finite during optimization."""


@dataclass(frozen=True)
class BiasMask:
    """Token positions lying inside reference words that are on the bias list."""

    positions: frozenset[int]
    size: int

    def flags(self) -> np.ndarray:
        """Whether each position is on the mask, as a boolean array."""
        out = np.zeros(self.size, dtype=bool)
        out[sorted(self.positions)] = True
        return out


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

    ``valid_sets[i]`` is the bias-continuation set at position i when the
    reference prefix has been consumed; at every masked position the gold
    token is guaranteed to be a member.
    """

    utt_id: str
    tokens: tuple[int, ...]
    h_seq: np.ndarray
    p_mdl_seq: np.ndarray
    valid_sets: tuple[tuple[int, ...], ...]
    mask: BiasMask

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(allowed, in_mask)``: each position's valid set as a row of
        flags over the vocabulary (as wide as the base model's rows), and
        the bias-mask flags.  Built on the first pass from the immutable
        valid sets and mask, and reused by every later pass."""
        allowed = np.zeros(np.shape(self.p_mdl_seq), dtype=bool)
        for row, valid in zip(allowed, self.valid_sets):
            row[list(valid)] = True
        return allowed, self.mask.flags()


def bias_positions(ref: TokenizedUtterance, bias_words: set[str]) -> BiasMask:
    """All token positions of reference words that are on the bias list."""
    positions: set[int] = set()
    for word_idx, start, end in ref.word_spans:
        if ref.words[word_idx] in bias_words:
            positions.update(range(start, end))
    return BiasMask(frozenset(positions), ref.size)


def teacher_valid_sets(tree: PrefixTree, tokens: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Valid bias sets along the reference, advancing the cursor with gold tokens."""
    cursor = TrieCursor()
    out = []
    for tok in tokens:
        out.append(tuple(valid_set(tree, cursor)))
        cursor = advance_cursor(tree, cursor, tok)
    return tuple(out)


def prepare_example(
    vocab: Vocab,
    utt_id: str,
    ref: TokenizedUtterance,
    h_seq: np.ndarray,
    p_mdl_seq: np.ndarray,
    bias_words: list[str],
) -> BiasExample:
    """Bundle an utterance with its bias trie, mask, and teacher-forced sets."""
    h_seq = np.asarray(h_seq, dtype=np.float64)
    p_mdl_seq = np.asarray(p_mdl_seq, dtype=np.float64)
    if h_seq.shape[0] != ref.size or p_mdl_seq.shape[0] != ref.size:
        raise ValueError(f"utterance {utt_id}: sequence length mismatch")
    tree = build_trie(vocab, list(bias_words))
    mask = bias_positions(ref, set(w.lower() for w in bias_words))
    sets = teacher_valid_sets(tree, ref.tokens)
    return BiasExample(utt_id, ref.tokens, h_seq, p_mdl_seq, sets, mask)


def _floored_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_FLOOR))


def loss_asr(p_seq: np.ndarray, ref: TokenizedUtterance) -> float:
    """Negative log-likelihood of the reference under per-step distributions."""
    p_seq = np.asarray(p_seq, dtype=np.float64)
    if p_seq.shape[0] != ref.size:
        raise ValueError("probability rows do not match the reference length")
    if np.any(np.abs(p_seq.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probability rows must sum to 1")
    return float(-np.sum(_floored_log(p_seq[np.arange(ref.size), list(ref.tokens)])))


def loss_gen(p_gen_seq: np.ndarray, mask: BiasMask, alpha: float) -> float:
    """Weighted binary cross-entropy of the gate against the bias mask.

    Positions on the mask are weighted by ``alpha`` and positions off it by
    ``1 - alpha``; an alpha above 0.5 favors the minority (bias) class.
    """
    check_alpha(alpha)
    p_gen_seq = np.asarray(p_gen_seq, dtype=np.float64)
    if p_gen_seq.shape[0] != mask.size:
        raise ValueError("gate sequence does not match the mask length")
    on = mask.flags()
    return float(-np.sum(np.where(
        on, alpha * _floored_log(p_gen_seq), (1.0 - alpha) * _floored_log(1.0 - p_gen_seq)
    )))


def loss_ptr(step_outputs: list[StepOutput], ref: TokenizedUtterance, mask: BiasMask) -> float:
    """Cross-entropy of the bias distribution at masked positions only."""
    total = 0.0
    for i in sorted(mask.positions):
        gold = ref.tokens[i]
        if gold not in step_outputs[i].valid:
            raise ValueError(f"mask/trie inconsistency at position {i}")
        total -= float(_floored_log(step_outputs[i].p_ptr[gold]))
    return total


def _mode_total(mode: str, l_gen: float, l_ptr: float, l_asr: float) -> float:
    if mode == TWO_LOSS:
        return l_gen + l_ptr
    if mode == ASR:
        return l_asr
    raise ValueError(f"unknown loss mode {mode!r}")


# Utterances per kernel group.  A pass holds (utterances, positions,
# vocabulary) logits for one group at a time, so a pass over a whole split
# stays near the memory of one minibatch.
GROUP_SIZE = 16

# Parameter vectors per finite-difference forward: 32 parameters, each
# stepped up and down.  Every probe carries its own (utterances, positions,
# vocabulary) logits of a group, so ``fd_check`` runs its probes in blocks of
# this size rather than all 2 x (parameter count) at once.
PROBE_BLOCK = 64

LOSS_KEYS = ("l_gen", "l_ptr", "l_asr")


def check_alpha(alpha: float) -> None:
    """Reject a gate-loss weight outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class PaddedGroup:
    """A few utterances padded to their own longest utterance.

    ``allowed`` and ``in_mask`` stack the examples' ``packed`` arrays,
    ``gold`` their tokens, ``p_mdl_gold`` the base model's probability of
    each gold token, ``h`` their decoder states, and ``real`` flags the
    positions that exist.
    """

    examples: list[BiasExample]
    allowed: np.ndarray
    in_mask: np.ndarray
    gold: np.ndarray
    p_mdl_gold: np.ndarray
    h: np.ndarray
    real: np.ndarray


@dataclass
class TeacherForced:
    """Result of one teacher-forced pass over a batch.

    ``terms()`` gives every per-position quantity of the pass as one array
    over all positions, utterances in batch order: the gate ``p_gen`` (0
    where the valid set is empty), the bias probability of the gold token
    ``p_ptr_gold``, the three loss terms, ``valid_count``, ``in_mask`` and,
    in a pass with gradients, ``d_gate_pre``: the derivative of the mode's
    objective with respect to the gate pre-activation, 0 where the log it
    flows through is floored.
    """

    report: LossReport
    grads: PgParams | None
    groups: list[tuple[dict[str, np.ndarray], np.ndarray]] = field(repr=False)

    def terms(self) -> dict[str, np.ndarray]:
        keys = self.groups[0][0] if self.groups else ()
        return {key: np.concatenate([f[key][real] for f, real in self.groups]) for key in keys}


def _pad(rows: list[np.ndarray], fill: float) -> np.ndarray:
    """Stack arrays along a new first axis, padding every other axis to the longest."""
    shape = tuple(map(max, zip(*(r.shape for r in rows))))
    out = np.full((len(rows), *shape), fill, rows[0].dtype)
    for b, row in enumerate(rows):
        out[(b, *map(slice, row.shape))] = row
    return out


def _culprit(group: list[BiasExample], ok: np.ndarray) -> BiasExample:
    """The first utterance whose ``ok`` flags are not all true."""
    return group[int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))]


def _pad_group(group: list[BiasExample]) -> PaddedGroup:
    """Pad a group for ``_group_pass``; rejects non-finite inputs and a
    masked position whose gold token is not in its valid set."""
    allowed, in_mask = (_pad(list(column), False) for column in zip(*(ex.packed for ex in group)))
    gold = _pad([np.array(ex.tokens, dtype=np.intp) for ex in group], 0)
    # padded positions have a certain gold token, so every padded term is 0
    p_mdl_gold = _pad([ex.p_mdl_seq[np.arange(len(ex.tokens)), list(ex.tokens)]
                       for ex in group], 1.0)
    h = _pad([ex.h_seq for ex in group], 0.0)
    real = np.arange(gold.shape[1]) < np.array([len(ex.tokens) for ex in group])[:, None]
    finite = np.isfinite(h).all(axis=2) & np.isfinite(p_mdl_gold)
    if not finite.all():
        raise DivergenceError(f"non-finite input on utterance {_culprit(group, finite).utt_id}")
    inconsistent = in_mask & ~np.take_along_axis(allowed, gold[..., None], axis=2)[..., 0]
    if inconsistent.any():
        b, i = np.argwhere(inconsistent)[0]
        raise ValueError(f"mask/trie inconsistency at position {i} of utterance {group[b].utt_id}")
    return PaddedGroup(group, allowed, in_mask, gold, p_mdl_gold, h, real)


def _group_pass(
    params: PgParams,
    padded: PaddedGroup,
    mode: str,
    alpha: float,
    grads: PgParams | None,
) -> tuple[dict[str, np.ndarray], int]:
    """Every position of a padded group at once; adds the gradient into ``grads``.

    The parameters may carry leading probe axes (``unflatten`` of a stack of
    vectors); every per-position term then carries them in front.  Only
    unstacked parameters take a gradient.
    """
    allowed, in_mask, gold, p_mdl_gold, h = (
        padded.allowed, padded.in_mask, padded.gold, padded.p_mdl_gold, padded.h,
    )
    n, seq, vocab = allowed.shape
    has_valid = allowed.any(axis=2)

    # forward: softmax over each position's allowed columns, gate
    terms = state_terms(params, h.reshape(n * seq, -1))
    lead = terms.gate_token.shape[:-1]
    logits = terms.query_logits.reshape(*lead, n, seq, vocab)
    top = np.where(allowed, logits, -np.inf).max(axis=-1, keepdims=True, initial=-np.inf)
    top[..., ~has_valid, :] = 0.0
    # exp never sees -inf, an argument that takes a path several times slower
    p = np.where(allowed, np.exp(np.where(allowed, logits - top, 0.0)), 0.0)
    norm = p.sum(axis=-1, keepdims=True)
    norm[..., ~has_valid, :] = 1.0
    p /= norm
    gate_ctx = (p @ terms.gate_token[..., None, :, None])[..., 0]
    gate = np.where(has_valid, sigmoid(terms.gate_state.reshape(*lead, n, seq) + gate_ctx), 0.0)

    # floored losses; positions off the mask with a valid set train the gate
    # shut; the gold token's bias probability is 0 where it is not allowed
    onehot = np.arange(vocab) == gold[..., None]
    ptr_gold = p[..., onehot].reshape(p.shape[:-1])
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
        "valid_count": allowed.sum(axis=2),
        "in_mask": in_mask,
    }
    floored = (in_mask & gate_floor, in_mask & ptr_floor, off & shut_floor, final_floor)
    n_clamped = sum(int(np.count_nonzero(f)) for f in floored)

    if grads is None:
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

    # backward in vocabulary space; the context reaches the loss only
    # through the gate, as the bias weights' average of ``gate_token``
    sqrt_d = np.sqrt(params.embed_dim)
    d_z = coef[..., None] * (onehot - p) + p * (
        d_pre[..., None] * (terms.gate_token - gate_ctx[..., None])
    )
    d_query = d_z @ params.token_embed / sqrt_d
    # each utterance is reduced on its own by batched matmuls, and the
    # utterances are summed in batch order
    p_pre = np.matmul(d_pre[:, None, :], p)  # (n, 1, V): sum over t of p * d_pre
    state_dim = params.state_dim
    per_utt = (
        np.matmul(d_z.transpose(0, 2, 1), terms.query.reshape(n, seq, -1)) / sqrt_d
        + p_pre.transpose(0, 2, 1) * params.w_gate[state_dim:],
        np.matmul(d_query.transpose(0, 2, 1), h),
        np.matmul(d_pre[:, None, :], h)[:, 0],
        np.matmul(p_pre, params.token_embed)[:, 0],
        d_pre.sum(axis=1),
    )
    finite = np.all([np.isfinite(g).reshape(n, -1).all(axis=1) for g in per_utt], axis=0)
    if not finite.all():
        culprit = _culprit(padded.examples, finite)
        raise DivergenceError(f"non-finite gradient on utterance {culprit.utt_id}")
    grads.token_embed += per_utt[0].sum(axis=0)
    grads.w_query += per_utt[1].sum(axis=0)
    grads.w_gate[:state_dim] += per_utt[2].sum(axis=0)
    grads.w_gate[state_dim:] += per_utt[3].sum(axis=0)
    grads.b_gate += float(per_utt[4].sum())
    return found, n_clamped


def _loss_sums(found: dict[str, np.ndarray]) -> np.ndarray:
    """``LOSS_KEYS`` of a group's terms, each summed over the group's
    positions: shape (3, *probe axes)."""
    lead = found["p_gen"].shape[:-2]
    return np.array([found[key].reshape(*lead, -1).sum(axis=-1) for key in LOSS_KEYS])


def _groups(batch: list[BiasExample]) -> Iterator[PaddedGroup]:
    """The batch in groups of ``GROUP_SIZE``, each padded when it is reached."""
    for start in range(0, len(batch), GROUP_SIZE):
        yield _pad_group(batch[start:start + GROUP_SIZE])


def teacher_forced(
    params: PgParams,
    batch: list[BiasExample],
    mode: str,
    alpha: float,
    want_grad: bool = False,
) -> TeacherForced:
    """Teacher-forced forward (and optional backward) over a batch.

    Every position's valid set is known from the reference, so a group of
    utterances runs as array operations: ``state_terms`` over vocabulary
    columns, softmax over each valid set, gate, and the floored losses of
    ``loss_gen``, ``loss_ptr`` and ``loss_asr``.  Raises ``ValueError`` on an unknown mode or an alpha
    outside (0, 1), and ``DivergenceError`` on non-finite parameters or
    inputs (before computing anything) and on a non-finite gradient.
    """
    return _teacher_forced(params, _groups(batch), mode, alpha, want_grad)


def _teacher_forced(
    params: PgParams,
    groups: Iterable[PaddedGroup],
    mode: str,
    alpha: float,
    want_grad: bool,
) -> TeacherForced:
    _mode_total(mode, 0.0, 0.0, 0.0)
    check_alpha(alpha)
    base = flatten(params)
    if not np.isfinite(base).all():
        raise DivergenceError("non-finite copy-module parameters")
    grads = unflatten(np.zeros_like(base), params.shapes) if want_grad else None
    sums = np.zeros(len(LOSS_KEYS))
    n_clamped = 0
    per_group = []
    for padded in groups:
        found, clamped = _group_pass(params, padded, mode, alpha, grads)
        sums += _loss_sums(found)
        n_clamped += clamped
        per_group.append((found, padded.real))
    l_gen, l_ptr, l_asr = map(float, sums)
    report = LossReport(l_asr, l_gen, l_ptr, _mode_total(mode, l_gen, l_ptr, l_asr), n_clamped)
    return TeacherForced(report, grads, per_group)


def _rates(terms: dict[str, np.ndarray], threshold: float) -> dict[str, float]:
    if not terms:  # an empty batch has no positions
        return {"tar": 0.0, "far": 0.0, "tp": 0, "fn": 0, "fp": 0, "tn": 0,
                "mean_gate_on_mask": 0.0}
    gate, on = terms["p_gen"], terms["in_mask"]
    has_valid = terms["valid_count"] > 0
    counts = gate_counts(gate[has_valid], on[has_valid], threshold)
    tp, fn, fp, tn = counts.values()
    return {
        "tar": tp / (tp + fn) if tp + fn else 0.0,
        "far": fp / (fp + tn) if fp + tn else 0.0,
        **counts,
        "mean_gate_on_mask": float(gate[on].sum()) / (tp + fn) if tp + fn else 0.0,
    }


def evaluate(
    params: PgParams,
    batch: list[BiasExample],
    mode: str,
    alpha: float,
    gate_threshold: float | None = None,
) -> LossReport:
    """Losses summed over a batch, without gradients.

    With ``gate_threshold`` the report also carries the batch's
    ``gate_rates`` at that boundary, from the same pass.
    """
    out = teacher_forced(params, batch, mode, alpha)
    if gate_threshold is not None:
        out.report.gate_rates = _rates(out.terms(), gate_threshold)
    return out.report


def gate_rates(
    params: PgParams, batch: list[BiasExample], threshold: float = 0.5
) -> dict[str, float]:
    """Teacher-forced gate acceptance rates at the decision boundary.

    Only positions with a nonempty valid set count; the hit rate is over
    masked positions, the false-fire rate over unmasked ones.
    """
    return _rates(teacher_forced(params, batch, TWO_LOSS, 0.5).terms(), threshold)


def grad(
    params: PgParams, batch: list[BiasExample], mode: str, alpha: float
) -> tuple[PgParams, LossReport]:
    """Analytic gradient of the mode's objective, summed over the batch."""
    out = teacher_forced(params, batch, mode, alpha, want_grad=True)
    return out.grads, out.report


def probe_totals(
    probes: np.ndarray,
    shapes: dict[str, tuple[int, ...]],
    groups: list[PaddedGroup],
    mode: str,
    alpha: float,
) -> np.ndarray:
    """The mode's total at every parameter vector of ``probes`` (the last
    axis, in ``flatten``'s layout for ``shapes``), one forward per group."""
    stacked = unflatten(probes, shapes)
    sums = np.zeros((len(LOSS_KEYS), *probes.shape[:-1]))
    for padded in groups:
        sums += _loss_sums(_group_pass(stacked, padded, mode, alpha, None)[0])
    return _mode_total(mode, *sums)


def fd_check(
    params: PgParams,
    batch: list[BiasExample],
    mode: str,
    alpha: float,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The gradient pass pads the batch once; the ±step probes then run
    ``PROBE_BLOCK`` at a time through one forward per group.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"finite-difference step {step} outside [1e-7, 1e-3]")
    groups = list(_groups(batch))
    analytic = flatten(_teacher_forced(params, groups, mode, alpha, want_grad=True).grads)
    base = flatten(params)
    worst = 0.0
    for start in range(0, base.size, PROBE_BLOCK // 2):
        cols = np.arange(start, min(start + PROBE_BLOCK // 2, base.size))
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
    params: PgParams, batch: list[BiasExample], mode: str, alpha: float
) -> list[dict]:
    """Per-step diagnostic records: losses, gate, and the gate gradient seed.

    One record per (utterance, position); the per-step loss fields sum to the
    batch report of ``evaluate`` and ``d_gate_pre`` sums to the ``b_gate``
    component of ``grad``.
    """
    found = teacher_forced(params, batch, mode, alpha, want_grad=True).terms()
    columns = {key: values.tolist() for key, values in found.items()}
    steps = [(ex.utt_id, i) for ex in batch for i in range(len(ex.tokens))]
    return [
        {"utt": utt, "step": i, **{key: values[j] for key, values in columns.items()}}
        for j, (utt, i) in enumerate(steps)
    ]

