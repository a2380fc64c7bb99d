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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .biastrie import PrefixTree, TrieCursor, advance_cursor, build_trie, valid_set
from .metrics import gate_counts
from .pointer import PgParams, StepOutput, flatten, sigmoid, unflatten
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
        """Mask membership of every position as a boolean array."""
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


@dataclass
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
    def packed(self) -> tuple[np.ndarray, ...]:
        """The loss kernel's view of the utterance, built on its first pass.

        ``(members, member_mask, gold_col, in_mask, p_mdl_gold)``: each
        position's valid set as a row of token ids padded to the longest set
        (true entries flagged in ``member_mask``), the gold token's column in
        that row (-1 when it is not a member), the bias-mask flags, and the
        base model's probability of the gold token.  Built on first use and
        reused by every later pass, so preparing an example stays cheap.
        """
        lengths = [len(v) for v in self.valid_sets]
        member_mask = np.arange(max(lengths, default=0)) < np.array(lengths)[:, None]
        members = np.zeros(member_mask.shape, dtype=np.intp)
        members[member_mask] = [t for v in self.valid_sets for t in v]
        gold = [v.index(g) if g in v else -1 for g, v in zip(self.tokens, self.valid_sets)]
        p_mdl_gold = self.p_mdl_seq[np.arange(len(lengths)), list(self.tokens)]
        return members, member_mask, np.array(gold, dtype=np.intp), self.mask.flags(), p_mdl_gold


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
    """Weighted binary cross-entropy of the gate against mask membership.

    Positions on the mask are weighted by ``alpha`` and positions off it by
    ``1 - alpha``; an alpha above 0.5 favors the minority (bias) class.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
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


# Utterances per kernel group.  A pass gathers (utterances, positions, valid
# set, embed_dim) embeddings for one group at a time, so a pass over a whole
# split stays near the memory of one minibatch.
GROUP_SIZE = 16


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


def _group_pass(
    params: PgParams,
    group: list[BiasExample],
    mode: str,
    alpha: float,
    grads: PgParams | None,
) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
    """Every position of a few utterances at once, padded to the group's own
    longest utterance and valid set; adds the gradient into ``grads``."""
    # padded positions have a certain gold token, so every padded term is 0
    members, member_mask, gold_col, in_mask, p_mdl_gold = (
        _pad(list(column), fill)
        for column, fill in zip(zip(*(ex.packed for ex in group)), (0, False, -1, False, 1.0))
    )
    h = _pad([ex.h_seq for ex in group], 0.0)
    n, seq, width = members.shape
    real = np.arange(seq) < np.array([len(ex.tokens) for ex in group])[:, None]
    finite = np.isfinite(h).all(axis=2) & np.isfinite(p_mdl_gold)
    if not finite.all():
        raise DivergenceError(f"non-finite input on utterance {_culprit(group, finite).utt_id}")
    has_valid = member_mask.any(axis=2)
    inconsistent = in_mask & (gold_col < 0)
    if inconsistent.any():
        b, i = np.argwhere(inconsistent)[0]
        raise ValueError(f"mask/trie inconsistency at position {i} of utterance {group[b].utt_id}")

    # forward: masked softmax over each valid set, context, gate
    state_dim = params.state_dim
    sqrt_d = np.sqrt(params.embed_dim)
    w_ctx = params.w_gate[state_dim:]
    emb = params.token_embed[members]
    query = h @ params.w_query.T
    logits = np.where(member_mask, np.einsum("btkd,btd->btk", emb, query) / sqrt_d, -np.inf)
    top = logits.max(axis=2, keepdims=True, initial=-np.inf)
    top[~has_valid] = 0.0
    p = np.exp(logits - top)
    norm = p.sum(axis=2, keepdims=True)
    norm[~has_valid] = 1.0
    p /= norm
    ctx = np.einsum("btk,btkd->btd", p, emb)
    pre = h @ params.w_gate[:state_dim] + ctx @ w_ctx + params.b_gate
    gate = np.where(has_valid, sigmoid(pre), 0.0)

    # floored losses; positions off the mask with a valid set train the gate shut
    onehot = np.arange(width) == gold_col[..., None]
    ptr_gold = (p * onehot).sum(axis=2)
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
        "valid_count": member_mask.sum(axis=2),
        "in_mask": in_mask,
    }
    floored = (in_mask & gate_floor, in_mask & ptr_floor, off & shut_floor, final_floor)
    n_clamped = sum(int(np.count_nonzero(f)) for f in floored)

    if grads is None:
        return found, real, n_clamped

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
        coef = np.where(live & (gold_col >= 0), inv * gate * ptr_gold, 0.0)
    found["d_gate_pre"] = d_pre

    # backward; the context reaches the loss only through the gate
    d_ctx = d_pre[..., None] * w_ctx
    proj = np.einsum("btkd,btd->btk", emb, d_ctx) - np.einsum("btd,btd->bt", ctx, d_ctx)[..., None]
    d_z = coef[..., None] * (onehot - p) + p * proj
    d_query = np.einsum("btk,btkd->btd", d_z, emb) / sqrt_d
    # embedding rows: scatter d_z and p onto vocabulary columns, then one
    # product per utterance; each utterance is reduced on its own and the
    # utterances are summed in batch order
    vocab = params.vocab_size
    cells = ((np.arange(n * seq) * vocab).reshape(n, seq, 1) + members).ravel()

    def to_vocab(values: np.ndarray) -> np.ndarray:
        dense = np.bincount(cells, weights=values.ravel(), minlength=n * seq * vocab)
        return dense.reshape(n, seq, vocab).transpose(0, 2, 1)

    per_utt = (
        to_vocab(d_z) @ query / sqrt_d + to_vocab(p) @ d_ctx,
        np.matmul(d_query.transpose(0, 2, 1), h),
        np.matmul(d_pre[:, None, :], h)[:, 0],
        np.matmul(d_pre[:, None, :], ctx)[:, 0],
        d_pre.sum(axis=1),
    )
    finite = np.all([np.isfinite(g).reshape(n, -1).all(axis=1) for g in per_utt], axis=0)
    if not finite.all():
        raise DivergenceError(f"non-finite gradient on utterance {_culprit(group, finite).utt_id}")
    grads.token_embed += per_utt[0].sum(axis=0)
    grads.w_query += per_utt[1].sum(axis=0)
    grads.w_gate[:state_dim] += per_utt[2].sum(axis=0)
    grads.w_gate[state_dim:] += per_utt[3].sum(axis=0)
    grads.b_gate += float(per_utt[4].sum())
    return found, real, n_clamped


def teacher_forced(
    params: PgParams,
    batch: list[BiasExample],
    mode: str,
    alpha: float,
    want_grad: bool = False,
) -> TeacherForced:
    """Teacher-forced forward (and optional backward) over a batch.

    Every position's valid set is known from the reference, so a group of
    utterances runs as array operations: masked softmax over the valid set,
    context, gate, and the floored losses of ``loss_gen``, ``loss_ptr`` and
    ``loss_asr``.  Raises ``DivergenceError`` on non-finite parameters or
    inputs (before computing anything) and on a non-finite gradient.
    """
    _mode_total(mode, 0.0, 0.0, 0.0)
    base = flatten(params)
    if not np.isfinite(base).all():
        raise DivergenceError("non-finite copy-module parameters")
    grads = unflatten(np.zeros_like(base), params.shapes) if want_grad else None
    l_gen = l_ptr = l_asr = 0.0
    n_clamped = 0
    groups = []
    for start in range(0, len(batch), GROUP_SIZE):
        group = batch[start:start + GROUP_SIZE]
        found, real, clamped = _group_pass(params, group, mode, alpha, grads)
        l_gen += float(found["l_gen"].sum())
        l_ptr += float(found["l_ptr"].sum())
        l_asr += float(found["l_asr"].sum())
        n_clamped += clamped
        groups.append((found, real))
    report = LossReport(l_asr, l_gen, l_ptr, _mode_total(mode, l_gen, l_ptr, l_asr), n_clamped)
    return TeacherForced(report, grads, groups)


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


def fd_check(
    params: PgParams,
    batch: list[BiasExample],
    mode: str,
    alpha: float,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"finite-difference step {step} outside [1e-7, 1e-3]")
    analytic = flatten(grad(params, batch, mode, alpha)[0])
    base = flatten(params)
    shapes = params.shapes

    def total_at(vec: np.ndarray) -> float:
        return evaluate(unflatten(vec, shapes, params.seed), batch, mode, alpha).total

    worst = 0.0
    for j in range(base.size):
        probe = base.copy()
        probe[j] = base[j] + step
        up = total_at(probe)
        probe[j] = base[j] - step
        down = total_at(probe)
        numeric = (up - down) / (2.0 * step)
        err = abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-8)
        worst = max(worst, err)
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

