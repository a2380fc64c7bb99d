"""Trainable copy module: bias distribution, gate, and score interpolation.

From a decoder-state vector and the currently valid bias tokens it produces
a distribution over those tokens (scaled dot-product attention from the
projected state to token embeddings) and a gate probability (sigmoid over
the state and the attention context).  ``interpolate`` mixes the result
with the frozen base model's distribution, either over the whole
vocabulary or only over the valid set.

The training kernel and the decoder both take the terms that do not depend
on the valid set from ``state_terms``, then the softmax and the gate over
each position's allowed tokens from ``masked_forward``, for a group of
positions at once, on (vocabulary, positions) arrays: every per-position
reduction runs over rows.  ``forward_step`` and ``interpolate`` gather one
position's valid tokens instead: they are the test oracles of that path.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .simulator import Count, Size, check, off_simplex

# Untrained biasing must be inert: at sigmoid(-9) ~ 1.2e-4 the gate passes
# essentially nothing through, and every gradient path of the recognizer's
# own cross-entropy (which scales with the gate) starts correspondingly dead.
GATE_BIAS_INIT = -9.0
INTERPOLATION_MODES = ("scaled", "unscaled")  # see ``interpolate``


def sigmoid(x: float | np.ndarray) -> float | np.ndarray:
    """Logistic function, elementwise; exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


# The parameter layout: the order in which ``flatten`` concatenates the
# parameters, each array row-major, and in which a checkpoint stores them.
PARAM_ORDER = ("token_embed", "w_query", "w_gate", "b_gate")


@dataclass
class PgParams:
    """Copy-module parameters; float64 throughout.

    token_embed: (V, d) token embeddings, shared as attention keys/values.
    w_query:     (d, d_h) projection of the decoder state to query space.
    w_gate:      (d_h + d,) gate weights over [state ; context].
    b_gate:      gate bias scalar.

    A stack of parameter sets (``unflatten`` of vectors with leading axes)
    puts those axes in front of every array, and ``b_gate`` is then an
    array over them; the dimension properties read the trailing axes.
    """

    token_embed: np.ndarray
    w_query: np.ndarray
    w_gate: np.ndarray
    b_gate: float
    seed: int = 0

    @property
    def vocab_size(self) -> int:
        return self.token_embed.shape[-2]

    @property
    def embed_dim(self) -> int:
        return self.token_embed.shape[-1]

    @property
    def state_dim(self) -> int:
        return self.w_query.shape[-1]

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape by name; the scalar ``b_gate`` has shape (1,)."""
        return {name: np.shape(getattr(self, name)) or (1,) for name in PARAM_ORDER}


def check_fit(params: PgParams, utt_id: str, p_mdl_seq: np.ndarray, h_seq: np.ndarray) -> None:
    """Raise ValueError, naming both sides' shapes, unless the copy module fits
    an utterance's base-model rows (T, V) and decoder states (T, d_h)."""
    rows, states = np.shape(p_mdl_seq), np.shape(h_seq)
    if (rows[1:], states[1:]) != ((params.vocab_size,), (params.state_dim,)):
        raise ValueError(
            f"utterance {utt_id}: base-model rows {rows} over {rows[-1]} tokens and decoder "
            f"states {states} do not fit copy-module parameters token_embed "
            f"{params.token_embed.shape} and w_query {params.w_query.shape}, which need "
            f"{params.vocab_size} tokens and decoder states of width {params.state_dim}")


def flatten(params: PgParams) -> np.ndarray:
    """All parameters as one float64 vector in ``PARAM_ORDER``."""
    return np.concatenate([np.ravel(getattr(params, name)) for name in PARAM_ORDER])


def unflatten(vec: np.ndarray, shapes: dict[str, tuple[int, ...]], seed: int = 0) -> PgParams:
    """Inverse of ``flatten`` for ``shapes`` (as ``PgParams.shapes``); views of ``vec``.

    Leading axes of ``vec`` (a stack of vectors) lead every parameter, and
    ``b_gate`` is then an array over them.
    """
    lead = vec.shape[:-1]
    sizes = [math.prod(shapes[name]) for name in PARAM_ORDER]
    embed, query, gate, bias = (vec[..., end - size:end].reshape(*lead, *shapes[name])
                                for name, size, end
                                in zip(PARAM_ORDER, sizes, itertools.accumulate(sizes)))
    return PgParams(embed, query, gate, bias[..., 0] if lead else float(bias[0]), seed)


@dataclass(frozen=True)
class StepOutput:
    """Per-step module output.

    p_ptr is a full-vocabulary probability vector that is zero outside the
    valid set and sums to one when the set is nonempty; p_gen is the gate
    probability, forced to 0 when the valid set is empty.
    """

    p_ptr: np.ndarray
    p_gen: float
    valid: tuple[int, ...]


def init_params(seed: int, vocab_size: int, embed_dim: int, state_dim: int) -> PgParams:
    """Seeded uniform init on [-s, s] with s = 1/sqrt(fan-in); gate bias GATE_BIAS_INIT (-9)."""
    for name, size in dict(vocab_size=vocab_size, embed_dim=embed_dim, state_dim=state_dim).items():
        check(size, Count, name)
    rng = np.random.default_rng(seed)
    s_embed = 1.0 / np.sqrt(embed_dim)
    s_query = 1.0 / np.sqrt(state_dim)
    s_gate = 1.0 / np.sqrt(state_dim + embed_dim)
    token_embed = rng.uniform(-s_embed, s_embed, size=(vocab_size, embed_dim))
    w_query = rng.uniform(-s_query, s_query, size=(embed_dim, state_dim))
    w_gate = rng.uniform(-s_gate, s_gate, size=state_dim + embed_dim)
    return PgParams(token_embed, w_query, w_gate, GATE_BIAS_INIT, seed)


@dataclass(frozen=True)
class StateTerms:
    """The copy module's terms that depend only on the decoder states.

    query:        (T, d) each position's state in query space, scaled by 1/sqrt(d).
    query_logits: (V, T) every token's attention logit at each position,
                  ``token_embed @ query.T``: the vocabulary axis comes first.
    gate_state:   (T,) state part of the gate pre-activation, plus ``b_gate``.
    gate_token:   (V,) each token's gate weight through the context,
                  ``token_embed @ w_gate[d_h:]``; the context term of the
                  gate is the bias weights' average of it over the valid set.

    Parameters with leading probe axes put those axes in front of each term.
    """

    query: np.ndarray
    query_logits: np.ndarray
    gate_state: np.ndarray
    gate_token: np.ndarray


def state_terms(params: PgParams, h_seq: np.ndarray) -> StateTerms:
    """Every position's trie-independent terms as three products, once.

    Unstacked parameters take matmuls against transposed views and column
    vectors, which round exactly as ``h @ w`` does.  A stack of parameters
    (probe axes in front) multiplies the shared states once for all its
    probes: each probe's query and gate-state weights are the rows of one
    (probes·(d + 1), d_h) matrix, whose product with ``h_seq.T`` is every
    probe's transposed query, then its gate-state term, in probe order.
    """
    state_dim, lead = params.state_dim, params.w_query.shape[:-2]
    if lead:
        weights = np.concatenate([params.w_query, params.w_gate[..., None, :state_dim]], axis=-2)
        both = (weights.reshape(-1, state_dim) @ h_seq.T).reshape(*lead, -1, len(h_seq))
        query_t, gate_state = both[..., :-1, :] / np.sqrt(params.embed_dim), both[..., -1, :]
        query = np.swapaxes(query_t, -1, -2)
    else:
        query = h_seq @ params.w_query.T / np.sqrt(params.embed_dim)
        query_t, gate_state = query.T, (h_seq @ params.w_gate[:state_dim, None])[..., 0]
    return StateTerms(
        query,
        params.token_embed @ query_t,
        gate_state + np.asarray(params.b_gate)[..., None],
        (params.token_embed @ params.w_gate[..., state_dim:, None])[..., 0],
    )


def masked_forward(
    logits: np.ndarray, gate_state: np.ndarray, gate_token: np.ndarray, allowed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias weights, the gate's context term and the gate at P positions.

    ``allowed`` (V, P) flags each position's valid set, vocabulary first;
    ``logits`` (V, P) and ``gate_state`` (P,) are ``StateTerms`` terms on
    the same axes, behind any probe axes of ``gate_token``.  The weights
    (V, P) are a softmax over each column's allowed rows and exactly 0 in
    the other rows, whatever their logits, ±inf or NaN; the context term is
    their average of ``gate_token``; the gate is 0 where nothing is allowed.
    """
    has_valid = allowed.any(axis=0)
    p = np.where(allowed, logits, -np.inf)
    top = np.where(has_valid, p.max(axis=-2, keepdims=True), 0.0)
    # fmin, unlike minimum, maps NaN to 0: each weight is finite before the
    # disallowed rows are zeroed, so they stay exactly 0
    np.fmin(np.subtract(logits, top, out=p), 0.0, out=p)
    np.exp(p, out=p)
    p *= allowed
    p *= 1.0 / np.where(has_valid, p.sum(axis=-2, keepdims=True), 1.0)
    gate_ctx = (gate_token[..., None, :] @ p)[..., 0, :]
    return p, gate_ctx, np.where(has_valid, sigmoid(gate_state + gate_ctx), 0.0)


def forward_step(params: PgParams, h_dec: np.ndarray, valid: list[int]) -> StepOutput:
    """One decoding step: bias distribution over ``valid`` plus the gate."""
    h_dec = np.asarray(h_dec, dtype=np.float64)
    if not np.all(np.isfinite(h_dec)):
        raise ValueError("non-finite decoder state")
    p_ptr = np.zeros(params.vocab_size)
    if not valid:
        return StepOutput(p_ptr, 0.0, ())
    members = np.asarray(sorted(valid), dtype=np.intp)
    terms = state_terms(params, h_dec[None])
    logits = terms.query_logits[members, 0]
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    p_ptr[members] = weights
    p_gen = float(sigmoid(terms.gate_state[0] + weights @ terms.gate_token[members]))
    return StepOutput(p_ptr, p_gen, tuple(int(m) for m in members))


def interpolate(p_mdl: np.ndarray, step: StepOutput, mode: str) -> np.ndarray:
    """Combine base-model and bias distributions into per-token scores.

    ``scaled`` mixes convexly over every token and stays a distribution.
    ``unscaled`` mixes only inside the valid set and leaves tokens outside
    it at their base-model probability; the result is an unnormalized score
    vector meant for argmax decoding only.
    """
    if mode not in INTERPOLATION_MODES:
        check(mode, typing.Literal[INTERPOLATION_MODES], "mode")
    p_mdl = np.asarray(p_mdl, dtype=np.float64)
    if p_mdl.shape != step.p_ptr.shape:
        raise ValueError(
            f"length mismatch: base model {p_mdl.shape[0]} vs module {step.p_ptr.shape[0]}"
        )
    off_simplex(p_mdl, "base-model row")
    members = np.asarray(step.valid, dtype=np.intp)
    scores = p_mdl * (1.0 - step.p_gen) if mode == "scaled" else p_mdl.copy()
    scores[members] = p_mdl[members] * (1.0 - step.p_gen) + step.p_ptr[members] * step.p_gen
    return scores


CHECKPOINT_VERSION = 1


def save_params(params: PgParams, path: str) -> None:
    """Write a checkpoint: one JSON header line, then ``flatten(params)`` as float64 LE."""
    header = {
        "version": CHECKPOINT_VERSION,
        "seed": params.seed,
        "shapes": params.shapes,
        "order": list(PARAM_ORDER),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(flatten(params).astype("<f8").tobytes())


def load_params(path: str) -> PgParams:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError:  # not JSON, or not UTF-8
            header = None
        header = check(header, {"version": typing.Literal[CHECKPOINT_VERSION], "seed": int,
                                "order": list[str],
                                "shapes": dict.fromkeys(PARAM_ORDER, list[Size])},
                       f"checkpoint {path}: header")
        if header["order"] != list(PARAM_ORDER):
            raise ValueError(
                f"checkpoint {path} stores its parameters in the order {header['order']}; "
                f"only {list(PARAM_ORDER)} is supported"
            )
        shapes = {name: tuple(header["shapes"][name]) for name in PARAM_ORDER}
        embed, query, gate, bias = shapes.values()
        if not (len(embed) == len(query) == 2 and query[0] == embed[1]
                and gate == (query[1] + embed[1],) and bias == (1,)):
            raise ValueError(
                f"checkpoint {path} has shapes token_embed {embed}, w_query {query}, "
                f"w_gate {gate}, b_gate {bias}; they must be (V, d), (d, d_h), "
                "(d_h + d,) and (1,)"
            )
        size = 8 * sum(math.prod(shape) for shape in shapes.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()  # before a read of ``size`` bytes
        if left < size:
            raise ValueError(f"truncated checkpoint {path}")
        if left > size:
            raise ValueError(f"trailing bytes after the parameters in checkpoint {path}")
        buf = fh.read(size)
    params = unflatten(np.frombuffer(buf, dtype="<f8").astype(np.float64), shapes, header["seed"])
    for name in PARAM_ORDER:
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"checkpoint {path}: {name} holds non-finite values")
    return params
