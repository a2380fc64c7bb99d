"""Trainable copy module: bias distribution, gate, and score interpolation.

From a decoder-state vector and the currently valid bias tokens it produces
a distribution over those tokens (scaled dot-product attention from the
projected state to token embeddings) and a gate probability (sigmoid over
the state and the attention context).  ``interpolate`` mixes the result
with the frozen base model's distribution, either over the whole
vocabulary or only over the valid set.

Decoding computes the terms that do not depend on the valid set once per
utterance (``state_terms``); a step then gathers its valid set's columns
(``bias_step``).  ``forward_step`` is the one-position case of the same two
functions, and the teacher-forced training kernel takes its terms from
``state_terms`` too.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Untrained biasing must be inert: at sigmoid(-9) ~ 1.2e-4 the gate passes
# essentially nothing through, and every gradient path of the recognizer's
# own cross-entropy (which scales with the gate) starts correspondingly dead.
GATE_BIAS_INIT = -9.0


def sigmoid(x: float | np.ndarray) -> float | np.ndarray:
    """Logistic function, elementwise on arrays; exp only sees -|x|.  A float
    (one decode step's gate) skips the array path, which costs ~4x more."""
    if isinstance(x, float):
        e = np.exp(-abs(x))
        return float((1.0 if x >= 0.0 else e) / (1.0 + e))
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
    context: np.ndarray


def init_params(seed: int, vocab_size: int, embed_dim: int, state_dim: int) -> PgParams:
    """Seeded uniform init on [-s, s] with s = 1/sqrt(fan-in); gate bias GATE_BIAS_INIT (-9)."""
    if min(vocab_size, embed_dim, state_dim) <= 0:
        raise ValueError("dimensions must be positive")
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

    query:        (T, d) each position's state projected to query space.
    query_logits: (T, V) every token's scaled attention logit at each position.
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

    Matmuls against transposed views and column vectors, so a stack of
    parameters broadcasts and unstacked ones round exactly as ``h @ w`` does.
    """
    state_dim = params.state_dim
    query = h_seq @ np.swapaxes(params.w_query, -1, -2)
    return StateTerms(
        query,
        query @ np.swapaxes(params.token_embed, -1, -2) / np.sqrt(params.embed_dim),
        (h_seq @ params.w_gate[..., :state_dim, None])[..., 0]
        + np.asarray(params.b_gate)[..., None],
        (params.token_embed @ params.w_gate[..., state_dim:, None])[..., 0],
    )


def bias_step(terms: StateTerms, i: int, members: np.ndarray) -> tuple[np.ndarray, float]:
    """Bias weights over the nonempty sorted index array ``members`` at
    position ``i``, and the gate probability."""
    logits = terms.query_logits[i, members]
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    return weights, sigmoid(float(terms.gate_state[i] + weights @ terms.gate_token[members]))


def forward_step(params: PgParams, h_dec: np.ndarray, valid: list[int]) -> StepOutput:
    """One decoding step: bias distribution over ``valid`` plus the gate."""
    h_dec = np.asarray(h_dec, dtype=np.float64)
    if not np.all(np.isfinite(h_dec)):
        raise ValueError("non-finite decoder state")
    p_ptr = np.zeros(params.vocab_size)
    if not valid:
        return StepOutput(p_ptr, 0.0, (), np.zeros(params.embed_dim))
    members = np.asarray(sorted(valid), dtype=np.intp)
    weights, p_gen = bias_step(state_terms(params, h_dec[None]), 0, members)
    p_ptr[members] = weights
    context = weights @ params.token_embed[members]
    return StepOutput(p_ptr, p_gen, tuple(int(m) for m in members), context)


def mix(
    p_mdl: np.ndarray, members: np.ndarray, weights: np.ndarray, p_gen: float, mode: str
) -> np.ndarray:
    """Scores of ``interpolate`` from the bias weights over ``members`` alone;
    the two modes differ only outside the valid set."""
    if mode not in ("scaled", "unscaled"):
        raise ValueError(f"unknown interpolation mode {mode!r}")
    scores = p_mdl * (1.0 - p_gen) if mode == "scaled" else p_mdl.copy()
    scores[members] = p_mdl[members] * (1.0 - p_gen) + weights * p_gen
    return scores


def interpolate(p_mdl: np.ndarray, step: StepOutput, mode: str) -> np.ndarray:
    """Combine base-model and bias distributions into per-token scores.

    ``scaled`` mixes convexly over every token and stays a distribution.
    ``unscaled`` mixes only inside the valid set and leaves tokens outside
    it at their base-model probability; the result is an unnormalized score
    vector meant for argmax decoding only.
    """
    p_mdl = np.asarray(p_mdl, dtype=np.float64)
    if p_mdl.shape != step.p_ptr.shape:
        raise ValueError(
            f"length mismatch: base model {p_mdl.shape[0]} vs module {step.p_ptr.shape[0]}"
        )
    if abs(p_mdl.sum() - 1.0) > 1e-9:
        raise ValueError("base-model row does not sum to 1")
    members = np.asarray(step.valid, dtype=np.intp)
    return mix(p_mdl, members, step.p_ptr[members], step.p_gen, mode)


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
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version in {path}")
        missing = [key for key in ("seed", "order", "shapes") if key not in header]
        if not missing:
            missing = [f"shapes.{name}" for name in PARAM_ORDER if name not in header["shapes"]]
        if missing:
            raise ValueError(f"checkpoint {path}: header lacks key {missing[0]!r}")
        if header["order"] != list(PARAM_ORDER):
            raise ValueError(
                f"checkpoint {path} stores its parameters in the order {header['order']}; "
                f"only {list(PARAM_ORDER)} is supported"
            )
        for name in PARAM_ORDER:
            dims = header["shapes"][name]
            if not isinstance(dims, list) or any(type(x) is not int or x < 0 for x in dims):
                raise ValueError(
                    f"checkpoint {path}: shape of {name} must be a list of non-negative "
                    f"integers, got {dims!r}"
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
        buf = fh.read(size)
        if len(buf) != size:
            raise ValueError(f"truncated checkpoint {path}")
        if fh.read(1):
            raise ValueError(f"trailing bytes after the parameters in checkpoint {path}")
    vec = np.frombuffer(buf, dtype="<f8").astype(np.float64)
    return unflatten(vec, shapes, int(header["seed"]))
