"""Desk-scale contextual-biasing laboratory.

A trie-constrained copy module over a frozen simulated recognizer, trained
with bias-specific objectives (gate classification plus masked copy
cross-entropy) or the recognizer's own cross-entropy, with greedy biased
decoding and biased/unbiased word error scoring.
"""

from .biastrie import PrefixTree, build_trie
from .losses import LossReport, bias_positions, fd_check, grad
from .metrics import Alignment, ScoreReport, align, score
from .pointer import PgParams, StepOutput, forward_step, init_params, interpolate
from .simulator import SimConfig, SimUtterance, gen_corpus, render_condition
from .tokenizer import TokenizedUtterance, Vocab, build_vocab, detokenize, tokenize
from .trainer import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "LossReport",
    "PgParams",
    "PrefixTree",
    "ScoreReport",
    "SimConfig",
    "SimUtterance",
    "StepOutput",
    "TokenizedUtterance",
    "TrainConfig",
    "Vocab",
    "align",
    "bias_positions",
    "build_trie",
    "build_vocab",
    "detokenize",
    "fd_check",
    "forward_step",
    "gen_corpus",
    "grad",
    "init_params",
    "interpolate",
    "render_condition",
    "score",
    "tokenize",
    "train",
]
