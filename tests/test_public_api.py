"""The names ``biaslab`` exports, pinned so that one is only removed on purpose."""

import biaslab

PUBLIC = [
    "Alignment", "BiasMask", "LossReport", "PgParams", "PrefixTree", "ScoreReport",
    "SimConfig", "SimUtterance", "StepOutput", "TokenizedUtterance", "TrainConfig", "Vocab",
    "align", "bias_positions", "build_trie", "build_vocab", "detokenize", "fd_check",
    "forward_step", "gen_corpus", "grad", "init_params", "interpolate", "render_condition",
    "score", "tokenize", "train",
]


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert biaslab.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(biaslab, name)]
    assert not missing, missing
