"""The names ``biaslab`` exports, pinned so that one is only removed on purpose."""

import typing

import biaslab
from biaslab.simulator import Range

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


def test_every_number_field_of_a_config_declares_its_range():
    """A number field added to a config later cannot skip the range rule."""
    unranged = []
    for cls in (biaslab.SimConfig, biaslab.TrainConfig):
        for name, hint in typing.get_type_hints(cls, include_extras=True).items():
            items = typing.get_args(hint) if typing.get_origin(hint) is tuple else (hint,)
            for item in items:
                ranged = any(isinstance(m, Range) for m in getattr(item, "__metadata__", ()))
                if getattr(item, "__origin__", item) in (int, float) and not ranged:
                    unranged.append(f"{cls.__name__}.{name}")
    assert unranged == ["TrainConfig.jobs"]  # it has no effect
