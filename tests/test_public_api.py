"""The names ``biaslab`` exports, pinned so that one is only removed on purpose."""

import ast
import importlib
import typing
from pathlib import Path

import biaslab
from biaslab.simulator import Range

PUBLIC = [
    "Alignment", "LossReport", "PgParams", "PrefixTree", "ScoreReport",
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


# each fixed choice set, by the name that declares it
CHOICE_SETS = {"MODES": {"two_loss", "asr"}, "INTERPOLATION_MODES": {"scaled", "unscaled"},
               "CONDITIONS": {"train", "test"}}


def _spelled(item, module):
    """The string a tuple item spells, a literal or a module-level name read as its
    value, or None."""
    value = None
    if isinstance(item, ast.Constant):
        value = item.value
    elif isinstance(item, ast.Name):
        value = getattr(module, item.id, None)
    elif isinstance(item, ast.Attribute) and isinstance(item.value, ast.Name):
        value = getattr(getattr(module, item.value.id, None), item.attr, None)
    return value if isinstance(value, str) else None


def test_each_choice_set_and_the_simplex_tolerance_are_declared_once():
    """A choice set written out a second time (a tuple, list, set or ``Literal[...]`` that
    spells all its members), or the tolerance 1e-9 written twice, fails here: a site that
    needs one reads the declaration."""
    spelled = {name: [] for name in CHOICE_SETS}
    tolerances = []
    for path in sorted(Path(biaslab.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(f"biaslab.{path.stem}")
        declared = {id(node.value): target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                values = {_spelled(item, module) for item in node.elts} - {None}
                for name, choices in CHOICE_SETS.items():
                    if choices <= values:
                        spelled[name].append(declared.get(id(node), f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Constant) and node.value == 1e-9:
                tolerances.append(f"{path.name}:{node.lineno}")
    assert spelled == {name: [name] for name in CHOICE_SETS}
    assert len(tolerances) == 1 and tolerances[0].startswith("simulator.py:"), tolerances


# the sigmoid, the masked softmax the kernel and the decoder share, and its test oracle
EXP_USERS = {"pointer.sigmoid", "pointer.masked_forward", "pointer.forward_step"}


def test_only_the_sigmoid_and_the_masked_softmax_and_its_oracle_exponentiate():
    """A second softmax or gate would need ``np.exp``: any use outside ``EXP_USERS``
    fails here, named by file and line."""
    strays = []
    for path in sorted(Path(biaslab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            user = f"{path.stem}.{getattr(top, 'name', '')}"
            strays += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                       if isinstance(node, ast.Attribute) and node.attr == "exp"
                       and isinstance(node.value, ast.Name) and node.value.id == "np"
                       and user not in EXP_USERS]
    assert strays == []
