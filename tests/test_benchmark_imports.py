"""The benchmark's workloads read biaslab names that no other test imports.

``perfbench/workloads.py`` resolves them only when a workload runs, so a
name deleted from ``src/`` would break the benchmark while every other test
stays green.  This reads the workloads' source instead of running it.
"""

import ast
import importlib
from pathlib import Path

from biaslab import trainer

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _biaslab_modules(tree):
    return {
        alias.asname or alias.name: importlib.import_module(f"biaslab.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "biaslab"
        for alias in node.names
    }


def test_every_biaslab_name_the_workloads_read_exists():
    tree = _tree()
    modules = _biaslab_modules(tree)
    assert {"trainer", "losses", "decoder", "cli"} <= modules.keys()
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("trainer", "TrainConfig") in read
    missing = sorted(f"{mod}.{name}" for mod, name in read if not hasattr(modules[mod], name))
    assert not missing, f"perfbench/workloads.py reads names biaslab lacks: {missing}"


def test_the_workloads_train_config_builds():
    tree = _tree()
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["AC4_TRAIN"]
    ]
    fields = eval(compile(ast.Expression(value), str(WORKLOADS), "eval"), _biaslab_modules(tree))
    config = trainer.TrainConfig(seed=3, **fields)
    config.validate()
