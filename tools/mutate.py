"""Operator-flip mutation testing of a few functions in ``src/biaslab``.

Each mutant flips one operator inside one target function: ``+``/``-``,
``*``/``/``, ``&``/``|``, ``and``/``or``, a comparison (``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``is``/``is not``, ``in``/``not in``), unary
``-`` to ``+``, or drops a ``~`` or ``not``.  Annotations are left alone: under
``from __future__ import annotations`` they are never evaluated.  The mutated
module is written into a temporary copy of ``src/``, and the module's own test
file, ``tests/test_<module>.py``, runs against that copy; the mutant is killed
when the run fails or times out.  Before any mutant, the unmutated module, as
``ast.unparse`` writes it, must pass the same run.

Run from anywhere, with the test dependencies installed:

    python tools/mutate.py                        # the default targets
    python tools/mutate.py losses._group_pass     # one or more MODULE.FUNCTION

It prints killed/total per target, then each survivor with its line.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TARGETS = ("biastrie.walk", "biastrie.advance", "biastrie._expand", "biastrie._word_ids",
                   "biastrie.build_trie", "losses.bias_positions", "losses.pack", "losses._groups",
                   "losses._group_pass", "losses.teacher_forced", "losses.step_trace",
                   "losses.terms", "losses.probe_totals", "losses.fd_check",
                   "pointer.state_terms", "pointer.masked_forward", "pointer.forward_step",
                   "decoder.decode_corpus", "decoder._decode",
                   "trainer.fit", "trainer.sweep", "metrics.gate_counts",
                   "metrics.align", "metrics.utterance_counts", "metrics.score",
                   "tokenizer.detokenize", "simulator._model_rows", "simulator.check",
                   "simulator.check_fields")
FLIPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.USub: ast.UAdd,
}
DROPPED = (ast.Invert, ast.Not)
TIMEOUT = 300.0  # seconds a mutant's test run may take before it counts as killed


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name!r}")


def _nodes(func: ast.FunctionDef):
    """The function's nodes in a fixed order, annotations skipped."""
    stack = [*func.args.defaults, *func.args.kw_defaults, *func.body]
    while stack:
        node = stack.pop(0)
        if node is None:
            continue
        yield node
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            stack.extend(v for v in (value if isinstance(value, list) else [value])
                         if isinstance(v, ast.AST))


def _sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """Every (node, index of its comparison operator or None) a mutant can flip."""
    sites: list[tuple[ast.AST, int | None]] = []
    for node in _nodes(func):
        if isinstance(node, ast.Compare):
            sites += [(node, k) for k, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp, ast.UnaryOp)):
            if type(node.op) in FLIPS or type(node.op) in DROPPED:
                sites.append((node, None))
    return sites


class _Drop(ast.NodeTransformer):
    """Replaces one unary node by its operand."""

    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        return node.operand if node is self.target else self.generic_visit(node)


def _mutant(tree: ast.Module, name: str, k: int) -> tuple[str, ast.AST]:
    """Source of ``tree`` with site ``k`` of function ``name`` flipped, and the
    flipped node of the original tree."""
    mutated = copy.deepcopy(tree)
    node, index = _sites(_function(mutated, name))[k]
    original = _sites(_function(tree, name))[k][0]
    if index is not None:
        node.ops[index] = FLIPS[type(node.ops[index])]()
    elif type(node.op) in DROPPED:
        mutated = _Drop(node).visit(mutated)
    else:
        node.op = FLIPS[type(node.op)]()
    return ast.unparse(mutated), original


def _describe(tree: ast.Module, name: str, k: int) -> str:
    node, index = _sites(_function(tree, name))[k]
    op = node.ops[index] if index is not None else node.op
    flip = "drop" if type(op) in DROPPED else FLIPS[type(op)].__name__
    return f"{type(op).__name__} -> {flip}"


def _killed(src_copy: Path, module: str, source: str) -> bool:
    (src_copy / "biaslab" / f"{module}.py").write_text(source, encoding="utf-8")
    # no bytecode cache: a same-size mutant written within the same second
    # would otherwise load the previous mutant's .pyc
    env = {**os.environ, "PYTHONPATH": str(src_copy), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           str(ROOT / "tests" / f"test_{module}.py")]
    try:
        run = subprocess.run(cmd, cwd=src_copy.parent, env=env, capture_output=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", default=list(DEFAULT_TARGETS),
                        help="MODULE.FUNCTION names under src/biaslab")
    args = parser.parse_args(argv)
    survivors, totals = [], []
    with tempfile.TemporaryDirectory() as tmp:
        src_copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src_copy, ignore=shutil.ignore_patterns("__pycache__"))
        for target in args.targets:
            module, name = target.split(".")
            path = ROOT / "src" / "biaslab" / f"{module}.py"
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text)
            if _killed(src_copy, module, ast.unparse(tree)):
                raise SystemExit(f"tests/test_{module}.py fails on the unmutated {module}.py")
            count = len(_sites(_function(tree, name)))
            killed = 0
            for k in range(count):
                source, node = _mutant(tree, name, k)
                if _killed(src_copy, module, source):
                    killed += 1
                else:
                    survivors.append(f"{module}.py:{node.lineno} {target}: "
                                     f"{_describe(tree, name, k)} in "
                                     f"`{ast.get_source_segment(text, node)}`")
            (src_copy / "biaslab" / f"{module}.py").write_text(text, encoding="utf-8")
            totals.append(f"{target}: {killed}/{count} killed")
            print(totals[-1], flush=True)
    print("\n".join(["", "survivors:", *survivors] if survivors else ["", "no survivors"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
