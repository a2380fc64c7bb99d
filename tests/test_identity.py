"""``tools/identity.py``'s pipeline against the README's: a renamed subcommand,
flag or output file fails here rather than silently in the identity check."""

import argparse
import importlib.util
import math
import shlex
from pathlib import Path

import pytest

from biaslab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def readme_commands() -> list[list[str]]:
    """The argv of each command in the README's pipeline block."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "Then run the pipeline")[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_the_identity_pipeline_runs_every_readme_command_with_its_flags():
    readme, steps = readme_commands(), identity.pipeline(3)
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for argv in readme} == {argv[0] for argv in steps} == set(commands)
    for argv in readme:
        flags = {arg for arg in argv if arg.startswith("--")}
        assert any(step[0] == argv[0] and flags <= set(step) for step in steps), argv
    for step in steps:
        build_parser().parse_args(step)  # every step parses; argparse exits otherwise


def test_the_manifest_lists_every_output_the_readme_pipeline_writes():
    readme = readme_commands()
    written = {argv[i + 1] for argv in readme for i, arg in enumerate(argv[:-1])
               if arg in identity.OUTPUT_FLAGS}
    assert written == {"train.jsonl", "common.txt", "test.jsonl", "train_lists.jsonl",
                       "test_lists.jsonl", "ckpt.bin", "hyps.jsonl", "report.json", "sweep.csv"}
    names = identity.output_names(3)
    assert written <= set(names) and "ckpt.bin.log.csv" in names
    assert len(names) == len(set(names)) == 25


FD_OUTPUT = ("mode two_loss: max relative gradient error {}\n"
             "mode asr: max relative gradient error 8.654e-08\n"
             "OK: within tolerance {}\n")


def test_fd_check_outputs_that_differ_only_in_printed_errors_differ_in_floats():
    mine = FD_OUTPUT.format("3.152e-08", "1.000e-04").encode()
    theirs = FD_OUTPUT.format("7.286e-08", "1.000e-04").encode()
    diffs = identity.float_fields("fd_check.txt", mine, theirs)
    assert diffs.keys() == {"mode two_loss"}
    assert math.isclose(diffs["mode two_loss"], (7.286 - 3.152) / 7.286)
    assert identity.float_fields("fd_check_5utt.txt", mine, mine) == {}


@pytest.mark.parametrize("theirs", [
    FD_OUTPUT.format("3.152e-08", "1.000e-03"),  # another line differs
    FD_OUTPUT.format("7.286e-08", "1.000e-04").replace("two_loss", "none"),  # another mode
    FD_OUTPUT.format("7.286e-08", "1.000e-04") + "\n",  # a line more
])
def test_fd_check_outputs_that_differ_beyond_printed_errors_differ_beyond_floats(theirs):
    mine = FD_OUTPUT.format("3.152e-08", "1.000e-04").encode()
    assert identity.float_fields("fd_check.txt", mine, theirs.encode()) is None
