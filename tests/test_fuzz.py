"""Mutation fuzzer over every subcommand.

Each example takes one file of a real workspace (simulator configs, common-word
list, corpus, bias lists, checkpoint, hypotheses), applies one structured
mutation that makes it invalid, and runs a subcommand that reads it through
``cli.main``.  The run must exit 1 or 2 with a message that names the file (or
the simulator config) and the key or line, and holds no bare Python error text.
A second test reads every ``Range`` declared on a config field and tries values
just past its ends, NaN and the infinities, through ``validate`` and ``train``'s
flags.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import struct
import typing

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biaslab.cli import main
from biaslab.simulator import Range, SimConfig, make_inventories
from biaslab.trainer import TrainConfig

# phrases of Python's own errors: a message holding one does not explain the input
BARE = ("too many values", "not enough values", "not supported between", "object of type",
        "has no len", "invalid literal", "has no attribute", "codec can't decode",
        "index out of range", "not subscriptable", "unhashable", "required positional",
        "unexpected keyword", "must be real number", "not iterable")

CONSUMERS = {
    "config": ("simulate",),
    "inventories": ("simulate",),
    "common": ("make-biaslists",),
    "corpus": ("make-biaslists", "train", "decode", "score", "sweep-alpha"),
    "lists": ("train", "decode", "score", "sweep-alpha"),
    "ckpt": ("decode",),
    "hyps": ("score",),
}


def argv(command, paths, out):
    """The subcommand's argv, reading the workspace files in ``paths``."""
    return {
        "simulate": ["simulate", "--config", paths["config"], "--out", out],
        "make-biaslists": ["make-biaslists", "--corpus", paths["corpus"],
                           "--common-words", paths["common"], "--out", out],
        "train": ["train", "--corpus", paths["corpus"], "--biaslists", paths["lists"],
                  "--epochs", "1", "--out", out],
        "decode": ["decode", "--corpus", paths["corpus"], "--ckpt", paths["ckpt"],
                   "--biaslists", paths["lists"], "--mode", "unscaled", "--out", out],
        "score": ["score", "--refs", paths["corpus"], "--hyps", paths["hyps"],
                  "--biaslists", paths["lists"], "--out", out],
        "sweep-alpha": ["sweep-alpha", "--train-corpus", paths["corpus"],
                        "--test-corpus", paths["corpus"], "--train-biaslists", paths["lists"],
                        "--test-biaslists", paths["lists"], "--alphas", "0.7", "--epochs", "1",
                        "--out", out],
    }[command]


def run(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """AC-8's workspace at 12 utterances, with a second simulator config that
    generates its inventories, built once: root directory, paths and file bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    common, rare, confusion = make_inventories(12, 8, 4, seed=50)
    config = {"seed": 9, "n_utterances": 12, "words_per_utterance": [2, 4],
              "common_words": common, "rare_words": rare, "rare_word_rate": 0.4,
              "base_accuracy_common": 0.95, "base_accuracy_rare": 0.75,
              "confusion_map": confusion, "state_dim": 10, "domain_shift": 0.2,
              "utterance_noise": 0.1}
    inventories = {key: value for key, value in config.items()
                   if key not in ("common_words", "rare_words", "confusion_map")}
    inventories["inventories"] = {"n_common": 12, "n_rare": 8, "n_confused": 4, "seed": 50}
    paths = {name: root / name for name in CONSUMERS}
    paths["config"].write_text(json.dumps(config))
    paths["inventories"].write_text(json.dumps(inventories))
    paths["common"].write_text("\n".join(common) + "\n")
    for command, out in (("simulate", "corpus"), ("make-biaslists", "lists"),
                         ("train", "ckpt"), ("decode", "hyps")):
        assert run(argv(command, paths, paths[out]))[0] == 0, command
    return root, paths, {name: path.read_bytes() for name, path in paths.items()}


def file_lines(workspace, name):
    """A file as its lines of bytes: a config as one line, a checkpoint as its
    header line and its payload."""
    data = workspace[2][name]
    if name == "ckpt":
        header, payload = data.split(b"\n", 1)
        return [header + b"\n", payload]
    return data.splitlines(keepends=True)


def expand(values, pattern):
    """Every concrete path into ``values`` that ``pattern`` matches; "*" matches any
    list index or object key."""
    paths = [()]
    for step in pattern:
        nxt = []
        for path in paths:
            node = functools.reduce(lambda node, key: node[key], path, values)
            if step != "*":
                found = step in node if isinstance(node, dict) else 0 <= step < len(node)
                nxt += [(*path, step)] if found else []
            else:
                nxt += [(*path, key) for key in (node if isinstance(node, dict) else
                                                 range(len(node)) if isinstance(node, list)
                                                 else ())]
        paths = nxt
    return paths


# Mutation targets: (file, line, path).  The line is 0 for a config, a checkpoint's
# header and a corpus's meta line, and "*" for any record line; "*" in a path
# stands for any list item or object key.
CONFIG, INVENTORIES, META, UTTERANCE = ("config", 0), ("inventories", 0), ("corpus", 0), \
    ("corpus", "*")
LIST, HYPOTHESIS, HEADER = ("lists", "*"), ("hyps", "*"), ("ckpt", 0)


def keys(where, *names):
    return [(*where, (name,)) for name in names]


REQUIRED = keys(CONFIG, "seed", "n_utterances", "words_per_utterance", "common_words",
                "rare_words", "rare_word_rate") + [
    (*INVENTORIES, ("inventories", "n_common")), (*INVENTORIES, ("inventories", "n_rare")),
    *keys(META, "kind", "version", "vocab", "state_dim", "n_utterances"),
    *keys(UTTERANCE, "id", "index", "ref_words", "p_mdl_seq", "h_dec_seq"),
    *keys(LIST, "id", "words"), *keys(HYPOTHESIS, "id", "hyp_words", "trace"),
    *keys(HEADER, "version", "seed", "order", "shapes"), (*HEADER, ("shapes", "*"))]
LISTS = keys(CONFIG, "words_per_utterance", "common_words", "rare_words") + [
    *keys(META, "vocab"), *keys(UTTERANCE, "ref_words", "p_mdl_seq", "h_dec_seq"),
    *keys(LIST, "words"), *keys(HYPOTHESIS, "hyp_words", "trace"), *keys(HEADER, "order"),
    (*HEADER, ("shapes", "*"))]
STRINGS = [(*CONFIG, ("common_words", "*")), (*CONFIG, ("confusion_map", "*")),
           *keys(META, "kind"), (*META, ("vocab", "*")), *keys(UTTERANCE, "id"),
           (*UTTERANCE, ("ref_words", "*")), *keys(LIST, "id"), (*LIST, ("words", "*")),
           *keys(HYPOTHESIS, "id"), (*HYPOTHESIS, ("hyp_words", "*")), (*HEADER, ("order", "*"))]
INTS = keys(CONFIG, "seed", "n_utterances", "state_dim") + [
    (*CONFIG, ("words_per_utterance", "*")), (*INVENTORIES, ("inventories", "*")),
    *keys(META, "version", "state_dim", "n_utterances"), *keys(UTTERANCE, "index"),
    (*HYPOTHESIS, ("trace", "*", 0)), (*HYPOTHESIS, ("trace", "*", 3)),
    *keys(HEADER, "version", "seed"), (*HEADER, ("shapes", "*", "*"))]
FLOATS = keys(CONFIG, "rare_word_rate", "base_accuracy_common", "base_accuracy_rare",
              "domain_shift", "utterance_noise") + [
    (*UTTERANCE, ("p_mdl_seq", "*", "*")), (*UTTERANCE, ("h_dec_seq", "*", "*")),
    (*HYPOTHESIS, ("trace", "*", 1))]
RAGGED = [(*CONFIG, ("words_per_utterance",)), (*UTTERANCE, ("p_mdl_seq", "*")),
          (*UTTERANCE, ("h_dec_seq", "*")), (*HYPOTHESIS, ("trace", "*")),
          (*HEADER, ("shapes", "*"))]
DIMENSIONS = keys(CONFIG, "state_dim", "n_utterances") + [
    (*INVENTORIES, ("inventories", "n_common")), (*INVENTORIES, ("inventories", "n_rare")),
    *keys(META, "state_dim", "n_utterances"), (*HEADER, ("shapes", "*", "*"))]


def drop(node, key):
    del node[key]


def replace(value):
    def change(node, key):
        node[key] = value(node[key]) if callable(value) else value
    return change


def pop_last(node, key):
    node[key].pop()


# mutation -> (targets, the edit at the target's last step, or a strategy of edits)
STRUCTURED = {
    "dropped_key": (REQUIRED, st.just(drop)),
    "string_for_a_list": (LISTS, st.just(replace("a b c"))),
    "number_for_a_string": (STRINGS, st.sampled_from([replace(7), replace(2.5)])),
    "float_for_an_int": (INTS, st.sampled_from([replace(lambda v: v + 0.5),
                                                replace(lambda v: float(v))])),
    "nan_or_inf": (INTS + FLOATS, st.sampled_from([replace(float("nan")),
                                                   replace(float("inf")),
                                                   replace(float("-inf"))])),
    "ragged_row": (RAGGED, st.just(pop_last)),
    "negative_dimension": (DIMENSIONS, st.just(replace(lambda v: -max(v, 1)))),
    "p_gen_outside_0_1": ([(*HYPOTHESIS, ("trace", "*", 1))],
                          st.sampled_from([replace(7.0), replace(1.5), replace(-0.25)])),
}


def structured(data, workspace, mutation):
    targets, edits = STRUCTURED[mutation]
    name, line, pattern = data.draw(st.sampled_from(targets))
    lines = file_lines(workspace, name)
    if line == "*":  # any record line; line 0 of a corpus is its meta line
        line = data.draw(st.integers(int(name == "corpus"), len(lines) - 1))
    record = json.loads(lines[line])
    paths = expand(record, pattern)
    assume(paths)  # a pattern into an empty list matches nothing
    path = data.draw(st.sampled_from(paths))
    data.draw(edits)(functools.reduce(lambda node, key: node[key], path[:-1], record), path[-1])
    lines[line] = json.dumps(record).encode() + b"\n"
    names = [key for key in path if isinstance(key, str)] + [f"line {line + 1}"]
    if isinstance(record, dict) and "id" in record:
        names.append(str(record["id"]))
    if (name, line) == ("corpus", 0):  # the meta line; an utterance may be what conflicts
        names.append("utterance")
    return name, b"".join(lines), names


def whole_line(data, workspace, mutation):
    files = sorted(set(CONSUMERS) - {"common"} if mutation == "not_an_object_line" else CONSUMERS)
    name = data.draw(st.sampled_from(files))  # a word list has no JSON lines
    lines = file_lines(workspace, name)
    index = data.draw(st.integers(0, 0 if name == "ckpt" else len(lines) - 1))
    if name == "ckpt":
        names = ["header"]
    elif name == "common":  # plain text: the first byte that is not UTF-8
        names = ["byte"]
    elif name in ("config", "inventories"):  # one JSON value: the config, or its bytes
        names = ["the config", "byte", "line 1"]
    else:
        names = [f"line {index + 1}"]
    if mutation == "not_an_object_line":
        lines[index] = data.draw(st.sampled_from([b"[1, 2]\n", b'"text"\n', b"3\n", b"null\n",
                                                  b"{not json\n"]))
    else:  # non-UTF-8 bytes inside the line
        at = data.draw(st.integers(0, len(lines[index]) - 1))
        lines[index] = lines[index][:at] + b"\xff\xfe" + lines[index][at:]
    return name, b"".join(lines), names


def checkpoint(data, workspace, mutation):
    original = workspace[2]["ckpt"]
    header, payload = file_lines(workspace, "ckpt")
    if mutation == "truncated_checkpoint":
        return "ckpt", original[:data.draw(st.integers(0, len(original) - 1))], [
            "truncated", "header"]
    at = len(header) + 8 * data.draw(st.integers(0, len(payload) // 8 - 1))
    value = struct.pack("<d", data.draw(st.sampled_from([float("nan"), float("inf")])))
    return "ckpt", original[:at] + value + original[at + 8:], json.loads(header)["order"]


MUTATIONS = {**dict.fromkeys(STRUCTURED, structured),
             "not_an_object_line": whole_line, "non_utf8_bytes": whole_line,
             "truncated_checkpoint": checkpoint, "non_finite_parameter": checkpoint}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_input_fails_naming_file_and_place(workspace, mutation, data):
    root, paths, _ = workspace
    name, mutated, names = MUTATIONS[mutation](data, workspace, mutation)
    target = root / f"mutated_{name}"
    target.write_bytes(mutated)
    command = data.draw(st.sampled_from(CONSUMERS[name]))
    paths = {**paths, name: target}
    if name == "inventories":  # simulate reads it as its config
        paths["config"] = target
    code, err = run(argv(command, paths, root / "out"))
    assert code in (1, 2), (command, err)
    config = name in ("config", "inventories") and "bad simulator config" in err
    assert config or str(target) in err, (command, err)
    assert any(place in err for place in names), (command, names, err)
    assert not [phrase for phrase in BARE if phrase in err], (command, err)


def ranged_positions(cls):
    """(field, tuple index or None, base type, Range) for every range ``cls`` declares
    on a field, or on an item of a tuple field."""
    found = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        items = typing.get_args(hint) if typing.get_origin(hint) is tuple else (hint,)
        for i, item in enumerate(items):
            for bound in getattr(item, "__metadata__", ()):
                found.append((name, i if item is not hint else None, item.__origin__, bound))
    return found


def past_ends(base, bound: Range):
    """The values just outside ``bound``'s finite ends, then NaN and the infinities."""
    values = []
    for end, side, bracket in ((bound.lo, -1, bound.ends[0]), (bound.hi, 1, bound.ends[1])):
        if math.isfinite(end):
            closed = bracket in "[]"
            values.append(end + side if closed and base is int else
                          math.nextafter(end, side * math.inf) if closed else end)
    return values + [math.nan, math.inf, -math.inf]


def base_config(cls):
    if cls is TrainConfig:
        return TrainConfig()
    common, rare, confusion = make_inventories(8, 4, 2, seed=1)
    return SimConfig(seed=1, n_utterances=4, words_per_utterance=(2, 4), common_words=common,
                     rare_words=rare, rare_word_rate=0.3, confusion_map=confusion)


RANGED = [(cls, *position) for cls in (SimConfig, TrainConfig)
          for position in ranged_positions(cls)]


@pytest.mark.parametrize("cls, name, index, base, bound", RANGED,
                         ids=[f"{cls.__name__}.{name}{'' if index is None else f'.{index}'}"
                              for cls, name, index, _, _ in RANGED])
def test_every_declared_range_rejects_values_past_its_ends(tmp_path, cls, name, index, base,
                                                           bound):
    config = base_config(cls)
    config.validate()
    flag = "lr-decay" if name == "lr_decay_factor" else name.replace("_", "-")
    files = [tmp_path / "corpus.jsonl", tmp_path / "lists.jsonl"]
    for path in files:
        path.touch()  # train checks its config before it reads a file
    for value in past_ends(base, bound):
        if index is not None:
            value = tuple(value if i == index else item
                          for i, item in enumerate(getattr(config, name)))
        with pytest.raises(ValueError, match=f"^{name}"):
            dataclasses.replace(config, **{name: value}).validate()
        if cls is TrainConfig:  # every ranged field of it has a train flag
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(["train", "--corpus", str(files[0]), "--biaslists",
                                 str(files[1]), "--out", str(tmp_path / "ckpt.bin"),
                                 f"--{flag}={value!r}"])
                except SystemExit as exc:  # argparse: a value its type does not parse
                    code = exc.code
            assert code == 2 and (name in err.getvalue() or f"--{flag}" in err.getvalue()), \
                (name, value, err.getvalue())


def test_every_declared_range_is_tried():
    assert {name for _, name, *_ in RANGED} == {
        "seed", "n_utterances", "words_per_utterance", "rare_word_rate", "base_accuracy_common",
        "base_accuracy_rare", "state_dim", "domain_shift", "utterance_noise", "alpha", "lr",
        "lr_decay_factor", "patience", "epochs", "batch_size", "embed_dim"}


# every float field a JSON integer can give: (config class, field, its range)
FLOAT_FIELDS = [(cls, name, bound) for cls, name, index, base, bound in RANGED
                if base is float and index is None and any(v in bound for v in range(3))]


def test_every_float_field_but_alpha_takes_a_json_integer():
    floats = {name for _, name, index, base, _ in RANGED if base is float and index is None}
    assert floats - {name for _, name, _ in FLOAT_FIELDS} == {"alpha"}  # (0, 1) holds none


@pytest.mark.parametrize("cls, name, bound", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in FLOAT_FIELDS])
def test_a_float_field_given_a_json_integer_reads_back_as_an_equal_float(cls, name, bound):
    for value in (v for v in range(3) if v in bound):
        config = dataclasses.replace(base_config(cls), **{name: json.loads(str(value))})
        config.validate()
        assert type(getattr(config, name)) is float and getattr(config, name) == value, name
