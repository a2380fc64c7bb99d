"""Command-line pipeline: simulate, build bias lists, train, decode, score.

Every subcommand is deterministic given its flags: all randomness flows
from explicit seeds, every stage runs serially (``--jobs`` is accepted and
has no effect), and reports are machine-readable (JSON-lines and CSV).
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
from dataclasses import MISSING, asdict, fields

from . import biaslist, decoder, losses, pointer, simulator, trainer
from .biastrie import build_tries
from .harness import make_check_setup
from .simulator import check
from .tokenizer import read_word_list


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _print_config(args: argparse.Namespace, resolved: dict) -> None:
    if getattr(args, "print_config", False):
        shown = {key: value for key, value in resolved.items() if key != "handler"}
        print(json.dumps(shown, sort_keys=True, default=str))


def _load_json(path: str) -> dict:
    try:
        with open(_require(path, "config file"), "rb") as fh:
            return json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: byte {exc.start} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from None


def _usage(call, *args):
    """``call(*args)``, a ValueError it raises turned into a usage error."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _bias_lists(path: str, corpus: list, vocab=None) -> tuple[dict, dict | None]:
    """The bias lists of ``path`` for the utterances of ``corpus``, one each, and
    with ``vocab`` their tries; an untokenizable word names the file and the first
    utterance that lists it."""
    lists = biaslist.require_lists([u.utt_id for u in corpus], biaslist.read_bias_lists(path))
    try:
        return lists, None if vocab is None else build_tries(vocab, lists)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# the simulator config's ``inventories``: ``simulator.make_inventories``' arguments
INVENTORIES = {"n_common": int, "n_rare": int, "n_confused": int, "seed": int}


def _sim_config(raw: dict, seed_override: int | None) -> simulator.SimConfig:
    """``SimConfig`` from the keys the file gives, each checked against its field's
    type hint and range; ``inventories`` generates the word lists and ``confusion_map``
    the file leaves out, and any other key it leaves out takes the dataclass's default."""
    where, types = "the config", typing.get_type_hints(simulator.SimConfig, include_extras=True)
    try:
        raw = check(raw, {}, where)
        generate = check(raw.pop("inventories", {}), {}, where, ("inventories",))
        unknown = sorted(raw.keys() - types.keys()) + [
            f"inventories.{key}" for key in sorted(generate.keys() - INVENTORIES.keys())]
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        if seed_override is not None:
            raw["seed"] = seed_override
        words = ("common_words", "rare_words", "confusion_map")  # inventories can give them
        required = [f.name for f in fields(simulator.SimConfig) if f.default is MISSING
                    and f.default_factory is MISSING and not (generate and f.name in words)]
        raw = check(raw, {key: types[key] for key in (*raw, *required)}, where)
        if generate:
            generate = check({"n_confused": 0, "seed": raw["seed"], **generate},
                             INVENTORIES, where, ("inventories",))
            try:
                made = simulator.make_inventories(**generate)
            except ValueError as exc:  # its messages start with the argument they name
                raise ValueError(f"inventories.{exc}") from None
            raw = {**dict(zip(words, made)), **raw}
        config = simulator.SimConfig(**raw)
        config.validate()
    except ValueError as exc:
        raise UsageError(f"bad simulator config: {exc}") from None
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _sim_config(_load_json(args.config), args.seed)
    _print_config(args, {**asdict(config), "condition": args.condition, "out": args.out})
    corpus = simulator.gen_corpus(config, args.condition)
    vocab = simulator.build_sim_vocab(config)
    simulator.write_corpus(args.out, corpus, vocab, config.seed, args.condition)
    if args.write_common:
        with open(args.write_common, "w", encoding="utf-8") as fh:
            fh.write("\n".join(sorted(config.common_words)) + "\n")
    print(f"wrote {len(corpus)} utterances to {args.out}")
    return 0


def cmd_make_biaslists(args: argparse.Namespace) -> int:
    _require(args.corpus, "corpus")
    _require(args.common_words, "common-word list")
    _usage(simulator.NON_NEGATIVE.require, args.n_distractors, "--n-distractors")
    _print_config(args, vars(args))
    _, corpus, _ = simulator.read_corpus(args.corpus)
    common = set(read_word_list(args.common_words))
    lists = biaslist.build_lists(corpus, common, args.n_distractors, args.seed)
    biaslist.write_bias_lists(args.out, lists)
    print(f"wrote {len(lists)} bias lists to {args.out}")
    return 0


def _train_config(**values) -> trainer.TrainConfig:
    config = trainer.TrainConfig(**values)
    _usage(config.validate)
    return config


def cmd_train(args: argparse.Namespace) -> int:
    _require(args.corpus, "corpus")
    _require(args.biaslists, "bias lists")
    # every field but jobs has a flag (--jobs has no effect)
    config = _train_config(**{f.name: getattr(args, f.name)
                              for f in fields(trainer.TrainConfig) if f.name != "jobs"})
    log_path = args.log if args.log else args.out + ".log.csv"
    _print_config(args, {**asdict(config), "corpus": args.corpus, "out": args.out,
                         "log": log_path})
    vocab, corpus, _ = simulator.read_corpus(args.corpus)
    examples = losses.pack(trainer.prepare_batch(vocab, corpus,
                                                 *_bias_lists(args.biaslists, corpus, vocab)))
    params, log = trainer.fit(examples, config)
    pointer.save_params(params, args.out)
    trainer.write_train_log(log_path, log)
    if args.trace:
        records = losses.step_trace(params, examples, config.mode, config.alpha)
        simulator.write_records(args.trace, records)
    print(f"trained {config.epochs} epochs; checkpoint {args.out}, log {log_path}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    _require(args.corpus, "corpus")
    _require(args.biaslists, "bias lists")
    if args.mode != "none" and not args.ckpt:
        raise UsageError("biased decoding requires --ckpt")
    _print_config(args, vars(args))
    vocab, corpus, _ = simulator.read_corpus(args.corpus)
    _, trees = _bias_lists(args.biaslists, corpus, vocab if args.mode != "none" else None)
    params = pointer.load_params(_require(args.ckpt, "checkpoint")) if args.ckpt else None
    if args.mode != "none":  # a copy module that does not fit the corpus is a usage error;
        for utt in corpus[:1]:  # read_corpus gives every utterance the first one's widths
            _usage(pointer.check_fit, params, utt.utt_id, utt.p_mdl_seq, utt.h_dec_seq)
    decoded = decoder.decode_corpus(corpus, vocab, params, trees, args.mode)
    decoder.write_hypotheses(args.out, decoded)
    print(f"decoded {len(decoded)} utterances to {args.out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    _require(args.refs, "reference corpus")
    _require(args.hyps, "hypotheses")
    _require(args.biaslists, "bias lists")
    _print_config(args, vars(args))
    vocab, corpus, _ = simulator.read_corpus(args.refs)
    hyps = decoder.read_hypotheses(args.hyps)
    decoder.check_traces(args.hyps, hyps, corpus, vocab)
    lists, _ = _bias_lists(args.biaslists, corpus)
    report, breakdown = decoder.score_corpus(corpus, lists, hyps)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.per_utt:
        simulator.write_records(args.per_utt, breakdown)
    sys.stdout.write(report.to_csv_row())
    return 0


def _corpus_kind(path: str, vocab, meta: dict) -> str:
    return f"{path} ({vocab.size} tokens, decoder states of width {meta['state_dim']})"


def cmd_sweep_alpha(args: argparse.Namespace) -> int:
    _require(args.train_corpus, "train corpus")
    _require(args.test_corpus, "test corpus")
    _require(args.train_biaslists, "train bias lists")
    _require(args.test_biaslists, "test bias lists")
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a]
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"bad --alphas/--seeds: {exc}") from None
    if not alphas or not seeds:
        raise UsageError("--alphas and --seeds must be non-empty")
    configs = [
        _train_config(mode=losses.TWO_LOSS, alpha=alpha, lr=args.lr, epochs=args.epochs,
                      batch_size=args.batch_size, seed=seed, embed_dim=args.embed_dim)
        for alpha in alphas
        for seed in seeds
    ]
    _print_config(args, vars(args))

    vocab, train_corpus, train_meta = simulator.read_corpus(args.train_corpus)
    test_vocab, test_corpus, test_meta = simulator.read_corpus(args.test_corpus)
    if (test_vocab.tokens, test_meta["state_dim"]) != (vocab.tokens, train_meta["state_dim"]):
        raise UsageError(
            f"test corpus {_corpus_kind(args.test_corpus, test_vocab, test_meta)} needs the "
            "token list and decoder-state width of train corpus "
            f"{_corpus_kind(args.train_corpus, vocab, train_meta)}"
        )
    examples = losses.pack(trainer.prepare_batch(
        vocab, train_corpus, *_bias_lists(args.train_biaslists, train_corpus, vocab)))
    test_lists, trees = _bias_lists(args.test_biaslists, test_corpus, vocab)

    rows = []
    reports = trainer.sweep(examples, test_corpus, vocab, trees, test_lists, configs,
                            args.decode_mode)
    for config, report in zip(configs, reports):
        row = {
            "alpha": config.alpha,
            "seed": config.seed,
            "wer": report.wer,
            "far": report.far,
            "u_we_b": report.counts["u_we_b"],
            "tar": report.tar,
            "b_wer": report.b_wer,
        }
        print(" ".join(f"{key}={value}" for key, value in row.items()))
        rows.append(row)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # None becomes an empty field, a float its repr
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_fd_check(args: argparse.Namespace) -> int:
    try:
        embed_dim, state_dim = (int(x) for x in args.dims.split(","))
    except ValueError:
        raise UsageError("--dims must be 'embed_dim,state_dim'") from None
    _usage(losses.FD_STEP.require, args.step, "--step")
    _usage(simulator.NON_NEGATIVE.require, args.tol, "--tol")
    _train_config(alpha=args.alpha, seed=args.seed)  # train's checks and messages
    modes = [args.mode] if args.mode != "both" else list(losses.MODES)
    _print_config(args, vars(args))
    params, batch, _ = _usage(make_check_setup, args.seed, embed_dim, state_dim, args.utterances)
    worst = 0.0
    for mode in modes:
        err = losses.fd_check(params, batch, mode, args.alpha, args.step)
        worst = max(worst, err)
        print(f"mode {mode}: max relative gradient error {err:.3e}")
    if worst > args.tol:
        print(f"FAIL: {worst:.3e} above tolerance {args.tol:.3e}")
        return 1
    print(f"OK: within tolerance {args.tol:.3e}")
    return 0


def _add_train_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """A flag per ``TrainConfig`` field, typed and defaulted by the dataclass;
    ``--lr-decay`` sets ``lr_decay_factor``."""
    types, defaults = typing.get_type_hints(trainer.TrainConfig), trainer.TrainConfig()
    for flag in flags:
        name = "lr_decay_factor" if flag == "lr-decay" else flag.replace("-", "_")
        p.add_argument(f"--{flag}", dest=name, metavar=flag.replace("-", "_").upper(),
                       type=types[name], default=getattr(defaults, name))


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, help="accepted for uniformity; no effect")
    p.add_argument("--print-config", action="store_true", help="echo the resolved config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaslab",
        description="Simulated contextual-biasing pipeline: simulate, train, decode, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a corpus file (JSON-lines, meta line first)")
    p.add_argument("--config", required=True, help="simulator config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--condition", choices=simulator.CONDITIONS, default="train")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--write-common", default=None,
                   help="also write the resolved common-word list (one word per line)")
    _add_jobs(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("make-biaslists", help="per-utterance rare words plus distractors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--common-words", required=True, help="one word per line")
    p.add_argument("--n-distractors", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_jobs(p)
    p.set_defaults(handler=cmd_make_biaslists)

    p = sub.add_parser("train", help="train the copy module; writes checkpoint and log CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--biaslists", required=True)
    p.add_argument("--mode", choices=losses.MODES, default=trainer.TrainConfig.mode)
    _add_train_flags(p, "alpha", "epochs", "seed", "lr", "lr-decay", "patience", "batch-size",
                     "embed-dim")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log CSV (default <out>.log.csv)")
    p.add_argument("--trace", default=None,
                   help="write per-step loss/gate records (JSON-lines) for the final model")
    _add_jobs(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("decode", help="greedy decode, optionally biased")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--biaslists", required=True)
    p.add_argument("--mode", choices=decoder.DECODE_MODES, default="none")
    p.add_argument("--out", required=True)
    _add_jobs(p)
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("score", help="WER/B-WER/U-WER and gate acceptance rates")
    p.add_argument("--refs", required=True, help="corpus file with reference words")
    p.add_argument("--hyps", required=True)
    p.add_argument("--biaslists", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--per-utt", default=None, help="per-utterance breakdown JSON-lines")
    _add_jobs(p)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("sweep-alpha", help="train/decode/score once per (alpha, seed)")
    p.add_argument("--train-corpus", required=True)
    p.add_argument("--test-corpus", required=True)
    p.add_argument("--train-biaslists", required=True)
    p.add_argument("--test-biaslists", required=True)
    p.add_argument("--alphas", default="0.1,0.3,0.5,0.7")
    p.add_argument("--seeds", default="0")
    _add_train_flags(p, "epochs", "lr", "batch-size", "embed-dim")
    p.add_argument("--decode-mode", choices=pointer.INTERPOLATION_MODES, default="unscaled")
    p.add_argument("--out", required=True, help="sweep CSV path")
    _add_jobs(p)
    p.set_defaults(handler=cmd_sweep_alpha)

    p = sub.add_parser("fd-check", help="verify analytic gradients against central differences")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dims", default="6,6", help="embed_dim,state_dim")
    p.add_argument("--utterances", type=int, default=2)
    _add_train_flags(p, "alpha")
    p.add_argument("--mode", choices=(*losses.MODES, "both"), default="both")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    _add_jobs(p)
    p.set_defaults(handler=cmd_fd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
