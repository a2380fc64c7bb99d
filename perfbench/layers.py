"""biaslab's layers as the tracer sees them, and the per-layer metrics.

Each hook wraps a function at the binding its callers use: ``trainer`` calls
``losses.grad`` through the module but ``prepare_example`` through its own
import, ``decoder`` imported ``forward_step``/``valid_set`` by name, and so
on.  Several bindings of one function share a layer name.  A binding that a
refactor removes shows up in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Hook, Span, self_times


def _add(state: dict, key: str, amount: float) -> None:
    state[key] = state.get(key, 0) + amount


def _count_batch(state, args, kwargs, result) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    _add(state, "examples", len(batch))
    _add(state, "positions", sum(len(ex.tokens) for ex in batch))


def _count_trie(state, args, kwargs, result) -> None:
    words = args[1] if len(args) > 1 else kwargs["bias_words"]
    state.setdefault("trie_lists", set()).add(tuple(words))


def _count_valid(state, args, kwargs, result) -> None:
    _add(state, "valid_members", len(result))


def _count_decode(state, args, kwargs, result) -> None:
    _, trace = result
    _add(state, "decode_steps", len(trace))
    _add(state, "empty_valid_steps", sum(not entry.valid_nonempty for entry in trace))


def _count_items(state, args, kwargs, result) -> None:
    _add(state, "parallel_items", len(args[1] if len(args) > 1 else kwargs["items"]))


def _hooks(layer: str, bindings: tuple[str, ...], **kw) -> list[Hook]:
    return [Hook(f"biaslab.{b}", layer, **kw) for b in bindings]


HOOKS: list[Hook] = [
    *_hooks("cli.main", ("cli.main",)),
    *_hooks("trainer.train", ("trainer.train",)),
    *_hooks("trainer.prepare_batch", ("trainer.prepare_batch",)),
    *_hooks("losses.prepare_example",
            ("losses.prepare_example", "trainer.prepare_example", "harness.prepare_example")),
    *_hooks("losses.grad", ("losses.grad",), count=_count_batch),
    *_hooks("losses.evaluate", ("losses.evaluate",), count=_count_batch),
    *_hooks("losses.gate_rates", ("losses.gate_rates",), count=_count_batch),
    *_hooks("losses.fd_check", ("losses.fd_check",)),
    *_hooks("harness.make_check_setup", ("harness.make_check_setup", "cli.make_check_setup")),
    *_hooks("biastrie.build_trie", ("biastrie.build_trie", "losses.build_trie", "cli.build_trie"),
            count=_count_trie),
    *_hooks("biastrie.valid_set", ("decoder.valid_set", "losses.valid_set"),
            count=_count_valid),
    *_hooks("biastrie.advance_cursor", ("decoder.advance_cursor", "losses.advance_cursor")),
    *_hooks("pointer.forward_step", ("decoder.forward_step", "losses.forward_step")),
    *_hooks("pointer.interpolate", ("decoder.interpolate",)),
    *_hooks("decoder.greedy_decode", ("decoder.greedy_decode",), count=_count_decode),
    *_hooks("metrics.align", ("metrics.align",)),
    *_hooks("metrics.score", ("metrics.score",)),
    *_hooks("simulator.gen_corpus", ("simulator.gen_corpus", "harness.gen_corpus")),
    *_hooks("simulator.write_corpus", ("simulator.write_corpus",)),
    *_hooks("simulator.read_corpus", ("simulator.read_corpus",)),
    *_hooks("biaslist.build_lists",
            ("biaslist.build_utterance_list", "biaslist.extract_rarewords",
             "harness.build_utterance_list", "harness.extract_rarewords")),
    *_hooks("biaslist.read_bias_lists", ("biaslist.read_bias_lists",)),
    *_hooks("parallel.parallel_map",
            ("parallel.parallel_map", "simulator.parallel_map", "trainer.parallel_map",
             "cli.parallel_map"),
            count=_count_items, cpu=True, fanout=True),
]

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS: dict[str, str] = {
    "trainer.train_s": "s",
    "trainer.prepare_batch_s": "s",
    "losses.grad_s": "s",
    "losses.evaluate_s": "s",
    "losses.gate_rates_s": "s",
    "losses.positions_per_s": "1/s",
    "losses.examples_passed": "count",
    "losses.update_share": "ratio",
    "losses.evaluate_calls": "count",
    "losses.evaluate_us": "us",
    "harness.make_check_setup_s": "s",
    "losses.prepare_example_s": "s",
    "biastrie.build_trie_s": "s",
    "biastrie.build_trie_calls": "count",
    "biastrie.distinct_lists": "count",
    "biastrie.builds_per_distinct_list": "ratio",
    "biastrie.valid_set_us": "us",
    "biastrie.advance_cursor_us": "us",
    "biastrie.mean_valid_size": "count",
    "pointer.forward_step_us": "us",
    "pointer.interpolate_us": "us",
    "pointer.forward_step_calls": "count",
    "decoder.self_s": "s",
    "decoder.steps": "count",
    "decoder.empty_valid_steps": "count",
    "metrics.align_s": "s",
    "metrics.score_s": "s",
    "simulator.gen_corpus_s": "s",
    "simulator.write_corpus_s": "s",
    "biaslist.build_lists_s": "s",
    "simulator.read_corpus_s": "s",
    "biaslist.read_bias_lists_s": "s",
    "parallel.map_calls": "count",
    "parallel.items": "count",
    "parallel.cpu_per_wall": "ratio",
    "cli.cells": "count",
    "cli.cell_s_p50": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_wall_s": "s",
    "trace.overhead_share": "ratio",
    "trace.untraced_tok_per_s": "1/s",
    "trace.overhead_tok_per_s": "1/s",
    "trace.spans": "count",
    "trace.absent_bindings": "count",
    "trace.counter_errors": "count",
    "e2e.utt_ms_p50": "ms",
    "e2e.utt_ms_p95": "ms",
    "e2e.utt_samples": "count",
    "e2e.b_wer": "%",
    "e2e.b_wer_unbiased": "%",
    "e2e.u_wer": "%",
    "e2e.far": "%",
    "e2e.tar": "%",
    "e2e.fd_max_rel_err": "ratio",
}


class _Layers:
    """Totals, call counts and self times of one phase's spans, by layer."""

    def __init__(self, spans: list[Span]):
        selfs = self_times(spans)
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.total[span.name] += span.duration
            self.calls[span.name] += 1
            self.self_s[span.name] += selfs[span.span_id]
            self.by_name[span.name].append(span)

    def per_call_us(self, name: str) -> float:
        calls = self.calls[name]
        return 1e6 * self.total[name] / calls if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cell_seconds(layers: _Layers) -> list[float]:
    """sweep-alpha cells: each trainer.train start to the next metrics.score end.

    Only spans inside a ``cli.main`` call count, so a caller's own training
    or scoring outside the CLI is not mistaken for a cell.
    """
    mains = layers.by_name.get("cli.main", [])

    def inside(span: Span) -> bool:
        return any(m.start <= span.start and span.end <= m.end for m in mains)

    trains = sorted((s for s in layers.by_name.get("trainer.train", []) if inside(s)),
                    key=lambda s: s.start)
    scores = sorted((s for s in layers.by_name.get("metrics.score", []) if inside(s)),
                    key=lambda s: s.start)
    cells = []
    for train in trains:
        after = [s for s in scores if s.start >= train.end]
        if after:
            cells.append(after[0].end - train.start)
    return cells


def layer_metrics(setup_spans: list[Span], run_spans: list[Span], state: dict,
                  applied_examples: int) -> dict[str, float]:
    """Per-layer metrics of one traced job and the set-up before it.

    ``applied_examples`` is how many example gradients the job's SGD applies
    (train split size times epochs, per training run); with the examples the
    losses layer was passed it gives the share of useful passes.
    """
    run = _Layers(run_spans)
    setup = _Layers(setup_spans)
    examples = state.get("examples", 0)
    loss_busy = run.total["losses.grad"] + run.total["losses.evaluate"] \
        + run.total["losses.gate_rates"]
    lists = state.get("trie_lists", set())
    parallel = run.by_name.get("parallel.parallel_map", [])
    cells = cell_seconds(run)
    return {
        "trainer.train_s": run.total["trainer.train"],
        "trainer.prepare_batch_s": run.total["trainer.prepare_batch"],
        "losses.grad_s": run.total["losses.grad"],
        "losses.evaluate_s": run.total["losses.evaluate"],
        "losses.gate_rates_s": run.total["losses.gate_rates"],
        "losses.positions_per_s": _ratio(state.get("positions", 0), loss_busy),
        "losses.examples_passed": examples,
        "losses.update_share": _ratio(applied_examples, examples),
        "losses.evaluate_calls": run.calls["losses.evaluate"],
        "losses.evaluate_us": run.per_call_us("losses.evaluate"),
        "harness.make_check_setup_s": run.total["harness.make_check_setup"],
        "losses.prepare_example_s": run.total["losses.prepare_example"],
        "biastrie.build_trie_s": run.total["biastrie.build_trie"],
        "biastrie.build_trie_calls": run.calls["biastrie.build_trie"],
        "biastrie.distinct_lists": len(lists),
        "biastrie.builds_per_distinct_list": _ratio(run.calls["biastrie.build_trie"], len(lists)),
        "biastrie.valid_set_us": run.per_call_us("biastrie.valid_set"),
        "biastrie.advance_cursor_us": run.per_call_us("biastrie.advance_cursor"),
        "biastrie.mean_valid_size": _ratio(state.get("valid_members", 0),
                                           run.calls["biastrie.valid_set"]),
        "pointer.forward_step_us": run.per_call_us("pointer.forward_step"),
        "pointer.interpolate_us": run.per_call_us("pointer.interpolate"),
        "pointer.forward_step_calls": run.calls["pointer.forward_step"],
        "decoder.self_s": run.self_s["decoder.greedy_decode"],
        "decoder.steps": state.get("decode_steps", 0),
        "decoder.empty_valid_steps": state.get("empty_valid_steps", 0),
        "metrics.align_s": run.total["metrics.align"],
        "metrics.score_s": run.total["metrics.score"],
        "simulator.gen_corpus_s": setup.total["simulator.gen_corpus"],
        "simulator.write_corpus_s": setup.total["simulator.write_corpus"],
        "biaslist.build_lists_s": setup.total["biaslist.build_lists"],
        "simulator.read_corpus_s": run.total["simulator.read_corpus"],
        "biaslist.read_bias_lists_s": run.total["biaslist.read_bias_lists"],
        "parallel.map_calls": run.calls["parallel.parallel_map"],
        "parallel.items": state.get("parallel_items", 0),
        "parallel.cpu_per_wall": _ratio(sum(s.cpu for s in parallel),
                                        sum(s.duration for s in parallel)),
        "cli.cells": len(cells),
        "cli.cell_s_p50": statistics.median(cells) if cells else 0.0,
    }
