"""Word-level alignment and error/acceptance-rate scoring.

Every error puts one word at risk: an insertion its hypothesis word, a
substitution or deletion its reference word.  The error is biased when that
word is on the utterance's bias list, so it lands in exactly one of the
biased or unbiased pools.  The biased word error rate divides biased errors
by the number of reference words on the list; the unbiased rate covers the
rest.  ``u_we_b`` counts unbiased errors next to a biased one, an error's
neighbours being the alignment ops on either side, matches included: a match
between two errors keeps them apart.  Gate acceptance rates use
the ``GATE_THRESHOLD`` decision boundary and only count decoded positions
where the valid bias set was nonempty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

MATCH = "match"
SUBSTITUTION = "substitution"
DELETION = "deletion"
INSERTION = "insertion"

# one utterance's counts, as ``utterance_counts`` returns them and ``score`` totals them
COUNTS = ("ref_words", "ref_bias_words", "bias_errors", "unbias_errors", "u_we_b",
          "substitutions", "deletions", "insertions")
GATE_THRESHOLD = 0.5  # the gate fires at p_gen >= this, in reports and training logs alike


@dataclass(frozen=True)
class AlignOp:
    kind: str
    ref_word: str | None = None
    hyp_word: str | None = None


@dataclass(frozen=True)
class Alignment:
    ops: tuple[AlignOp, ...]

    @property
    def edit_count(self) -> int:
        return sum(op.kind != MATCH for op in self.ops)


def align(ref_words: list[str], hyp_words: list[str]) -> Alignment:
    """Minimal edit alignment, retraced from the last cell of the one cost table;
    ties prefer match > substitution > deletion > insertion, the order it tests them."""
    cost = [list(range(len(hyp_words) + 1))]
    for i, ref_word in enumerate(ref_words, 1):
        above, row = cost[-1], [i]
        for diag, up, hyp_word in zip(above, above[1:], hyp_words):
            row.append(min(diag + (ref_word != hyp_word), up + 1, row[-1] + 1))
        cost.append(row)
    ops: list[AlignOp] = []
    i, j = len(ref_words), len(hyp_words)
    while i or j:
        ref_word = ref_words[i - 1] if i else None
        hyp_word = hyp_words[j - 1] if j else None
        if i and j and cost[i][j] == cost[i - 1][j - 1] + (ref_word != hyp_word):
            ops.append(AlignOp(MATCH if ref_word == hyp_word else SUBSTITUTION, ref_word, hyp_word))
            i, j = i - 1, j - 1
        elif i and cost[i][j] == cost[i - 1][j] + 1:
            ops.append(AlignOp(DELETION, ref_word=ref_word))
            i -= 1
        else:
            ops.append(AlignOp(INSERTION, hyp_word=hyp_word))
            j -= 1
    return Alignment(tuple(reversed(ops)))


@dataclass
class ScoreReport:
    """Corpus-pooled error and gate-acceptance rates, as percentages.

    ``b_wer``/``u_wer`` are None when their reference pool is empty but
    errors were still attributed to it (counts remain authoritative).
    ``u_we_b``'s adjacency rule (see the module docstring) is a proxy and is
    noted as such.
    """

    wer: float | None
    b_wer: float | None
    u_wer: float | None
    far: float
    tar: float
    counts: dict[str, int]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_csv_row(self) -> str:
        cols = ["wer", "b_wer", "u_wer", "far", "tar", "u_we_b"]
        values = [self.wer, self.b_wer, self.u_wer, self.far, self.tar,
                  self.counts["u_we_b"]]
        head = ",".join(cols)
        row = ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                       for v in values)
        return head + "\n" + row + "\n"


def _rate(numerator: int, denominator: int) -> float | None:
    if denominator == 0:
        return None if numerator else 0.0
    return 100.0 * numerator / denominator


def gate_counts(p_gen: list | np.ndarray, on_mask: list | np.ndarray) -> dict[str, int]:
    """Gate decisions at ``GATE_THRESHOLD`` against the bias mask, as tp/fn/fp/tn
    counts.  The caller passes only positions whose valid bias set is nonempty."""
    fired = np.asarray(p_gen, dtype=np.float64) >= GATE_THRESHOLD
    on = np.asarray(on_mask, dtype=bool)
    return {
        "tp": int(np.count_nonzero(fired & on)),
        "fn": int(np.count_nonzero(~fired & on)),
        "fp": int(np.count_nonzero(fired & ~on)),
        "tn": int(np.count_nonzero(~fired & ~on)),
    }


def utterance_counts(alignment: Alignment, bias_words: set[str]) -> dict[str, int]:
    """One utterance's ``COUNTS``, in one loop over its alignment's ops; each
    unbiased error counts to ``u_we_b`` once the ops on both sides are known."""
    counts = dict.fromkeys(COUNTS, 0)
    before = flag = None  # the last two ops' flags: None for a match, else biased or not
    for op in alignment.ops:
        if op.kind != INSERTION:
            counts["ref_words"] += 1
            if op.ref_word in bias_words:
                counts["ref_bias_words"] += 1
        after = None
        if op.kind != MATCH:
            counts[op.kind + "s"] += 1
            after = (op.hyp_word if op.kind == INSERTION else op.ref_word) in bias_words
            counts["bias_errors" if after else "unbias_errors"] += 1
        if flag is False and True in (before, after):
            counts["u_we_b"] += 1
        before, flag = flag, after
    if flag is False and before is True:
        counts["u_we_b"] += 1
    return counts


def score(
    alignments: list[Alignment],
    bias_lists: list[set[str]],
    gate_traces: list | None = None,
    bias_masks: list | None = None,
    utt_ids: list[str] | None = None,
) -> tuple[ScoreReport, list[dict]]:
    """Pool per-utterance alignments (and optional gate traces) into one report.

    Returns the corpus report and a per-utterance breakdown. ``gate_traces``
    entries need ``step``/``p_gen``/``valid_nonempty`` attributes, and
    ``bias_masks`` entries are ``losses.bias_positions``' bool flags over the
    reference's tokens; a step outside its mask raises ValueError.
    """
    if len(alignments) != len(bias_lists):
        raise ValueError("alignments and bias lists must pair up one to one")
    if utt_ids is not None and len(utt_ids) != len(alignments):
        raise ValueError("alignments and utterance ids must pair up one to one")
    breakdown = [
        {"id": utt_ids[idx] if utt_ids else str(idx), **utterance_counts(alignment, bias_words)}
        for idx, (alignment, bias_words) in enumerate(zip(alignments, bias_lists))
    ]
    totals = {key: sum(utt[key] for utt in breakdown) for key in COUNTS}

    p_gen, on_mask = [], []
    if gate_traces is not None:
        if bias_masks is None or not len(gate_traces) == len(bias_masks) == len(alignments):
            raise ValueError("gate traces require matching bias masks per utterance")
        for utt, trace, mask in zip(breakdown, gate_traces, bias_masks):
            for entry in trace:
                if not 0 <= entry.step < len(mask):
                    raise ValueError(f"utterance {utt['id']}: gate trace step {entry.step} "
                                     f"lies outside its bias mask's {len(mask)} positions")
                if entry.valid_nonempty:
                    p_gen.append(entry.p_gen)
                    on_mask.append(mask[entry.step])
    counts = gate_counts(p_gen, on_mask)
    totals.update({f"gate_{key}": n for key, n in counts.items()}, n_gate_positions=len(p_gen))

    errors = totals["substitutions"] + totals["deletions"] + totals["insertions"]
    totals["errors_total"] = errors
    notes = ["u_we_b uses a +-1 alignment-op adjacency proxy"]
    b_wer = _rate(totals["bias_errors"], totals["ref_bias_words"])
    if b_wer is None:
        notes.append("b_wer undefined: bias errors with no reference bias words")
    u_wer = _rate(totals["unbias_errors"], totals["ref_words"] - totals["ref_bias_words"])
    if u_wer is None:
        notes.append("u_wer undefined: unbiased errors with no unbiased reference words")
    wer = _rate(errors, totals["ref_words"])
    if wer is None:
        notes.append("wer undefined: errors against an empty reference")
    tar_den = totals["gate_tp"] + totals["gate_fn"]
    far_den = totals["gate_fp"] + totals["gate_tn"]
    tar = 100.0 * totals["gate_tp"] / tar_den if tar_den else 0.0
    far = 100.0 * totals["gate_fp"] / far_den if far_den else 0.0
    report = ScoreReport(wer, b_wer, u_wer, far, tar, totals, notes)
    return report, breakdown
