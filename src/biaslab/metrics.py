"""Word-level alignment and error/acceptance-rate scoring.

Errors are split by the bias list: substitutions and deletions follow the
reference word, insertions follow the hypothesis word, and every error is
attributed to exactly one of the biased or unbiased pools.  The biased
word error rate divides biased errors by the number of reference words on
the list; the unbiased rate covers the rest.  Gate acceptance rates use
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
    """Minimal edit alignment; ties prefer match > substitution > deletion > insertion."""
    n_ref, n_hyp = len(ref_words), len(hyp_words)
    cost = [[0] * (n_hyp + 1) for _ in range(n_ref + 1)]
    op = [[""] * (n_hyp + 1) for _ in range(n_ref + 1)]
    for i in range(1, n_ref + 1):
        cost[i][0] = i
        op[i][0] = DELETION
    for j in range(1, n_hyp + 1):
        cost[0][j] = j
        op[0][j] = INSERTION
    for i in range(1, n_ref + 1):
        for j in range(1, n_hyp + 1):
            same = ref_words[i - 1] == hyp_words[j - 1]
            diag = cost[i - 1][j - 1] + (0 if same else 1)
            up = cost[i - 1][j] + 1
            left = cost[i][j - 1] + 1
            best = min(diag, up, left)
            cost[i][j] = best
            if diag == best:
                op[i][j] = MATCH if same else SUBSTITUTION
            elif up == best:
                op[i][j] = DELETION
            else:
                op[i][j] = INSERTION
    ops: list[AlignOp] = []
    i, j = n_ref, n_hyp
    while i > 0 or j > 0:
        kind = op[i][j]
        if kind in (MATCH, SUBSTITUTION):
            ops.append(AlignOp(kind, ref_words[i - 1], hyp_words[j - 1]))
            i, j = i - 1, j - 1
        elif kind == DELETION:
            ops.append(AlignOp(kind, ref_word=ref_words[i - 1]))
            i -= 1
        else:
            ops.append(AlignOp(kind, hyp_word=hyp_words[j - 1]))
            j -= 1
    return Alignment(tuple(reversed(ops)))


@dataclass
class ScoreReport:
    """Corpus-pooled error and gate-acceptance rates, as percentages.

    ``b_wer``/``u_wer`` are None when their reference pool is empty but
    errors were still attributed to it (counts remain authoritative).
    ``u_we_b`` counts unbiased errors adjacent (within one alignment op) to
    a biased error; that adjacency rule is a proxy and is noted as such.
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


def _is_bias_error(op: AlignOp, bias_words: set[str]) -> bool:
    if op.kind in (SUBSTITUTION, DELETION):
        return op.ref_word in bias_words
    if op.kind == INSERTION:
        return op.hyp_word in bias_words
    return False


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
    totals = {
        "ref_words": 0, "ref_bias_words": 0, "bias_errors": 0, "unbias_errors": 0,
        "u_we_b": 0, "substitutions": 0, "deletions": 0, "insertions": 0,
        "gate_tp": 0, "gate_fn": 0, "gate_fp": 0, "gate_tn": 0, "n_gate_positions": 0,
    }
    breakdown: list[dict] = []
    for idx, (alignment, bias_words) in enumerate(zip(alignments, bias_lists)):
        utt = {
            "id": utt_ids[idx] if utt_ids else str(idx),
            "ref_words": 0, "ref_bias_words": 0,
            "bias_errors": 0, "unbias_errors": 0, "u_we_b": 0,
            "substitutions": 0, "deletions": 0, "insertions": 0,
        }
        kinds = []
        for op_item in alignment.ops:
            if op_item.kind != INSERTION:
                utt["ref_words"] += 1
                if op_item.ref_word in bias_words:
                    utt["ref_bias_words"] += 1
            if op_item.kind == MATCH:
                kinds.append("ok")
                continue
            utt[op_item.kind + "s"] += 1
            if _is_bias_error(op_item, bias_words):
                utt["bias_errors"] += 1
                kinds.append("bias")
            else:
                utt["unbias_errors"] += 1
                kinds.append("unbias")
        for k, kind in enumerate(kinds):
            if kind == "unbias" and (
                (k > 0 and kinds[k - 1] == "bias")
                or (k + 1 < len(kinds) and kinds[k + 1] == "bias")
            ):
                utt["u_we_b"] += 1
        for key in utt:
            if key != "id":
                totals[key] += utt[key]
        breakdown.append(utt)

    if gate_traces is not None:
        if bias_masks is None or not len(gate_traces) == len(bias_masks) == len(alignments):
            raise ValueError("gate traces require matching bias masks per utterance")
        p_gen, on_mask = [], []
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
