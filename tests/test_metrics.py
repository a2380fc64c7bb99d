import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab.metrics import (
    DELETION,
    GATE_THRESHOLD,
    INSERTION,
    MATCH,
    SUBSTITUTION,
    align,
    gate_counts,
    score,
)
from conftest import scorer_fixture


class Trace:
    def __init__(self, step, p_gen, valid=True):
        self.step = step
        self.p_gen = p_gen
        self.valid_nonempty = valid


def kinds(alignment):
    return [op.kind for op in alignment.ops]


def simple_edit_distance(a, b):
    """Independent row-by-row Levenshtein, used as the alignment oracle."""
    if len(a) > len(b):
        a, b = b, a
    distances = list(range(len(a) + 1))
    for j, y in enumerate(b):
        nxt = [j + 1]
        for i, x in enumerate(a):
            if x == y:
                nxt.append(distances[i])
            else:
                nxt.append(1 + min(distances[i], distances[i + 1], nxt[-1]))
        distances = nxt
    return distances[-1]


def test_align_identical():
    got = align(["a", "b"], ["a", "b"])
    assert kinds(got) == [MATCH, MATCH]
    assert got.edit_count == 0


def test_align_single_substitution():
    got = align(["my", "name", "is", "kerry"], ["my", "name", "is", "gary"])
    assert kinds(got) == [MATCH, MATCH, MATCH, SUBSTITUTION]
    assert got.ops[-1].ref_word == "kerry"
    assert got.ops[-1].hyp_word == "gary"


def test_align_pure_insertion():
    got = align([], ["a"])
    assert kinds(got) == [INSERTION]


def test_align_pure_deletion():
    got = align(["a"], [])
    assert kinds(got) == [DELETION]


def test_align_tie_prefers_substitution_over_indels():
    got = align(["a"], ["b"])
    assert kinds(got) == [SUBSTITUTION]


def test_align_replay_reconstructs_both_sides():
    rng = np.random.default_rng(2)
    pool = ["a", "b", "c", "d"]
    for _ in range(200):
        ref = [pool[int(rng.integers(4))] for _ in range(int(rng.integers(0, 7)))]
        hyp = [pool[int(rng.integers(4))] for _ in range(int(rng.integers(0, 7)))]
        alignment = align(ref, hyp)
        got_ref = [op.ref_word for op in alignment.ops if op.kind != INSERTION]
        got_hyp = [op.hyp_word for op in alignment.ops if op.kind != DELETION]
        assert got_ref == ref
        assert got_hyp == hyp
        assert alignment.edit_count == simple_edit_distance(ref, hyp)


def brute_edit_distance(a, b):
    """Fewest edits over every alignment of a and b, by plain recursion."""
    if not a or not b:
        return len(a) + len(b)
    return min(brute_edit_distance(a[1:], b[1:]) + (a[0] != b[0]),
               brute_edit_distance(a[1:], b) + 1,
               brute_edit_distance(a, b[1:]) + 1)


short_words = st.lists(st.sampled_from(["a", "b", "c"]), max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ref=short_words, hyp=short_words)
def test_align_edit_count_is_the_brute_force_edit_distance(ref, hyp):
    alignment = align(ref, hyp)
    assert alignment.edit_count == brute_edit_distance(ref, hyp)
    assert [op.ref_word for op in alignment.ops if op.kind != INSERTION] == ref
    assert [op.hyp_word for op in alignment.ops if op.kind != DELETION] == hyp


def every_alignment(ref, hyp, found):
    """Every alignment of ``ref`` with ``hyp``, each as its op letters read from the
    end (m, s, d, i); ``found`` keeps the lists already enumerated."""
    if (ref, hyp) not in found:
        ends = [""] if not ref and not hyp else []
        if ref and hyp:
            letter = "m" if ref[-1] == hyp[-1] else "s"
            ends += [letter + rest for rest in every_alignment(ref[:-1], hyp[:-1], found)]
        if ref:
            ends += ["d" + rest for rest in every_alignment(ref[:-1], hyp, found)]
        if hyp:
            ends += ["i" + rest for rest in every_alignment(ref, hyp[:-1], found)]
        found[ref, hyp] = ends
    return found[ref, hyp]


def test_align_takes_the_cheapest_alignment_whose_ops_from_the_end_rank_least():
    """Among the cheapest alignments, ``align`` takes the one whose ops, read from
    the end, rank least: match or substitution, then deletion, then insertion."""
    rank = str.maketrans("msdi", "0012")
    kind = {"m": MATCH, "s": SUBSTITUTION, "d": DELETION, "i": INSERTION}
    refs = [ref for n in range(5) for ref in itertools.product("ab", repeat=n)]
    hyps = [hyp for n in range(5) for hyp in itertools.product("abc", repeat=n)]
    found = {}
    for ref, hyp in itertools.product(refs, hyps):
        best = min(every_alignment(ref, hyp, found),
                   key=lambda ops: (len(ops) - ops.count("m"), ops.translate(rank)))
        assert kinds(align(list(ref), list(hyp))) == [kind[op] for op in reversed(best)]
    assert len(refs) * len(hyps) == 3751


def test_score_fig_scenario():
    report, _ = score(
        [align(["my", "name", "is", "kerry"], ["my", "name", "is", "gary"])],
        [{"kerry"}],
    )
    assert report.wer == 25.0
    assert report.b_wer == 100.0
    assert report.u_wer == 0.0


def test_score_perfect():
    report, _ = score([align(["a", "b"], ["a", "b"])], [{"a"}])
    assert (report.wer, report.b_wer, report.u_wer) == (0.0, 0.0, 0.0)


def test_gate_rates_hand_trace():
    trace = [Trace(0, 0.6), Trace(1, 0.7), Trace(2, 0.2), Trace(3, 0.1)]
    mask = np.array([False, True, True, False])
    report, _ = score(
        [align(["a"], ["a"])], [set()], gate_traces=[trace], bias_masks=[mask]
    )
    assert report.tar == 50.0
    assert report.far == 50.0
    assert report.counts["n_gate_positions"] == 4


def test_gate_rates_are_percentages_of_their_pools():
    trace = [Trace(0, 0.9), Trace(1, 0.8), Trace(2, 0.1),
             Trace(3, 0.7), Trace(4, 0.6), Trace(5, 0.2), Trace(6, 0.3)]
    mask = np.arange(7) < 3
    report, _ = score([align(["a"], ["a"])], [set()], gate_traces=[trace], bias_masks=[mask])
    assert report.tar == 100.0 * 2 / 3 and report.far == 50.0


def test_gate_at_the_threshold_counts_as_fired():
    on = [True, False, False]
    assert gate_counts([GATE_THRESHOLD] * 3, on) == {"tp": 1, "fn": 0, "fp": 2, "tn": 0}
    below = np.nextafter(GATE_THRESHOLD, 0.0)
    assert gate_counts([below] * 3, on) == {"tp": 0, "fn": 1, "fp": 0, "tn": 2}


def test_gate_positions_with_empty_valid_set_excluded():
    trace = [Trace(0, 0.9, valid=False), Trace(1, 0.9), Trace(2, 0.0, valid=False)]
    mask = np.array([False, True, False])
    report, _ = score(
        [align(["a"], ["a"])], [set()], gate_traces=[trace], bias_masks=[mask]
    )
    assert report.counts["n_gate_positions"] == 1
    assert report.tar == 100.0
    assert report.far == 0.0


@pytest.mark.parametrize("step, utt_ids, name", [
    (-1, ["u0", "u1"], "u1"), (3, ["u0", "u1"], "u1"), (3, None, "1"),
], ids=["negative", "past_the_end", "by_index"])
def test_trace_step_outside_its_mask_names_the_utterance(step, utt_ids, name):
    traces = [[Trace(0, 0.9)], [Trace(0, 0.9), Trace(step, 0.9)]]
    masks = [np.array([True]), np.array([False, True, False])]
    with pytest.raises(ValueError, match=rf"^utterance {name}: gate trace step {step} "
                                         r"lies outside its bias mask's 3 positions$"):
        score([align(["a"], ["a"])] * 2, [set()] * 2, traces, masks, utt_ids)


def test_gate_traces_need_one_mask_each():
    with pytest.raises(ValueError, match="matching bias masks per utterance"):
        score([align(["a"], ["a"])] * 2, [set()] * 2, [[Trace(0, 0.9)]] * 2, [np.array([True])])


@pytest.mark.parametrize("utt_ids", [[], ["u1"], ["u1", "u2", "u3"]],
                         ids=["empty", "too_short", "too_long"])
def test_utterance_ids_need_one_per_alignment(utt_ids):
    with pytest.raises(ValueError) as caught:
        score([align(["a"], ["a"])] * 2, [set()] * 2, utt_ids=utt_ids)
    assert str(caught.value) == "alignments and utterance ids must pair up one to one"
    _, breakdown = score([align(["a"], ["a"])] * 2, [set()] * 2, utt_ids=["u1", "u2"])
    assert [utt["id"] for utt in breakdown] == ["u1", "u2"]


def test_scorer_fixture_counts_exact():
    cases = scorer_fixture()
    alignments = [align(ref, hyp) for ref, hyp, _, _ in cases]
    lists = [bias for _, _, bias, _ in cases]
    report, breakdown = score(alignments, lists)
    for utt, (_, _, _, expected) in zip(breakdown, cases):
        for key, value in expected.items():
            field = {"subs": "substitutions", "dels": "deletions", "ins": "insertions"}.get(key, key)
            assert utt[field] == value, (utt["id"], key)
    assert report.counts["bias_errors"] == 8
    assert report.counts["unbias_errors"] == 5
    assert report.counts["ref_words"] == 36
    assert report.counts["ref_bias_words"] == 10
    assert report.counts["u_we_b"] == 1
    assert abs(report.wer - 100 * 13 / 36) < 1e-12
    assert abs(report.b_wer - 80.0) < 1e-12
    assert abs(report.u_wer - 100 * 5 / 26) < 1e-12


def test_error_decomposition_random():
    rng = np.random.default_rng(7)
    pool = ["ash", "bay", "cod", "dew", "elm", "fir"]
    for _ in range(100):
        ref = [pool[int(rng.integers(6))] for _ in range(int(rng.integers(1, 8)))]
        hyp = [pool[int(rng.integers(6))] for _ in range(int(rng.integers(0, 8)))]
        bias = set(rng.choice(pool, size=2, replace=False).tolist())
        report, _ = score([align(ref, hyp)], [bias])
        counts = report.counts
        assert counts["bias_errors"] + counts["unbias_errors"] == counts["errors_total"]


def test_far_tar_invariant_to_utterance_order():
    rng = np.random.default_rng(3)
    traces, masks, aligns, lists = [], [], [], []
    for _ in range(10):
        n = int(rng.integers(2, 8))
        traces.append([Trace(i, float(rng.uniform())) for i in range(n)])
        masks.append(np.zeros(n, dtype=bool))
        masks[-1][rng.choice(n, 2)] = True
        aligns.append(align(["w"], ["w"]))
        lists.append(set())
    fwd, _ = score(aligns, lists, traces, masks)
    rev, _ = score(aligns[::-1], lists[::-1], traces[::-1], masks[::-1])
    assert fwd.far == rev.far
    assert fwd.tar == rev.tar


@pytest.mark.parametrize("ref, hyp, bias, u_we_b", [
    (["a", "b", "c"], ["x", "b", "z"], {"c"}, 0),
    (["a", "b", "c"], ["x", "y", "c"], {"b"}, 1),
], ids=["ends_are_not_neighbours", "right_neighbour"])
def test_u_we_b_counts_only_adjacent_ops(ref, hyp, bias, u_we_b):
    report, _ = score([align(ref, hyp)], [bias])
    assert report.counts["u_we_b"] == u_we_b


def test_notes_name_exactly_the_undefined_rates():
    proxy = "u_we_b uses a +-1 alignment-op adjacency proxy"
    report, _ = score([align(["a"], ["b"])], [set()])
    assert report.notes == [proxy]
    report, _ = score([align([], ["x"])], [set()])
    assert report.wer is None and report.u_wer is None and report.b_wer == 0.0
    assert report.notes == [proxy, "u_wer undefined: unbiased errors with no unbiased "
                            "reference words", "wer undefined: errors against an empty reference"]


def test_bias_insertion_without_reference_bias_words():
    report, _ = score([align(["go", "home"], ["go", "tom", "home"])], [{"tom"}])
    assert report.b_wer is None
    assert report.counts["bias_errors"] == 1
    assert any("b_wer undefined" in note for note in report.notes)


def test_report_serialization():
    report, _ = score([align(["a"], ["b"])], [set()])
    text = report.to_json()
    assert '"wer": 100.0' in text
    csv_text = report.to_csv_row()
    assert csv_text.startswith("wer,b_wer,u_wer,far,tar,u_we_b\n")


def test_mismatched_inputs_rejected():
    with pytest.raises(ValueError):
        score([align(["a"], ["a"])], [])
