import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import evaluation_reference
from presup import evaluation
from presup.corpus import GoldAnnotation, GoldInference
from presup.evaluation import (
    Alignment,
    MatchConfig,
    MatchMode,
    MatchPair,
    match,
    normalize,
    score_by_trigger,
    score_headline,
    trigger_rows,
    trigger_table,
)
from presup.rules import Inference, InferenceKind


def gold_of(*texts_and_tags):
    inferences = []
    for item in texts_and_tags:
        if isinstance(item, tuple):
            inferences.append(GoldInference(text=item[0], trigger=item[1]))
        else:
            inferences.append(GoldInference(text=item))
    return GoldAnnotation(headline="h", inferences=tuple(inferences))


def computed_of(*texts_and_triggers):
    out = []
    for item in texts_and_triggers:
        text, trigger = item if isinstance(item, tuple) else (item, "rule")
        out.append(
            Inference(InferenceKind.PRESUPPOSITION, text, trigger, (1,))
        )
    return out


class TestNormalize:
    def test_can_family_collapse(self):
        assert normalize("Olympic can be /can have ban") == "olympic can-have ban"
        assert normalize("Brexit can be/ can have campaign") == "brexit can-have campaign"
        assert normalize("Brexit can have campaign") == "brexit can-have campaign"
        assert normalize("Brexit can be campaign") == "brexit can-have campaign"

    def test_punctuation_and_case(self):
        assert normalize("England has Bank.") == "england has bank"

    def test_empty(self):
        assert normalize("") == ""

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestMatch:
    def test_exact_single(self):
        alignment = match(computed_of("Olympics has medals"), gold_of("Olympics has medals"))
        assert alignment.matched_count == 1

    def test_disjoint(self):
        alignment = match(computed_of("a b"), gold_of("c d"))
        assert alignment.matched_count == 0
        assert alignment.unmatched_gold == (0,)
        assert alignment.unmatched_computed == (0,)

    def test_can_have_family_matches(self):
        alignment = match(
            computed_of("Brexit can be/ can have campaign"),
            gold_of("Brexit can have campaign"),
        )
        assert alignment.matched_count == 1

    def test_jaccard_threshold(self):
        # {korea, can-have, deadline} vs {north, korea, has, deadline}: J = 2/5
        computed = computed_of("Korea can have deadline")
        gold = gold_of("North Korea has deadline")
        assert Fraction(2, 5) == Fraction(
            len({"korea", "deadline"}), len({"korea", "can-have", "deadline", "north", "has"})
        )
        low = MatchConfig(mode=MatchMode.TOKEN_JACCARD, jaccard_threshold=0.4)
        high = MatchConfig(mode=MatchMode.TOKEN_JACCARD, jaccard_threshold=0.6)
        assert match(computed, gold, low).matched_count == 1
        assert match(computed, gold, high).matched_count == 0

    def test_jaccard_tie_broken_by_gold_then_computed_order(self):
        computed = computed_of("x a b", "y a b")
        gold = gold_of("z a b")
        cfg = MatchConfig(mode=MatchMode.TOKEN_JACCARD, jaccard_threshold=0.3)
        alignment = match(computed, gold, cfg)
        (pair,) = alignment.pairs
        assert (pair.gold_index, pair.computed_index) == (0, 0)

    def test_jaccard_phase_pairs_each_free_copy_of_a_text(self):
        # Both free "a b" take part, each with its own gold: J = 1/3 for all four.
        computed = computed_of("a b", "a b")
        cfg = MatchConfig(mode=MatchMode.TOKEN_JACCARD, jaccard_threshold=0.3)
        alignment = match(computed, gold_of("a c", "b c"), cfg)
        assert [p[:2] for p in alignment.pairs] == [(0, 0), (1, 1)]
        assert alignment == evaluation_reference.match(computed, gold_of("a c", "b c"), cfg)

    def test_judged_pairs_override(self):
        alignment = match(
            computed_of("Korea can have deadline"),
            gold_of("North Korea has deadline"),
            judged_pairs=(("North Korea has deadline", "Korea can have deadline"),),
        )
        assert alignment.matched_count == 1

    def test_each_inference_used_once(self):
        alignment = match(
            computed_of("same text", "same text"),
            gold_of("same text"),
        )
        assert alignment.matched_count == 1
        assert len(alignment.unmatched_computed) == 1

    def test_incorrect_is_labeled_else_unmatched(self):
        computed = computed_of("a b", "Brexit can be campaign", "c")
        gold = gold_of("A b.")
        assert match(computed, gold).incorrect == (1, 2)
        labeled = match(computed, gold, incorrect_labels={"brexit can have campaign."})
        assert labeled.incorrect == (1,)
        assert match(computed, gold, incorrect_labels=frozenset()).incorrect == ()

    def test_each_distinct_text_is_normalized_once(self, monkeypatch):
        """Through the module's own ``normalize``, so that a wrapper on it
        sees every call."""
        calls = []
        real = evaluation.normalize
        monkeypatch.setattr(evaluation, "normalize", lambda t: calls.append(t) or real(t))
        alignment = match(
            computed_of("a b", "Brexit can be campaign", "a b"),
            gold_of("a b", "c", "c"),
            judged_pairs=(("c", "a b"), ("absent", "a b")),
            incorrect_labels={"Brexit can be campaign", "d"},
        )
        assert sorted(calls) == ["Brexit can be campaign", "a b", "absent", "c", "d"]
        assert [(p.gold_index, p.computed_index) for p in alignment.pairs] == [(0, 2), (1, 0)]

    def test_records_are_named_tuples(self):
        pair = MatchPair(0, 1, 0.5)
        assert pair == (0, 1, 0.5) and pair._replace(score=1.0) == (0, 1, 1.0)
        assert GoldInference("a") == ("a", None)
        assert GoldInference("a", "but")._replace(text="b") == GoldInference("b", "but")
        alignment = alignment_counts(1, 1, 0)
        assert alignment == tuple(alignment)
        assert alignment._replace(incorrect=()).incorrect == ()

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError):
            MatchConfig(jaccard_threshold=1.5)


def alignment_counts(gold_n, computed_n, matched_n, headline="h", incorrect=None):
    """``incorrect`` holds computed indices; None means the unmatched ones."""
    pairs = tuple(
        dict(gold_index=i, computed_index=i) for i in range(matched_n)
    )
    return Alignment(
        pairs=tuple(MatchPair(p["gold_index"], p["computed_index"], 1.0) for p in pairs),
        unmatched_gold=tuple(range(matched_n, gold_n)),
        unmatched_computed=tuple(range(matched_n, computed_n)),
        incorrect=tuple(range(matched_n, computed_n)) if incorrect is None else incorrect,
        gold_texts=tuple(f"g{i}" for i in range(gold_n)),
        computed_texts=tuple(f"c{i}" for i in range(computed_n)),
        gold_triggers=(None,) * gold_n,
        computed_triggers=("rule",) * computed_n,
    )


class TestScoreHeadline:
    def test_row1(self):
        row = score_headline(alignment_counts(5, 3, 2, incorrect=()))
        assert row["percent_correct"] == 40.0
        assert row["percent_incorrect"] == 0.0

    def test_row2(self):
        row = score_headline(alignment_counts(4, 3, 3, incorrect=()))
        assert row["percent_correct"] == 75.0
        assert row["percent_incorrect"] == 0.0

    def test_row3(self):
        # "c1", computed index 1, is labeled incorrect.
        row = score_headline(alignment_counts(6, 3, 1, incorrect=(1,)))
        assert row["percent_correct"] == 16.7
        assert row["percent_incorrect"] == 33.3

    def test_automatic_mode_counts_unmatched_as_incorrect(self):
        row = score_headline(alignment_counts(6, 3, 1))
        assert row["incorrect"] == 2

    def test_zero_gold(self):
        assert score_headline(alignment_counts(0, 0, 0))["percent_correct"] == 100.0
        assert score_headline(alignment_counts(0, 2, 0))["percent_correct"] == 0.0

    def test_zero_computed(self):
        row = score_headline(alignment_counts(3, 0, 0))
        assert row["percent_incorrect"] == 0.0

    def test_bounds(self):
        row = score_headline(alignment_counts(5, 3, 2))
        assert 0 <= row["percent_correct"] <= 100
        assert 0 <= row["percent_incorrect"] <= 100
        assert row["matched"] <= min(row["gold"], row["computed"])


def eval_item(computed, gold, incorrect=None, judged=()):
    return match(computed, gold, judged_pairs=judged, incorrect_labels=incorrect)


class TestScoreByTrigger:
    def test_saturated_trigger(self):
        items = [
            eval_item(
                computed_of(("economy is already slow", "further")),
                gold_of(("economy is already slow", "further")),
                incorrect=frozenset(),
            )
        ]
        (row,) = trigger_rows(score_by_trigger(items))
        assert row["trigger"] == "further"
        assert row["percent_accurate"] == 100.0
        assert row["percent_inaccurate"] == 0.0
        assert row["percent_missing"] == 0.0

    def test_but_row_echo(self):
        # 13 computed but-inferences, 9 of which match their tagged gold;
        # the other 4 gold stay unmatched and nothing is labeled incorrect.
        items = []
        for i in range(13):
            gold_text = f"inference {i}" if i < 9 else f"missing {i}"
            items.append(
                eval_item(
                    computed_of((f"inference {i}", "but")),
                    gold_of((gold_text, "but")),
                    incorrect=frozenset(),
                )
            )
        (row,) = trigger_rows(score_by_trigger(items))
        assert row["percent_accurate"] == 69.2
        assert row["percent_inaccurate"] == 0.0
        assert row["percent_missing"] == 30.8

    def test_untagged_gold_makes_missing_unavailable(self):
        items = [
            eval_item(
                computed_of(("x", "future")),
                gold_of("y"),
                incorrect=frozenset(),
            )
        ]
        (row,) = trigger_rows(score_by_trigger(items))
        assert row["percent_accurate"] == 0.0
        assert row["percent_missing"] is None

    def test_trigger_absent_on_both_sides_omitted(self):
        items = [eval_item(computed_of(("x", "future")), gold_of(("x", "future")))]
        assert [s.trigger for s in score_by_trigger(items)] == ["future"]

    def test_empty_trigger_counts_as_a_trigger(self):
        # Only None is no trigger; "" names a row, as in the reference copy.
        items = [eval_item(computed_of(("x", ""), ("y", "")), gold_of(("x", ""), ("z", "")))]
        scores = score_by_trigger(items)
        assert [(s.trigger, s.computed_count, s.matched_count, s.missing_count)
                for s in scores] == [("", 2, 1, 1)]
        assert scores == evaluation_reference.score_by_trigger(items)

    def test_table_rendering(self):
        items = [eval_item(computed_of(("x", "future")), gold_of("y"))]
        table = trigger_table(trigger_rows(score_by_trigger(items)))
        assert table.splitlines()[0] == "trigger\taccurate\tinaccurate\tmissing"
        assert "n/a" in table


def brute_force_max_matching(gold_texts, computed_texts):
    """Oracle: maximum bipartite matching size on normalized equality."""
    n, m = len(gold_texts), len(computed_texts)
    ng = [normalize(t) for t in gold_texts]
    nc = [normalize(t) for t in computed_texts]
    best = 0
    indices = list(range(m)) + [None] * max(0, n - m)
    for perm in itertools.permutations(indices, n):
        size = sum(
            1
            for gi, ci in enumerate(perm)
            if ci is not None and ng[gi] == nc[ci]
        )
        best = max(best, size)
    return best


WORD_POOL = ["olympics", "has", "medals", "brexit", "campaign", "deadline"]


@given(
    st.lists(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=3), max_size=5),
    st.lists(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=3), max_size=5),
)
def test_greedy_equals_maximum_on_exact_instances(gold_words, computed_words):
    gold_texts = [" ".join(w) for w in gold_words]
    computed_texts = [" ".join(w) for w in computed_words]
    alignment = match(computed_texts, gold_of(*gold_texts))
    assert alignment.matched_count == brute_force_max_matching(gold_texts, computed_texts)


@given(
    st.lists(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=4), max_size=5),
    st.lists(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=4), max_size=5),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_raising_threshold_never_increases_matches(gold_words, computed_words, t1, t2):
    lo, hi = sorted((t1, t2))
    gold = gold_of(*(" ".join(w) for w in gold_words))
    computed = [" ".join(w) for w in computed_words]
    low = match(computed, gold, MatchConfig(MatchMode.TOKEN_JACCARD, lo))
    high = match(computed, gold, MatchConfig(MatchMode.TOKEN_JACCARD, hi))
    assert high.matched_count <= low.matched_count


@given(
    st.lists(st.sampled_from(["a b", "c", "a c", "b"]), max_size=5),
    st.lists(st.sampled_from(["a b", "c", "a c", "b"]), max_size=5),
)
def test_exact_match_symmetric_count(left, right):
    forward = match(left, gold_of(*right))
    backward = match(right, gold_of(*left))
    assert forward.matched_count == backward.matched_count


@given(
    st.lists(st.sampled_from(["a b", "c d", "a c", "b d", "a"]), max_size=6),
    st.lists(st.sampled_from(["a b", "c d", "a c", "b d", "a"]), max_size=6),
)
def test_alignment_injective(left, right):
    alignment = match(
        left, gold_of(*right), MatchConfig(MatchMode.TOKEN_JACCARD, 0.3)
    )
    gold_used = [p.gold_index for p in alignment.pairs]
    comp_used = [p.computed_index for p in alignment.pairs]
    assert len(gold_used) == len(set(gold_used))
    assert len(comp_used) == len(set(comp_used))


# Texts that normalize alike in several spellings, so labels and gold hit
# computed texts written differently.
VERDICT_TEXTS = ["a b", "A b.", "c", "a c", "b can be c", "b can have c", "d"]
TRIGGERS = ["again", "but", "future"]


@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(VERDICT_TEXTS), st.sampled_from(TRIGGERS)),
                     max_size=4),
            st.lists(st.tuples(st.sampled_from(VERDICT_TEXTS),
                               st.none() | st.sampled_from(TRIGGERS)), max_size=4),
            st.none() | st.frozensets(st.sampled_from(VERDICT_TEXTS), max_size=3),
        ),
        max_size=5,
    ),
    st.sampled_from(list(MatchMode)),
)
def test_headline_and_trigger_scores_count_one_verdict(headlines, mode):
    cfg = MatchConfig(mode, jaccard_threshold=0.3)
    alignments = [
        match(computed_of(*computed), gold_of(*gold), cfg, incorrect_labels=labels)
        for computed, gold, labels in headlines
    ]
    by_headline = [score_headline(a) for a in alignments]
    by_trigger = score_by_trigger(alignments)
    for count in ("computed", "matched", "incorrect"):
        assert sum(getattr(s, f"{count}_count") for s in by_trigger) == sum(
            row[count] for row in by_headline
        ), count
