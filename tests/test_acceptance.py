"""Acceptance suite: the bundled figure/table fixtures must reproduce the
documented inference strings and statistics at the stated tolerances.

Each test here corresponds to one acceptance criterion; a PASS/FAIL line per
criterion is printed by the conftest report hook.
"""

import json
import random
import time
from typing import NamedTuple

from conftest import FIXTURES, load_fixture_corpus
from presup.cli import main
from presup.corpus import GoldAnnotation, GoldInference, preprocess
from presup.evaluation import (
    Alignment,
    MatchConfig,
    MatchMode,
    match,
    normalize,
    score_by_trigger,
)
from presup.morphology import VerbForm, conjugate, irregular_table, lemma
from presup.rules import (
    DEFAULT_RULES,
    EngineConfig,
    Inference,
    InferenceKind,
    RULE_IDS,
    generate_all,
    infer_all,
)
from test_evaluation import brute_force_max_matching
from test_properties import ALL_RULES_CFG, random_parse

CORE_EXPECTED_INFERENCES = [
    "Olympics is not yet broadcast",
    "being ready was expecting coming",
    "Norway regulator has rejected Donut fish farm volume plan before",
    "economy is already slow",
    "Olympic can be/can have ban",
    "dude has released this video",
    "England has Bank",
]


def test_bundled_example_reproduction(tmp_path):
    """Criterion 1: every figure inference string, via the CLI, in < 1 s."""
    out = tmp_path / "basic_triggers.jsonl"
    started = time.perf_counter()
    code = main(
        ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
         "--parses", str(FIXTURES / "basic_triggers.json"), "--out", str(out)]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 7
    for record, expected in zip(records, CORE_EXPECTED_INFERENCES):
        rendered = {normalize(i["text"]) for i in record["inferences"]}
        assert normalize(expected) in rendered, (record["headline"], expected)
    assert elapsed < 1.0, f"figure run took {elapsed:.3f}s"


def test_combined_example_inferences(combined_example):
    """Criterion 2: the five combined-example inferences under relaxed nmod."""
    h, p = combined_example
    cfg = EngineConfig(rules=DEFAULT_RULES + ("nmod_relaxed",))
    rendered = {normalize(i.text) for i in infer_all(h, p, cfg)}
    for expected in (
        "Britain takes step",
        "Britain takes step towards Brexit",
        "Britain takes step with repeal bill",
        "repeal can be/can have bill",
        "Brexit has step",
    ):
        assert normalize(expected) in rendered


def test_scored_report_reproduction(tmp_path):
    """Criterion 3: (40.0, 0.0), (75.0, 0.0), (16.7, 33.3) within 0.1."""
    out = tmp_path / "report.json"
    code = main(
        ["eval",
         "--inferences", str(FIXTURES / "scored_computed.jsonl"),
         "--gold", str(FIXTURES / "scored_gold.txt"),
         "--labels", str(FIXTURES / "scored_labels.jsonl"),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    expected = [(40.0, 0.0), (75.0, 0.0), (16.7, 33.3)]
    assert len(report["headlines"]) == 3
    for row, (correct, incorrect) in zip(report["headlines"], expected):
        assert abs(row["percent_correct"] - correct) <= 0.1
        assert abs(row["percent_incorrect"] - incorrect) <= 0.1


def _presup(text, trigger):
    return Inference(InferenceKind.PRESUPPOSITION, text, trigger, (1,))


class SyntheticHeadline(NamedTuple):
    computed: tuple
    gold: GoldAnnotation
    incorrect_labels: frozenset
    alignment: Alignment


def _synthetic_corpus():
    """20 headlines with controlled matches per trigger.

    Layout (computed / matched / gold-tagged / missing / labeled-incorrect):
      future   4 / 3 / 4 / 1 / 1
      but      4 / 2 / 4 / 2 / 0
      compound 8 / 3 / 4 / 1 / 2
      again    4 / 4 / 5 / 1 / 0
      triple   2 / 0 / 0 / - / 0
      past     0 / 0 / 2 / 2 / 0
    """
    items = []

    def add(headline, computed, gold_inferences, incorrect=()):
        gold = GoldAnnotation(headline=headline, inferences=tuple(gold_inferences))
        labels = frozenset(incorrect)
        items.append(
            SyntheticHeadline(
                computed=tuple(computed),
                gold=gold,
                incorrect_labels=labels,
                alignment=match(computed, gold, incorrect_labels=labels),
            )
        )

    for i in range(4):  # future: first three match
        text = f"event {i} is not yet done"
        gold_text = text if i < 3 else f"unreached gold {i}"
        add(
            f"future headline {i}",
            [_presup(text, "future")],
            [GoldInference(gold_text, "future")],
            incorrect=[text] if i == 3 else (),
        )
    for i in range(4):  # but: first two match
        text = f"being ready was expecting thing {i}"
        gold_text = text if i < 2 else f"other expectation {i}"
        add(
            f"but headline {i}",
            [_presup(text, "but")],
            [GoldInference(gold_text, "but")],
        )
    for i in range(4):  # compound: two computed each, one matches on first three
        first = f"noun {i} can-have head {i}"
        second = f"extra {i} can-have head {i}"
        gold_text = first if i < 3 else f"different compound {i}"
        add(
            f"compound headline {i}",
            [_presup(first, "compound"), _presup(second, "compound")],
            [GoldInference(gold_text, "compound")],
            incorrect=[second] if i < 2 else (),
        )
    for i in range(4):  # again: all match; headline 0 carries one extra gold
        text = f"subject {i} has acted before"
        gold_inferences = [GoldInference(text, "again")]
        if i == 0:
            gold_inferences.append(GoldInference("unmatched again gold", "again"))
        add(f"again headline {i}", [_presup(text, "again")], gold_inferences)
    for i in range(2):  # triple: computed only, gold untagged
        add(
            f"triple headline {i}",
            [Inference(InferenceKind.EXPLICIT_TRIPLE, f"s v o {i}", "triple", (1,))],
            [GoldInference(f"untagged gold {i}")],
        )
    for i in range(2):  # past: tagged gold with no computed at all
        add(
            f"past headline {i}",
            [],
            [GoldInference(f"thing {i} has happened", "past")],
        )
    assert len(items) == 20
    return items


def _oracle_trigger_stats(items):
    """Independent tally: every gold/computed pair enumerated on normalized
    equality (all texts are unique per headline, so matching is forced)."""
    stats = {}

    def row(trigger):
        return stats.setdefault(
            trigger, {"computed": 0, "matched": 0, "incorrect": 0, "tagged": 0, "missing": 0}
        )

    for item in items:
        gold_norm = [normalize(g.text) for g in item.gold.inferences]
        comp_norm = [normalize(c.text) for c in item.computed]
        for ci, inf in enumerate(item.computed):
            row(inf.trigger)["computed"] += 1
            if comp_norm[ci] in gold_norm:
                row(inf.trigger)["matched"] += 1
            if comp_norm[ci] in {normalize(t) for t in item.incorrect_labels}:
                row(inf.trigger)["incorrect"] += 1
        for gi, g in enumerate(item.gold.inferences):
            if not g.trigger:
                continue
            row(g.trigger)["tagged"] += 1
            if gold_norm[gi] not in comp_norm:
                row(g.trigger)["missing"] += 1

    def pct(num, den):
        return None if den == 0 else round(num / den * 100.0, 1)

    return {
        trigger: (
            pct(r["matched"], r["computed"]),
            pct(r["incorrect"], r["computed"]),
            pct(r["missing"], r["tagged"]),
        )
        for trigger, r in stats.items()
    }


def test_trigger_statistics_substitute():
    """Criterion 4: synthetic 20-headline corpus scored exactly as the
    hand-computed/oracle percentages; the but-row echo lands on 69.2/0/30.8."""
    items = _synthetic_corpus()
    rows = {r["trigger"]: r for r in score_by_trigger(item.alignment for item in items)}
    hand_computed = {
        "future": (75.0, 25.0, 25.0),
        "but": (50.0, 0.0, 50.0),
        "compound": (37.5, 25.0, 25.0),
        "again": (100.0, 0.0, 20.0),
        "triple": (0.0, 0.0, None),
        "past": (None, None, 100.0),
    }
    assert set(rows) == set(hand_computed)
    assert _oracle_trigger_stats(items) == hand_computed

    for trigger, (accurate, inaccurate, missing) in hand_computed.items():
        r = rows[trigger]
        assert r["percent_accurate"] == accurate, trigger
        assert r["percent_inaccurate"] == inaccurate, trigger
        assert r["percent_missing"] == missing, trigger

    # Echo of the published but-row: 13 computed, 9 matched, 4 of 13 tagged
    # gold unmatched, nothing labeled incorrect.
    echo_items = []
    for i in range(13):
        computed = [_presup(f"but inference {i}", "but")]
        gold_text = f"but inference {i}" if i < 9 else f"gold only {i}"
        gold = GoldAnnotation(
            headline=f"echo {i}",
            inferences=(GoldInference(gold_text, "but"),),
        )
        echo_items.append(match(computed, gold, incorrect_labels=frozenset()))
    (echo,) = score_by_trigger(echo_items)
    assert echo["percent_accurate"] == 69.2
    assert echo["percent_inaccurate"] == 0.0
    assert echo["percent_missing"] == 30.8


REGULAR_VERBS = """
reject walk play follow stop plan grab drop ban slow divide release collapse
struggle stockpile blame accuse criticise apologise condemn impeach manage
bother dare care venture happen continue start finish arrive enter cease carry
return restore repeat remember warn claim announce extend vow try deny race
love hope use watch
""".split()

FORM_TAG = {
    VerbForm.BASE: "VB",
    VerbForm.PAST: "VBD",
    VerbForm.PAST_PARTICIPLE: "VBN",
    VerbForm.GERUND: "VBG",
    VerbForm.PRESENT_3SG: "VBZ",
}


def test_morphology_oracle():
    """Criterion 5: lemma(conjugate(b, f)) == b for every irregular entry and
    50 regular verbs across all five forms, in < 1 s."""
    assert len(REGULAR_VERBS) == 50
    bases = [base for base, _, _ in irregular_table()] + REGULAR_VERBS
    started = time.perf_counter()
    failures = [
        (base, form.name)
        for base in bases
        for form in VerbForm
        if lemma(conjugate(base, form), FORM_TAG[form]) != base
    ]
    elapsed = time.perf_counter() - started
    assert failures == []
    assert elapsed < 1.0, f"morphology oracle took {elapsed:.3f}s"


def test_property_suite(tmp_path):
    """Criterion 6: determinism, monotonicity, injectivity, greedy-vs-maximum
    on exact instances, and 1000-tree no-empty-inference fuzzing."""
    # Determinism: two identical CLI runs produce byte-identical outputs.
    outs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        assert main(
            ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
             "--parses", str(FIXTURES / "basic_triggers.json"), "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # Monotonicity under rule-set inclusion, pre-deduplication.
    corpus = load_fixture_corpus("basic_triggers.json", "basic_triggers_dataset.txt")
    rng = random.Random(13)
    for h, p, _ in corpus:
        full = {i.text for i in generate_all(h, p, ALL_RULES_CFG)}
        subset = tuple(r for r in RULE_IDS if rng.random() < 0.5)
        smaller = {i.text for i in generate_all(h, p, EngineConfig(rules=subset))}
        assert smaller <= full

    # Alignment injectivity plus greedy == maximum on exact instances <= 6x6.
    pool = ["a b", "c", "a c", "b d", "e", "c d"]
    for trial in range(300):
        k = rng.randrange(7)
        gold_texts = [rng.choice(pool) for _ in range(k)]
        computed_texts = [rng.choice(pool) for _ in range(rng.randrange(7))]
        alignment = match(
            computed_texts,
            GoldAnnotation("h", tuple(GoldInference(t) for t in gold_texts)),
            MatchConfig(MatchMode.TOKEN_JACCARD, 0.5),
        )
        gold_used = [p.gold_index for p in alignment.pairs]
        comp_used = [p.computed_index for p in alignment.pairs]
        assert len(set(gold_used)) == len(gold_used)
        assert len(set(comp_used)) == len(comp_used)
        exact = match(
            computed_texts,
            GoldAnnotation("h", tuple(GoldInference(t) for t in gold_texts)),
        )
        assert exact.matched_count == brute_force_max_matching(gold_texts, computed_texts)

    # Fuzz: no rule emits an empty inference over 1000 random small trees.
    fuzz_rng = random.Random(424242)
    for _ in range(1000):
        h = random_parse(fuzz_rng)
        p = preprocess(h.raw_text)
        for inf in infer_all(h, p, ALL_RULES_CFG):
            assert inf.text.strip()
            assert inf.span and all(1 <= i <= len(h.tokens) for i in inf.span)


LEXICAL_EXPECTATIONS = {
    "change_of_state_xcomp": ("lexical.change_of_state", "Britain was struggling with Brexit"),
    "change_of_state_cessation": ("lexical.change_of_state", "China had been stockpiling metals"),
    "judging": ("lexical.judging", "Trump thinks that financial market disruption is bad"),
    "question_wh": ("question", "something is missing from your low carb breakfast"),
    "quotes": ("quotes", 'Merkel says "not the breakthrough"'),
    "factive_nominal": ("lexical.factive", "There exists Labour MPs' resignations"),
    "iterative_goal": ("lexical.iterative", "Indian market has happened before"),
    "implicative": ("lexical.implicative", "Russia destroyed Saudi Arabia"),
    "temporal_nominal": ("temporal", "There was Brexit campaign"),
}


def test_lexical_trigger_coverage(lexical_triggers, basic_triggers):
    """Criterion 7: every encoded trigger example produces its documented
    inference; yes/no questions produce nothing from the question rule."""
    cfg = EngineConfig()
    for headline_id, (trigger, expected) in LEXICAL_EXPECTATIONS.items():
        h, p = lexical_triggers[headline_id]
        produced = infer_all(h, p, cfg)
        rendered = {
            normalize(i.text) for i in produced if i.trigger == trigger
        }
        assert normalize(expected) in rendered, (headline_id, trigger, expected)

    # Temporal clausal branch over the same sentence as the past-tense figure.
    h, p = basic_triggers["past"]
    clausal = {
        normalize(i.text) for i in infer_all(h, p, cfg) if i.trigger == "temporal"
    }
    assert normalize("he went on killing spree") in clausal

    # Yes/no questions presuppose nothing via the question rule.
    h, p = lexical_triggers["question_yesno"]
    assert [i for i in infer_all(h, p, cfg) if i.trigger == "question"] == []
