import pickle
from dataclasses import fields, replace
from pathlib import Path

import pytest

from conftest import make_headline
from presup.corpus import preprocess
from presup.evaluation import normalize
from presup.ingest import edge_view, parse_conllu
from presup.lexicon import VERB_CLASS_IDS, default_lexicon
from presup.rules import (
    DEFAULT_RULES,
    RULE_IDS,
    RULES,
    EngineConfig,
    InferenceKind,
    extract_triplets,
    generate_all,
    infer_all,
    rule_again,
    rule_but,
    rule_further,
    rule_future,
    rule_lexical,
    rule_nmod_of,
    rule_nmod_relaxed,
    rule_noun_compound,
    rule_past_tense,
    rule_question,
    rule_quotes,
    rule_temporal,
)

LEX = default_lexicon()


def run(rule, h, p=(), **settings):
    """``rule`` on ``h``'s edge view, under an EngineConfig of ``settings``."""
    cfg = EngineConfig(**settings)
    return rule(edge_view(h, cfg.strict_verbs), p, cfg)


def texts(inferences):
    return [i.text for i in inferences]


def norm_texts(inferences):
    return {normalize(i.text) for i in inferences}


RESCUE = parse_conllu(
    "# text = Rescue rules by Bank of England will divide Britain\n"
    "1\tRescue\t_\t_\tNN\t_\t2\tcompound\t_\t_\n"
    "2\trules\t_\t_\tNNS\t_\t8\tnsubj\t_\t_\n"
    "3\tby\t_\t_\tIN\t_\t4\tcase\t_\t_\n"
    "4\tBank\t_\t_\tNNP\t_\t2\tnmod\t_\t_\n"
    "5\tof\t_\t_\tIN\t_\t6\tcase\t_\t_\n"
    "6\tEngland\t_\t_\tNNP\t_\t4\tnmod\t_\t_\n"
    "7\twill\t_\t_\tMD\t_\t8\taux\t_\t_\n"
    "8\tdivide\t_\t_\tVB\t_\t0\troot\t_\t_\n"
    "9\tBritain\t_\t_\tNNP\t_\t8\tdobj\t_\t_\n"
)[0]


class TestRuleFuture:
    def test_broadcast_headline(self, basic_triggers):
        h, _ = basic_triggers["future"]
        (inf,) = run(rule_future, h)
        assert inf.text == "Olympics is not yet broadcast"
        assert inf.kind is InferenceKind.PRESUPPOSITION
        assert inf.trigger == "future"
        assert set(inf.span) == {4, 6, 7}

    def test_will_without_dobj(self, basic_triggers):
        h, _ = basic_triggers["but"]  # "will they come" has no direct object
        assert run(rule_future, h) == []

    def test_rescue_rules(self):
        (inf,) = run(rule_future, RESCUE)
        assert inf.text == "Britain is not yet divided"


class TestRuleBut:
    def test_ready_but_come(self, basic_triggers):
        h, _ = basic_triggers["but"]
        (inf,) = run(rule_but, h)
        assert inf.text == "being ready was expecting coming"
        assert inf.kind is InferenceKind.CONVENTIONAL_IMPLICATURE

    def test_plain_conj_does_not_fire(self):
        h = make_headline(
            "cheap/JJ and/CC fast/JJ",
            [("root", 0, 1), ("cc", 3, 2), ("conj", 1, 3)],
        )
        assert run(rule_but, h) == []

    def test_cheap_but_slow(self):
        h = make_headline(
            "X/NNP is/VBZ cheap/JJ but/CC slow/JJ",
            [
                ("nsubj", 3, 1),
                ("cop", 3, 2),
                ("root", 0, 3),
                ("cc", 3, 4),
                ("conj", 3, 5),
            ],
        )
        (inf,) = run(rule_but, h)
        assert inf.text == "being cheap was expecting slowing"

    def test_negated_second_conjunct(self):
        h = make_headline(
            "ready/JJ but/CC not/RB coming/VBG",
            [("root", 0, 1), ("cc", 1, 2), ("neg", 4, 3), ("conj", 1, 4)],
        )
        (inf,) = run(rule_but, h)
        assert inf.text == "being ready was not expecting coming"


class TestRuleAgain:
    def test_norway_regulator(self, basic_triggers):
        h, _ = basic_triggers["again"]
        (inf,) = run(rule_again, h)
        assert inf.text == "Norway regulator has rejected Donut fish farm volume plan before"

    def test_again_without_subject(self):
        h = make_headline(
            "Rains/NNS again/RB", [("root", 0, 1), ("advmod", 1, 2)]
        )
        assert run(rule_again, h) == []

    def test_talks_collapse_again(self):
        h = make_headline(
            "Talks/NNS collapse/VBP again/RB",
            [("nsubj", 2, 1), ("root", 0, 2), ("advmod", 2, 3)],
        )
        (inf,) = run(rule_again, h)
        assert inf.text == "Talks has collapsed before"


class TestRuleFurther:
    def test_uk_economy(self, basic_triggers):
        h, _ = basic_triggers["further"]
        (inf,) = run(rule_further, h)
        assert inf.text == "economy is already slow"

    def test_strict_verb_mode_excludes_vb(self, basic_triggers):
        h, _ = basic_triggers["further"]  # "slow" is tagged VB
        assert run(rule_further, h, strict_verbs=True) == []

    def test_no_further_token(self, basic_triggers):
        h, _ = basic_triggers["nmod_of"]
        assert run(rule_further, h) == []

    def test_prices_fall_further(self):
        h = make_headline(
            "Prices/NNS fall/VBP further/RB",
            [("nsubj", 2, 1), ("root", 0, 2), ("advmod", 2, 3)],
        )
        (inf,) = run(rule_further, h)
        assert inf.text == "Prices is already fall"

    def test_possessive_marker_is_not_a_subject(self):
        h = make_headline(
            "Market/NN 's/POS further/RB falls/VBZ",
            [("dep", 4, 1), ("case", 1, 2), ("advmod", 4, 3), ("root", 0, 4)],
        )
        (inf,) = run(rule_further, h)
        assert inf.text == "Market is already fall"

    def test_possessive_pronoun_is_not_a_subject(self):
        h = make_headline(
            "His/PRP$ further/RB falls/VBZ", [("dep", 3, 1), ("advmod", 3, 2), ("root", 0, 3)]
        )
        assert run(rule_further, h) == []

    def test_predeterminer_is_not_a_subject(self):
        h = make_headline(
            "All/PDT further/RB cut/VB", [("dep", 3, 1), ("advmod", 3, 2), ("root", 0, 3)]
        )
        assert run(rule_further, h) == []

    def test_nearest_preceding_noun_fallback(self):
        h = make_headline(
            "Economy/NN to/TO slow/VB further/RB",
            [("dep", 3, 1), ("mark", 3, 2), ("root", 0, 3), ("advmod", 3, 4)],
        )
        (inf,) = run(rule_further, h)
        assert inf.text == "Economy is already slow"


class TestRuleNounCompound:
    def test_olympic_ban(self, basic_triggers):
        h, _ = basic_triggers["compound"]
        assert texts(run(rule_noun_compound, h)) == [
            "Olympic can be/can have ban",
            "reelection can be/can have hand",
        ]

    def test_brexit_campaign(self):
        h = make_headline(
            "Brexit/NNP campaign/NN", [("compound", 2, 1), ("root", 0, 2)]
        )
        (inf,) = run(rule_noun_compound, h)
        assert inf.text == "Brexit can be/can have campaign"

    def test_rendering_modes(self):
        h = make_headline(
            "Brexit/NNP campaign/NN", [("compound", 2, 1), ("root", 0, 2)]
        )
        assert texts(run(rule_noun_compound, h, compound_mode="can_be")) == ["Brexit can be campaign"]
        assert texts(run(rule_noun_compound, h, compound_mode="can_have")) == ["Brexit can have campaign"]

    def test_no_compound_edges(self, basic_triggers):
        h, _ = basic_triggers["nmod_of"]
        assert run(rule_noun_compound, h) == []

    def test_non_noun_compound_ignored(self):
        h = make_headline(
            "slow/JJ down/NN", [("compound", 2, 1), ("root", 0, 2)]
        )
        assert run(rule_noun_compound, h) == []


class TestRulePastTense:
    def test_released_video_main_clause_only(self, basic_triggers):
        h, _ = basic_triggers["past"]
        (inf,) = run(rule_past_tense, h)
        assert inf.text == "dude has released this video"

    def test_present_tense_does_not_fire(self, basic_triggers):
        h, _ = basic_triggers["again"]
        assert run(rule_past_tense, h) == []

    def test_markets_crashed(self):
        h = make_headline(
            "Markets/NNS crashed/VBD",
            [("nsubj", 2, 1), ("root", 0, 2)],
        )
        (inf,) = run(rule_past_tense, h)
        assert inf.text == "Markets has crashed"


class TestRuleNmodOf:
    def test_bank_of_england(self, basic_triggers):
        h, _ = basic_triggers["nmod_of"]
        (inf,) = run(rule_nmod_of, h)
        assert inf.text == "England has Bank"

    def test_wrong_case_marker(self):
        h = make_headline(
            "talks/NNS in/IN London/NNP",
            [("root", 0, 1), ("case", 3, 2), ("nmod", 1, 3)],
        )
        assert run(rule_nmod_of, h) == []

    def test_rescue_rules(self):
        (inf,) = run(rule_nmod_of, RESCUE)
        assert inf.text == "England has Bank"


class TestRuleNmodRelaxed:
    def test_combined_example_nmod(self, combined_example):
        h, _ = combined_example
        assert texts(run(rule_nmod_relaxed, h)) == ["Brexit has step"]

    def test_verb_governed_nmod_skipped(self, basic_triggers):
        h, _ = basic_triggers["future"]  # nmod(broadcast, team) has a verb governor
        assert run(rule_nmod_relaxed, h) == []


class TestRuleLexical:
    def test_change_of_state_continued(self, lexical_triggers):
        h, _ = lexical_triggers["change_of_state_xcomp"]
        (inf,) = run(rule_lexical, h, rules=("lexical.change_of_state",))
        assert inf.text == "Britain was struggling with Brexit"
        assert inf.trigger == "lexical.change_of_state"

    def test_change_of_state_stopped(self, lexical_triggers):
        h, _ = lexical_triggers["change_of_state_cessation"]
        (inf,) = run(rule_lexical, h, rules=("lexical.change_of_state",))
        assert inf.text == "China had been stockpiling metals"

    def test_judging_blames(self, lexical_triggers):
        h, _ = lexical_triggers["judging"]
        (inf,) = run(rule_lexical, h, rules=("lexical.judging",))
        assert inf.text == "Trump thinks that financial market disruption is bad"

    def test_factive_nominal_fallback(self, lexical_triggers):
        h, _ = lexical_triggers["factive_nominal"]
        (inf,) = run(rule_lexical, h, rules=("lexical.factive",))
        assert inf.text == "There exists Labour MPs resignations"

    def test_factive_clausal_complement(self):
        h = make_headline(
            "Corbyn/NNP knows/VBZ Labour/NNP MPs/NNPS resigned/VBD",
            [
                ("nsubj", 2, 1),
                ("root", 0, 2),
                ("compound", 4, 3),
                ("nsubj", 5, 4),
                ("ccomp", 2, 5),
            ],
        )
        (inf,) = run(rule_lexical, h, rules=("lexical.factive",))
        assert inf.text == "Labour MPs resigned"

    def test_implicative_managed(self, lexical_triggers):
        h, _ = lexical_triggers["implicative"]
        (inf,) = run(rule_lexical, h, rules=("lexical.implicative",))
        assert inf.text == "Russia destroyed Saudi Arabia"

    def test_iterative_goal_fallback(self, lexical_triggers):
        h, _ = lexical_triggers["iterative_goal"]
        (inf,) = run(rule_lexical, h, rules=("lexical.iterative",))
        assert inf.text == "Indian market has happened before"

    def test_iterative_not_triggered_outside_lexicon(self, lexical_triggers):
        h, _ = lexical_triggers["iterative_unlisted"]  # "reassess" carries the meaning but is not listed
        assert run(rule_lexical, h, rules=("lexical.iterative",)) == []

    def test_iterative_with_subject_and_goal(self):
        h = make_headline(
            "HTC/NNP returns/VBZ to/TO Indian/JJ market/NN",
            [
                ("nsubj", 2, 1),
                ("root", 0, 2),
                ("case", 5, 3),
                ("amod", 5, 4),
                ("nmod", 2, 5),
            ],
        )
        (inf,) = run(rule_lexical, h, rules=("lexical.iterative",))
        assert inf.text == "HTC had been in Indian market previously"

    def test_iterative_with_subject_and_complement(self):
        h = make_headline(
            "Company/NN repeats/VBZ selling/VBG shares/NNS",
            [("nsubj", 2, 1), ("root", 0, 2), ("xcomp", 2, 3), ("dobj", 3, 4)],
        )
        (inf,) = run(rule_lexical, h, rules=("lexical.iterative",))
        assert inf.text == "Company had sold shares previously"
        assert inf.span == (1, 2, 3, 4)

    def test_no_recoverable_structure_yields_nothing(self):
        h = make_headline("stopped/VBD", [("root", 0, 1)])
        assert run(rule_lexical, h, rules=RULE_IDS) == []


class TestRuleTemporal:
    def test_nominal_branch(self, lexical_triggers):
        h, _ = lexical_triggers["temporal_nominal"]
        (inf,) = run(rule_temporal, h)
        assert inf.text == "There was Brexit campaign"

    def test_clausal_branch(self, basic_triggers):
        h, _ = basic_triggers["past"]
        (inf,) = run(rule_temporal, h)
        assert inf.text == "he went on killing spree"

    def test_no_temporal_marker(self, basic_triggers):
        h, _ = basic_triggers["nmod_of"]
        assert run(rule_temporal, h) == []

    @pytest.mark.parametrize("strict_verbs, want", [
        (False, []),  # a verb without a subject renders no clause
        (True, ["There was Brexit vote"]),  # strict: bare VB is not a verb
    ])
    def test_verb_pattern_decides_the_reading_of_a_bare_vb(self, strict_verbs, want):
        h = make_headline(
            "Markets/NNS fell/VBD before/IN Brexit/NNP vote/VB",
            [("root", 0, 2), ("nsubj", 2, 1), ("nmod", 2, 5), ("case", 5, 3), ("compound", 5, 4)],
        )
        assert texts(run(rule_temporal, h, strict_verbs=strict_verbs)) == want
        cfg = EngineConfig(rules=("temporal",), lexicon=LEX, strict_verbs=strict_verbs)
        assert texts(infer_all(h, (), cfg)) == want


class TestRuleQuestion:
    def test_wh_contraction(self, lexical_triggers):
        h, _ = lexical_triggers["question_wh"]
        (inf,) = run(rule_question, h)
        assert inf.text == "something is missing from your low carb breakfast"

    def test_yes_no_vacuous(self, lexical_triggers):
        h, _ = lexical_triggers["question_yesno"]
        assert run(rule_question, h) == []

    def test_non_question(self, basic_triggers):
        h, _ = basic_triggers["nmod_of"]
        assert run(rule_question, h) == []

    def test_inversion_undone(self):
        h = make_headline(
            "Where/WRB did/VBD he/PRP go/VB",
            [("advmod", 4, 1), ("aux", 4, 2), ("nsubj", 4, 3), ("root", 0, 4)],
            raw_text="Where did he go?",
        )
        (inf,) = run(rule_question, h)
        assert inf.text == "he did go somewhere"

    def test_question_mark_token_is_not_rendered(self):
        """CoreNLP keeps "?" as a token tagged "."; no branch renders it."""
        cases = [
            ("When/WRB will/MD Brexit/NNP happen/VB ?/.", "When will Brexit happen?",
             [("advmod", 4, 1), ("aux", 4, 2), ("nsubj", 4, 3), ("root", 0, 4), ("punct", 4, 5)],
             "Brexit will happen sometime"),
            ("Who/WP is/VBZ Trump/NNP ?/.", "Who is Trump?",
             [("root", 0, 1), ("cop", 1, 2), ("nsubj", 1, 3), ("punct", 1, 4)],
             "Trump is someone"),
            ("What's/WP next/JJ ?/.", "What's next?",
             [("nsubj", 2, 1), ("root", 0, 2), ("punct", 2, 3)],
             "something is next"),
            ("Who/WP won/VBD ?/.", "Who won?",
             [("nsubj", 2, 1), ("root", 0, 2), ("punct", 2, 3)],
             "someone won"),
        ]
        for spec, raw_text, edges, want in cases:
            h = make_headline(spec, edges, raw_text=raw_text)
            (inf,) = run(rule_question, h)
            assert inf.text == want
            assert inf.span == tuple(t.index for t in h.tokens)

    def test_contracted_is_either_apostrophe(self):
        """"'s" renders "is" whether the parser kept it on the wh-word or
        split it off, with a straight or a curly apostrophe."""
        for apostrophe in ("'", "’"):
            one_token = make_headline(
                f"What{apostrophe}s/WP next/JJ ?/.",
                [("nsubj", 2, 1), ("root", 0, 2), ("punct", 2, 3)],
                raw_text=f"What{apostrophe}s next?",
            )
            split = make_headline(
                f"What/WP {apostrophe}s/VBZ next/JJ ?/.",
                [("nsubj", 3, 1), ("cop", 3, 2), ("root", 0, 3), ("punct", 3, 4)],
                raw_text=f"What{apostrophe}s next?",
            )
            for h in (one_token, split):
                (inf,) = run(rule_question, h)
                assert inf.text == "something is next", (apostrophe, len(h.tokens))

    def test_auxiliary_root_is_not_inverted(self):
        """Word 2 is the root, not an inverted auxiliary: nothing moves."""
        h = make_headline(
            "Who/WP has/VBZ the/DT ball/NN ?/.",
            [("nsubj", 2, 1), ("root", 0, 2), ("det", 4, 3), ("dobj", 2, 4), ("punct", 2, 5)],
            raw_text="Who has the ball?",
        )
        (inf,) = run(rule_question, h)
        assert inf.text == "someone has the ball"

    def test_punctuation_only_question(self):
        h = make_headline("?/.", [("root", 0, 1)], raw_text="?")
        assert run(rule_question, h) == []


class TestRuleQuotes:
    def test_merkel(self, lexical_triggers):
        h, p = lexical_triggers["quotes"]
        (inf,) = run(rule_quotes, h, p)
        assert inf.text == 'Merkel says "not the breakthrough"'

    def test_short_quote_ignored(self, basic_triggers):
        h, p = basic_triggers["again"]  # "Donut" is one quoted word
        assert run(rule_quotes, h, p) == []

    def test_no_speech_verb_fallback(self):
        h = make_headline(
            "Plan/NN shows/VBZ real/JJ true/JJ grit/NN",
            [
                ("nsubj", 2, 1),
                ("root", 0, 2),
                ("amod", 5, 3),
                ("amod", 5, 4),
                ("dobj", 2, 5),
            ],
            raw_text='Plan shows "real true grit"',
        )
        p = preprocess('Plan shows "real true grit"')
        (inf,) = run(rule_quotes, h, p)
        assert inf.text == "something is said"
        assert inf.span == (3, 4, 5)

    def test_more_than_two_words_of_the_text_not_tokens(self):
        """UD tokens: "May's plan" is three tokens but two words, and
        "well-known plan" two tokens but three words, as ``clean`` splits it."""
        for quoted, tokens, want in [
            ("May's plan", "May/NNP 's/POS plan/NN", []),
            ("well-known plan", "well-known/JJ plan/NN", [(1, 2, 4, 5)]),
        ]:
            h = make_headline(
                f'Merkel/NNP says/VBZ "/`` {tokens} "/\'\'',
                [("nsubj", 2, 1), ("root", 0, 2), ("punct", 2, 3)]
                + [("dep", 2, k) for k in range(4, 5 + tokens.count(" "))]
                + [("punct", 2, 5 + tokens.count(" "))],
                raw_text=f'Merkel says "{quoted}"',
            )
            assert [i.span for i in run(rule_quotes, h, preprocess(h.raw_text))] == want

    def test_tokens_that_do_not_spell_the_headline_place_no_quote(self):
        """A tokenizer that wrote "&" as "and": no token is taken for the
        quote, so a span holds only the speaker and the verb, and with no
        speaker nothing is rendered, since its span would be empty."""
        edges = [("nsubj", 2, 1), ("root", 0, 2), ("dobj", 2, 6),
                 ("compound", 6, 3), ("cc", 3, 4), ("conj", 3, 5)]
        h = make_headline("Band/NN says/VBZ rock/NN and/CC roll/NN lives/NNS", edges,
                          raw_text='Band says "rock & roll lives"')
        (inf,) = run(rule_quotes, h, preprocess(h.raw_text))
        assert (inf.text, inf.span) == ('Band says "rock & roll lives"', (1, 2))
        h = make_headline("Band/NN shows/VBZ rock/NN and/CC roll/NN lives/NNS", edges,
                          raw_text='Band shows "rock & roll lives"')
        assert run(rule_quotes, h, preprocess(h.raw_text)) == []

    def test_symbols_are_words(self):
        """``clean`` keeps "&" and "♥", so they count as words of the quote,
        and a symbol token between quoted words is inside the span."""
        h = make_headline("Fans/NNS chant/VBP rock/NN &/CC roll/NN",
                          [("nsubj", 2, 1), ("root", 0, 2), ("dobj", 2, 3),
                           ("cc", 3, 4), ("conj", 3, 5)],
                          raw_text='Fans chant "rock & roll"')
        (inf,) = run(rule_quotes, h, preprocess(h.raw_text))
        assert (inf.text, inf.span) == ("something is said", (3, 4, 5))
        h = make_headline("I/PRP ♥/VBP NY/NNP", [("nsubj", 2, 1), ("root", 0, 2), ("dobj", 2, 3)],
                          raw_text='"I ♥ NY"')
        (inf,) = run(rule_quotes, h, preprocess(h.raw_text))
        assert (inf.text, inf.span) == ("something is said", (1, 2, 3))

    def test_quote_without_letters_renders_no_spanless_inference(self):
        """Three words but no letter: no token can be placed in the quote."""
        h = make_headline("Fans/NNS chant/VBP &/CC &/CC &/CC",
                          [("nsubj", 2, 1), ("root", 0, 2)] + [("dep", 2, k) for k in (3, 4, 5)],
                          raw_text='Fans chant "& & &"')
        assert run(rule_quotes, h, preprocess(h.raw_text)) == []


class TestExtractTriplets:
    def test_combined_example(self, combined_example):
        h, _ = combined_example
        assert set(texts(run(extract_triplets, h))) == {
            "Britain takes step",
            "Britain takes step towards Brexit",
            "Britain takes step with repeal bill",
        }

    def test_particle_verb(self):
        h = make_headline(
            "How/WRB the/DT company/NN kept/VBD out/RP subversives/NNS",
            [
                ("advmod", 4, 1),
                ("det", 3, 2),
                ("nsubj", 4, 3),
                ("root", 0, 4),
                ("compound:prt", 4, 5),
                ("dobj", 4, 6),
            ],
            raw_text="How the company kept out 'subversives'",
        )
        (inf,) = run(extract_triplets, h)
        assert normalize(inf.text) == normalize("company kept out 'subversives'")
        assert inf.kind is InferenceKind.EXPLICIT_TRIPLE

    def test_verbless_headline(self):
        h = make_headline(
            "Brexit/NNP campaign/NN", [("compound", 2, 1), ("root", 0, 2)]
        )
        assert run(extract_triplets, h) == []


class TestInferAll:
    def test_combined_example_with_relaxed_nmod(self, combined_example):
        h, p = combined_example
        cfg = EngineConfig(rules=DEFAULT_RULES + ("nmod_relaxed",))
        got = norm_texts(infer_all(h, p, cfg))
        for want in (
            "Britain takes step",
            "Britain takes step towards Brexit",
            "Britain takes step with repeal bill",
            "repeal can be/can have bill",
            "Brexit has step",
        ):
            assert normalize(want) in got

    def test_no_rule_matches(self):
        h = make_headline("Snow/NN", [("root", 0, 1)])
        assert infer_all(h, preprocess("Snow"), EngineConfig()) == []

    def test_rule_filtering(self, basic_triggers):
        h, p = basic_triggers["compound"]
        cfg = EngineConfig(rules=("compound",))
        got = infer_all(h, p, cfg)
        assert {i.trigger for i in got} == {"compound"}
        assert len(got) == 2

    def test_duplicates_keep_first_trigger(self, basic_triggers):
        # The temporal rule and the triple extractor both render the same
        # clause of the past-tense example; temporal registers first.
        h, p = basic_triggers["past"]
        got = infer_all(h, p, EngineConfig())
        by_text = {i.text: i.trigger for i in got}
        assert by_text["he went on killing spree"] == "temporal"

    def test_spans_are_valid(self, basic_triggers, lexical_triggers, combined_example):
        cfg = EngineConfig(rules=DEFAULT_RULES + ("nmod_relaxed",))
        cases = list(basic_triggers.values()) + list(lexical_triggers.values()) + [combined_example]
        for h, p in cases:
            for inf in infer_all(h, p, cfg):
                assert inf.text.strip()
                assert inf.span
                assert all(1 <= i <= len(h.tokens) for i in inf.span)


class TestRegistry:
    def test_rule_ids_follow_registry(self):
        assert RULE_IDS == tuple(RULES)

    def test_registry_key_is_trigger(self, basic_triggers, lexical_triggers, combined_example):
        cases = list(basic_triggers.values()) + list(lexical_triggers.values()) + [combined_example]
        for rule_id in RULE_IDS:
            cfg = EngineConfig(rules=(rule_id,))
            fired = {i.trigger for h, p in cases for i in generate_all(h, p, cfg)}
            assert fired == {rule_id}

    @pytest.mark.parametrize("rules", [
        DEFAULT_RULES,
        RULE_IDS,
        (),
        ("triple", "lexical.judging", "future"),
        ("lexical.judging", "lexical.change_of_state"),
        ("quotes",),
    ])
    def test_plan_follows_rules(self, rules):
        for cfg in (
            EngineConfig(rules=rules),
            replace(EngineConfig(rules=RULE_IDS), rules=rules),
            replace(EngineConfig(rules=("future",)), rules=rules, strict_verbs=True),
        ):
            functions = cfg.rule_functions
            assert len(set(functions)) == len(functions)
            assert set(functions) == {RULES[r] for r in rules}
            first = [min(RULE_IDS.index(r) for r in rules if RULES[r] is fn) for fn in functions]
            assert first == sorted(first)

    def test_plan_is_not_a_setting(self):
        cfg = EngineConfig(rules=("future",))
        assert "rule_functions" not in {f.name for f in fields(EngineConfig)}
        assert "rule_functions" not in repr(cfg) and "rule_functions" not in cfg.fingerprint()

    def test_config_pickles(self):
        cfg = EngineConfig(rules=("lexical.judging", "triple"), strict_verbs=True,
                           compound_mode="can_be")
        copied = pickle.loads(pickle.dumps(cfg))
        assert copied == cfg and copied.fingerprint() == cfg.fingerprint()
        assert copied.rule_functions == cfg.rule_functions

    def test_replaced_config_runs_its_own_rules(self, lexical_triggers):
        cases = list(lexical_triggers.values())
        cfg = replace(EngineConfig(rules=RULE_IDS), rules=("lexical.judging",))
        fired = {i.trigger for h, p in cases for i in generate_all(h, p, cfg)}
        assert fired == {"lexical.judging"}

    def test_readme_rule_table_matches_registry(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        rows = readme.split("| rule id |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
        ids = []
        for row in rows:
            rule_id = row.split("|")[1].strip().strip("`")
            if rule_id == "lexical.*":
                ids.extend(f"lexical.{c}" for c in VERB_CLASS_IDS)
            else:
                ids.append(rule_id)
        assert tuple(ids) == RULE_IDS
