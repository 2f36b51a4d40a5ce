"""TriggerLexicon.verb_classes against the entry scan it replaced."""

import pytest

from presup.errors import FormatError
from presup.ingest import ParsedHeadline, Token
from presup.lexicon import VERB_CLASS_IDS, TriggerLexicon, default_lexicon, parse_lexicon
from presup.morphology import VerbForm, conjugate, lemma

# Heads given inflected and capitalized, multi-word tails.
CUSTOM = TriggerLexicon(
    entries={
        "iterative": {"came back"},
        "change_of_state": {"Stopped", "carried on"},
        "factive": {"regrets", "was sorry that"},
        "implicative": {"took the time", "Managed"},
    }
)

FORM_TAGS = {
    VerbForm.BASE: "VB",
    VerbForm.PAST: "VBD",
    VerbForm.PAST_PARTICIPLE: "VBN",
    VerbForm.GERUND: "VBG",
    VerbForm.PRESENT_3SG: "VBZ",
}


def reference_matches(h, lex, class_id, verb, vlemma):
    """The per-verb entry scan that rules.py ran before the lexicon built its
    head-lemma table."""
    for entry in lex.words(class_id):
        words = entry.split()
        head = words[0]
        if vlemma not in {head, lemma(head, "VBD"), lemma(head, "VBZ")}:
            continue
        if len(words) == 1:
            return True
        following = [
            t.surface.lower()
            for t in h.tokens[verb.index : verb.index + len(words) - 1]
        ]
        if following == words[1:]:
            return True
    return False


def headline(verb_surface, tag, following):
    surfaces = [("They", "PRP"), (verb_surface, tag), *((w, "NN") for w in following)]
    tokens = tuple(Token(i, s, p) for i, (s, p) in enumerate(surfaces, start=1))
    return ParsedHeadline("t", " ".join(s for s, _ in surfaces), tokens, ())


def cases(lex):
    """(headline, verb lemma) for each verb-class entry's head in each form,
    followed by its full tail (also capitalized, also with a word after it),
    by the tail cut off at the end of the headline, and by a wrong next word."""
    for cid in VERB_CLASS_IDS:
        for entry in lex.words(cid):
            head, *tail = entry.split()
            for base in {head, lemma(head, "VBD"), lemma(head, "VBZ")}:
                for form, tag in FORM_TAGS.items():
                    surface = conjugate(base, form)
                    for following in (
                        tail,
                        [w.title() for w in tail],
                        [*tail, "today"],
                        tail[:-1],
                        ["zzz", *tail[1:]],
                    ):
                        yield headline(surface, tag, following), lemma(surface, tag)


def test_matches_agrees_with_entry_scan():
    outcomes = set()
    for lex in (default_lexicon(), CUSTOM):
        for h, vlemma in cases(lex):
            verb = h.tokens[1]
            lowered = [t.surface.lower() for t in h.tokens]
            for cid in VERB_CLASS_IDS:
                got = cid in lex.verb_classes(vlemma, lowered[verb.index :])
                assert got == reference_matches(h, lex, cid, verb, vlemma), (cid, h.raw_text)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_inflected_head_and_tail():
    assert "change_of_state" in CUSTOM.verb_classes("stop", [])
    assert "change_of_state" in CUSTOM.verb_classes("carry", ["on", "talking"])
    assert "change_of_state" not in CUSTOM.verb_classes("carry", ["out"])
    assert "implicative" in CUSTOM.verb_classes("take", ["the", "time"])
    assert "implicative" not in CUSTOM.verb_classes("take", ["the"])
    assert "factive" in CUSTOM.verb_classes("regret", ())
    assert "judging" not in CUSTOM.verb_classes("regret", ())
    assert "change_of_state" in default_lexicon().verb_classes("carry", ("on",))


def test_verb_classes_in_class_order():
    lex = TriggerLexicon(entries={"judging": {"plan"}, "factive": {"planned that"},
                                  "iterative": {"plans"}})
    assert lex.verb_classes("plan", ["that", "it"]) == ["iterative", "factive", "judging"]
    assert lex.verb_classes("plan", []) == ["iterative", "judging"]
    assert lex.verb_classes("planet", ["that"]) == []


def test_parse_lexicon_lowercases_and_fills_classes():
    lex = parse_lexicon("# comment\nfactive\tRegrets\n\njudging\tBlame\n")
    assert lex == TriggerLexicon(entries={"factive": {"regrets"}, "judging": {"blame"}})
    assert lex.words("iterative") == frozenset()
    assert "factive" in lex.verb_classes("regret", [])


def test_parse_lexicon_line_without_tab_is_error():
    with pytest.raises(FormatError) as exc:
        parse_lexicon("# comment\nfactive\tregrets\nfactive regrets\n", "lex.tsv")
    assert str(exc.value) == "lex.tsv:3: expected 'class<TAB>entry'"
