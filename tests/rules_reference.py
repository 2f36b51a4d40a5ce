"""A frozen copy of the rule module as it was when every rule scanned
``h.edges`` on its own: ``edges_governed_by``, ``edges_with``, ``_noun_edges``
and ``edge_for_dependent`` per lookup, a lambda per registry row and one sort
of the whole output by registry position, then span.  ``test_properties.py``
checks that ``presup.rules.generate_all`` gives the same inferences, in the
same order, for any rule set and settings."""

from __future__ import annotations

from itertools import accumulate

from presup.corpus import QuotedSpan, letters, word_count
from presup.ingest import ParsedHeadline, Token, edges_with, is_verb_tag, nouns_of, verbs_of
from presup.lexicon import VERB_CLASS_IDS, TriggerLexicon
from presup.morphology import VerbForm, conjugate, lemma
from presup.rules import Inference, InferenceKind


# The two edge queries the package no longer has.
def edges_governed_by(h: ParsedHeadline, governor: int, dep: str | None = None) -> list:
    return [e for e in h.edges if e.governor == governor and (dep is None or e.dep == dep)]


def edge_for_dependent(h: ParsedHeadline, dependent: int):
    return next(e for e in h.edges if e.dependent == dependent)


_COMPOUND_CONNECTOR = {
    "both": "can be/can have",
    "can_be": "can be",
    "can_have": "can have",
}


_SUBJ_MODS = ("compound", "amod", "nummod")
_OBJ_MODS = ("compound", "amod", "nummod", "det")
_PARTICLE_DEPS = ("compound:prt", "prt")
# The dependents a triple renders with its verb: particles, auxiliaries and
# "neg" (an advmod "not" is the other negator, see ``_is_negator``).
_VERB_WORDS = frozenset({*_PARTICLE_DEPS, "aux", "auxpass", "neg"})
_COMP_DEPS = ("xcomp", "ccomp")

_SPEECH_VERBS = frozenset({"say", "tell", "claim", "add", "warn", "announce"})
_CESSATION_VERBS = frozenset({"stop", "cease", "finish", "quit", "halt"})

_WH_SUBSTITUTE = {
    "what": "something",
    "who": "someone",
    "where": "somewhere",
    "how": "somehow",
    "when": "sometime",
}
# The contracted "is" after a wh-word, with a straight or a curly apostrophe.
_IS_CLITICS = ("'s", "’s")
_AUX_SURFACES = frozenset(
    """
    is are was were am do does did can could will would shall should may
    might must has have had
    """.split()
)


def _merge(*spans: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    return tuple(sorted(set().union(*spans)))


# Builds an Inference without its Python-level __new__.
_new = tuple.__new__


def _presupposition(text: str, trigger: str, *spans) -> Inference:
    return _new(Inference, (InferenceKind.PRESUPPOSITION, text, trigger, _merge(*spans)))


def _phrase(
    h: ParsedHeadline, head: int, mods: tuple[str, ...] = _SUBJ_MODS
) -> tuple[str, tuple[int, ...]]:
    """Head token with its flat premodifiers, in surface order."""
    idxs = sorted([head] + [e.dependent for e in edges_governed_by(h, head) if e.dep in mods])
    return " ".join([h.tokens[i - 1].surface for i in idxs]), tuple(idxs)


def _is_negator(e) -> bool:
    return e.dep == "neg" or (e.dep == "advmod" and e.dependent_gloss.lower() == "not")


def _words(found: list[tuple[int, str]]) -> tuple[str, tuple[int, ...]]:
    """(index, word) pairs as text and span in surface order."""
    ordered = sorted(found)
    return " ".join(s for _, s in ordered), tuple(i for i, _ in ordered)


def _particle_tail(h: ParsedHeadline, verb: int) -> tuple[str, tuple[int, ...]]:
    return _words([(e.dependent, e.dependent_gloss)
                   for e in edges_governed_by(h, verb) if e.dep in _PARTICLE_DEPS])


def _nmod_attachments(
    h: ParsedHeadline, below: list
) -> list[tuple[str, str, tuple[int, ...]]]:
    """(preposition, phrase, span) for each case-marked nmod of ``below``,
    the edges under one head."""
    out = []
    for e in below:
        if e.dep != "nmod":
            continue
        cases = edges_governed_by(h, e.dependent, "case")
        if not cases:
            continue
        phrase, span = _phrase(h, e.dependent)
        out.append(
            (cases[0].dependent_gloss, phrase, _merge(span, (cases[0].dependent,)))
        )
    return out


def _object_tail(h: ParsedHeadline, verb: int) -> tuple[str, tuple[int, ...]]:
    """Direct object plus case-marked nominal attachments of a verb."""
    parts: list[str] = []
    span: tuple[int, ...] = ()
    dobjs = edges_governed_by(h, verb, "dobj")
    if dobjs:
        p, s = _phrase(h, dobjs[0].dependent, _OBJ_MODS)
        parts.append(p)
        span = _merge(span, s)
    for case_word, p, s in _nmod_attachments(h, edges_governed_by(h, verb)):
        parts.append(f"{case_word} {p}")
        span = _merge(span, s)
    return " ".join(parts), span


def _clause(
    h: ParsedHeadline, subj: int, verb: int, form: VerbForm, aux: str = "", after: str = ""
) -> tuple[str, tuple[int, ...]]:
    """Subject phrase, ``aux``, ``verb`` inflected to ``form``, the verb's
    object tail and ``after``, as text and span."""
    subj_p, subj_s = _phrase(h, subj)
    tok = h.token_at(verb)
    inflected = conjugate(lemma(tok.surface, tok.pos), form)
    tail, tail_s = _object_tail(h, verb)
    text = " ".join(filter(None, [subj_p, aux, inflected, tail, after]))
    return text, _merge(subj_s, tail_s, (verb,))


def _is_negated(h: ParsedHeadline, index: int) -> bool:
    return any(_is_negator(e) for e in edges_governed_by(h, index))


def _noun_edges(h: ParsedHeadline, dep: str) -> list:
    """The ``dep`` edges whose ends are both noun tokens."""
    tokens = h.tokens
    return [e for e in h.edges if e.dep == dep
            and tokens[e.governor - 1].pos[:1] == "N" and tokens[e.dependent - 1].pos[:1] == "N"]


def _first(edges):
    return edges[0] if edges else None


def rule_future(h: ParsedHeadline) -> list[Inference]:
    """aux 'will' plus a co-governed direct object: the event is still ahead."""
    out = []
    for d in edges_with(h, "aux", dependent_gloss="will"):
        verb = h.token_at(d.governor)
        participle = conjugate(lemma(verb.surface, verb.pos), VerbForm.PAST_PARTICIPLE)
        for nd in edges_governed_by(h, d.governor, "dobj"):
            text = f"{nd.dependent_gloss} is not yet {participle}"
            out.append(_presupposition(text, "future", (d.dependent, d.governor, nd.dependent)))
    return out


def rule_but(h: ParsedHeadline) -> list[Inference]:
    """conj:but carries the contrast implicature: the first conjunct raised an
    expectation about the second."""
    out = []
    for d in edges_with(h, "conj:but"):
        dep = h.token_at(d.dependent)
        gerund = conjugate(lemma(dep.surface, dep.pos), VerbForm.GERUND)
        expecting = "was not expecting" if _is_negated(h, d.dependent) else "was expecting"
        text = f"being {d.governor_gloss} {expecting} {gerund}"
        out.append(
            Inference(
                InferenceKind.CONVENTIONAL_IMPLICATURE,
                text,
                "but",
                _merge((d.governor, d.dependent)),
            )
        )
    return out


def rule_again(h: ParsedHeadline) -> list[Inference]:
    """advmod 'again' on a verb with a subject: it happened before."""
    out = []
    for d in edges_with(h, "advmod", dependent_gloss="again"):
        subj = _first(edges_governed_by(h, d.governor, "nsubj"))
        if subj is None:
            continue
        verb = h.token_at(d.governor)
        subj_p, subj_s = _phrase(h, subj.dependent)
        participle = conjugate(lemma(verb.surface, verb.pos), VerbForm.PAST_PARTICIPLE)
        obj_p, obj_s = "", ()
        dobj = _first(edges_governed_by(h, d.governor, "dobj"))
        if dobj is not None:
            obj_p, obj_s = _phrase(h, dobj.dependent)
        text = " ".join(filter(None, [subj_p, "has", participle, obj_p, "before"]))
        out.append(_presupposition(text, "again", subj_s, obj_s, (d.governor, d.dependent)))
    return out


def rule_further(h: ParsedHeadline, strict_verbs: bool = False) -> list[Inference]:
    """advmod 'further' on a verb: the subject is already in that state."""
    out = []
    for d in edges_with(h, "advmod", dependent_gloss="further"):
        verb = h.token_at(d.governor)
        if not is_verb_tag(verb.pos, strict_verbs):
            continue
        subj = _first(edges_governed_by(h, d.governor, "nsubj"))
        if subj is not None:
            subj_gloss, subj_index = subj.dependent_gloss, subj.dependent
        else:
            preceding = [t for t in nouns_of(h) if t.index < verb.index]
            if not preceding:
                continue
            subj_gloss, subj_index = preceding[-1].surface, preceding[-1].index
        text = f"{subj_gloss} is already {lemma(verb.surface, verb.pos)}"
        out.append(_presupposition(text, "further", (subj_index, d.governor, d.dependent)))
    return out


def rule_noun_compound(h: ParsedHeadline, mode: str = "both") -> list[Inference]:
    """Noun compound N1 N2: N1 can be / can have N2."""
    connector = _COMPOUND_CONNECTOR[mode]
    out = []
    for e in _noun_edges(h, "compound"):
        text = f"{e.dependent_gloss} {connector} {e.governor_gloss}"
        out.append(_presupposition(text, "compound", (e.governor, e.dependent)))
    return out


def rule_past_tense(h: ParsedHeadline) -> list[Inference]:
    """Main-clause simple past: the event already happened."""
    out = []
    for t in h.tokens:
        if t.pos != "VBD":
            continue
        if edge_for_dependent(h, t.index).dep in ("advcl", "ccomp"):
            continue
        subj = _first(edges_governed_by(h, t.index, "nsubj"))
        if subj is None:
            continue
        participle = conjugate(lemma(t.surface, t.pos), VerbForm.PAST_PARTICIPLE)
        prt, prt_s = _particle_tail(h, t.index)
        obj_p, obj_s = "", ()
        dobj = _first(edges_governed_by(h, t.index, "dobj"))
        if dobj is not None:
            obj_p, obj_s = _phrase(h, dobj.dependent, _OBJ_MODS)
        text = " ".join(
            filter(None, [subj.dependent_gloss, "has", participle, prt, obj_p])
        )
        out.append(_presupposition(text, "past", (subj.dependent, t.index), prt_s, obj_s))
    return out


def rule_nmod_of(h: ParsedHeadline) -> list[Inference]:
    """nmod with case 'of': the dependent has the governor."""
    out = []
    for e in edges_with(h, "nmod"):
        cases = [
            c
            for c in edges_governed_by(h, e.dependent, "case")
            if c.dependent_gloss.lower() == "of"
        ]
        if not cases:
            continue
        text = f"{e.dependent_gloss} has {e.governor_gloss}"
        out.append(
            _presupposition(text, "nmod_of", (e.governor, e.dependent, cases[0].dependent))
        )
    return out


def rule_nmod_relaxed(h: ParsedHeadline) -> list[Inference]:
    """Any noun-governed nmod between nouns: the dependent has the governor.

    Over-generates by design; ships disabled by default.
    """
    out = []
    for e in _noun_edges(h, "nmod"):
        text = f"{e.dependent_gloss} has {e.governor_gloss}"
        out.append(_presupposition(text, "nmod_relaxed", (e.governor, e.dependent)))
    return out


def _complement(h: ParsedHeadline, verb: int):
    return _first([e for e in edges_governed_by(h, verb) if e.dep in _COMP_DEPS])


def _render_lexical(
    h: ParsedHeadline, class_id: str, verb: Token, vlemma: str
) -> Inference | None:
    subj = _first(edges_governed_by(h, verb.index, "nsubj"))
    comp = _complement(h, verb.index)
    dobj = _first(edges_governed_by(h, verb.index, "dobj"))
    trigger = f"lexical.{class_id}"

    def presup(text: str, *spans) -> Inference:
        return _presupposition(text, trigger, *spans, (verb.index,))

    if class_id in ("factive", "implicative"):
        if comp is not None:
            comp_subj = _first(edges_governed_by(h, comp.dependent, "nsubj")) or subj
            if comp_subj is None:
                return None
            return presup(*_clause(h, comp_subj.dependent, comp.dependent, VerbForm.PAST))
        if class_id == "factive" and dobj is not None:
            obj_p, obj_s = _phrase(h, dobj.dependent, _OBJ_MODS)
            return presup(f"There exists {obj_p}", obj_s)
        return None

    if class_id == "change_of_state":
        if comp is None or subj is None:
            return None
        aux = "had been" if vlemma in _CESSATION_VERBS else "was"
        return presup(*_clause(h, subj.dependent, comp.dependent, VerbForm.GERUND, aux))

    if class_id == "judging":
        if subj is None or dobj is None:
            return None
        subj_p, subj_s = _phrase(h, subj.dependent)
        obj_p, obj_s = _phrase(h, dobj.dependent, _OBJ_MODS)
        text = f"{subj_p} thinks that {obj_p} is bad"
        return presup(text, subj_s, obj_s)

    if class_id == "iterative":
        attachments = _nmod_attachments(h, edges_governed_by(h, verb.index))
        if subj is not None and comp is not None:
            form = VerbForm.PAST_PARTICIPLE
            return presup(*_clause(h, subj.dependent, comp.dependent, form, "had", "previously"))
        if subj is not None and attachments:
            _, phrase, span = attachments[0]
            subj_p, subj_s = _phrase(h, subj.dependent)
            text = f"{subj_p} had been in {phrase} previously"
            return presup(text, subj_s, span)
        if subj is not None:
            subj_p, subj_s = _phrase(h, subj.dependent)
            return presup(f"{subj_p} has happened before", subj_s)
        if dobj is not None:
            obj_p, obj_s = _phrase(h, dobj.dependent)
            return presup(f"{obj_p} has happened before", obj_s)
        if attachments:
            _, phrase, span = attachments[0]
            return presup(f"{phrase} has happened before", span)
        return None

    return None


def rule_lexical(
    h: ParsedHeadline,
    lex: TriggerLexicon,
    classes: tuple[str, ...] = VERB_CLASS_IDS,
    strict_verbs: bool = False,
) -> list[Inference]:
    """Lexicon-driven triggers: a headline verb whose lemma heads an entry of
    one of ``classes`` licenses that class's template over its
    complement/objects.  One pass over the verbs, in verb order."""
    lowered = None
    out = []
    for verb in verbs_of(h, strict_verbs):
        vlemma = lemma(verb.surface, verb.pos)
        if vlemma not in lex.heads:
            continue
        if lowered is None:
            lowered = [t.surface.lower() for t in h.tokens]
        for class_id in lex.verb_classes(vlemma, lowered[verb.index :]):
            if class_id not in classes:
                continue
            inf = _render_lexical(h, class_id, verb, vlemma)
            if inf is not None:
                out.append(inf)
    return out


def rule_temporal(
    h: ParsedHeadline, lex: TriggerLexicon, strict_verbs: bool = False
) -> list[Inference]:
    """Temporal case/mark words presuppose the embedded thing existed/happened."""
    temporal = lex.words("temporal")
    out = []
    for e in h.edges:
        if e.dep not in ("case", "mark") or e.dependent_gloss.lower() not in temporal:
            continue
        gov = h.token_at(e.governor)
        if is_verb_tag(gov.pos, strict_verbs):
            subj = _first(edges_governed_by(h, gov.index, "nsubj"))
            if subj is None:
                continue
            text, span = _clause(h, subj.dependent, gov.index, VerbForm.PAST)
            span = _merge(span, (e.dependent,))
        else:
            phrase, p_span = _phrase(h, gov.index)
            text = f"There was {phrase}"
            span = _merge(p_span, (e.dependent,))
        out.append(Inference(InferenceKind.PRESUPPOSITION, text, "temporal", span))
    return out


def _undo_inversion(h: ParsedHeadline, substitute: str, words: list[str]) -> list[str]:
    """``words``, the question's words, in statement order: the auxiliary
    (word 2) moves after the subject, the substitute to the end."""
    subj = _first(edges_governed_by(h, edge_for_dependent(h, 2).governor, "nsubj"))
    if subj is None or subj.dependent <= 2:
        return [substitute] + words[1:]
    head = subj.dependent
    return words[2:head] + [words[1]] + words[head:] + [substitute]


def rule_question(h: ParsedHeadline) -> list[Inference]:
    """Wh-questions presuppose the indefinite counterpart; yes/no questions
    presuppose nothing."""
    if "?" not in h.raw_text:
        return []
    words = [t.surface for t in h.tokens]
    while words and not words[-1].strip("?!."):
        words.pop()  # trailing sentence punctuation is not rendered
    if not words:
        return []
    first = words[0].lower()
    wh = None
    contracted = False
    if first in _WH_SUBSTITUTE:
        wh = first
    elif first.endswith(_IS_CLITICS) and first[:-2] in _WH_SUBSTITUTE:
        wh, contracted = first[:-2], True
    if wh is None:
        return []
    substitute = _WH_SUBSTITUTE[wh]
    rest = words[1:]
    if contracted:
        rendered = [substitute, "is"] + rest
    elif rest and rest[0].lower() in _IS_CLITICS:
        rendered = [substitute, "is"] + rest[1:]
    elif rest and rest[0].lower() in _AUX_SURFACES:
        rendered = _undo_inversion(h, substitute, words)
    else:
        rendered = [substitute] + rest
    return [
        Inference(
            InferenceKind.PRESUPPOSITION,
            " ".join(rendered),
            "question",
            tuple(t.index for t in h.tokens),
        )
    ]


def quoted_tokens(
    h: ParsedHeadline, quotes: tuple[QuotedSpan, ...]
) -> list[tuple[int, ...]]:
    """The indices of the tokens inside each quote of ``h.raw_text``: from
    the first to the last token with a letter or digit between its quote
    characters.  Tokens are placed by their letters (``corpus.letters``),
    which every tokenization keeps, whatever it does with clitics, hyphens
    and quote marks.  A quote with no letters, or one of a headline whose
    tokens' letters do not spell its text, gets ``()``."""
    parts = [letters(t.surface) for t in h.tokens]
    if "".join(parts) != letters(h.raw_text):
        return [() for _ in quotes]
    ends = list(accumulate(map(len, parts)))  # each token's end in the letters
    out = []
    for q in quotes:
        lo = len(letters(h.raw_text[: q.start]))
        hi = len(letters(h.raw_text[: q.end]))
        inside = [k for k, (start, end) in enumerate(zip([0, *ends], ends))
                  if start < hi and lo < end and start < end]
        out.append(tuple(t.index for t in h.tokens[inside[0] : inside[-1] + 1]) if inside else ())
    return out


def rule_quotes(
    h: ParsedHeadline, quotes: tuple[QuotedSpan, ...], strict_verbs: bool = False
) -> list[Inference]:
    """A quote of more than two words means something was said."""
    quotes = [q for q in quotes if word_count(q.text) > 2]
    if not quotes:
        return []
    speaker = None
    for verb in verbs_of(h, strict_verbs):
        if lemma(verb.surface, verb.pos) not in _SPEECH_VERBS:
            continue
        subj = _first(edges_governed_by(h, verb.index, "nsubj"))
        if subj is not None:
            speaker = (verb, subj)
            break
    out = []
    for q, token_span in zip(quotes, quoted_tokens(h, quotes)):
        if speaker is not None:
            verb, subj = speaker
            subj_p, subj_s = _phrase(h, subj.dependent)
            text = f'{subj_p} says "{q.text}"'
            out.append(_presupposition(text, "quotes", subj_s, token_span, (verb.index,)))
        elif token_span:  # with no token of its own, it would name none
            out.append(
                Inference(InferenceKind.PRESUPPOSITION, "something is said", "quotes", token_span)
            )
    return out


def extract_triplets(h: ParsedHeadline, strict_verbs: bool = False) -> list[Inference]:
    """Subject-verb-object statements read directly off the parse: the bare
    S-V-dobj triple plus one extension per case-marked nominal attachment.
    A verb's dependents are read in one scan: the first subject and object,
    the particles, auxiliaries and negators rendered with the verb, and the
    attachments."""
    out = []
    for verb in verbs_of(h, strict_verbs):
        below = edges_governed_by(h, verb.index)
        subj = _first([e for e in below if e.dep == "nsubj"])
        if subj is None:
            continue
        subj_p, subj_s = _phrase(h, subj.dependent)
        verb_p, verb_s = _words([(verb.index, verb.surface)] + [
            (e.dependent, e.dependent_gloss) for e in below
            if e.dep in _VERB_WORDS or _is_negator(e)
        ])
        obj_p, obj_s = "", ()
        dobj = _first([e for e in below if e.dep == "dobj"])
        attachments = _nmod_attachments(h, below)
        if dobj is not None:
            obj_p, obj_s = _phrase(h, dobj.dependent, _OBJ_MODS)
            text, span = f"{subj_p} {verb_p} {obj_p}", _merge(subj_s, verb_s, obj_s)
            out.append(_new(Inference, (InferenceKind.EXPLICIT_TRIPLE, text, "triple", span)))
            attachments += _nmod_attachments(h, edges_governed_by(h, dobj.dependent))
        stem = " ".join(filter(None, [subj_p, verb_p, obj_p]))
        for case_word, phrase, phrase_s in attachments:
            text, span = f"{stem} {case_word} {phrase}", _merge(subj_s, verb_s, obj_s, phrase_s)
            out.append(_new(Inference, (InferenceKind.EXPLICIT_TRIPLE, text, "triple", span)))
    return out


def _lexical_group(h, p, cfg) -> list[Inference]:
    classes = tuple(c for c in VERB_CLASS_IDS if "lexical." + c in cfg.rules)
    return rule_lexical(h, cfg.lexicon, classes, cfg.strict_verbs)


RULES = {
    "future": lambda h, p, cfg: rule_future(h),
    "but": lambda h, p, cfg: rule_but(h),
    "again": lambda h, p, cfg: rule_again(h),
    "further": lambda h, p, cfg: rule_further(h, cfg.strict_verbs),
    "compound": lambda h, p, cfg: rule_noun_compound(h, cfg.compound_mode),
    "past": lambda h, p, cfg: rule_past_tense(h),
    "nmod_of": lambda h, p, cfg: rule_nmod_of(h),
    "nmod_relaxed": lambda h, p, cfg: rule_nmod_relaxed(h),
    **{f"lexical.{c}": _lexical_group for c in VERB_CLASS_IDS},
    "temporal": lambda h, p, cfg: rule_temporal(h, cfg.lexicon, cfg.strict_verbs),
    "question": lambda h, p, cfg: rule_question(h),
    "quotes": lambda h, p, cfg: rule_quotes(h, p, cfg.strict_verbs),
    "triple": lambda h, p, cfg: extract_triplets(h, cfg.strict_verbs),
}
_POSITION = {rule_id: k for k, rule_id in enumerate(RULES)}


def _output_order(inf: Inference) -> tuple:
    return _POSITION[inf.trigger], inf.span


def generate_all(h: ParsedHeadline, p: tuple[QuotedSpan, ...], cfg) -> list[Inference]:
    """The rules of ``cfg.rules``, a function shared by rows run once, in
    registry order, the output sorted by registry position, then span.
    ``cfg`` is a ``presup.rules.EngineConfig``; only its fields are read."""
    out = []
    for rule in dict.fromkeys(fn for rule_id, fn in RULES.items() if rule_id in cfg.rules):
        out.extend(rule(h, p, cfg))
    out.sort(key=_output_order)
    return out
