"""The inference rules: trigger matching over a parsed headline plus string
realization of the licensed inferences.

Each rule is a pure function from a ParsedHeadline (and, where needed, the
headline's quoted spans or the trigger lexicon) to a list of Inference values.
``RULES`` is the one rule registry: it maps each rule id, which is also the
``trigger`` of the inferences the rule renders, to a function of
``(h, p, cfg)``, and its order is the output order.  Adding a rule is adding
one row to it; the ``lexical.*`` rows come from ``lexicon.VERB_CLASS_IDS``.
``infer_all`` runs the configured rules in registry order and deduplicates
the rendered texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate

from .corpus import QuotedSpan, letters, word_count
from .ingest import (
    ParsedHeadline,
    Token,
    edge_for_dependent,
    edges_governed_by,
    edges_with,
    is_verb_tag,
    nouns_of,
    verbs_of,
)
from .lexicon import VERB_CLASS_IDS, TriggerLexicon, default_lexicon
from .morphology import VerbForm, conjugate, lemma


class InferenceKind(Enum):
    PRESUPPOSITION = ">>"
    CONVENTIONAL_IMPLICATURE = "~="
    EXPLICIT_TRIPLE = "triple"


@dataclass(frozen=True)
class Inference:
    kind: InferenceKind
    text: str
    trigger: str
    span: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "text": self.text,
            "trigger": self.trigger,
            "span": list(self.span),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Inference":
        return cls(
            kind=InferenceKind(obj["kind"]),
            text=obj["text"],
            trigger=obj.get("trigger", ""),
            span=tuple(obj.get("span", ())),
        )


COMPOUND_MODES = ("both", "can_be", "can_have")
_COMPOUND_CONNECTOR = {
    "both": "can be/can have",
    "can_be": "can be",
    "can_have": "can have",
}


_SUBJ_MODS = ("compound", "amod", "nummod")
_OBJ_MODS = ("compound", "amod", "nummod", "det")
_PARTICLE_DEPS = ("compound:prt", "prt")
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
    out: set[int] = set()
    for s in spans:
        out.update(s)
    return tuple(sorted(out))


def _presupposition(text: str, trigger: str, *spans) -> Inference:
    return Inference(InferenceKind.PRESUPPOSITION, text, trigger, _merge(*spans))


def _phrase(
    h: ParsedHeadline, head: int, mods: tuple[str, ...] = _SUBJ_MODS
) -> tuple[str, tuple[int, ...]]:
    """Head token with its flat premodifiers, in surface order."""
    idxs = sorted(
        [head] + [e.dependent for e in edges_governed_by(h, head) if e.dep in mods]
    )
    return " ".join(h.token_at(i).surface for i in idxs), tuple(idxs)


def _is_negator(e) -> bool:
    return e.dep == "neg" or (e.dep == "advmod" and e.dependent_gloss.lower() == "not")


def _dependents(
    h: ParsedHeadline, head: int, keep, parts: tuple[tuple[int, str], ...] = ()
) -> tuple[str, tuple[int, ...]]:
    """``parts`` plus the dependents of ``head`` that ``keep`` accepts, as text
    and span in surface order."""
    found = [(e.dependent, e.dependent_gloss) for e in edges_governed_by(h, head) if keep(e)]
    ordered = sorted([*parts, *found])
    return " ".join(s for _, s in ordered), tuple(i for i, _ in ordered)


def _verb_surface(
    h: ParsedHeadline, verb: int, with_aux: bool = False
) -> tuple[str, tuple[int, ...]]:
    """Verb as it appears in the headline, with particles (and optionally its
    auxiliaries/negator) in surface order."""

    def keep(e) -> bool:
        return e.dep in _PARTICLE_DEPS or (
            with_aux and (e.dep in ("aux", "auxpass") or _is_negator(e))
        )

    return _dependents(h, verb, keep, ((verb, h.token_at(verb).surface),))


def _particle_tail(h: ParsedHeadline, verb: int) -> tuple[str, tuple[int, ...]]:
    return _dependents(h, verb, lambda e: e.dep in _PARTICLE_DEPS)


def _nmod_attachments(
    h: ParsedHeadline, head: int
) -> list[tuple[str, str, tuple[int, ...]]]:
    """(preposition, phrase, span) for each case-marked nmod under ``head``."""
    out = []
    for e in edges_governed_by(h, head, "nmod"):
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
    for case_word, p, s in _nmod_attachments(h, verb):
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


def _joins_nouns(h: ParsedHeadline, e) -> bool:
    """Both ends of ``e`` are noun tokens (the virtual root is not one)."""
    return (
        e.governor != 0
        and h.token_at(e.governor).pos.startswith("N")
        and h.token_at(e.dependent).pos.startswith("N")
    )


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
        if d.governor == 0:
            continue
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
    for e in edges_with(h, "compound"):
        if not _joins_nouns(h, e):
            continue
        text = f"{e.dependent_gloss} {connector} {e.governor_gloss}"
        out.append(_presupposition(text, "compound", (e.governor, e.dependent)))
    return out


def rule_past_tense(h: ParsedHeadline) -> list[Inference]:
    """Main-clause simple past: the event already happened."""
    out = []
    for t in h.tokens:
        if t.pos != "VBD":
            continue
        incoming = edge_for_dependent(h, t.index)
        if incoming is not None and incoming.dep in ("advcl", "ccomp"):
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
    for e in edges_with(h, "nmod"):
        if not _joins_nouns(h, e):
            continue
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
        attachments = _nmod_attachments(h, verb.index)
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


def rule_temporal(h: ParsedHeadline, lex: TriggerLexicon) -> list[Inference]:
    """Temporal case/mark words presuppose the embedded thing existed/happened."""
    temporal = lex.words("temporal")
    out = []
    for e in h.edges:
        if e.dep not in ("case", "mark"):
            continue
        if e.dependent_gloss.lower() not in temporal or e.governor == 0:
            continue
        gov = h.token_at(e.governor)
        if is_verb_tag(gov.pos):
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
    aux_edge = edge_for_dependent(h, 2)
    subj = None if aux_edge is None else _first(edges_governed_by(h, aux_edge.governor, "nsubj"))
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
    S-V-dobj triple plus one extension per case-marked nominal attachment."""
    out = []
    for verb in verbs_of(h, strict_verbs):
        subj = _first(edges_governed_by(h, verb.index, "nsubj"))
        if subj is None:
            continue
        subj_p, subj_s = _phrase(h, subj.dependent)
        verb_p, verb_s = _verb_surface(h, verb.index, with_aux=True)
        obj_p, obj_s = "", ()
        dobj = _first(edges_governed_by(h, verb.index, "dobj"))
        if dobj is not None:
            obj_p, obj_s = _phrase(h, dobj.dependent, _OBJ_MODS)
            out.append(
                Inference(
                    InferenceKind.EXPLICIT_TRIPLE,
                    f"{subj_p} {verb_p} {obj_p}",
                    "triple",
                    _merge(subj_s, verb_s, obj_s),
                )
            )
        attachments = _nmod_attachments(h, verb.index)
        if dobj is not None:
            attachments += _nmod_attachments(h, dobj.dependent)
        for case_word, phrase, span in attachments:
            stem = " ".join(filter(None, [subj_p, verb_p, obj_p]))
            out.append(
                Inference(
                    InferenceKind.EXPLICIT_TRIPLE,
                    f"{stem} {case_word} {phrase}",
                    "triple",
                    _merge(subj_s, verb_s, obj_s, span),
                )
            )
    return out


def _lexical_group(h, p, cfg) -> list[Inference]:
    """The one function of the five ``lexical.*`` rows: their enabled classes
    in one pass."""
    return rule_lexical(h, cfg.lexicon, cfg.lexical_classes, cfg.strict_verbs)


# Rule id (the ``trigger`` of what the rule renders) -> rule(h, p, cfg), in
# output order.  Rows may share a function, which then renders every enabled
# id of its rows.
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
    "temporal": lambda h, p, cfg: rule_temporal(h, cfg.lexicon),
    "question": lambda h, p, cfg: rule_question(h),
    "quotes": lambda h, p, cfg: rule_quotes(h, p, cfg.strict_verbs),
    "triple": lambda h, p, cfg: extract_triplets(h, cfg.strict_verbs),
}
RULE_IDS = tuple(RULES)
_POSITION = {rule_id: k for k, rule_id in enumerate(RULE_IDS)}

# The relaxed any-nmod rule over-generates, so it is opt-in.
DEFAULT_RULES = tuple(r for r in RULE_IDS if r != "nmod_relaxed")


def check_rule_ids(rules) -> tuple[str, ...]:
    """``rules`` as a tuple; a ValueError names every id that is not a rule."""
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
    return tuple(rules)


def check_compound_mode(mode: str) -> str:
    if mode not in COMPOUND_MODES:
        raise ValueError(f"unknown compound mode {mode!r}")
    return mode


@dataclass(frozen=True)
class EngineConfig:
    """The engine settings.  ``__post_init__`` resolves ``rules`` once into
    ``rule_functions``, the distinct rule functions in registry order, and
    ``lexical_classes``, the enabled ``lexical.*`` classes; these are not
    fields, and ``dataclasses.replace`` resolves them anew."""

    rules: tuple[str, ...] = DEFAULT_RULES
    lexicon: TriggerLexicon = field(default_factory=default_lexicon)
    strict_verbs: bool = False
    compound_mode: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "rules", check_rule_ids(self.rules))
        check_compound_mode(self.compound_mode)
        enabled = set(self.rules)
        functions = dict.fromkeys(fn for rule_id, fn in RULES.items() if rule_id in enabled)
        object.__setattr__(self, "rule_functions", tuple(functions))
        object.__setattr__(
            self, "lexical_classes", tuple(c for c in VERB_CLASS_IDS if "lexical." + c in enabled)
        )

    def __reduce__(self):
        # ``rule_functions`` holds the registry's lambdas, which pickle cannot
        # name, so a copy is built from the fields and resolves them anew.
        return EngineConfig, tuple(getattr(self, f.name) for f in fields(self))

    def fingerprint(self) -> str:
        return "\n".join(
            [
                "rules=" + ",".join(self.rules),
                f"strict_verbs={self.strict_verbs}",
                f"compound_mode={self.compound_mode}",
                self.lexicon.fingerprint(),
            ]
        )


def _output_order(inf: Inference) -> tuple:
    return _POSITION[inf.trigger], inf.span


def generate_all(
    h: ParsedHeadline, p: tuple[QuotedSpan, ...], cfg: EngineConfig
) -> list[Inference]:
    """All enabled rules' outputs in registry order, each rule's by span,
    before deduplication.  A function shared by rows runs once."""
    out = []
    for rule in cfg.rule_functions:
        out.extend(rule(h, p, cfg))
    out.sort(key=_output_order)
    return out


def infer_all(
    h: ParsedHeadline, p: tuple[QuotedSpan, ...], cfg: EngineConfig
) -> list[Inference]:
    """Deduplicated inference list; the first rule to render a text keeps it."""
    seen: set[str] = set()
    out = []
    for inf in generate_all(h, p, cfg):
        key = inf.text.lower()
        if key in seen:
            continue
        seen.add(key)
        out.append(inf)
    return out
