"""The inference rules: trigger matching over a parsed headline plus string
realization of the licensed inferences.

``generate_all`` reads a headline's edges once, into an ``EdgeView``
(``ingest.edge_view``), and every rule reads that view: no rule scans
``h.edges`` itself.  Each rule is a pure function of ``(v, p, cfg)``, the
view, the headline's quoted spans and the ``EngineConfig``, and returns its
Inference values in output order: by span, and the lexical group by class,
then span.  ``RULES`` is the one rule registry: it maps each rule id, which
is also the ``trigger`` of the inferences the rule renders, to its rule
function, and its order is the output order.  Adding a rule is adding one
row to it; the ``lexical.*`` rows come from ``lexicon.VERB_CLASS_IDS``.
``infer_all`` runs the configured rules in registry order and deduplicates
the rendered texts.  Rules assume a tree from a reader or ``build_headline``:
token k hangs from one edge, ``h.edges[k - 1]``, so the first ``nsubj`` a rule
finds is the leftmost, and only the ``root`` edge has governor 0, the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .corpus import QuotedSpan, letters, word_count
from .ingest import DependencyEdge, EdgeView, ParsedHeadline, Token, edge_view, nouns_of
from .lexicon import VERB_CLASS_IDS, TriggerLexicon, default_lexicon
from .morphology import VerbForm, conjugate, lemma


class InferenceKind(Enum):
    PRESUPPOSITION = ">>"
    CONVENTIONAL_IMPLICATURE = "~="
    EXPLICIT_TRIPLE = "triple"


class Inference(NamedTuple):
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


_COMPOUND_CONNECTOR = {
    "both": "can be/can have",
    "can_be": "can be",
    "can_have": "can have",
}
COMPOUND_MODES = tuple(_COMPOUND_CONNECTOR)


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
_SPAN = itemgetter(3)  # Inference.span


def _presupposition(text: str, trigger: str, *spans) -> Inference:
    return _new(Inference, (InferenceKind.PRESUPPOSITION, text, trigger, _merge(*spans)))


def _by_span(out: list[Inference]) -> list[Inference]:
    """A rule's inferences in output order: by span, ties in rendering order."""
    if len(out) > 1:
        out.sort(key=_SPAN)
    return out


def _first(edges: list[DependencyEdge], dep: str) -> DependencyEdge | None:
    for e in edges:
        if e.dep == dep:
            return e
    return None


def _phrase(
    v: EdgeView, head: int, mods: tuple[str, ...] = _SUBJ_MODS
) -> tuple[str, tuple[int, ...]]:
    """Head token with its flat premodifiers, in surface order."""
    idxs = sorted([head] + [e.dependent for e in v.below[head] if e.dep in mods])
    return " ".join([v.tokens[i - 1].surface for i in idxs]), tuple(idxs)


def _is_negator(e) -> bool:
    return e.dep == "neg" or (e.dep == "advmod" and e.dependent_gloss.lower() == "not")


def _words(found: list[tuple[int, str]]) -> tuple[str, tuple[int, ...]]:
    """(index, word) pairs as text and span in surface order."""
    ordered = sorted(found)
    return " ".join(s for _, s in ordered), tuple(i for i, _ in ordered)


def _nmod_attachments(v: EdgeView, below: list) -> list[tuple[str, str, tuple[int, ...]]]:
    """(preposition, phrase, span) for each case-marked nmod of ``below``,
    the edges under one head."""
    out = []
    for e in below:
        if e.dep != "nmod":
            continue
        case = _first(v.below[e.dependent], "case")
        if case is None:
            continue
        phrase, span = _phrase(v, e.dependent)
        out.append((case.dependent_gloss, phrase, _merge(span, (case.dependent,))))
    return out


def _object_tail(v: EdgeView, verb: int) -> tuple[str, tuple[int, ...]]:
    """Direct object plus case-marked nominal attachments of a verb."""
    parts: list[str] = []
    span: tuple[int, ...] = ()
    dobj = _first(v.below[verb], "dobj")
    if dobj is not None:
        p, s = _phrase(v, dobj.dependent, _OBJ_MODS)
        parts.append(p)
        span = _merge(span, s)
    for case_word, p, s in _nmod_attachments(v, v.below[verb]):
        parts.append(f"{case_word} {p}")
        span = _merge(span, s)
    return " ".join(parts), span


def _clause(
    v: EdgeView, subj: int, verb: int, form: VerbForm, aux: str = "", after: str = ""
) -> tuple[str, tuple[int, ...]]:
    """Subject phrase, ``aux``, ``verb`` inflected to ``form``, the verb's
    object tail and ``after``, as text and span."""
    subj_p, subj_s = _phrase(v, subj)
    tok = v.tokens[verb - 1]
    inflected = conjugate(lemma(tok.surface, tok.pos), form)
    tail, tail_s = _object_tail(v, verb)
    text = " ".join(filter(None, [subj_p, aux, inflected, tail, after]))
    return text, _merge(subj_s, tail_s, (verb,))


def rule_future(v: EdgeView, p, cfg) -> list[Inference]:
    """aux 'will' plus a co-governed direct object: the event is still ahead."""
    out = []
    for d in v.labelled.get("aux", ()):
        if d.dependent_gloss.lower() != "will":
            continue
        verb = v.tokens[d.governor - 1]
        participle = conjugate(lemma(verb.surface, verb.pos), VerbForm.PAST_PARTICIPLE)
        for nd in v.below[d.governor]:
            if nd.dep == "dobj":
                text = f"{nd.dependent_gloss} is not yet {participle}"
                out.append(_presupposition(text, "future", (d.dependent, d.governor, nd.dependent)))
    return _by_span(out)


def rule_but(v: EdgeView, p, cfg) -> list[Inference]:
    """conj:but carries the contrast implicature: the first conjunct raised an
    expectation about the second."""
    out = []
    for d in v.labelled.get("conj:but", ()):
        dep = v.tokens[d.dependent - 1]
        gerund = conjugate(lemma(dep.surface, dep.pos), VerbForm.GERUND)
        negated = any(map(_is_negator, v.below[d.dependent]))
        expecting = "was not expecting" if negated else "was expecting"
        text = f"being {d.governor_gloss} {expecting} {gerund}"
        out.append(
            Inference(
                InferenceKind.CONVENTIONAL_IMPLICATURE,
                text,
                "but",
                _merge((d.governor, d.dependent)),
            )
        )
    return _by_span(out)


def rule_again(v: EdgeView, p, cfg) -> list[Inference]:
    """advmod 'again' on a verb with a subject: it happened before."""
    out = []
    for d in v.labelled.get("advmod", ()):
        if d.dependent_gloss.lower() != "again":
            continue
        subj = _first(v.below[d.governor], "nsubj")
        if subj is None:
            continue
        verb = v.tokens[d.governor - 1]
        subj_p, subj_s = _phrase(v, subj.dependent)
        participle = conjugate(lemma(verb.surface, verb.pos), VerbForm.PAST_PARTICIPLE)
        obj_p, obj_s = "", ()
        dobj = _first(v.below[d.governor], "dobj")
        if dobj is not None:
            obj_p, obj_s = _phrase(v, dobj.dependent)
        text = " ".join(filter(None, [subj_p, "has", participle, obj_p, "before"]))
        out.append(_presupposition(text, "again", subj_s, obj_s, (d.governor, d.dependent)))
    return _by_span(out)


def rule_further(v: EdgeView, p, cfg) -> list[Inference]:
    """advmod 'further' on a verb: the subject is already in that state."""
    out = []
    for d in v.labelled.get("advmod", ()):
        if d.dependent_gloss.lower() != "further":
            continue
        verb = v.tokens[d.governor - 1]
        if verb not in v.verbs:
            continue
        subj = _first(v.below[d.governor], "nsubj")
        if subj is not None:
            subj_gloss, subj_index = subj.dependent_gloss, subj.dependent
        else:
            preceding = [t for t in nouns_of(v.h) if t.index < verb.index]
            if not preceding:
                continue
            subj_gloss, subj_index = preceding[-1].surface, preceding[-1].index
        text = f"{subj_gloss} is already {lemma(verb.surface, verb.pos)}"
        out.append(_presupposition(text, "further", (subj_index, d.governor, d.dependent)))
    return _by_span(out)


def rule_noun_compound(v: EdgeView, p, cfg) -> list[Inference]:
    """Noun compound N1 N2: N1 can be / can have N2."""
    connector = _COMPOUND_CONNECTOR[cfg.compound_mode]
    tokens = v.tokens
    out = []
    for e in v.labelled.get("compound", ()):
        if tokens[e.governor - 1].pos[:1] == "N" == tokens[e.dependent - 1].pos[:1]:
            text = f"{e.dependent_gloss} {connector} {e.governor_gloss}"
            out.append(_presupposition(text, "compound", (e.governor, e.dependent)))
    return _by_span(out)


def rule_past_tense(v: EdgeView, p, cfg) -> list[Inference]:
    """Main-clause simple past: the event already happened."""
    out = []
    for t in v.tokens:
        if t.pos != "VBD" or v.h.edges[t.index - 1].dep in ("advcl", "ccomp"):
            continue
        below = v.below[t.index]
        subj = _first(below, "nsubj")
        if subj is None:
            continue
        participle = conjugate(lemma(t.surface, t.pos), VerbForm.PAST_PARTICIPLE)
        prt, prt_s = _words([(e.dependent, e.dependent_gloss)
                             for e in below if e.dep in _PARTICLE_DEPS])
        obj_p, obj_s = "", ()
        dobj = _first(below, "dobj")
        if dobj is not None:
            obj_p, obj_s = _phrase(v, dobj.dependent, _OBJ_MODS)
        text = " ".join(
            filter(None, [subj.dependent_gloss, "has", participle, prt, obj_p])
        )
        out.append(_presupposition(text, "past", (subj.dependent, t.index), prt_s, obj_s))
    return _by_span(out)


def rule_nmod_of(v: EdgeView, p, cfg) -> list[Inference]:
    """nmod with case 'of': the dependent has the governor."""
    out = []
    for e in v.labelled.get("nmod", ()):
        for c in v.below[e.dependent]:
            if c.dep == "case" and c.dependent_gloss.lower() == "of":
                text = f"{e.dependent_gloss} has {e.governor_gloss}"
                out.append(_presupposition(text, "nmod_of", (e.governor, e.dependent, c.dependent)))
                break
    return _by_span(out)


def rule_nmod_relaxed(v: EdgeView, p, cfg) -> list[Inference]:
    """Any noun-governed nmod between nouns: the dependent has the governor.

    Over-generates by design; ships disabled by default.
    """
    tokens = v.tokens
    out = []
    for e in v.labelled.get("nmod", ()):
        if tokens[e.governor - 1].pos[:1] == "N" == tokens[e.dependent - 1].pos[:1]:
            text = f"{e.dependent_gloss} has {e.governor_gloss}"
            out.append(_presupposition(text, "nmod_relaxed", (e.governor, e.dependent)))
    return _by_span(out)


def _render_lexical(v: EdgeView, class_id: str, verb: Token, vlemma: str) -> Inference | None:
    # The first nsubj, xcomp/ccomp and dobj, in one pass over the verb's edges.
    subj = comp = dobj = None
    for e in v.below[verb.index]:
        if e.dep == "nsubj":
            subj = subj or e
        elif e.dep == "dobj":
            dobj = dobj or e
        elif e.dep in _COMP_DEPS:
            comp = comp or e
    trigger = f"lexical.{class_id}"

    def presup(text: str, *spans) -> Inference:
        return _presupposition(text, trigger, *spans, (verb.index,))

    if class_id in ("factive", "implicative"):
        if comp is not None:
            comp_subj = _first(v.below[comp.dependent], "nsubj") or subj
            if comp_subj is None:
                return None
            return presup(*_clause(v, comp_subj.dependent, comp.dependent, VerbForm.PAST))
        if class_id == "factive" and dobj is not None:
            obj_p, obj_s = _phrase(v, dobj.dependent, _OBJ_MODS)
            return presup(f"There exists {obj_p}", obj_s)
        return None

    if class_id == "change_of_state":
        if comp is None or subj is None:
            return None
        aux = "had been" if vlemma in _CESSATION_VERBS else "was"
        return presup(*_clause(v, subj.dependent, comp.dependent, VerbForm.GERUND, aux))

    if class_id == "judging":
        if subj is None or dobj is None:
            return None
        subj_p, subj_s = _phrase(v, subj.dependent)
        obj_p, obj_s = _phrase(v, dobj.dependent, _OBJ_MODS)
        text = f"{subj_p} thinks that {obj_p} is bad"
        return presup(text, subj_s, obj_s)

    # iterative, the one verb class left
    attachments = _nmod_attachments(v, v.below[verb.index])
    if subj is not None and comp is not None:
        form = VerbForm.PAST_PARTICIPLE
        return presup(*_clause(v, subj.dependent, comp.dependent, form, "had", "previously"))
    if subj is not None and attachments:
        _, phrase, span = attachments[0]
        subj_p, subj_s = _phrase(v, subj.dependent)
        text = f"{subj_p} had been in {phrase} previously"
        return presup(text, subj_s, span)
    if subj is not None:
        subj_p, subj_s = _phrase(v, subj.dependent)
        return presup(f"{subj_p} has happened before", subj_s)
    if dobj is not None:
        obj_p, obj_s = _phrase(v, dobj.dependent)
        return presup(f"{obj_p} has happened before", obj_s)
    if attachments:
        _, phrase, span = attachments[0]
        return presup(f"{phrase} has happened before", span)
    return None


def _lexical_order(inf: Inference) -> tuple:
    return VERB_CLASS_IDS.index(inf.trigger[len("lexical."):]), inf.span


def rule_lexical(v: EdgeView, p, cfg) -> list[Inference]:
    """Lexicon-driven triggers: a headline verb whose lemma heads an entry of
    a class whose ``lexical.<class>`` id is in ``cfg.rules`` licenses that
    class's template over its complement/objects.  One pass over the verbs,
    in verb order; the output by class, then span."""
    lex, rules = cfg.lexicon, cfg.rules
    lowered = None
    out = []
    for verb in v.verbs:
        vlemma = lemma(verb.surface, verb.pos)
        if vlemma not in lex.heads:
            continue
        if lowered is None:
            lowered = [t.surface.lower() for t in v.tokens]
        for class_id in lex.verb_classes(vlemma, lowered[verb.index :]):
            if "lexical." + class_id not in rules:
                continue
            inf = _render_lexical(v, class_id, verb, vlemma)
            if inf is not None:
                out.append(inf)
    if len(out) > 1:
        out.sort(key=_lexical_order)
    return out


def rule_temporal(v: EdgeView, p, cfg) -> list[Inference]:
    """Temporal case/mark words presuppose the embedded thing existed/happened."""
    temporal = cfg.lexicon.words("temporal")
    out = []
    for e in [*v.labelled.get("case", ()), *v.labelled.get("mark", ())]:
        if e.dependent_gloss.lower() not in temporal:
            continue
        gov = v.tokens[e.governor - 1]
        if gov in v.verbs:
            subj = _first(v.below[gov.index], "nsubj")
            if subj is None:
                continue
            text, span = _clause(v, subj.dependent, gov.index, VerbForm.PAST)
        else:
            phrase, span = _phrase(v, gov.index)
            text = f"There was {phrase}"
        out.append(_presupposition(text, "temporal", span, (e.dependent,)))
    return _by_span(out)


def _undo_inversion(v: EdgeView, substitute: str, words: list[str]) -> list[str]:
    """``words``, the question's words, in statement order: the auxiliary
    (word 2) moves after the subject, the substitute to the end."""
    subj = _first(v.below[v.h.edges[1].governor], "nsubj")  # edges[1]: word 2's edge
    if subj is None or subj.dependent <= 2:
        return [substitute] + words[1:]
    head = subj.dependent
    return words[2:head] + [words[1]] + words[head:] + [substitute]


def rule_question(v: EdgeView, p, cfg) -> list[Inference]:
    """Wh-questions presuppose the indefinite counterpart; yes/no questions
    presuppose nothing."""
    if "?" not in v.h.raw_text:
        return []
    words = [t.surface for t in v.tokens]
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
        rendered = _undo_inversion(v, substitute, words)
    else:
        rendered = [substitute] + rest
    return [_presupposition(" ".join(rendered), "question", [t.index for t in v.tokens])]


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


def rule_quotes(v: EdgeView, p: tuple[QuotedSpan, ...], cfg) -> list[Inference]:
    """A quote of more than two words means something was said."""
    quotes = [q for q in p if word_count(q.text) > 2]
    if not quotes:
        return []
    speaker = None
    for verb in v.verbs:
        if lemma(verb.surface, verb.pos) not in _SPEECH_VERBS:
            continue
        subj = _first(v.below[verb.index], "nsubj")
        if subj is not None:
            speaker = (verb, subj)
            break
    out = []
    for q, token_span in zip(quotes, quoted_tokens(v.h, quotes)):
        if speaker is not None:
            verb, subj = speaker
            subj_p, subj_s = _phrase(v, subj.dependent)
            text = f'{subj_p} says "{q.text}"'
            out.append(_presupposition(text, "quotes", subj_s, token_span, (verb.index,)))
        elif token_span:  # with no token of its own, it would name none
            out.append(_presupposition("something is said", "quotes", token_span))
    return _by_span(out)


def extract_triplets(v: EdgeView, p, cfg) -> list[Inference]:
    """Subject-verb-object statements read directly off the parse: the bare
    S-V-dobj triple plus one extension per case-marked nominal attachment.
    A verb's dependents are read from its edges in the view: the first
    subject and object, the attachments, and, only for a verb with an object
    or an attachment, the particles, auxiliaries and negators rendered with
    the verb."""
    out = []
    for verb in v.verbs:
        below = v.below[verb.index]
        subj = _first(below, "nsubj")
        if subj is None:
            continue
        dobj = _first(below, "dobj")
        attachments = _nmod_attachments(v, below)
        if dobj is None and not attachments:
            continue
        subj_p, subj_s = _phrase(v, subj.dependent)
        verb_p, verb_s = _words([(verb.index, verb.surface)] + [
            (e.dependent, e.dependent_gloss) for e in below
            if e.dep in _VERB_WORDS or _is_negator(e)
        ])
        obj_p, obj_s = "", ()
        if dobj is not None:
            obj_p, obj_s = _phrase(v, dobj.dependent, _OBJ_MODS)
            text, span = f"{subj_p} {verb_p} {obj_p}", _merge(subj_s, verb_s, obj_s)
            out.append(_new(Inference, (InferenceKind.EXPLICIT_TRIPLE, text, "triple", span)))
            attachments += _nmod_attachments(v, v.below[dobj.dependent])
        stem = " ".join(filter(None, [subj_p, verb_p, obj_p]))
        for case_word, phrase, phrase_s in attachments:
            text, span = f"{stem} {case_word} {phrase}", _merge(subj_s, verb_s, obj_s, phrase_s)
            out.append(_new(Inference, (InferenceKind.EXPLICIT_TRIPLE, text, "triple", span)))
    return _by_span(out)


# Rule id (the ``trigger`` of what the rule renders) -> rule(v, p, cfg), in
# output order.  Rows may share a function, which then renders every enabled
# id of its rows.
RULES = {
    "future": rule_future,
    "but": rule_but,
    "again": rule_again,
    "further": rule_further,
    "compound": rule_noun_compound,
    "past": rule_past_tense,
    "nmod_of": rule_nmod_of,
    "nmod_relaxed": rule_nmod_relaxed,
    **{f"lexical.{c}": rule_lexical for c in VERB_CLASS_IDS},
    "temporal": rule_temporal,
    "question": rule_question,
    "quotes": rule_quotes,
    "triple": extract_triplets,
}
RULE_IDS = tuple(RULES)

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
    ``rule_functions``, the distinct rule functions in registry order; it is
    not a field, and ``dataclasses.replace`` resolves it anew.
    ``strict_verbs`` is applied once, by ``edge_view``, through the view's
    ``verbs``."""

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

    def fingerprint(self) -> str:
        return "\n".join(
            [
                "rules=" + ",".join(self.rules),
                f"strict_verbs={self.strict_verbs}",
                f"compound_mode={self.compound_mode}",
                self.lexicon.fingerprint(),
            ]
        )


def generate_all(
    h: ParsedHeadline, p: tuple[QuotedSpan, ...], cfg: EngineConfig
) -> list[Inference]:
    """All enabled rules' outputs in registry order, each rule's by span,
    before deduplication.  The rules share one ``EdgeView`` of ``h``, and a
    function shared by rows runs once."""
    v = edge_view(h, cfg.strict_verbs)
    out = []
    for rule in cfg.rule_functions:
        out += rule(v, p, cfg)
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
