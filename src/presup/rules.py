"""The inference rules: trigger matching over a parsed headline plus string
realization of the licensed inferences.

The engine reads each headline's edges once, into an ``EdgeView``
(``ingest.edge_view``), and every rule reads that view: no rule scans
``h.edges`` itself.  Each rule is a pure function of ``(v, cfg)``, the view
(which carries the headline's quoted spans) and the ``EngineConfig``, and
returns its Inference values in the order it renders them.  ``RULES`` is the
one rule registry: it maps each rule id, which is also the ``trigger`` of the
inferences the rule renders, to its rule function, and its order is the
output order: the engine sorts each headline's inferences by registry
position, then span.  Adding a rule is adding one row to it; the
``lexical.*`` rows come from ``lexicon.VERB_CLASS_IDS``.
``infer_all`` runs the configured rules in registry order and deduplicates
the rendered texts; ``infer_many`` does the same for a stream of headlines,
running each rule over a chunk of them at a time (``CHUNK``).  Rules assume
a tree from a reader or ``build_headline``: token k hangs from one edge,
``h.edges[k - 1]``, so the first ``nsubj`` a rule finds is the leftmost, and
only the ``root`` edge has governor 0, the root.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, islice
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
# The dependents a triple renders with its verb, besides its negators
# (``_is_negator``): particles and auxiliaries.
_VERB_WORDS = frozenset({*_PARTICLE_DEPS, "aux", "auxpass"})
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
# The clitic "is" of "what's", with a straight or a curly apostrophe.
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
    return " ".join([v.h.tokens[i - 1].surface for i in idxs]), tuple(idxs)


def _joins_nouns(tokens: list[Token], e: DependencyEdge) -> bool:
    """Whether edge ``e`` has a noun (an N* tag) at both ends."""
    return tokens[e.governor - 1].pos[:1] == "N" == tokens[e.dependent - 1].pos[:1]


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


def _clause(
    v: EdgeView, subj: int, verb: int, form: VerbForm, aux: str = "", after: str = ""
) -> tuple[str, tuple[int, ...]]:
    """Subject phrase, ``aux``, ``verb`` inflected to ``form``, its tail and
    ``after``, as text and span.  The tail, the verb's direct object and
    case-marked nominal attachments, is joined before the clause drops its
    empty parts, so an object with no text keeps its space."""
    subj_p, subj_s = _phrase(v, subj)
    tok = v.h.tokens[verb - 1]
    inflected = conjugate(lemma(tok.surface, tok.pos), form)
    tail, spans = [], [subj_s, (verb,)]
    dobj = _first(v.below[verb], "dobj")
    if dobj is not None:
        p, s = _phrase(v, dobj.dependent, _OBJ_MODS)
        tail.append(p)
        spans.append(s)
    for case_word, p, s in _nmod_attachments(v, v.below[verb]):
        tail.append(f"{case_word} {p}")
        spans.append(s)
    text = " ".join(filter(None, [subj_p, aux, inflected, " ".join(tail), after]))
    return text, _merge(*spans)


def rule_future(v: EdgeView, cfg) -> list[Inference]:
    """aux 'will' plus a co-governed direct object: the event is still ahead."""
    out = []
    for d in v.labelled.get("aux", ()):
        if d.dependent_gloss.lower() != "will":
            continue
        verb = v.h.tokens[d.governor - 1]
        participle = conjugate(lemma(verb.surface, verb.pos), VerbForm.PAST_PARTICIPLE)
        for nd in v.below[d.governor]:
            if nd.dep == "dobj":
                text = f"{nd.dependent_gloss} is not yet {participle}"
                out.append(_presupposition(text, "future", (d.dependent, d.governor, nd.dependent)))
    return out


def rule_but(v: EdgeView, cfg) -> list[Inference]:
    """conj:but carries the contrast implicature: the first conjunct raised an
    expectation about the second."""
    out = []
    for d in v.labelled.get("conj:but", ()):
        dep = v.h.tokens[d.dependent - 1]
        gerund = conjugate(lemma(dep.surface, dep.pos), VerbForm.GERUND)
        negated = any(map(_is_negator, v.below[d.dependent]))
        expecting = "was not expecting" if negated else "was expecting"
        text = f"being {d.governor_gloss} {expecting} {gerund}"
        span = _merge((d.governor, d.dependent))
        out.append(_new(Inference, (InferenceKind.CONVENTIONAL_IMPLICATURE, text, "but", span)))
    return out


def rule_again(v: EdgeView, cfg) -> list[Inference]:
    """advmod 'again' on a verb with a subject: it happened before."""
    out = []
    for d in v.labelled.get("advmod", ()):
        if d.dependent_gloss.lower() != "again":
            continue
        subj = _first(v.below[d.governor], "nsubj")
        if subj is None:
            continue
        verb = v.h.tokens[d.governor - 1]
        subj_p, subj_s = _phrase(v, subj.dependent)
        participle = conjugate(lemma(verb.surface, verb.pos), VerbForm.PAST_PARTICIPLE)
        obj_p, obj_s = "", ()
        dobj = _first(v.below[d.governor], "dobj")
        if dobj is not None:
            obj_p, obj_s = _phrase(v, dobj.dependent)
        text = " ".join(filter(None, [subj_p, "has", participle, obj_p, "before"]))
        out.append(_presupposition(text, "again", subj_s, obj_s, (d.governor, d.dependent)))
    return out


def rule_further(v: EdgeView, cfg) -> list[Inference]:
    """advmod 'further' on a verb: the subject is already in that state."""
    out = []
    for d in v.labelled.get("advmod", ()):
        if d.dependent_gloss.lower() != "further":
            continue
        verb = v.h.tokens[d.governor - 1]
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
    return out


def rule_noun_compound(v: EdgeView, cfg) -> list[Inference]:
    """Noun compound N1 N2: N1 can be / can have N2."""
    connector = _COMPOUND_CONNECTOR[cfg.compound_mode]
    out = []
    for e in v.labelled.get("compound", ()):
        if _joins_nouns(v.h.tokens, e):
            text = f"{e.dependent_gloss} {connector} {e.governor_gloss}"
            out.append(_presupposition(text, "compound", (e.governor, e.dependent)))
    return out


def rule_past_tense(v: EdgeView, cfg) -> list[Inference]:
    """Main-clause simple past: the event already happened."""
    out = []
    for t in v.verbs:
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
    return out


def rule_nmod_of(v: EdgeView, cfg) -> list[Inference]:
    """nmod with case 'of': the dependent has the governor."""
    out = []
    for e in v.labelled.get("nmod", ()):
        for c in v.below[e.dependent]:
            if c.dep == "case" and c.dependent_gloss.lower() == "of":
                text = f"{e.dependent_gloss} has {e.governor_gloss}"
                out.append(_presupposition(text, "nmod_of", (e.governor, e.dependent, c.dependent)))
                break
    return out


def rule_nmod_relaxed(v: EdgeView, cfg) -> list[Inference]:
    """Any noun-governed nmod between nouns: the dependent has the governor.

    Over-generates by design; ships disabled by default.
    """
    out = []
    for e in v.labelled.get("nmod", ()):
        if _joins_nouns(v.h.tokens, e):
            text = f"{e.dependent_gloss} has {e.governor_gloss}"
            out.append(_presupposition(text, "nmod_relaxed", (e.governor, e.dependent)))
    return out


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
    if subj or dobj:
        phrase, span = _phrase(v, (subj or dobj).dependent)
    elif attachments:
        _, phrase, span = attachments[0]
    else:
        return None
    return presup(f"{phrase} has happened before", span)


def rule_lexical(v: EdgeView, cfg) -> list[Inference]:
    """Lexicon-driven triggers: a headline verb whose lemma heads an entry of
    a class whose ``lexical.<class>`` id is in ``cfg.rules`` licenses that
    class's template over its complement/objects.  One pass over the verbs,
    in verb order."""
    lex, rules = cfg.lexicon, cfg.rules
    lowered = None
    out = []
    for verb in v.verbs:
        vlemma = lemma(verb.surface, verb.pos)
        if vlemma not in lex.heads:
            continue
        if lowered is None:
            lowered = [t.surface.lower() for t in v.h.tokens]
        for class_id in lex.verb_classes(vlemma, lowered[verb.index :]):
            if "lexical." + class_id not in rules:
                continue
            inf = _render_lexical(v, class_id, verb, vlemma)
            if inf is not None:
                out.append(inf)
    return out


def rule_temporal(v: EdgeView, cfg) -> list[Inference]:
    """Temporal case/mark words presuppose the embedded thing existed/happened."""
    temporal = cfg.lexicon.words("temporal")
    out = []
    for e in [*v.labelled.get("case", ()), *v.labelled.get("mark", ())]:
        if e.dependent_gloss.lower() not in temporal:
            continue
        gov = v.h.tokens[e.governor - 1]
        if gov in v.verbs:
            subj = _first(v.below[gov.index], "nsubj")
            if subj is None:
                continue
            text, span = _clause(v, subj.dependent, gov.index, VerbForm.PAST)
        else:
            phrase, span = _phrase(v, gov.index)
            text = f"There was {phrase}"
        out.append(_presupposition(text, "temporal", span, (e.dependent,)))
    return out


def _undo_inversion(v: EdgeView, substitute: str, words: list[str]) -> list[str]:
    """``words``, the question's words, in statement order: the auxiliary
    (word 2) moves after the subject, the substitute to the end."""
    subj = _first(v.below[v.h.edges[1].governor], "nsubj")  # edges[1]: word 2's edge
    if subj is None or subj.dependent <= 2:
        return [substitute] + words[1:]
    head = subj.dependent
    return words[2:head] + [words[1]] + words[head:] + [substitute]


def rule_question(v: EdgeView, cfg) -> list[Inference]:
    """Wh-questions presuppose the indefinite counterpart; yes/no questions
    presuppose nothing."""
    if "?" not in v.h.raw_text:
        return []
    words = [t.surface for t in v.h.tokens]
    while words and not words[-1].strip("?!."):
        words.pop()  # trailing sentence punctuation is not rendered
    if not words:
        return []
    wh, rest = words[0].lower(), words[1:]
    if wh.endswith(_IS_CLITICS) and wh[:-2] in _WH_SUBSTITUTE:
        wh, rest = wh[:-2], [wh[-2:]] + rest  # "what's": the wh-word, then its clitic
    if wh not in _WH_SUBSTITUTE:
        return []
    substitute = _WH_SUBSTITUTE[wh]
    if rest and rest[0].lower() in _IS_CLITICS:
        rendered = [substitute, "is"] + rest[1:]
    elif rest and rest[0].lower() in _AUX_SURFACES:
        rendered = _undo_inversion(v, substitute, words)
    else:
        rendered = [substitute] + rest
    return [_presupposition(" ".join(rendered), "question", [t.index for t in v.h.tokens])]


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


def rule_quotes(v: EdgeView, cfg) -> list[Inference]:
    """A quote of more than two words means something was said."""
    quotes = [q for q in v.quotes if word_count(q.text) > 2]
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
    return out


def extract_triplets(v: EdgeView, cfg) -> list[Inference]:
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
    return out


# Rule id (the ``trigger`` of what the rule renders) -> rule(v, cfg), in
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
_POSITION = {rule_id: k for k, rule_id in enumerate(RULE_IDS)}


def _output_order(inf: Inference) -> tuple:
    """A headline's output order: by registry position, then span."""
    return _POSITION[inf.trigger], inf.span


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


# Headlines per unit of work.  Each rule runs over a whole chunk, so its
# code and data stay warm from one headline to the next; from 128 up the
# shallow workload loses that again, and 32 is the size that is near the
# best on both workloads and both seeds.  The CLI's infer loop (preprocess,
# rules, serialization) timed in process at each size, as the median over
# 21 rounds of its time over the per-headline ``infer_all`` loop's time in
# the same round (CPython 3.11.7, shared 2-vCPU x86-64; "news": 2000
# Stanford JSON trees, every rule; "shallow": 5000 CoNLL-U trees, three):
#
#     size               16     32     48     64    128    256
#     news, seed 777    0.832  0.843  0.805  0.848  0.888  0.909
#     news, seed 901    0.856  0.866  0.832  0.864  0.894  0.854
#     shallow, seed 777 0.906  0.872  1.006  0.895  0.924  1.133
#     shallow, seed 901 0.864  0.849  0.896  0.870  1.048  1.097
CHUNK = 32


def _generate(
    items: list[tuple[ParsedHeadline, tuple[QuotedSpan, ...]]], cfg: EngineConfig
) -> list[list[Inference]]:
    """Each ``(h, p)`` item's rule outputs in output order, before
    deduplication: every enabled rule function runs over the whole chunk, in
    registry order, on one ``EdgeView`` of each item, and appends to that
    item's list, which is then sorted once (stably, so ties keep rendering
    order)."""
    work = [(edge_view(h, cfg.strict_verbs, p), []) for h, p in items]
    for rule in cfg.rule_functions:
        for v, out in work:
            out += rule(v, cfg)
    for _, out in work:
        if len(out) > 1:
            out.sort(key=_output_order)
    return [out for _, out in work]


def _deduplicated(generated: list[Inference]) -> list[Inference]:
    """``generated`` less each inference whose text, case-folded, an
    earlier one already rendered."""
    seen: set[str] = set()
    out = []
    for inf in generated:
        key = inf.text.lower()
        if key in seen:
            continue
        seen.add(key)
        out.append(inf)
    return out


def infer_many(
    items: Iterable[tuple[ParsedHeadline, tuple[QuotedSpan, ...]]], cfg: EngineConfig
) -> Iterator[list[Inference]]:
    """``infer_all`` of each ``(h, p)`` item, in order.  Items are taken
    ``CHUNK`` at a time, so at most one chunk is pulled ahead of what has
    been yielded."""
    items = iter(items)
    while chunk := list(islice(items, CHUNK)):
        for generated in _generate(chunk, cfg):
            yield _deduplicated(generated)


def generate_all(
    h: ParsedHeadline, p: tuple[QuotedSpan, ...], cfg: EngineConfig
) -> list[Inference]:
    """All enabled rules' outputs by registry position, then span, before
    deduplication.  The rules share one ``EdgeView`` of ``h``, and a
    function shared by rows runs once."""
    return _generate([(h, p)], cfg)[0]


def infer_all(
    h: ParsedHeadline, p: tuple[QuotedSpan, ...], cfg: EngineConfig
) -> list[Inference]:
    """Deduplicated inference list; the first rule to render a text keeps it."""
    return _deduplicated(generate_all(h, p, cfg))
