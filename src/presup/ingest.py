"""Dependency-parse ingestion and queries.

Reads parses from CoNLL-U documents or Stanford-style JSON tuples, maps
label vocabularies onto the one the inference rules expect, and exposes the
token/edge lookups every rule is built on.  All types are immutable and all
functions pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ConsistencyError, ParseError

ROOT_GLOSS = "ROOT"

# UD v2 / legacy Stanford labels folded onto the vocabulary the rules match.
LABEL_MAP = {"obj": "dobj", "obl": "nmod", "nn": "compound"}

# Rough UPOS -> Penn fallback for CoNLL-U rows without an XPOS tag.
_UPOS_TO_PTB = {
    "NOUN": "NN",
    "PROPN": "NNP",
    "PRON": "PRP",
    "VERB": "VB",
    "AUX": "MD",
    "ADJ": "JJ",
    "ADV": "RB",
    "ADP": "IN",
    "DET": "DT",
    "NUM": "CD",
    "PART": "RP",
    "CCONJ": "CC",
    "SCONJ": "IN",
    "INTJ": "UH",
    "SYM": "SYM",
    "PUNCT": ".",
    "X": "FW",
}


@dataclass(frozen=True)
class Token:
    index: int  # 1-based
    surface: str
    pos: str
    lemma: str | None = None


@dataclass(frozen=True)
class DependencyEdge:
    dep: str
    governor: int  # 0 = virtual root
    governor_gloss: str
    dependent: int
    dependent_gloss: str


@dataclass(frozen=True)
class ParsedHeadline:
    headline_id: str
    raw_text: str
    tokens: tuple[Token, ...]
    edges: tuple[DependencyEdge, ...]
    quoted_spans: tuple[tuple[int, int], ...] = ()

    def token_at(self, index: int) -> Token:
        return self.tokens[index - 1]

    def surface_at(self, index: int) -> str:
        return ROOT_GLOSS if index == 0 else self.tokens[index - 1].surface


def _validate(h: ParsedHeadline) -> ParsedHeadline:
    n = len(h.tokens)
    # Rules look tokens up by index, so token k must carry index k.
    for position, t in enumerate(h.tokens, start=1):
        if t.index != position:
            raise ConsistencyError(f"{h.headline_id}: token {position} has index {t.index}")
        if not t.pos:
            raise ConsistencyError(f"{h.headline_id}: empty POS on token {t.index}")
    roots = [e for e in h.edges if e.dep == "root"]
    if len(roots) != 1:
        raise ConsistencyError(f"{h.headline_id}: expected one root edge, got {len(roots)}")
    children: dict[int, list[int]] = {}
    dependents = set()
    for e in h.edges:
        if e.governor < 0 or e.governor > n or not 1 <= e.dependent <= n:
            raise ConsistencyError(
                f"{h.headline_id}: edge {e.dep} references token outside 1..{n}"
            )
        if e.dependent == e.governor:
            raise ConsistencyError(f"{h.headline_id}: self-loop on token {e.dependent}")
        if h.surface_at(e.governor) != e.governor_gloss:
            raise ConsistencyError(
                f"{h.headline_id}: governorGloss {e.governor_gloss!r} does not match "
                f"token {e.governor}"
            )
        if h.surface_at(e.dependent) != e.dependent_gloss:
            raise ConsistencyError(
                f"{h.headline_id}: dependentGloss {e.dependent_gloss!r} does not match "
                f"token {e.dependent}"
            )
        if e.dependent in dependents:
            raise ConsistencyError(
                f"{h.headline_id}: token {e.dependent} is a dependent twice"
            )
        dependents.add(e.dependent)
        children.setdefault(e.governor, []).append(e.dependent)
    if len(dependents) != n:
        missing = sorted(set(range(1, n + 1)) - dependents)
        raise ConsistencyError(f"{h.headline_id}: tokens {missing} attach nowhere")
    # Reaching every token from the root edge rules out detached cycles.
    stack, reached = [0], set()
    while stack:
        node = stack.pop()
        for child in children.get(node, ()):
            if child not in reached:
                reached.add(child)
                stack.append(child)
    if len(reached) != n:
        raise ConsistencyError(f"{h.headline_id}: edges do not form a tree")
    return h


def normalize_labels(
    edges: list[DependencyEdge] | tuple[DependencyEdge, ...],
) -> list[DependencyEdge]:
    """Map label vocabulary onto the rules' one.

    obj->dobj, obl->nmod, nn->compound; a conj edge is rewritten to conj:but
    when a cc edge with gloss "but" hangs off either of its conjuncts (first
    conjunct in legacy Stanford output, second in UD v2).  Unknown labels are
    preserved verbatim; applying the function twice is a no-op.
    """
    but_sites = {
        e.governor
        for e in edges
        if e.dep == "cc" and e.dependent_gloss.lower() == "but"
    }
    out = []
    for e in edges:
        dep = LABEL_MAP.get(e.dep, e.dep)
        if dep == "conj" and (e.governor in but_sites or e.dependent in but_sites):
            dep = "conj:but"
        out.append(replace(e, dep=dep) if dep != e.dep else e)
    return out


def build_headline(
    headline_id: str,
    raw_text: str,
    tokens: list[Token],
    edges: list[DependencyEdge],
) -> ParsedHeadline:
    """Normalize labels, then validate the structural invariants."""
    h = ParsedHeadline(
        headline_id=headline_id,
        raw_text=raw_text,
        tokens=tuple(tokens),
        edges=tuple(normalize_labels(edges)),
    )
    return _validate(h)


def parse_conllu(document: str) -> list[ParsedHeadline]:
    """Parse a 10-column CoNLL-U document into one ParsedHeadline per sentence.

    The XPOS column supplies Penn tags; "_" falls back to a UPOS mapping.
    Multi-word-token and empty-node lines are skipped.
    """
    headlines: list[ParsedHeadline] = []
    rows: list[tuple[int, str, str, int, str]] = []  # id, form, pos, head, deprel
    sent_id: str | None = None
    sent_text: str | None = None
    lemmas: dict[int, str] = {}

    def flush() -> None:
        nonlocal rows, sent_id, sent_text, lemmas
        if not rows:
            sent_id, sent_text = None, None
            return
        hid = sent_id if sent_id is not None else str(len(headlines) + 1)
        tokens = [
            Token(index=i, surface=form, pos=pos, lemma=lemmas.get(i))
            for i, form, pos, _, _ in rows
        ]
        surfaces = {t.index: t.surface for t in tokens}
        edges = []
        for i, form, _, head, deprel in rows:
            if head != 0 and head not in surfaces:
                raise ParseError(f"sentence {hid}: head {head} of token {i} does not exist")
            edges.append(
                DependencyEdge(
                    dep=deprel,
                    governor=head,
                    governor_gloss=ROOT_GLOSS if head == 0 else surfaces[head],
                    dependent=i,
                    dependent_gloss=form,
                )
            )
        text = sent_text if sent_text is not None else " ".join(t.surface for t in tokens)
        headlines.append(build_headline(hid, text, tokens, edges))
        rows, sent_id, sent_text, lemmas = [], None, None, {}

    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id"):
                sent_id = body.split("=", 1)[1].strip() if "=" in body else sent_id
            elif body.startswith("text"):
                sent_text = body.split("=", 1)[1].strip() if "=" in body else sent_text
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"line {lineno}: expected 10 columns, got {len(cols)}")
        if "-" in cols[0] or "." in cols[0]:
            continue  # multi-word token / empty node
        try:
            tid = int(cols[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer token id {cols[0]!r}") from exc
        try:
            head = int(cols[6])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer head {cols[6]!r}") from exc
        pos = cols[4]
        if pos == "_":
            pos = _UPOS_TO_PTB.get(cols[3], cols[3])
        if cols[2] != "_":
            lemmas[tid] = cols[2]
        rows.append((tid, cols[1], pos, head, cols[7]))
    flush()
    return headlines


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


def parse_stanford_json(document: str | dict) -> ParsedHeadline:
    """Parse one Stanford-style JSON object into a ParsedHeadline.

    The dependency tuples keep their glosses byte for byte; labels are then
    normalized.  Gloss/index mismatches raise ConsistencyError.
    """
    if isinstance(document, str):
        try:
            obj = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    else:
        obj = document
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object per headline")
    headline = _require(obj, "headline", "headline object")
    hid = str(obj.get("sent_id") or obj.get("id") or "")
    tokens = []
    for i, t in enumerate(_require(obj, "tokens", "headline object"), start=1):
        tokens.append(
            Token(
                index=int(_require(t, "index", f"token {i}")),
                surface=str(_require(t, "word", f"token {i}")),
                pos=str(_require(t, "pos", f"token {i}")),
                lemma=t.get("lemma"),
            )
        )
    edges = []
    for i, d in enumerate(_require(obj, "dependencies", "headline object"), start=1):
        edges.append(
            DependencyEdge(
                dep=str(_require(d, "dep", f"dependency {i}")),
                governor=int(_require(d, "governor", f"dependency {i}")),
                governor_gloss=str(_require(d, "governorGloss", f"dependency {i}")),
                dependent=int(_require(d, "dependent", f"dependency {i}")),
                dependent_gloss=str(_require(d, "dependentGloss", f"dependency {i}")),
            )
        )
    return build_headline(hid or headline, str(headline), tokens, edges)


def to_stanford_json(h: ParsedHeadline) -> dict:
    """Render back to the Stanford-style JSON shape (round-trips edges/tokens)."""
    return {
        "headline": h.raw_text,
        "sent_id": h.headline_id,
        "tokens": [
            {"index": t.index, "word": t.surface, "pos": t.pos}
            | ({"lemma": t.lemma} if t.lemma is not None else {})
            for t in h.tokens
        ],
        "dependencies": [
            {
                "dep": e.dep,
                "governor": e.governor,
                "governorGloss": e.governor_gloss,
                "dependent": e.dependent,
                "dependentGloss": e.dependent_gloss,
            }
            for e in h.edges
        ],
    }


def is_verb_tag(pos: str, strict: bool = False) -> bool:
    """V-prefixed Penn tags; strict mode drops the bare VB tag."""
    if not pos.startswith("V"):
        return False
    return len(pos) >= 3 if strict else True


def is_noun_tag(pos: str) -> bool:
    return pos.startswith(("N", "P"))


def verbs_of(h: ParsedHeadline, strict: bool = False) -> list[Token]:
    """Verb tokens in sentence order."""
    return [t for t in h.tokens if is_verb_tag(t.pos, strict)]


def nouns_of(h: ParsedHeadline) -> list[Token]:
    """Noun and pronoun tokens in sentence order."""
    return [t for t in h.tokens if is_noun_tag(t.pos)]


def edges_with(
    h: ParsedHeadline,
    dep: str,
    governor_gloss: str | None = None,
    dependent_gloss: str | None = None,
) -> list[DependencyEdge]:
    """Edges matching a label and optional (case-insensitive) gloss filters."""
    out = []
    for e in h.edges:
        if e.dep != dep:
            continue
        if governor_gloss is not None and e.governor_gloss.lower() != governor_gloss.lower():
            continue
        if dependent_gloss is not None and e.dependent_gloss.lower() != dependent_gloss.lower():
            continue
        out.append(e)
    return out


def edges_governed_by(
    h: ParsedHeadline, governor: int, dep: str | None = None
) -> list[DependencyEdge]:
    """Edges whose governor is the given token index."""
    return [
        e
        for e in h.edges
        if e.governor == governor and (dep is None or e.dep == dep)
    ]


def edge_for_dependent(h: ParsedHeadline, dependent: int) -> DependencyEdge | None:
    """The unique edge a token hangs from."""
    for e in h.edges:
        if e.dependent == dependent:
            return e
    return None
