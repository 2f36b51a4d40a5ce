"""A frozen copy of the parse readers as they were before they became one
pass: ``parse_conllu``, ``parse_stanford_json``, ``build_headline``,
``normalize_labels`` and ``_validate``.  ``test_properties.py`` checks that
the package's readers give the same parses and the same error texts."""

from __future__ import annotations

import json

from presup.errors import ConsistencyError, ParseError, located, split_lines
from presup.ingest import (
    LABEL_MAP,
    ROOT_GLOSS,
    _RECORD_ERRORS,
    _UPOS_TO_PTB,
    DependencyEdge,
    ParsedHeadline,
    Token,
    _record_error,
    _record_list,
)


def _validate(h: ParsedHeadline) -> ParsedHeadline:
    n = len(h.tokens)
    # Rules look tokens up by index, so token k must carry index k.
    surfaces = [ROOT_GLOSS]  # the gloss an edge must give for each index
    for position, (index, surface, pos) in enumerate(h.tokens, start=1):
        if index != position:
            raise ConsistencyError(f"{h.headline_id}: token {position} has index {index}")
        if not pos:
            raise ConsistencyError(f"{h.headline_id}: empty POS on token {index}")
        surfaces.append(surface)
    roots = [e.dep for e in h.edges].count("root")
    if roots != 1:
        raise ConsistencyError(f"{h.headline_id}: expected one root edge, got {roots}")
    children: dict[int, list[int]] = {}
    dependents = set()
    for dep, governor, governor_gloss, dependent, dependent_gloss in h.edges:
        if governor < 0 or governor > n or not 1 <= dependent <= n:
            raise ConsistencyError(
                f"{h.headline_id}: edge {dep} references token outside 1..{n}"
            )
        if dependent == governor:
            raise ConsistencyError(f"{h.headline_id}: self-loop on token {dependent}")
        if surfaces[governor] != governor_gloss:
            raise ConsistencyError(
                f"{h.headline_id}: governorGloss {governor_gloss!r} does not match "
                f"token {governor}"
            )
        if surfaces[dependent] != dependent_gloss:
            raise ConsistencyError(
                f"{h.headline_id}: dependentGloss {dependent_gloss!r} does not match "
                f"token {dependent}"
            )
        if dependent in dependents:
            raise ConsistencyError(
                f"{h.headline_id}: token {dependent} is a dependent twice"
            )
        dependents.add(dependent)
        children.setdefault(governor, []).append(dependent)
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
        out.append(e._replace(dep=dep) if dep != e.dep else e)
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


def parse_conllu(document: str, source: str | None = None) -> list[ParsedHeadline]:
    """Parse a 10-column CoNLL-U document into one ParsedHeadline per sentence.

    The XPOS column supplies Penn tags; "_" falls back to a UPOS mapping.
    Multi-word-token and empty-node lines are skipped.  Errors name
    ``source:line`` (``line N`` without a source); a sentence's errors name
    its first line.
    """
    headlines: list[ParsedHeadline] = []
    tokens: list[Token] = []
    heads: list[tuple[int, str]] = []  # head, deprel of each token
    sent_id: str | None = None
    sent_text: str | None = None
    first_line = 0  # the current sentence's first line, 0 before it starts

    def flush() -> None:
        nonlocal tokens, heads, sent_id, sent_text, first_line
        if tokens:
            surfaces = {t.index: t.surface for t in tokens}
            surfaces[0] = ROOT_GLOSS
            edges = []
            for t, (head, deprel) in zip(tokens, heads):
                if head not in surfaces:
                    raise ParseError(
                        f"{located(source, first_line)}: sentence "
                        f"{sent_id or len(headlines) + 1}: "
                        f"head {head} of token {t.index} does not exist"
                    )
                edges.append(DependencyEdge(deprel, head, surfaces[head], t.index, t.surface))
            text = sent_text if sent_text is not None else " ".join(t.surface for t in tokens)
            try:
                # Without a sent_id the id is the text, as in Stanford JSON.
                headlines.append(build_headline(sent_id or text, text, tokens, edges))
            except ConsistencyError as exc:
                raise ConsistencyError(f"{located(source, first_line)}: {exc}") from None
        tokens, heads, sent_id, sent_text, first_line = [], [], None, None, 0

    for lineno, line in enumerate(split_lines(document), start=1):
        if not line.strip():
            flush()
            continue
        if not first_line:
            first_line = lineno
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id"):
                sent_id = body.split("=", 1)[1].strip() if "=" in body else sent_id
            elif body.startswith("text"):
                sent_text = body.split("=", 1)[1].strip() if "=" in body else sent_text
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"{located(source, lineno)}: expected 10 columns, got {len(cols)}"
            )
        tid, form, _, upos, pos, _, head, deprel, _, _ = cols
        if "-" in tid or "." in tid:
            continue  # multi-word token / empty node
        try:
            tid = int(tid)
        except ValueError:
            raise ParseError(f"{located(source, lineno)}: non-integer token id {tid!r}") from None
        try:
            head = int(head)
        except ValueError:
            raise ParseError(f"{located(source, lineno)}: non-integer head {head!r}") from None
        if pos == "_":
            pos = _UPOS_TO_PTB.get(upos, upos)
        tokens.append(Token(tid, form, pos))
        heads.append((head, deprel))
    flush()
    return headlines


_TOKEN_KEYS = ("index", "word", "pos")
_EDGE_KEYS = ("dep", "governor", "governorGloss", "dependent", "dependentGloss")


def parse_stanford_json(document: str | dict) -> ParsedHeadline:
    """Parse one Stanford-style JSON object into a ParsedHeadline.

    The dependency tuples keep their glosses byte for byte; labels are then
    normalized.  Gloss/index mismatches raise ConsistencyError; a missing
    key or a non-integer index names its token or dependency.
    """
    if isinstance(document, str):
        try:
            obj = json.loads(document)
        except (ValueError, RecursionError) as exc:  # ValueError: also a too-long integer
            raise ParseError(f"invalid JSON: {exc}") from exc
    else:
        obj = document
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object per headline")
    if "headline" not in obj:
        raise ParseError("headline object: missing key 'headline'")
    headline = str(obj["headline"])
    hid = str(obj.get("sent_id") or obj.get("id") or "")
    tokens = []
    for i, t in enumerate(_record_list(obj, "tokens"), start=1):
        try:
            tokens.append(Token(int(t["index"]), str(t["word"]), str(t["pos"])))
        except _RECORD_ERRORS:
            raise _record_error(f"token {i}", t, _TOKEN_KEYS) from None
    edges = []
    for i, d in enumerate(_record_list(obj, "dependencies"), start=1):
        try:
            edges.append(
                DependencyEdge(
                    str(d["dep"]),
                    int(d["governor"]),
                    str(d["governorGloss"]),
                    int(d["dependent"]),
                    str(d["dependentGloss"]),
                )
            )
        except _RECORD_ERRORS:
            raise _record_error(f"dependency {i}", d, _EDGE_KEYS) from None
    return build_headline(hid or headline, headline, tokens, edges)
