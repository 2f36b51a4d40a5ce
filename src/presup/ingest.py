"""Dependency-parse ingestion and queries.

Reads parses from CoNLL-U documents or Stanford-style JSON tuples, maps
label vocabularies onto the one the inference rules expect, and exposes the
token/edge lookups every rule is built on.  All types are immutable and all
functions pure.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import ne
from typing import NamedTuple

from .corpus import QuotedSpan
from .errors import ConsistencyError, ParseError, located, split_lines

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

# Builds a NamedTuple from one row without its Python-level __new__.
_new = tuple.__new__


class Token(NamedTuple):
    index: int  # 1-based
    surface: str
    pos: str


class DependencyEdge(NamedTuple):
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


def _validate(
    headline_id: str, ids: Sequence[int], tags: Sequence[str], labels: Sequence[str],
    heads: Sequence[int], fault: str | None = None, listed: Sequence[int] = (),
) -> None:
    """Raise ConsistencyError for the first broken invariant of a sentence
    given as columns, in this order: token k carries index k and a POS; one
    edge is labelled root; ``fault``, the first bad edge its reader found;
    every token reaches the root through ``heads``; only the root edge hangs
    from the root.  Past the fault, ``labels[k - 1]`` and ``heads[k - 1]``
    are token k's edge's.  Of two edges from the root, the error names the
    first in ``listed`` (dependents as a file lists them), else the leftmost."""
    n = len(ids)
    # Rules look tokens up by index, so token k must carry index k.
    if not all(tags) or any(map(ne, ids, range(1, n + 1))):
        for position, (index, pos) in enumerate(zip(ids, tags), start=1):
            if index != position:
                raise ConsistencyError(f"{headline_id}: token {position} has index {index}")
            if not pos:
                raise ConsistencyError(f"{headline_id}: empty POS on token {index}")
    roots = labels.count("root")
    if roots != 1:
        raise ConsistencyError(f"{headline_id}: expected one root edge, got {roots}")
    if fault:
        raise ConsistencyError(f"{headline_id}: {fault}")
    # Walk up from each token; a walk that meets itself is a detached cycle.
    walk = [0] * (n + 1)  # the token whose walk first reached each index
    walk[0] = -1
    for k in range(1, n + 1):
        j = k
        while not walk[j]:
            walk[j] = k
            j = heads[j - 1]
        if walk[j] == k:
            # A CoNLL-U reader leaves a self-loop, a cycle of one, to this walk.
            for dependent, governor in enumerate(heads, start=1):
                if dependent == governor:
                    raise ConsistencyError(f"{headline_id}: self-loop on token {dependent}")
            raise ConsistencyError(f"{headline_id}: edges do not form a tree")
    # The tree reaches the root, so some edge hangs from it; any other than
    # the root edge breaks the rule.
    if heads.count(0) != 1 or heads[labels.index("root")]:
        for dependent in listed or ids:
            if heads[dependent - 1] == 0 and labels[dependent - 1] != "root":
                raise ConsistencyError(
                    f"{headline_id}: edge {labels[dependent - 1]} of token {dependent} hangs"
                    " from the root, which only the root edge may"
                )


def _assemble(
    headline_id: str, raw_text: str, tokens: tuple[Token, ...], ids: Sequence[int],
    forms: Sequence[str], tags: Sequence[str], labels: Sequence[str], heads: Sequence[int],
    fault: str | None = None, listed: Sequence[int] = (),
) -> ParsedHeadline:
    """The parse of a sentence given as ``_validate``'s columns, which it
    checks: ``edges[k - 1]`` is token k's edge, its glosses the words'."""
    _validate(headline_id, ids, tags, labels, heads, fault, listed)
    glosses = (ROOT_GLOSS, *forms)
    edge_rows = zip(labels, heads, map(glosses.__getitem__, heads), ids, forms)
    edges = tuple(map(_new, repeat(DependencyEdge), edge_rows))
    return ParsedHeadline(headline_id, raw_text, tokens, edges)


def _labels(
    deps: Sequence[str],
    governors: Sequence[int],
    dependents: Sequence[int],
    dependent_glosses: Sequence[str],
) -> list[str]:
    """The rules' label of each edge, the edges given as columns: LABEL_MAP,
    then conj -> conj:but where a cc edge with gloss "but" hangs off either
    conjunct (the first in legacy Stanford output, the second in UD v2)."""
    labels = list(map(LABEL_MAP.get, deps, deps))
    if "cc" in deps and "conj" in labels:
        but_sites = {
            governor
            for dep, governor, gloss in zip(deps, governors, dependent_glosses)
            if dep == "cc" and gloss.lower() == "but"
        }
        for k, label in enumerate(labels):
            if label == "conj" and (governors[k] in but_sites or dependents[k] in but_sites):
                labels[k] = "conj:but"
    return labels


def normalize_labels(edges: Iterable[DependencyEdge]) -> list[DependencyEdge]:
    """Map label vocabulary onto the rules' one.

    obj->dobj, obl->nmod, nn->compound; a conj edge is rewritten to conj:but
    when a cc edge with gloss "but" hangs off either of its conjuncts (first
    conjunct in legacy Stanford output, second in UD v2).  Unknown labels are
    preserved verbatim; applying the function twice is a no-op.
    """
    edges = list(edges)
    if not edges:
        return []  # zip(*edges) would give no columns to unpack
    deps, governors, _, dependents, dependent_glosses = zip(*edges)
    labels = _labels(deps, governors, dependents, dependent_glosses)
    return [e if e.dep == dep else e._replace(dep=dep) for e, dep in zip(edges, labels)]


def _check_strings(where: str, keys: tuple[str, ...], columns: tuple[Sequence, ...]) -> None:
    """ParseError for the first value of ``columns`` that is not a string,
    naming its row (``where`` k, from 1) and its key.  ``str.join`` makes
    the check in C, with no Python call per value."""
    try:
        for column in columns:
            "".join(column)
    except TypeError:
        for k, row in enumerate(zip(*columns), start=1):
            for key, value in zip(keys, row):
                if not isinstance(value, str):
                    raise ParseError(
                        f"{where} {k}: key {key!r} must be a string, got {value!r}"
                    ) from None


def build_headline(
    headline_id: str,
    raw_text: str,
    tokens: Iterable[Token],
    edges: Iterable[tuple[str, int, str, int, str]],
) -> ParsedHeadline:
    """Map labels and check the structural invariants in one pass over
    ``edges``, (dep, governor, governor gloss, dependent, dependent gloss)
    rows in any order: every index in range, no self-loop, each gloss that
    of its token, each token a dependent exactly once, then ``_validate``.
    The parse lists the edges by dependent, as ``_assemble`` builds them.  A
    word, POS, label or gloss that is not a string is a ParseError naming
    the token or dependency and its Stanford JSON key."""
    tokens = tuple(tokens)
    n = len(tokens)
    ids, surfaces, tags = zip(*tokens) if tokens else ((), (), ())
    _check_strings("token", ("word", "pos"), (surfaces, tags))
    glosses = (ROOT_GLOSS, *surfaces)  # the gloss an edge must give for each index
    heads = [-1] * n
    placed = [""] * n  # placed[k - 1]: the label of the edge token k hangs from
    rows = []
    fault: str | int | None = None  # an int: the row whose index is out of range
    for row in edges:
        rows.append(row)
        if fault is not None:
            continue
        dep, governor, governor_gloss, dependent, dependent_gloss = row
        if governor < 0 or governor > n or not 1 <= dependent <= n:
            fault = len(rows) - 1  # its message names the mapped label
        elif dependent == governor:
            fault = f"self-loop on token {dependent}"
        elif glosses[governor] != governor_gloss:
            fault = f"governorGloss {governor_gloss!r} does not match token {governor}"
        elif glosses[dependent] != dependent_gloss:
            fault = f"dependentGloss {dependent_gloss!r} does not match token {dependent}"
        elif heads[dependent - 1] >= 0:
            fault = f"token {dependent} is a dependent twice"
        else:
            heads[dependent - 1] = governor
            placed[dependent - 1] = dep
    columns = tuple(zip(*rows)) if rows else ((),) * 5
    deps, governors, governor_glosses, dependents, dependent_glosses = columns
    texts = (deps, governor_glosses, dependent_glosses)
    _check_strings("dependency", ("dep", "governorGloss", "dependentGloss"), texts)
    if fault is None and -1 not in heads:  # each row placed one token's edge
        labels = _labels(placed, heads, range(1, n + 1), surfaces)
    else:  # the rows as given name the fault
        labels = _labels(deps, governors, dependents, dependent_glosses)
        if isinstance(fault, int):
            fault = f"edge {labels[fault]} references token outside 1..{n}"
        elif fault is None:
            missing = [k for k, head in enumerate(heads, start=1) if head < 0]
            fault = f"tokens {missing} attach nowhere"
    return _assemble(headline_id, raw_text, tokens, ids, surfaces, tags, labels, heads, fault,
                     dependents)


class _DigitStrings(dict):
    """A string of ASCII digits to its int; ValueError for any other string.
    int() would also take a sign, spaces, underscores and other scripts'
    digits.  The common ones are stored, so reading a CoNLL-U ID or HEAD
    cell is one lookup, cheaper than int()."""

    def __missing__(self, text: str) -> int:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(text)
        return int(text)


_DIGITS = _DigitStrings((str(i), i) for i in range(256))
# A multi-word token N-M or an empty node N.M.
_SKIPPED_ID = re.compile(r"([0-9]+)([-.])([0-9]+)")


def parse_conllu(document: str, source: str | None = None) -> list[ParsedHeadline]:
    """Parse a 10-column CoNLL-U document into one ParsedHeadline per sentence.

    The XPOS column supplies Penn tags; "_" falls back to a UPOS mapping.
    Multi-word-token (ID ``N-M``) and empty-node (ID ``N.M``) lines are
    skipped; any other ID that is not ASCII digits is an error, and so is a
    range unless ``1 <= N < M <=`` the sentence's last token ID, an error
    at its own line found when the sentence ends, before its other checks.  A
    ``# sent_id`` or ``# text`` line after a sentence's first token row is an
    error: it would rename the sentence it is in.  Errors name
    ``source:line`` (``line N`` without a source); a sentence's errors name
    its first line.  Each token row gives exactly one edge, so of the checks
    of ``build_headline`` a sentence needs only that every head exists.
    """
    headlines: list[ParsedHeadline] = []
    # The columns of the current sentence's token rows.
    ids: list[int] = []
    forms: list[str] = []
    tags: list[str] = []
    heads: list[int] = []
    deprels: list[str] = []
    ranges: list[tuple[int, str, int, int]] = []  # (line, ID, N, M) of each N-M row
    sent_id: str | None = None
    sent_text: str | None = None
    first_line = 0  # the current sentence's first line, 0 before it starts

    def flush() -> None:
        nonlocal ids, forms, tags, heads, deprels, ranges, sent_id, sent_text, first_line
        if ranges:
            last = ids[-1] if ids else 0
            for lineno, tid, start, end in ranges:
                if not 1 <= start < end <= last:
                    raise ParseError(
                        f"{located(source, lineno)}: multi-word token {tid!r} is not a range"
                        f" N-M with 1 <= N < M <= {last}, the sentence's last token id"
                    )
        if ids:
            known = set(ids)
            known.add(0)
            if not known.issuperset(heads):
                for tid, head in zip(ids, heads):
                    if head not in known:
                        raise ParseError(
                            f"{located(source, first_line)}: sentence "
                            f"{sent_id or len(headlines) + 1}: "
                            f"head {head} of token {tid} does not exist"
                        )
            text = sent_text if sent_text is not None else " ".join(forms)
            hid = sent_id or text  # without a sent_id the id is the text, as in Stanford JSON
            labels = _labels(deprels, heads, ids, forms)
            tokens = tuple(map(_new, repeat(Token), zip(ids, forms, tags)))
            try:
                headlines.append(_assemble(hid, text, tokens, ids, forms, tags, labels, heads))
            except ConsistencyError as exc:
                raise ConsistencyError(f"{located(source, first_line)}: {exc}") from None
        ids, forms, tags, heads, deprels, ranges = [], [], [], [], [], []
        sent_id, sent_text, first_line = None, None, 0

    for lineno, line in enumerate(split_lines(document), start=1):
        if not line.strip():
            flush()
            continue
        if not first_line:
            first_line = lineno
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            key = key.strip()
            if ids and eq and key in ("sent_id", "text"):
                raise ParseError(
                    f"{located(source, lineno)}: '# {key}' line inside sentence "
                    f"{sent_id or len(headlines) + 1}; a blank line must end the sentence first"
                )
            if eq and key == "sent_id":
                sent_id = value.strip()
            elif eq and key == "text":
                sent_text = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"{located(source, lineno)}: expected 10 columns, got {len(cols)}"
            )
        tid, form, _, upos, pos, _, head, deprel, _, _ = cols
        if ("-" in tid or "." in tid) and (skipped := _SKIPPED_ID.fullmatch(tid)):
            if skipped[2] == "-":
                ranges.append((lineno, tid, int(skipped[1]), int(skipped[3])))
            continue
        try:
            ids.append(_DIGITS[tid])
        except ValueError:
            raise ParseError(f"{located(source, lineno)}: non-integer token id {tid!r}") from None
        try:
            heads.append(_DIGITS[head])
        except ValueError:
            raise ParseError(f"{located(source, lineno)}: non-integer head {head!r}") from None
        forms.append(form)
        tags.append(_UPOS_TO_PTB.get(upos, upos) if pos == "_" else pos)
        deprels.append(deprel)
    flush()
    return headlines


_TOKEN_KEYS = ("index", "word", "pos")
_EDGE_KEYS = ("dep", "governor", "governorGloss", "dependent", "dependentGloss")
_INT_KEYS = frozenset({"index", "governor", "dependent"})
# What indexing raises on a record that is not an object or lacks a key, and
# what _integer raises on a JSON value that is not an integer ("x", null, a
# list, true, 2.9, NaN, Infinity).
_RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _integer(value) -> int:
    """A JSON integer, or a string of ASCII digits, as an int.  int() would
    take true as 1, truncate 2.9 to 2 and read '+2' as 2."""
    if type(value) is int:  # nearly every value; the checks below cost ~10% of a parse
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(value)
    if isinstance(value, str):
        return _DIGITS[value]
    return int(value)


def _record_error(where: str, record, keys: tuple[str, ...]) -> ParseError:
    """The error for a token or dependency record that failed to convert,
    naming the record and the first key at fault.  It always returns: a dict
    fails only on a missing key or in ``_integer``, retried here in order."""
    if not isinstance(record, dict):
        return ParseError(f"{where}: expected a JSON object, got {type(record).__name__}")
    for key in keys:
        if key not in record:
            return ParseError(f"{where}: missing key {key!r}")
        if key in _INT_KEYS:
            try:
                _integer(record[key])
            except _RECORD_ERRORS:
                return ParseError(f"{where}: key {key!r} must be an integer, got {record[key]!r}")


def _record_list(obj: dict, key: str) -> list:
    if key not in obj:
        raise ParseError(f"headline object: missing key {key!r}")
    if not isinstance(obj[key], list):
        raise ParseError(f"headline object: key {key!r} must be a list")
    return obj[key]


def parse_stanford_json(document: str | dict) -> ParsedHeadline:
    """Parse one Stanford-style JSON object into a ParsedHeadline.

    Dependencies may come in any order.  Each gloss must equal its token's
    word, kept as the edge's string; labels are then normalized.  Gloss or
    index mismatches raise ConsistencyError; a missing key, a non-integer
    index or a text that is not a string names its token or dependency.
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
    headline = obj["headline"]
    if type(headline) is not str:
        raise ParseError(f"headline object: key 'headline' must be a string, got {headline!r}")
    key = "id" if obj.get("sent_id") in (None, "") else "sent_id"
    hid = obj.get(key)
    if hid is not None and type(hid) not in (str, int):  # nor a bool
        raise ParseError(
            f"headline object: key {key!r} must be a string or an integer, got {hid!r}"
        )
    tokens = []
    for i, t in enumerate(_record_list(obj, "tokens"), start=1):
        try:
            tokens.append(_new(Token, (_integer(t["index"]), t["word"], t["pos"])))
        except _RECORD_ERRORS:
            raise _record_error(f"token {i}", t, _TOKEN_KEYS) from None
    records = _record_list(obj, "dependencies")
    hid = headline if hid in (None, "") else str(hid)
    return build_headline(hid, headline, tokens, _edge_rows(records))


def _edge_rows(records: list) -> Iterator[tuple[str, int, str, int, str]]:
    """The rows of the dependency records, converted as ``build_headline``
    asks for them, so that it reads the records in its one pass."""
    for i, d in enumerate(records, start=1):
        try:
            row = (
                d["dep"],
                _integer(d["governor"]),
                d["governorGloss"],
                _integer(d["dependent"]),
                d["dependentGloss"],
            )
        except _RECORD_ERRORS:
            raise _record_error(f"dependency {i}", d, _EDGE_KEYS) from None
        yield row


def is_noun_tag(pos: str) -> bool:
    """Noun and personal-pronoun Penn tags: N* and PRP (not PRP$, POS or PDT)."""
    return pos.startswith("N") or pos == "PRP"


def verbs_of(h: ParsedHeadline, strict: bool = False) -> list[Token]:
    """Verb tokens in sentence order: V-prefixed Penn tags; strict mode drops
    the bare VB tag.  The one definition of a verb: the rules read it as
    ``EdgeView.verbs``."""
    if strict:
        return [t for t in h.tokens if t.pos[:1] == "V" and len(t.pos) >= 3]
    return [t for t in h.tokens if t.pos[:1] == "V"]


def nouns_of(h: ParsedHeadline) -> list[Token]:
    """Noun and pronoun tokens in sentence order."""
    return [t for t in h.tokens if is_noun_tag(t.pos)]


class EdgeView(NamedTuple):
    """A headline as the rules read it: ``h`` and only what the engine adds.
    ``edge_view`` builds it in one pass over the edges, which are in dependent
    order (``h.edges[k - 1]`` is token k's); each list keeps that order, so
    the first ``nsubj`` a rule finds is leftmost."""

    h: ParsedHeadline
    verbs: list[Token]  # verbs_of(h, strict_verbs)
    below: list[list[DependencyEdge]]  # below[k]: the edges token k governs; 0 is the root
    labelled: defaultdict[str, list[DependencyEdge]]  # each label's edges; read with .get
    quotes: tuple[QuotedSpan, ...]  # the quoted spans of h.raw_text that the caller gave


def edge_view(h: ParsedHeadline, strict_verbs: bool, quotes: tuple[QuotedSpan, ...]) -> EdgeView:
    """``h``'s edges grouped by governor and by label, its verbs and its
    ``quotes``, for a parse from a reader or ``build_headline``."""
    below = [[] for _ in range(len(h.tokens) + 1)]
    labelled = defaultdict(list)
    for e in h.edges:
        below[e.governor].append(e)
        labelled[e.dep].append(e)
    return _new(EdgeView, (h, verbs_of(h, strict_verbs), below, labelled, quotes))
