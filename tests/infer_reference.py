"""A frozen copy of the infer path's per-headline helpers as they were before
their calls were cut down: ``extract_triplets`` with one edge scan per
dependent it reads, ``parse_dataset_line`` with ``re.finditer`` and the
source split out of the bracket, the old definitions of ``verbs_of`` and
``_merge``, and ``cmd_infer``'s pairing loop as it was before ``pair`` took
it over.  ``test_properties.py`` checks that the package gives the same
triples, headlines and sources, query results and pairing verdicts."""

from __future__ import annotations

import re

from presup.corpus import _MONTHS, letters
from presup.errors import FormatError
from presup.ingest import ParsedHeadline, Token
from presup.rules import Inference, InferenceKind
from rules_reference import edges_governed_by

_SUBJ_MODS = ("compound", "amod", "nummod")
_OBJ_MODS = ("compound", "amod", "nummod", "det")
_PARTICLE_DEPS = ("compound:prt", "prt")


def parse_dataset_line(line: str) -> tuple[str, str]:
    marker = line.rfind("[source:")
    if marker < 0:
        raise FormatError(f"no '[source:' bracket in line: {line!r}")
    text = line[:marker].strip()
    if not text:
        raise FormatError(f"empty headline in line: {line!r}")
    rest = line[marker + len("[source:"):]
    close = rest.rfind("]")
    if close >= 0:
        rest = rest[:close]
    source = rest.strip()
    for m in re.finditer(r"\S+", rest):
        token = m.group(0)
        if token.lower().rstrip(".,") in _MONTHS or token[0].isdigit():
            source = rest[: m.start()].strip()
            break
    return text, source


def is_verb_tag(pos: str, strict: bool = False) -> bool:
    if not pos.startswith("V"):
        return False
    return len(pos) >= 3 if strict else True


def verbs_of(h: ParsedHeadline, strict: bool = False) -> list[Token]:
    return [t for t in h.tokens if is_verb_tag(t.pos, strict)]


def _merge(*spans) -> tuple[int, ...]:
    out: set[int] = set()
    for s in spans:
        out.update(s)
    return tuple(sorted(out))


def _first(edges):
    return edges[0] if edges else None


def _phrase(h, head, mods=_SUBJ_MODS):
    idxs = sorted(
        [head] + [e.dependent for e in edges_governed_by(h, head) if e.dep in mods]
    )
    return " ".join(h.tokens[i - 1].surface for i in idxs), tuple(idxs)


def _is_negator(e) -> bool:
    return e.dep == "neg" or (e.dep == "advmod" and e.dependent_gloss.lower() == "not")


def _verb_surface(h, verb):
    found = [
        (e.dependent, e.dependent_gloss)
        for e in edges_governed_by(h, verb)
        if e.dep in _PARTICLE_DEPS or e.dep in ("aux", "auxpass") or _is_negator(e)
    ]
    ordered = sorted([(verb, h.tokens[verb - 1].surface), *found])
    return " ".join(s for _, s in ordered), tuple(i for i, _ in ordered)


def _nmod_attachments(h, head):
    out = []
    for e in edges_governed_by(h, head, "nmod"):
        cases = edges_governed_by(h, e.dependent, "case")
        if not cases:
            continue
        phrase, span = _phrase(h, e.dependent)
        out.append((cases[0].dependent_gloss, phrase, _merge(span, (cases[0].dependent,))))
    return out


def extract_triplets(h: ParsedHeadline, strict_verbs: bool = False) -> list[Inference]:
    out = []
    for verb in verbs_of(h, strict_verbs):
        subj = _first(edges_governed_by(h, verb.index, "nsubj"))
        if subj is None:
            continue
        subj_p, subj_s = _phrase(h, subj.dependent)
        verb_p, verb_s = _verb_surface(h, verb.index)
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


def pair_lines(records, parses):
    """``cmd_infer``'s pairing, without the inference: the manifest's
    ``skipped`` entries, the headlines handed to ``infer_all`` and the
    manifest's ``unused_parses``."""
    by_id = {}  # each id to the position of its first parse
    for k, h in enumerate(parses):
        by_id.setdefault(h.headline_id, k)
    paired = bytearray(len(parses))  # 1 for each parse a line was paired with
    skipped: list[dict] = []
    inferred: list[ParsedHeadline] = []
    for i, record in enumerate(records, start=1):
        hid = str(i)
        k = by_id.get(hid, i - 1)  # by id, else by position
        if k >= len(parses):
            skipped.append({"line": i, "headline": record.text, "reason": "no parse"})
            continue
        paired[k] = 1
        h = parses[k]
        # Paired by id or by position, a parse must be of this line's text.
        if h.raw_text != record.text and letters(h.raw_text) != letters(record.text):
            skipped.append({"line": i, "headline": record.text, "reason": "mismatch",
                            "parse": h.raw_text})
            continue
        if h.headline_id != hid or h.raw_text != record.text:
            h = ParsedHeadline(hid, record.text, h.tokens, h.edges)
        inferred.append(h)
    unused = [{"position": k + 1, "id": h.headline_id}
              for k, h in enumerate(parses) if not paired[k]]
    return skipped, inferred, unused
