"""Alignment of computed inferences with gold annotations and the per-headline
and per-trigger accuracy statistics.

Matching is a greedy one-to-one alignment: human-judged pairs (when supplied)
first, then exact matches on normalized text, then optionally highest token
Jaccard above a threshold.  ``match`` also decides which computed inferences
are incorrect, and the scores only count its verdict.  It reports the human
labels that name no inference, which it ignores.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

from .corpus import GoldAnnotation, clean


class MatchMode(Enum):
    EXACT_NORMALIZED = "exact"
    TOKEN_JACCARD = "jaccard"


@dataclass(frozen=True)
class MatchConfig:
    mode: MatchMode = MatchMode.EXACT_NORMALIZED
    jaccard_threshold: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be within [0, 1]")


class MatchPair(NamedTuple):
    gold_index: int
    computed_index: int
    score: float


class Alignment(NamedTuple):
    """One headline's verdict: which gold and computed inferences match and
    which computed ones are incorrect.  Texts are normalized."""

    pairs: tuple[MatchPair, ...]
    unmatched_gold: tuple[int, ...]
    unmatched_computed: tuple[int, ...]
    incorrect: tuple[int, ...]  # computed indices
    gold_texts: tuple[str, ...]
    computed_texts: tuple[str, ...]
    gold_triggers: tuple[str | None, ...]
    computed_triggers: tuple[str | None, ...]

    @property
    def matched_count(self) -> int:
        return len(self.pairs)

    @property
    def gold_count(self) -> int:
        return len(self.gold_texts)

    @property
    def computed_count(self) -> int:
        return len(self.computed_texts)


_CAN_FAMILY = re.compile(r"\bcan be\s*/\s*can have\b")
_CAN_HAVE = re.compile(r"\bcan (?:have|be)\b")


def normalize(text: str) -> str:
    """Canonical comparison form: lowercase, ``clean``, the can-be/can-have
    family folded onto one token."""
    s = clean(text.lower())
    if "can " not in s:  # both patterns need it; most texts skip two scans
        return s
    return _CAN_HAVE.sub("can-have", _CAN_FAMILY.sub("can-have", s))


def _texts(items) -> list[str]:
    return [getattr(item, "text", item) for item in items]


def _triggers(items) -> tuple[str | None, ...]:
    return tuple([getattr(item, "trigger", None) for item in items])


# tuple.__new__ skips the Python-level __new__ of a NamedTuple; the fields
# go in their declared order.
_new = tuple.__new__


def match(
    computed,
    gold,
    cfg: MatchConfig = MatchConfig(),
    judged_pairs: tuple[tuple[str, str], ...] = (),
    incorrect_labels: set[str] | frozenset[str] | None = None,
    *,
    unnamed: set | None = None,
) -> Alignment:
    """Greedy one-to-one alignment of computed inferences against gold ones.

    ``computed`` and ``gold`` may be sequences of strings or of objects with a
    ``text`` attribute, and optionally a ``trigger`` (a GoldAnnotation's
    inferences are unwrapped).  ``judged_pairs`` are (gold text, computed
    text) matches decided by a human and applied before any automatic phase.
    A computed inference is incorrect when its normalized text is one of
    ``incorrect_labels``, the human judgment; without labels, when it is
    unmatched.  Each distinct text of the call is normalized once.
    A judged side or label that normalizes to none of its side's texts names
    nothing and is ignored (with its pair); when ``unnamed`` is a set,
    ``match`` adds ``(what, text, side)`` to it for each such text.
    """
    gold_items = gold.inferences if isinstance(gold, GoldAnnotation) else gold
    gold_texts, comp_texts = _texts(gold_items), _texts(computed)
    labels = () if incorrect_labels is None else incorrect_labels
    norm = {
        t: normalize(t)
        for t in dict.fromkeys(chain(gold_texts, comp_texts, *judged_pairs, labels))
    }
    ngold = tuple(map(norm.__getitem__, gold_texts))
    ncomp = tuple(map(norm.__getitem__, comp_texts))
    # The free computed indices of each normalized text, ascending: the judged
    # and exact phases take the first.
    free_comp: dict[str, list[int]] = {}
    for ci, ct in enumerate(ncomp):
        free_comp.setdefault(ct, []).append(ci)
    pair_of: list[MatchPair | None] = [None] * len(ngold)  # by gold index

    if judged_pairs:
        free_gold: dict[str, list[int]] = {}
        for gi, gt in enumerate(ngold):
            free_gold.setdefault(gt, []).append(gi)
        for g_text, c_text in judged_pairs:
            g_free, c_free = free_gold.get(norm[g_text]), free_comp.get(norm[c_text])
            if g_free and c_free:
                gi = g_free.pop(0)
                pair_of[gi] = _new(MatchPair, (gi, c_free.pop(0), 1.0))
            elif unnamed is not None:  # None: no inference has the text
                if g_free is None:
                    unnamed.add(("matched gold text", g_text, "gold"))
                if c_free is None:
                    unnamed.add(("matched computed text", c_text, "computed"))

    for gi, gt in enumerate(ngold):
        if pair_of[gi] is None and (c_free := free_comp.get(gt)):
            pair_of[gi] = _new(MatchPair, (gi, c_free.pop(0), 1.0))

    if cfg.mode is MatchMode.TOKEN_JACCARD and None in pair_of:
        # Each free computed text's tokens, once, with its free indices.
        comp_tokens = [(set(ct.split()), cis) for ct, cis in free_comp.items() if cis]
        candidates = []
        for gi, gt in enumerate(ngold):
            if pair_of[gi] is None:
                g_tokens = set(gt.split())
                for c_tokens, cis in comp_tokens:
                    shared = len(g_tokens & c_tokens)
                    union = len(g_tokens) + len(c_tokens) - shared
                    score = shared / union if union else 1.0  # two empty texts match
                    if score >= cfg.jaccard_threshold:
                        candidates.extend([(-score, gi, ci) for ci in cis])
        if candidates:
            candidates.sort()
            taken: set[int] = set()
            for neg_score, gi, ci in candidates:
                if pair_of[gi] is None and ci not in taken:
                    pair_of[gi] = _new(MatchPair, (gi, ci, -neg_score))
                    taken.add(ci)

    pairs, unmatched_gold, matched = [], [], set()
    for gi, p in enumerate(pair_of):
        if p is None:
            unmatched_gold.append(gi)
        else:
            pairs.append(p)
            matched.add(p[1])
    unmatched_computed = tuple([ci for ci in range(len(ncomp)) if ci not in matched])
    if incorrect_labels is None:
        incorrect = unmatched_computed
    else:
        wrong = {norm[t] for t in labels}
        incorrect = tuple([ci for ci, ct in enumerate(ncomp) if ct in wrong])
        if unnamed is not None:
            unnamed.update([("incorrect label", t, "computed")
                            for t in labels if norm[t] not in free_comp])
    return _new(Alignment, (
        tuple(pairs),
        tuple(unmatched_gold),
        unmatched_computed,
        incorrect,
        ngold,
        ncomp,
        _triggers(gold_items),
        _triggers(computed),
    ))


def _percent(part: int, whole: int, if_empty: float | None) -> float | None:
    """``part`` of ``whole`` as every output shows it, rounded to one place;
    ``if_empty`` when ``whole`` is 0."""
    return if_empty if whole == 0 else round(part / whole * 100, 1)


def score_headline(alignment: Alignment, headline: str = "") -> dict:
    """One headline's report row: its counts and table-style percentages.
    With no gold, a headline is all correct when nothing was computed."""
    gold, computed = alignment.gold_count, alignment.computed_count
    matched, incorrect = alignment.matched_count, len(alignment.incorrect)
    return {
        "headline": headline,
        "gold": gold,
        "computed": computed,
        "matched": matched,
        "incorrect": incorrect,
        "percent_correct": _percent(matched, gold, 100.0 if computed == 0 else 0.0),
        "percent_incorrect": _percent(incorrect, computed, 0.0),
    }


def score_by_trigger(alignments: Iterable[Alignment]) -> list[dict]:
    """The report row of each trigger over a corpus of alignments, in trigger
    order: its computed count and accurate, inaccurate and missing percentages.

    An inference, computed or gold, counts toward its trigger; one without
    a trigger (an untagged gold inference) counts toward none.  A percentage
    is None when nothing counts toward it; missing is None when no gold
    inference carries the trigger tag (unavailable, not zero).
    """
    # trigger -> [computed, matched, incorrect, tagged gold, missing]; the
    # None of an untagged inference is counted, then dropped.
    counts: defaultdict[str | None, list[int]] = defaultdict(lambda: [0, 0, 0, 0, 0])
    for pairs, unmatched_gold, _, wrong, _, _, gold_triggers, computed_triggers in alignments:
        for t in computed_triggers:
            counts[t][0] += 1
        for p in pairs:
            counts[computed_triggers[p[1]]][1] += 1
        for ci in wrong:
            counts[computed_triggers[ci]][2] += 1
        for t in gold_triggers:
            counts[t][3] += 1
        for gi in unmatched_gold:
            counts[gold_triggers[gi]][4] += 1
    counts.pop(None, None)
    return [
        {
            "trigger": t,
            "computed": computed,
            "percent_accurate": _percent(matched, computed, None),
            "percent_inaccurate": _percent(incorrect, computed, None),
            "percent_missing": _percent(missing, tagged_gold, None),
        }
        for t, (computed, matched, incorrect, tagged_gold, missing) in sorted(counts.items())
    ]


def trigger_table(rows: list[dict]) -> str:
    """TSV table of ``score_by_trigger``'s rows: trigger, accurate %,
    inaccurate %, missing %."""
    keys = ("percent_accurate", "percent_inaccurate", "percent_missing")
    lines = ["trigger\taccurate\tinaccurate\tmissing"]
    for row in rows:
        cells = ("n/a" if row[k] is None else f"{row[k]:.1f}" for k in keys)
        lines.append("\t".join([row["trigger"], *cells]))
    return "\n".join(lines) + "\n"
