"""Alignment of computed inferences with gold annotations and the per-headline
and per-trigger accuracy statistics.

Matching is a greedy one-to-one alignment: human-judged pairs (when supplied)
first, then exact matches on normalized text, then optionally highest token
Jaccard above a threshold.  Incorrectness is a human judgment; automatic mode
counts every unmatched computed inference as incorrect instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class MatchPair:
    gold_index: int
    computed_index: int
    score: float


@dataclass(frozen=True)
class Alignment:
    pairs: tuple[MatchPair, ...]
    unmatched_gold: tuple[int, ...]
    unmatched_computed: tuple[int, ...]
    gold_texts: tuple[str, ...]
    computed_texts: tuple[str, ...]

    @property
    def matched_count(self) -> int:
        return len(self.pairs)

    @property
    def gold_count(self) -> int:
        return len(self.gold_texts)

    @property
    def computed_count(self) -> int:
        return len(self.computed_texts)


@dataclass(frozen=True)
class HeadlineScore:
    headline: str
    gold_count: int
    computed_count: int
    matched_count: int
    incorrect_count: int

    @property
    def percent_correct(self) -> float:
        if self.gold_count == 0:
            return 100.0 if self.computed_count == 0 else 0.0
        return self.matched_count / self.gold_count * 100.0

    @property
    def percent_incorrect(self) -> float:
        if self.computed_count == 0:
            return 0.0
        return self.incorrect_count / self.computed_count * 100.0


@dataclass(frozen=True)
class TriggerScore:
    trigger: str
    computed_count: int
    matched_count: int
    incorrect_count: int
    tagged_gold_count: int
    missing_count: int

    @property
    def percent_accurate(self) -> float | None:
        if self.computed_count == 0:
            return None
        return self.matched_count / self.computed_count * 100.0

    @property
    def percent_inaccurate(self) -> float | None:
        if self.computed_count == 0:
            return None
        return self.incorrect_count / self.computed_count * 100.0

    @property
    def percent_missing(self) -> float | None:
        """None when no gold inference carries this trigger tag (unavailable,
        not zero)."""
        if self.tagged_gold_count == 0:
            return None
        return self.missing_count / self.tagged_gold_count * 100.0


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


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def match(
    computed,
    gold,
    cfg: MatchConfig = MatchConfig(),
    judged_pairs: tuple[tuple[str, str], ...] = (),
) -> Alignment:
    """Greedy one-to-one alignment of computed inferences against gold ones.

    ``computed`` and ``gold`` may be sequences of strings or of objects with a
    ``text`` attribute (a GoldAnnotation's inferences are unwrapped).
    ``judged_pairs`` are (gold text, computed text) matches decided by a human
    and applied before any automatic phase.
    """
    gold_items = gold.inferences if isinstance(gold, GoldAnnotation) else gold
    gold_texts = tuple(_texts(gold_items))
    computed_texts = tuple(_texts(computed))
    ngold = [normalize(t) for t in gold_texts]
    ncomp = [normalize(t) for t in computed_texts]
    pairs: list[MatchPair] = []
    used_g: set[int] = set()
    used_c: set[int] = set()

    def take(gi: int, ci: int, score: float) -> None:
        pairs.append(MatchPair(gold_index=gi, computed_index=ci, score=score))
        used_g.add(gi)
        used_c.add(ci)

    for g_text, c_text in judged_pairs:
        ng, nc = normalize(g_text), normalize(c_text)
        gi = next((i for i, t in enumerate(ngold) if i not in used_g and t == ng), None)
        ci = next((i for i, t in enumerate(ncomp) if i not in used_c and t == nc), None)
        if gi is not None and ci is not None:
            take(gi, ci, 1.0)

    for gi, gt in enumerate(ngold):
        if gi in used_g:
            continue
        for ci, ct in enumerate(ncomp):
            if ci not in used_c and gt == ct:
                take(gi, ci, 1.0)
                break

    if cfg.mode is MatchMode.TOKEN_JACCARD:
        gold_tokens = [set(t.split()) for t in ngold]
        comp_tokens = [set(t.split()) for t in ncomp]
        candidates = []
        for gi in range(len(ngold)):
            if gi in used_g:
                continue
            for ci in range(len(ncomp)):
                if ci in used_c:
                    continue
                score = _jaccard(gold_tokens[gi], comp_tokens[ci])
                if score >= cfg.jaccard_threshold:
                    candidates.append((-score, gi, ci))
        for neg_score, gi, ci in sorted(candidates):
            if gi not in used_g and ci not in used_c:
                take(gi, ci, -neg_score)

    pairs.sort(key=lambda p: (p.gold_index, p.computed_index))
    return Alignment(
        pairs=tuple(pairs),
        unmatched_gold=tuple(i for i in range(len(ngold)) if i not in used_g),
        unmatched_computed=tuple(i for i in range(len(ncomp)) if i not in used_c),
        gold_texts=gold_texts,
        computed_texts=computed_texts,
    )


def score_headline(
    alignment: Alignment,
    incorrect_labels: set[str] | frozenset[str] | None = None,
    headline: str = "",
) -> HeadlineScore:
    """Table-style percentages for one headline.

    With ``incorrect_labels`` the incorrect count is the number of computed
    inferences whose normalized text appears in the set; without it every
    unmatched computed inference counts as incorrect.
    """
    if incorrect_labels is None:
        incorrect = len(alignment.unmatched_computed)
    else:
        labels = {normalize(t) for t in incorrect_labels}
        incorrect = sum(1 for t in alignment.computed_texts if normalize(t) in labels)
    return HeadlineScore(
        headline=headline,
        gold_count=alignment.gold_count,
        computed_count=alignment.computed_count,
        matched_count=alignment.matched_count,
        incorrect_count=incorrect,
    )


@dataclass(frozen=True)
class HeadlineEval:
    """Everything score_by_trigger needs about one headline."""

    headline: str
    computed: tuple  # objects with .text and .trigger
    gold: GoldAnnotation
    alignment: Alignment
    incorrect_labels: frozenset[str] | None = None


def score_by_trigger(items: list[HeadlineEval]) -> list[TriggerScore]:
    """Aggregate per-trigger accuracy over a corpus.

    Computed inferences are attributed by their trigger id; a gold inference
    counts toward a trigger only when annotated with a tag.  Triggers never
    seen on either side are omitted.
    """
    computed_count: dict[str, int] = {}
    matched: dict[str, int] = {}
    incorrect: dict[str, int] = {}
    tagged_gold: dict[str, int] = {}
    missing: dict[str, int] = {}

    def bump(d: dict[str, int], key: str) -> None:
        d[key] = d.get(key, 0) + 1

    for item in items:
        matched_c = {p.computed_index for p in item.alignment.pairs}
        matched_g = {p.gold_index for p in item.alignment.pairs}
        labels = (
            None
            if item.incorrect_labels is None
            else {normalize(t) for t in item.incorrect_labels}
        )
        for ci, inf in enumerate(item.computed):
            trigger = inf.trigger
            bump(computed_count, trigger)
            if ci in matched_c:
                bump(matched, trigger)
            if labels is None:
                if ci not in matched_c:
                    bump(incorrect, trigger)
            elif normalize(inf.text) in labels:
                bump(incorrect, trigger)
        for gi, g in enumerate(item.gold.inferences):
            if not g.trigger:
                continue
            bump(tagged_gold, g.trigger)
            if gi not in matched_g:
                bump(missing, g.trigger)

    triggers = sorted(set(computed_count) | set(tagged_gold))
    return [
        TriggerScore(
            trigger=t,
            computed_count=computed_count.get(t, 0),
            matched_count=matched.get(t, 0),
            incorrect_count=incorrect.get(t, 0),
            tagged_gold_count=tagged_gold.get(t, 0),
            missing_count=missing.get(t, 0),
        )
        for t in triggers
        if computed_count.get(t, 0) or tagged_gold.get(t, 0)
    ]


def _round(value: float | None) -> float | None:
    return None if value is None else round(value, 1)


def report_dict(
    headline_scores: list[HeadlineScore], trigger_scores: list[TriggerScore]
) -> dict:
    return {
        "headlines": [
            {
                "headline": s.headline,
                "gold": s.gold_count,
                "computed": s.computed_count,
                "matched": s.matched_count,
                "incorrect": s.incorrect_count,
                "percent_correct": _round(s.percent_correct),
                "percent_incorrect": _round(s.percent_incorrect),
            }
            for s in headline_scores
        ],
        "triggers": [
            {
                "trigger": s.trigger,
                "computed": s.computed_count,
                "percent_accurate": _round(s.percent_accurate),
                "percent_inaccurate": _round(s.percent_inaccurate),
                "percent_missing": _round(s.percent_missing),
            }
            for s in trigger_scores
        ],
    }


def trigger_table(trigger_scores: list[TriggerScore]) -> str:
    """TSV table: trigger, accurate %, inaccurate %, missing %."""

    def cell(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.1f}"

    lines = ["trigger\taccurate\tinaccurate\tmissing"]
    for s in trigger_scores:
        lines.append(
            "\t".join(
                [
                    s.trigger,
                    cell(s.percent_accurate),
                    cell(s.percent_inaccurate),
                    cell(s.percent_missing),
                ]
            )
        )
    return "\n".join(lines) + "\n"
