"""Frozen copies of ``evaluation.match`` as it was before it aligned by
lookup (it normalizes every text where it meets it, finds free indices by
scanning and sorts the pairs at the end) and of ``score_by_trigger`` as it was
when it counted each tally with a helper call per alignment.
``test_properties.py`` checks that the package's functions return the same
``Alignment`` and ``TriggerScore`` list."""

from __future__ import annotations

from collections.abc import Iterable

from presup.corpus import GoldAnnotation
from presup.evaluation import (
    Alignment,
    MatchConfig,
    MatchMode,
    MatchPair,
    TriggerScore,
    normalize,
)


def _texts(items) -> list[str]:
    return [getattr(item, "text", item) for item in items]


def _triggers(items) -> tuple[str | None, ...]:
    return tuple(getattr(item, "trigger", None) for item in items)


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
    incorrect_labels: set[str] | frozenset[str] | None = None,
) -> Alignment:
    gold_items = gold.inferences if isinstance(gold, GoldAnnotation) else gold
    ngold = tuple(normalize(t) for t in _texts(gold_items))
    ncomp = tuple(normalize(t) for t in _texts(computed))
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
    unmatched_computed = tuple(i for i in range(len(ncomp)) if i not in used_c)
    if incorrect_labels is None:
        incorrect = unmatched_computed
    else:
        labels = {normalize(t) for t in incorrect_labels}
        incorrect = tuple(i for i, t in enumerate(ncomp) if t in labels)
    return Alignment(
        pairs=tuple(pairs),
        unmatched_gold=tuple(i for i in range(len(ngold)) if i not in used_g),
        unmatched_computed=unmatched_computed,
        incorrect=incorrect,
        gold_texts=ngold,
        computed_texts=ncomp,
        gold_triggers=_triggers(gold_items),
        computed_triggers=_triggers(computed),
    )


def score_by_trigger(alignments: Iterable[Alignment]) -> list[TriggerScore]:
    computed_count: dict[str, int] = {}
    matched: dict[str, int] = {}
    incorrect: dict[str, int] = {}
    tagged_gold: dict[str, int] = {}
    missing: dict[str, int] = {}

    def bump(d: dict[str, int], indices, triggers) -> None:
        for i in indices:
            if triggers[i] is not None:
                d[triggers[i]] = d.get(triggers[i], 0) + 1

    for a in alignments:
        bump(computed_count, range(a.computed_count), a.computed_triggers)
        bump(matched, (p.computed_index for p in a.pairs), a.computed_triggers)
        bump(incorrect, a.incorrect, a.computed_triggers)
        bump(tagged_gold, range(a.gold_count), a.gold_triggers)
        bump(missing, a.unmatched_gold, a.gold_triggers)

    return [
        TriggerScore(
            trigger=t,
            computed_count=computed_count.get(t, 0),
            matched_count=matched.get(t, 0),
            incorrect_count=incorrect.get(t, 0),
            tagged_gold_count=tagged_gold.get(t, 0),
            missing_count=missing.get(t, 0),
        )
        for t in sorted(set(computed_count) | set(tagged_gold))
    ]
