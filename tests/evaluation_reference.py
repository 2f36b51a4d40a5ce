"""Frozen copies of ``evaluation.match`` as it was before it aligned by
lookup (it normalizes every text where it meets it, finds free indices by
scanning and sorts the pairs at the end), of ``score_by_trigger`` as it was
when it counted each tally with a helper call per alignment into a
``TriggerScore`` list, and of ``trigger_rows``, which turned that list into
the report's per-trigger rows.  ``unnamed_labels`` is ``cli._unnamed_labels``,
the check of which labels name no inference that ``eval`` made after
``match`` before ``match`` made it.  ``test_properties.py`` checks that the
package's functions return the same ``Alignment``, the same rows and the
same labels."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from presup.corpus import GoldAnnotation
from presup.evaluation import (
    Alignment,
    MatchConfig,
    MatchMode,
    MatchPair,
    normalize,
)


@dataclass(frozen=True)
class TriggerScore:
    trigger: str
    computed_count: int
    matched_count: int
    incorrect_count: int
    tagged_gold_count: int
    missing_count: int


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


def unnamed_labels(entry: dict, gold_texts, computed_texts, alignment) -> set:
    """(what it is, text, side) of each text of a labels ``entry`` that
    normalizes to none of the ``side`` texts of one ``match`` call, which
    ``match`` ignores (with its pair); ``alignment`` is its verdict on them.
    ``gold_texts`` and ``computed_texts`` are the call's texts as given."""
    gold, comp = alignment.gold_texts, alignment.computed_texts
    unnamed = set()
    for g, c in entry["matched"]:
        if not (g in gold_texts or normalize(g) in gold):
            unnamed.add(("matched gold text", g, "gold"))
        if not (c in computed_texts or normalize(c) in comp):
            unnamed.add(("matched computed text", c, "computed"))
    for text in entry["incorrect"]:
        if not (text in computed_texts or normalize(text) in comp):
            unnamed.add(("incorrect label", text, "computed"))
    return unnamed


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


def _percent(part: int, whole: int) -> float | None:
    return None if whole == 0 else round(part / whole * 100, 1)


def trigger_rows(scores: list[TriggerScore]) -> list[dict]:
    return [
        {
            "trigger": s.trigger,
            "computed": s.computed_count,
            "percent_accurate": _percent(s.matched_count, s.computed_count),
            "percent_inaccurate": _percent(s.incorrect_count, s.computed_count),
            "percent_missing": _percent(s.missing_count, s.tagged_gold_count),
        }
        for s in scores
    ]
