"""Trigger lexicon: word/phrase lists per lexical trigger class.  A verb-class
entry is a head, matched by lemma, then words that must follow the verb."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import FormatError, read_text, split_lines
from .morphology import lemma

# Verb classes; each is one ``lexical.<class>`` rule, in this order.
VERB_CLASS_IDS = ("iterative", "change_of_state", "factive", "implicative", "judging")
CLASS_IDS = (*VERB_CLASS_IDS, "temporal")


@dataclass(frozen=True)
class TriggerLexicon:
    entries: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        filled = {cid: frozenset() for cid in CLASS_IDS}
        for cid, words in self.entries.items():
            filled[cid] = frozenset(w.lower() for w in words)
        object.__setattr__(self, "entries", filled)
        # Head lemma -> {class: the tails of its entries with that head}, the
        # classes in VERB_CLASS_IDS order.
        heads: dict[str, dict[str, list[list[str]]]] = {}
        for cid in VERB_CLASS_IDS:
            for entry in filled[cid]:
                head, *tail = entry.split()
                for key in {head, lemma(head, "VBD"), lemma(head, "VBZ")}:
                    heads.setdefault(key, {}).setdefault(cid, []).append(tail)
        object.__setattr__(self, "heads", heads)

    def words(self, class_id: str) -> frozenset[str]:
        return self.entries[class_id]

    def verb_classes(self, verb_lemma: str, following_words) -> list[str]:
        """The verb classes, in VERB_CLASS_IDS order, with an entry that a verb
        with lemma ``verb_lemma``, followed in the headline by the lowercase
        ``following_words``, matches.  A verb that heads no entry costs one
        dict miss."""
        return [
            cid
            for cid, tails in self.heads.get(verb_lemma, {}).items()
            if any(list(following_words[: len(tail)]) == tail for tail in tails)
        ]

    def fingerprint(self) -> str:
        return "\n".join(
            f"{cid}\t{word}"
            for cid in CLASS_IDS
            for word in sorted(self.entries[cid])
        )


def parse_lexicon(document: str, source: str = "lexicon") -> TriggerLexicon:
    """Read a 'class<TAB>entry' TSV; '#' comment and blank lines are skipped.
    Errors name ``source:line``."""
    entries: dict[str, set[str]] = {}
    for lineno, raw in enumerate(split_lines(document), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'class<TAB>entry'")
        cid, entry = line.split("\t", 1)
        cid, entry = cid.strip(), entry.strip()
        if cid not in CLASS_IDS:
            raise FormatError(f"{source}:{lineno}: unknown class {cid!r}")
        entries.setdefault(cid, set()).add(entry)
    return TriggerLexicon(entries=entries)


def load_lexicon(path: str | Path) -> TriggerLexicon:
    return parse_lexicon(read_text(path), str(path))


@lru_cache(maxsize=1)
def default_lexicon() -> TriggerLexicon:
    """The bundled lexicon."""
    text = resources.files(__package__).joinpath("data/trigger_lexicon.tsv").read_text("utf-8")
    return parse_lexicon(text)
