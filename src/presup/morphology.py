"""English verb lemmatization and conjugation.

Covers the five forms the inference templates need (base, past, past
participle, gerund, third-person singular present).  Irregular verbs come
from a bundled TSV table; regular verbs go through suffix rules with small
exception lists for spelling quirks (consonant doubling, silent-e restore).
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from importlib import resources

from .errors import content_lines


class VerbForm(Enum):
    BASE = "base"
    PAST = "past"
    PAST_PARTICIPLE = "participle"
    GERUND = "gerund"
    PRESENT_3SG = "present3sg"


MODALS = frozenset(
    {"will", "would", "can", "could", "may", "might", "shall", "should", "must"}
)

_VOWELS = "aeiou"

# Bases that legitimately end in a doubled consonant; stripping -ing/-ed from
# their inflections must not undo the doubling (calling -> call, not cal).
# An -ss/-zz stem keeps its doubling without being listed (passed -> pass).
_KEEP_DOUBLE = frozenset(
    """
    call fall tell sell swell smell spell yell spill chill drill grill thrill
    kill fill bill pull roll poll toll stall install recall enroll
    stuff staff sniff bluff cuff
    add err purr
    """.split()
)

# Bases ending in a single s or z that double it when inflected (gassed,
# quizzes, bussing), unlike the -ss/-zz bases (confessed -> confess).
_DOUBLED_S = frozenset({"gas", "quiz", "bus"})

# Multisyllabic bases with final-syllable stress: these double the last
# consonant like monosyllables do (begin -> beginning).
_DOUBLE_FINAL = frozenset(
    """
    begin forbid forget undercut upset rerun reset regret admit commit permit
    submit omit occur refer prefer transfer defer confer deter incur concur
    recur control patrol equip acquit propel rebel repel expel compel excel
    outrun overrun kidnap
    """.split()
)

# Stems ending consonant-vowel-consonant that nevertheless take no silent e
# (visited -> visit, not visite).
_NO_E_RESTORE = frozenset(
    """
    visit edit exit limit profit benefit target budget market interpret
    exhibit inherit orbit audit credit deposit merit pilot pivot monitor
    focus develop cancel label travel model level rival total signal
    """.split()
)

# Multisyllabic -er/-en/-on stems that do end in a silent e (interfering ->
# interfere), unlike the listen/bother/reckon majority.
_E_RESTORE = frozenset({"interfer", "adher", "rever", "postpon"})

# Stems ending in -ng that restore a silent e (changing -> change), as
# opposed to true -ng verbs (singing -> sing).
_NGE_RESTORE = frozenset(
    """
    chang rang arrang exchang challeng plung lung hing cring fring reveng
    aveng oblig
    """.split()
)

# Last consonant classes that almost always follow a silent e in the base
# (releas -> release, manag -> manage, lov -> love).
_E_FINAL_CONSONANTS = frozenset("scgvzu")

_PRESENT_SPECIAL = {"is": "be", "has": "have", "does": "do", "am": "be", "are": "be"}
_PAST_SPECIAL = {"were": "be"}

# Entries each of ``lemma`` and ``conjugate`` keeps: headlines repeat their
# verb forms, so most calls of a run are for a form seen before.
_CACHE_SIZE = 4096


@lru_cache(maxsize=1)
def irregular_table() -> tuple[tuple[str, str, str], ...]:
    """(base, past, participle) triples from the bundled table."""
    entries = []
    text = resources.files(__package__).joinpath("data/irregular_verbs.tsv").read_text("utf-8")
    for _, line in content_lines(text):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"irregular verb table: expected 3 columns, got {line!r}")
        entries.append((parts[0], parts[1], parts[2]))
    return tuple(entries)


@lru_cache(maxsize=1)
def _irregular_maps() -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    forward: dict[str, tuple[str, str]] = {}
    reverse: dict[str, str] = {}
    for base, past, part in irregular_table():
        forward.setdefault(base, (past, part))
        reverse.setdefault(past, base)
        reverse.setdefault(part, base)
    reverse.update(_PAST_SPECIAL)
    return forward, reverse


def _is_vowel(c: str) -> bool:
    return c in _VOWELS


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    a, b, c = stem[-3], stem[-2], stem[-1]
    if c in "wxy" or _is_vowel(c):
        return False
    return not _is_vowel(a) and _is_vowel(b) and not _is_vowel(c)


def _vowel_groups(word: str) -> int:
    return len(re.findall(r"[aeiouy]+", word))


def _doubles_final(base: str) -> bool:
    if base in _DOUBLED_S:
        return True
    if not _ends_cvc(base):
        return False
    return _vowel_groups(base) == 1 or base in _DOUBLE_FINAL


def _restore_stem(stem: str) -> str:
    """Undo spelling changes on a stem left after stripping -ed / -ing."""
    if len(stem) == 2 and stem.endswith("y"):
        return stem[:-1] + "ie"  # dying -> die
    if stem.endswith(("ss", "zz")):
        # passing -> pass; gassing -> gas, and British focussing -> focus
        base = stem[:-1]
        return base if base in _DOUBLED_S or base in _NO_E_RESTORE else stem
    if stem in _KEEP_DOUBLE:
        return stem  # calling -> call
    if (
        len(stem) >= 3
        and stem[-1] == stem[-2]
        and not _is_vowel(stem[-1])
        and stem not in _irregular_maps()[0]
    ):
        return stem[:-1]  # stopping -> stop
    if stem in _NO_E_RESTORE:
        return stem
    if stem in _E_RESTORE:
        return stem + "e"
    if stem.endswith("ng"):
        return stem + "e" if stem in _NGE_RESTORE else stem
    if stem and stem[-1] in _E_FINAL_CONSONANTS:
        return stem + "e"  # releas -> release, argu -> argue
    if _vowel_groups(stem) >= 2 and stem.endswith(("er", "en", "on")):
        return stem  # bother, listen, reckon
    if (
        len(stem) >= 3
        and stem.endswith("l")
        and not _is_vowel(stem[-2])
        and stem[-2] not in "rwl"
    ):
        return stem + "e"  # struggl -> struggle
    if _ends_cvc(stem):
        return stem + "e"  # tak -> take
    return stem


def _lemma_from_ing(word: str) -> str:
    if len(word) <= 4 or not word.endswith("ing"):
        return word
    return _restore_stem(word[:-3])


def _lemma_from_ed(word: str) -> str:
    if not word.endswith("ed") or len(word) <= 3:
        return word
    if word.endswith("eed"):
        return word[:-1]  # agreed -> agree
    if word.endswith("ied"):
        return word[:-3] + "y" if len(word) > 4 else word[:-1]  # denied/died
    return _restore_stem(word[:-2])


def _lemma_from_s(word: str) -> str:
    if word in _PRESENT_SPECIAL:
        return _PRESENT_SPECIAL[word]
    if not word.endswith("s") or len(word) <= 2 or word.endswith("ss"):
        return word
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"  # tries -> try
    if word.endswith("es"):
        base = word[:-3] if word.endswith(("sses", "zzes")) else word[:-2]
        if base in _DOUBLED_S:
            return base  # gasses, gases -> gas
    for suffix in ("ches", "shes", "sses", "xes", "zzes", "oes"):
        if word.endswith(suffix):
            return word[:-2]
    stem = word[:-1]
    if stem.endswith("e") and stem[:-1] in _NO_E_RESTORE:
        return stem[:-1]  # focuses -> focus
    return stem


@lru_cache(maxsize=_CACHE_SIZE)
def lemma(surface: str, pos: str) -> str:
    """Base form of ``surface`` under Penn tag ``pos``.

    Total function: non-verb tags (and anything unrecognized) just lowercase.
    """
    word = surface.lower()
    if not word or not pos or not pos.startswith("V"):
        return word
    forward, reverse = _irregular_maps()
    if pos in ("VBD", "VBN") and word in reverse:
        return reverse[word]
    if word in forward:
        return word
    if pos == "VBZ":
        return _lemma_from_s(word)
    if pos == "VBG":
        return _lemma_from_ing(word)
    if pos in ("VBD", "VBN"):
        return _lemma_from_ed(word)
    # VB / VBP carry the base form already; fall through for odd taggings.
    if word in reverse:
        return reverse[word]
    return word


def _past_regular(base: str) -> str:
    if base.endswith("e"):
        return base + "d"
    if base.endswith("y") and len(base) > 1 and not _is_vowel(base[-2]):
        return base[:-1] + "ied"
    if _doubles_final(base):
        return base + base[-1] + "ed"
    return base + "ed"


def _gerund(base: str) -> str:
    if base.endswith("ie"):
        return base[:-2] + "ying"
    if base.endswith("e") and len(base) > 2 and not base.endswith(("ee", "oe", "ye")):
        return base[:-1] + "ing"
    if _doubles_final(base):
        return base + base[-1] + "ing"
    return base + "ing"


def _present_3sg(base: str) -> str:
    if base == "be":
        return "is"
    if base == "have":
        return "has"
    if base in _DOUBLED_S:
        return base + base[-1] + "es"
    if base.endswith(("s", "x", "z", "o")) or base.endswith(("ch", "sh")):
        return base + "es"
    if base.endswith("y") and len(base) > 1 and not _is_vowel(base[-2]):
        return base[:-1] + "ies"
    return base + "s"


@lru_cache(maxsize=_CACHE_SIZE)
def conjugate(base: str, form: VerbForm) -> str:
    """Inflect a lowercase base form. Modals are returned unchanged."""
    word = base.lower()
    if not word or word in MODALS or form is VerbForm.BASE:
        return word
    forward, _ = _irregular_maps()
    if form is VerbForm.PAST:
        return forward[word][0] if word in forward else _past_regular(word)
    if form is VerbForm.PAST_PARTICIPLE:
        return forward[word][1] if word in forward else _past_regular(word)
    if form is VerbForm.GERUND:
        return _gerund(word)
    return _present_3sg(word)
