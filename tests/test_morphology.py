import string
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from presup import morphology
from presup.morphology import (
    MODALS,
    VerbForm,
    _irregular_maps,
    conjugate,
    irregular_table,
    lemma,
)

FORM_TAG = {
    VerbForm.BASE: "VB",
    VerbForm.PAST: "VBD",
    VerbForm.PAST_PARTICIPLE: "VBN",
    VerbForm.GERUND: "VBG",
    VerbForm.PRESENT_3SG: "VBZ",
}


@pytest.mark.parametrize(
    "surface,pos,expected",
    [
        ("rejects", "VBZ", "reject"),
        ("went", "VBD", "go"),
        ("broadcast", "VB", "broadcast"),
        ("released", "VBD", "release"),
        ("stockpiling", "VBG", "stockpile"),
        ("Managed", "VBD", "manage"),
        ("passed", "VBD", "pass"),
        ("discussed", "VBN", "discuss"),
        ("pressing", "VBG", "press"),
        ("buzzed", "VBD", "buzz"),
        ("confessed", "VBD", "confess"),
        ("dismissed", "VBN", "dismiss"),
        ("harnessing", "VBG", "harness"),
        ("gassed", "VBD", "gas"),
        ("quizzed", "VBN", "quiz"),
        ("bussing", "VBG", "bus"),
        ("quizzes", "VBZ", "quiz"),
        ("gases", "VBZ", "gas"),
        ("busses", "VBZ", "bus"),
        ("bushes", "VBZ", "bush"),
        ("focussed", "VBD", "focus"),
        ("says", "VBZ", "say"),
        ("is", "VBZ", "be"),
        ("were", "VBD", "be"),
        ("Olympics", "NNPS", "olympics"),  # non-verb POS: lowercased surface
        ("will", "MD", "will"),
    ],
)
def test_lemma(surface, pos, expected):
    assert lemma(surface, pos) == expected


@pytest.mark.parametrize(
    "base,form,expected",
    [
        ("reject", VerbForm.PAST, "rejected"),
        ("come", VerbForm.GERUND, "coming"),
        ("broadcast", VerbForm.PAST_PARTICIPLE, "broadcast"),
        ("divide", VerbForm.PAST_PARTICIPLE, "divided"),
        ("stop", VerbForm.PAST, "stopped"),
        ("stop", VerbForm.GERUND, "stopping"),
        ("try", VerbForm.PAST, "tried"),
        ("try", VerbForm.PRESENT_3SG, "tries"),
        ("go", VerbForm.PAST, "went"),
        ("go", VerbForm.PRESENT_3SG, "goes"),
        ("be", VerbForm.PRESENT_3SG, "is"),
        ("have", VerbForm.PRESENT_3SG, "has"),
        ("watch", VerbForm.PRESENT_3SG, "watches"),
        ("die", VerbForm.GERUND, "dying"),
        ("begin", VerbForm.GERUND, "beginning"),
        ("confess", VerbForm.PAST, "confessed"),
        ("quiz", VerbForm.PAST, "quizzed"),
        ("quiz", VerbForm.PRESENT_3SG, "quizzes"),
        ("gas", VerbForm.GERUND, "gassing"),
    ],
)
def test_conjugate(base, form, expected):
    assert conjugate(base, form) == expected


def test_modals_never_conjugated():
    for modal in MODALS:
        for form in VerbForm:
            assert conjugate(modal, form) == modal


def test_base_form_is_identity():
    for base, _, _ in irregular_table():
        assert conjugate(base, VerbForm.BASE) == base


def test_irregular_table_shape():
    table = irregular_table()
    assert len(table) >= 150
    for entry in table:
        assert all(part and part == part.lower() for part in entry)
    bases = [base for base, _, _ in table]
    for verb in ("say", "go", "come", "take", "give", "keep", "know", "be", "have",
                 "broadcast", "meet"):
        assert verb in bases


def test_irregular_table_line_without_three_columns_is_error(tmp_path, monkeypatch):
    """A table line that does not hold three tab-separated columns is an
    error that quotes the line.  The table is served from ``tmp_path``; the
    caches are cleared before and after, so that this call reads the patched
    file and later calls read the bundled table again."""
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "irregular_verbs.tsv").write_text(
        "# base\tpast\tparticiple\nsay\tsaid\tsaid\ngo\twent\n", "utf-8"
    )
    monkeypatch.setattr(morphology, "resources", SimpleNamespace(files=lambda package: tmp_path))
    irregular_table.cache_clear()
    _irregular_maps.cache_clear()
    try:
        with pytest.raises(ValueError) as caught:
            irregular_table()
        assert str(caught.value) == "irregular verb table: expected 3 columns, got 'go\\twent'"
    finally:
        monkeypatch.undo()
        irregular_table.cache_clear()
        _irregular_maps.cache_clear()


def test_irregular_round_trip_all_forms():
    for base, _, _ in irregular_table():
        for form in VerbForm:
            assert lemma(conjugate(base, form), FORM_TAG[form]) == base, (base, form)


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
def test_conjugate_never_empty(base):
    for form in VerbForm:
        assert conjugate(base, form)


@given(st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=12))
def test_lemma_total(word):
    for pos in ("VB", "VBD", "VBZ", "VBG", "VBN", "NN", "MD", ""):
        assert isinstance(lemma(word, pos), str)


_PLAIN_ENDINGS = "bdfgjklmnprtv"


@given(
    st.text(alphabet="aeiou" + string.ascii_lowercase, min_size=2, max_size=8),
    st.sampled_from(_PLAIN_ENDINGS),
)
def test_regular_past_is_suffix_ed(stem, final):
    """Bases ending in a consonant outside the doubling pattern take plain -ed."""
    from presup.morphology import _doubles_final, _irregular_maps

    base = stem + final
    if _doubles_final(base) or base in _irregular_maps()[0]:
        return
    assert conjugate(base, VerbForm.PAST) == base + "ed"


# Regular verbs covering the spelling rules: silent e, -y, -ie, doubling,
# -es, no e after -er/-en/-on.
_PLAIN_REGULAR = """
    walk play try hope stop plan release manage love argue change struggle
    agree die tie cry obey fix wash watch echo veto listen bother reckon
    interfere
""".split()

# Bases ending in -ss or -zz, which keep their doubling unlisted.
_DOUBLE_S_REGULAR = """
    pass press miss kiss cross dress guess toss boss fuss hiss bless stress
    discuss express address assess possess access process progress witness
    harass embarrass amass class glass buzz fizz
    confess dismiss impress bypass suppress harness
""".split()


def _regular_bases():
    """Base forms only: the lexicon's inflected heads (began, regrets,
    stopped) are the lexicon's to expand."""
    from presup.morphology import (
        _DOUBLE_FINAL,
        _DOUBLED_S,
        _KEEP_DOUBLE,
        _NO_E_RESTORE,
        _irregular_maps,
    )

    pool = (
        _KEEP_DOUBLE | _DOUBLED_S | _DOUBLE_FINAL | _NO_E_RESTORE
        | set(_PLAIN_REGULAR) | set(_DOUBLE_S_REGULAR)
    )
    return sorted(pool - set(_irregular_maps()[0]))


@given(st.sampled_from(_regular_bases()), st.sampled_from(list(VerbForm)))
@example("pass", VerbForm.PAST)
@example("discuss", VerbForm.PAST_PARTICIPLE)
@example("press", VerbForm.GERUND)
@example("buzz", VerbForm.PAST)
@example("confess", VerbForm.PAST)
@example("harness", VerbForm.GERUND)
@example("gas", VerbForm.PAST)
@example("quiz", VerbForm.PRESENT_3SG)
@example("bus", VerbForm.GERUND)
def test_regular_round_trip(base, form):
    assert lemma(conjugate(base, form), FORM_TAG[form]) == base


def test_cached_functions_agree_with_their_wrapped_ones():
    """The caches of ``lemma`` and ``conjugate`` change no result, on a first
    call or a repeated one."""
    for base in _regular_bases():
        for form in VerbForm:
            inflected = conjugate.__wrapped__(base, form)
            tag = FORM_TAG[form]
            for _ in range(2):
                assert conjugate(base, form) == inflected, (base, form)
                assert lemma(inflected, tag) == lemma.__wrapped__(inflected, tag), (base, form)
    assert lemma.cache_info().maxsize == conjugate.cache_info().maxsize > 0
