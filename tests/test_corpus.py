import re

import pytest
from hypothesis import given, settings, strategies as st

from presup.corpus import (
    QuotedSpan,
    clean,
    parse_dataset_line,
    parse_gold,
    preprocess,
    read_dataset,
    render_gold,
)
from presup.errors import FormatError
from presup.evaluation import normalize


class TestParseDatasetLine:
    def test_reuters_timestamp(self):
        record = parse_dataset_line(
            'Schaeuble says British were "deceived" in Brexit campaign '
            "[source: Reuters June 23, 2017 07:18 PM IST]"
        )
        assert record.text == 'Schaeuble says British were "deceived" in Brexit campaign'
        assert record.source == "Reuters"
        assert record.timestamp_raw == "June 23, 2017 07:18 PM IST"

    def test_source_only(self):
        record = parse_dataset_line("X [source: BBC]")
        assert (record.text, record.source, record.timestamp_raw) == ("X", "BBC", "")

    def test_multiword_source(self):
        record = parse_dataset_line("X [source: The Hindu April 10, 2018 11:00 AM IST]")
        assert record.source == "The Hindu"
        assert record.timestamp_raw.startswith("April 10")

    def test_no_bracket_is_error(self):
        with pytest.raises(FormatError, match="no bracket here"):
            parse_dataset_line("no bracket here")

    def test_read_dataset_skips_comments(self):
        doc = "# a comment\nX [source: BBC]\n\nY [source: Reuters]\n"
        assert [r.text for r in read_dataset(doc)] == ["X", "Y"]


class TestPreprocess:
    def test_hyphen_splits_words(self):
        p = preprocess("Olympics-It's ready but will they come?")
        assert p.cleaned == "Olympics It's ready but will they come"
        assert p.quoted_spans == ()

    def test_quoted_single_word(self):
        p = preprocess('Schaeuble says British were "deceived" in Brexit campaign')
        assert p.cleaned == "Schaeuble says British were deceived in Brexit campaign"
        (span,) = p.quoted_spans
        assert (span.start_word, span.end_word, span.text) == (4, 4, "deceived")

    def test_quoted_multi_word_and_curly(self):
        p = preprocess("Merkel says proposals “not the breakthrough”")
        (span,) = p.quoted_spans
        assert span.text == "not the breakthrough"
        assert span.word_count == 3

    def test_empty(self):
        p = preprocess("")
        assert p.cleaned == "" and p.quoted_spans == ()

    def test_unmatched_quote_stripped_no_span(self):
        p = preprocess('He said "never again')
        assert p.cleaned == "He said never again"
        assert p.quoted_spans == ()

    def test_possessive_apostrophe_kept_trailing_stripped(self):
        p = preprocess("Corbyn 'regrets' Labour MPs' resignations")
        assert p.cleaned == "Corbyn regrets Labour MPs resignations"

    def test_span_substring_locates_in_original(self):
        text = 'One "two three four" five "six seven" end'
        p = preprocess(text)
        for span in p.quoted_spans:
            assert span.text in text

    @given(st.text(max_size=60))
    def test_idempotent_on_cleaned_output(self, text):
        cleaned = preprocess(text).cleaned
        assert preprocess(cleaned).cleaned == cleaned

    @given(st.text(alphabet='ab "c', max_size=40))
    def test_every_span_relocates_in_original(self, text):
        for span in preprocess(text).quoted_spans:
            assert span.text in text

    @given(st.text(max_size=60))
    def test_cleaned_has_no_punctuation(self, text):
        cleaned = preprocess(text).cleaned
        assert not set(cleaned) & set('.,!?;:"()“”‘-–—')


def reference_preprocess(text: str) -> tuple[str, tuple[QuotedSpan, ...]]:
    """The per-character cleaning walk that ``clean`` and ``preprocess``
    replaced, kept as the reference: (cleaned, quoted spans)."""
    hyphens, apostrophes = "-–—", "'’"
    punct = set(hyphens + apostrophes + ".,!?;:()‘" + '"“”')
    pairs = []
    straight = [i for i, c in enumerate(text) if c == '"']
    for k in range(0, len(straight) - 1, 2):
        pairs.append((straight[k], straight[k + 1]))
    open_curly = None
    for i, c in enumerate(text):
        if c == "“":
            open_curly = i
        elif c == "”" and open_curly is not None:
            pairs.append((open_curly, i))
            open_curly = None
    pairs.sort()
    span_of_char = {}
    for sid, (start, end) in enumerate(pairs):
        for i in range(start + 1, end):
            span_of_char[i] = sid
    out = []
    for i, c in enumerate(text):
        sid = span_of_char.get(i)
        if c in hyphens:
            out.append((" ", sid))
        elif c in apostrophes:
            prev_ok = i > 0 and text[i - 1].isalnum()
            next_ok = i + 1 < len(text) and text[i + 1].isalnum()
            if prev_ok and next_ok:
                out.append((c, sid))
        elif c not in punct:
            out.append((c, sid))
    words, current, sids = [], [], set()
    for c, sid in out:
        if c.isspace():
            if current:
                words.append(("".join(current), sids))
                current, sids = [], set()
        else:
            current.append(c)
            if sid is not None:
                sids.add(sid)
    if current:
        words.append(("".join(current), sids))
    spans = []
    for sid, (start, end) in enumerate(pairs):
        covered = [w for w, (_, s) in enumerate(words) if sid in s]
        if covered:
            spans.append(QuotedSpan(min(covered), max(covered), text[start + 1 : end]))
    return " ".join(w for w, _ in words), tuple(spans)


def reference_normalize(text: str) -> str:
    s = reference_preprocess(text.lower())[0]
    s = re.sub(r"\bcan be\s*/\s*can have\b", "can-have", s)
    s = re.sub(r"\bcan (?:have|be)\b", "can-have", s)
    return " ".join(s.split())


# Word characters, every character cleaning treats specially, whitespace
# that is not a space, and a non-ASCII letter and digit (isalnum, not ASCII).
CLEANING_ALPHABET = (
    "aZ9_" "'’‘" '"“”' "-–—" ".,!?;:()" " \t\n\u3000" "é٣"
)
# The ASCII part, and the ASCII whitespace that is neither space nor \t\n.
ASCII_CLEANING_ALPHABET = (
    "".join(c for c in CLEANING_ALPHABET if c.isascii()) + "\x0b\x0c\r\x1c\x1d\x1e\x1f"
)

PINNED = [
    "rock'n'roll",
    "'90s",
    "MPs'",
    'foo"bar baz"',  # a word straddles the opening quote
    '“a "b” c"',  # overlapping pairs: the later one owns "b"
    "a'-b",
    "a\x1cb-c",  # str.split breaks on \x1c-\x1f, bytes.split does not
    "Corbyn 'regrets' Labour MPs' resignations",
    "can be / can have 'em",
]


class TestCleanMatchesReference:
    @pytest.mark.parametrize("text", PINNED)
    def test_pinned(self, text):
        cleaned, spans = reference_preprocess(text)
        p = preprocess(text)
        assert (p.cleaned, p.quoted_spans) == (cleaned, spans)
        assert clean(text) == cleaned
        assert normalize(text) == reference_normalize(text)

    def test_pinned_values(self):
        assert [clean(t) for t in PINNED[:7]] == [
            "rock'n'roll", "90s", "MPs", "foobar baz", "a b c", "a b", "a b c"
        ]
        assert [(s.start_word, s.end_word) for s in preprocess('“a "b” c"').quoted_spans] == [
            (0, 0), (1, 2)
        ]

    @settings(max_examples=1000)
    @given(st.text(alphabet=CLEANING_ALPHABET, max_size=30))
    def test_property(self, text):
        cleaned, spans = reference_preprocess(text)
        p = preprocess(text)
        assert (p.cleaned, p.quoted_spans) == (cleaned, spans)
        assert clean(text) == cleaned

    @settings(max_examples=1000)
    @given(st.text(alphabet=ASCII_CLEANING_ALPHABET, max_size=30))
    def test_ascii_property(self, text):
        """Most texts of the property above hold a non-ASCII character, so
        they never reach the ASCII path of ``clean``."""
        assert clean(text) == reference_preprocess(text)[0]

    @given(st.lists(st.sampled_from([*CLEANING_ALPHABET, "can", "be", "have", "/", " "]), max_size=20))
    def test_normalize_property(self, parts):
        text = "".join(parts)
        assert normalize(text) == reference_normalize(text)


FACTIVE_BLOCK = """\
Corbyn 'regrets' Labour MPs' resignations
>> Labour MPs resigned.
||
"""


class TestParseGold:
    def test_single_block(self):
        (a,) = parse_gold(FACTIVE_BLOCK)
        assert a.headline == "Corbyn 'regrets' Labour MPs' resignations"
        assert [i.text for i in a.inferences] == ["Labour MPs resigned."]
        assert a.inferences[0].trigger is None

    def test_zero_inferences(self):
        (a,) = parse_gold("Some headline\n||\n")
        assert a.inferences == ()

    def test_trigger_tag_extension(self):
        (a,) = parse_gold("H\n>> inference @again\n||\n")
        assert a.inferences[0].text == "inference"
        assert a.inferences[0].trigger == "again"

    def test_inference_before_headline_is_error(self):
        with pytest.raises(FormatError):
            parse_gold(">> stray inference\nH\n||\n")

    def test_missing_terminator_names_headline(self):
        with pytest.raises(FormatError, match="Unfinished headline"):
            parse_gold("Unfinished headline\n>> something\n")

    def test_comments_between_blocks(self):
        doc = "# comment\nH1\n||\n# another\nH2\n>> x\n||\n"
        annotations = parse_gold(doc)
        assert [a.headline for a in annotations] == ["H1", "H2"]

    def test_round_trip(self):
        doc = "H1\n>> first one\n>> second @but\n||\nH2\n||\n"
        annotations = parse_gold(doc)
        assert parse_gold(render_gold(annotations)) == annotations
