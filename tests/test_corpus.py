import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_headline, render_gold
from presup.corpus import (
    GoldAnnotation,
    GoldInference,
    QuotedSpan,
    clean,
    parse_dataset_line,
    parse_gold,
    preprocess,
    read_dataset,
    source_of,
    word_count,
)
from presup.errors import FormatError
from presup.evaluation import normalize
from presup.rules import quoted_tokens


class TestParseDatasetLine:
    def test_reuters_timestamp(self):
        record = parse_dataset_line(
            'Schaeuble says British were "deceived" in Brexit campaign '
            "[source: Reuters June 23, 2017 07:18 PM IST]"
        )
        assert record.text == 'Schaeuble says British were "deceived" in Brexit campaign'
        assert record.bracket == "Reuters June 23, 2017 07:18 PM IST"
        assert source_of(record.bracket) == "Reuters"

    def test_source_only(self):
        record = parse_dataset_line("X [source: BBC]")
        assert (record.text, record.bracket, source_of(record.bracket)) == ("X", "BBC", "BBC")

    def test_multiword_source(self):
        record = parse_dataset_line("X [source: The Hindu April 10, 2018 11:00 AM IST]")
        assert record.bracket == "The Hindu April 10, 2018 11:00 AM IST"
        assert source_of(record.bracket) == "The Hindu"

    def test_bracket_is_kept_as_written_up_to_the_last_close(self):
        record = parse_dataset_line("X [source:  BBC\t[live]  May 5 ] tail")
        assert record.bracket == "BBC\t[live]  May 5"
        assert source_of(record.bracket) == "BBC\t[live]"
        assert parse_dataset_line("X [source: BBC May 5").bracket == "BBC May 5"

    def test_empty_bracket_is_empty(self):
        record = parse_dataset_line("Markets crashed [source:]", 1)
        assert (record.text, record.bracket, record.line) == ("Markets crashed", "", 1)

    def test_no_bracket_is_error(self):
        with pytest.raises(FormatError, match="no bracket here"):
            parse_dataset_line("no bracket here")

    def test_empty_headline_is_error(self):
        with pytest.raises(FormatError) as exc:
            parse_dataset_line("   [source: BBC]")
        assert str(exc.value) == "empty headline in line: '   [source: BBC]'"

    def test_read_dataset_skips_comments(self):
        doc = "# a comment\nX [source: BBC]\n\nY [source: Reuters]\n"
        assert [r.text for r in read_dataset(doc)] == ["X", "Y"]


class TestPreprocess:
    def test_hyphen_splits_words(self):
        text = "Olympics-It's ready but will they come?"
        assert clean(text) == "Olympics It's ready but will they come"
        assert preprocess(text) == ()

    def test_quoted_single_word(self):
        text = 'Schaeuble says British were "deceived" in Brexit campaign'
        assert clean(text) == "Schaeuble says British were deceived in Brexit campaign"
        assert preprocess(text) == (QuotedSpan(28, 37, "deceived"),)

    def test_quoted_multi_word_and_curly(self):
        (span,) = preprocess("Merkel says proposals “not the breakthrough”")
        assert span == QuotedSpan(22, 43, "not the breakthrough")
        assert word_count(span.text) == 3

    def test_empty(self):
        assert clean("") == "" and preprocess("") == ()

    def test_unmatched_quote_stripped_no_span(self):
        assert clean('He said "never again') == "He said never again"
        assert preprocess('He said "never again') == ()

    def test_possessive_apostrophe_kept_trailing_stripped(self):
        assert clean("Corbyn 'regrets' Labour MPs' resignations") == (
            "Corbyn regrets Labour MPs resignations"
        )

    def test_span_substring_locates_in_original(self):
        text = 'One "two three four" five "six seven" end'
        assert [(s.start, s.end, s.text) for s in preprocess(text)] == [
            (4, 19, "two three four"), (26, 36, "six seven")
        ]

    @given(st.text(max_size=60))
    def test_idempotent_on_cleaned_output(self, text):
        cleaned = clean(text)
        assert clean(cleaned) == cleaned

    @given(st.text(alphabet='ab "c', max_size=40))
    def test_every_span_relocates_in_original(self, text):
        for span in preprocess(text):
            assert text[span.start] == text[span.end] == '"'
            assert text[span.start + 1 : span.end] == span.text

    @given(st.text(max_size=60))
    def test_cleaned_has_no_punctuation(self, text):
        assert not set(clean(text)) & set('.,!?;:"()“”‘-–—')

    def test_word_count(self):
        """The words ``clean`` leaves: whitespace and hyphens separate words,
        and a word of only deleted punctuation is dropped."""
        texts = ["", "May's plan", "well-known plan", " - a — b ! ", "rock & roll", "I ♥ NY",
                 "' ’ a'"]
        assert [word_count(t) for t in texts] == [0, 2, 3, 2, 3, 3, 1]


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
    out = []
    for i, c in enumerate(text):
        if c in hyphens:
            out.append(" ")
        elif c in apostrophes:
            prev_ok = i > 0 and text[i - 1].isalnum()
            next_ok = i + 1 < len(text) and text[i + 1].isalnum()
            if prev_ok and next_ok:
                out.append(c)
        elif c not in punct:
            out.append(c)
    spans = tuple(QuotedSpan(start, end, text[start + 1 : end]) for start, end in pairs)
    return " ".join("".join(out).split()), spans


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
    '“a "b” c"',  # overlapping pairs
    "a'-b",
    "a\x1cb-c",  # str.split breaks on \x1c-\x1f, bytes.split does not
    "Corbyn 'regrets' Labour MPs' resignations",
    "can be / can have 'em",
]


class TestCleanMatchesReference:
    @pytest.mark.parametrize("text", PINNED)
    def test_pinned(self, text):
        assert (clean(text), preprocess(text)) == reference_preprocess(text)
        assert normalize(text) == reference_normalize(text)

    def test_pinned_values(self):
        assert [clean(t) for t in PINNED[:7]] == [
            "rock'n'roll", "90s", "MPs", "foobar baz", "a b c", "a b", "a b c"
        ]
        # A word straddling a quote is inside it; overlapping pairs each
        # take the tokens with letters between their quote characters.
        for text, spans, tokens in [
            ('foo"bar baz"', [(3, 11)], [(1, 2)]),
            ('“a "b” c"', [(0, 5), (3, 8)], [(1, 2), (2, 3)]),
        ]:
            quotes = preprocess(text)
            assert [(q.start, q.end) for q in quotes] == spans
            words = clean(text).split()
            h = make_headline(" ".join(f"{w}/NN" for w in words),
                              [("root", 0, 1)] + [("dep", 1, k) for k in range(2, len(words) + 1)],
                              raw_text=text)
            assert quoted_tokens(h, quotes) == tokens

    @settings(max_examples=1000)
    @given(st.text(alphabet=CLEANING_ALPHABET, max_size=30))
    def test_property(self, text):
        assert (clean(text), preprocess(text)) == reference_preprocess(text)

    @settings(max_examples=1000)
    @given(st.text(alphabet=ASCII_CLEANING_ALPHABET, max_size=30))
    def test_ascii_property(self, text):
        """Most texts of the property above hold a non-ASCII character, so
        they never reach the ASCII path of ``clean``."""
        assert clean(text) == reference_preprocess(text)[0]

    @settings(max_examples=1000)
    @given(st.text(alphabet=CLEANING_ALPHABET + "&♥", max_size=30))
    def test_word_count_property(self, text):
        """``word_count`` counts the words of the reference cleaning; "&" and
        "♥" stand for the symbols that cleaning keeps."""
        assert word_count(text) == len(reference_preprocess(text)[0].split())

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
        assert [a.line for a in annotations] == [2, 5]

    def test_line_is_not_compared(self):
        """A block keeps its headline's line for messages; equal blocks on
        other lines stay equal."""
        (a,) = parse_gold("\n\nH\n>> x\n||\n")
        assert a.line == 3
        assert a == GoldAnnotation("H", (GoldInference("x"),)) == parse_gold("H\n>> x\n||\n")[0]

    def test_round_trip(self):
        doc = "H1\n>> first one\n>> second @but\n||\nH2\n||\n"
        annotations = parse_gold(doc)
        assert parse_gold(render_gold(annotations)) == annotations
