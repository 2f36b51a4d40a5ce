"""Cross-cutting engine properties: fuzzing over random dependency trees,
format equivalence of the two ingest formats, also with the edges of the
Stanford JSON shuffled, parity of the parse readers
with a reference copy on valid and one-defect parses, rejection by every
reader of an edge other than the root edge hanging from the root,
malformed-input fuzzing of the parse, gold and eval readers and of the
dataset, lexicon and ``--config`` readers through ``cli.main``, parity of
``match`` and of the gold tag split with reference copies, parity of the
rules and of the triple rule, the dataset line splitter, the verb, edge and span helpers and
the pairing of dataset records with parses with reference copies, parity of
both writers with ``json.dumps``, rule-set
monotonicity, rules that share a registry function, quoted spans under
another tokenization and output determinism."""

import dataclasses
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

import evaluation_reference
import gold_reference
import infer_reference
import ingest_reference as reference
import rules_reference
from conftest import FIXTURES, load_fixture_corpus, make_headline, to_stanford_json
from presup.cli import (
    _json_lines,
    _jsonl_record,
    _read_inference_file,
    _read_labels_file,
    _report_json,
    load_parses,
    main,
    pair,
)
from presup.corpus import (
    GoldAnnotation,
    GoldInference,
    HeadlineRecord,
    parse_dataset_line,
    parse_gold,
    preprocess,
    source_of,
)
from presup.errors import ConsistencyError, FormatError, ParseError, read_text, split_lines
from presup.evaluation import (
    Alignment,
    MatchConfig,
    MatchMode,
    MatchPair,
    match,
    score_by_trigger,
)
from presup.ingest import (
    LABEL_MAP,
    DependencyEdge,
    ParsedHeadline,
    Token,
    build_headline,
    normalize_labels,
    parse_conllu,
    parse_stanford_json,
    verbs_of,
)
from presup.lexicon import TriggerLexicon, default_lexicon
from presup.rules import (
    CHUNK,
    COMPOUND_MODES,
    DEFAULT_RULES,
    EngineConfig,
    Inference,
    InferenceKind,
    RULE_IDS,
    _merge,
    generate_all,
    infer_all,
    infer_many,
)

WORDS = [
    "will", "but", "again", "further", "of", "not", "say", "stopped", "what",
    "before", "olympics", "ban", "plan", "economy", "he", "talks", "to", "come",
    "market", "blames",
]
TAGS = ["NN", "NNS", "NNP", "PRP", "VB", "VBD", "VBZ", "VBN", "VBG", "JJ", "RB",
        "IN", "DT", "MD", "CC", "TO", "WRB", "POS"]
DEPS = ["nsubj", "dobj", "aux", "advmod", "nmod", "case", "compound", "conj",
        "cc", "mark", "neg", "det", "amod", "xcomp", "ccomp", "acl", "prt", "dep"]

ALL_RULES_CFG = EngineConfig(rules=RULE_IDS)
QUOTES_CFG = EngineConfig(rules=("quotes",))


def random_parse(rng: random.Random):
    n = rng.randint(1, 10)
    words = [rng.choice(WORDS) for _ in range(n)]
    tags = [rng.choice(TAGS) for _ in range(n)]
    tokens = [Token(i, words[i - 1], tags[i - 1]) for i in range(1, n + 1)]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    root = order[0]
    edges = [DependencyEdge("root", 0, "ROOT", root, words[root - 1])]
    for position in range(1, n):
        node = order[position]
        parent = order[rng.randrange(position)]
        edges.append(
            DependencyEdge(
                rng.choice(DEPS), parent, words[parent - 1], node, words[node - 1]
            )
        )
    raw = " ".join(words) + rng.choice(["", "?"])
    return build_headline("fuzz", raw, tokens, edges)


def _quoted_variants(h, rng):
    """``h`` with its text as it is, with three or more of its words quoted
    where it has three, and with a quote that its tokens do not spell."""
    words = h.raw_text.split()
    texts = [h.raw_text, h.raw_text + ' "lorem ipsum dolor"']
    if len(words) >= 3:
        first = rng.randrange(len(words) - 2)
        last = rng.randrange(first + 2, len(words))
        words[first] = "“" + words[first]
        words[last] += "”"
        texts.append(" ".join(words))
    return [build_headline(h.headline_id, text, h.tokens, h.edges) for text in texts]


def test_fuzz_no_empty_inferences_and_valid_spans():
    rng, quote_rng = random.Random(20380119), random.Random(20380120)
    quotes = set()
    for _ in range(1000):
        for h in _quoted_variants(random_parse(rng), quote_rng):
            p = preprocess(h.raw_text)
            for inf in infer_all(h, p, ALL_RULES_CFG):
                assert inf.text.strip(), h.raw_text
                assert inf.span, h.raw_text
                assert all(1 <= i <= len(h.tokens) for i in inf.span)
                if inf.trigger == "quotes":
                    quotes.add((inf.text == "something is said", "lorem" in h.raw_text))
    assert quotes == {(True, False), (False, False), (False, True)}  # every case ran


# A clitic word, which UD splits ("May" "'s") and the cleaned text keeps
# whole, and a hyphenated word, which UD keeps whole and cleaning splits.
CLITIC_WORDS = ["May's", "BoE's", "Labour's"]
HYPHENATED_WORDS = ["well-known", "U-turn", "post-Brexit"]


def _two_tokenizations(seed):
    """A ``random_parse`` tree with a clitic and a hyphenated word inserted
    as ``dep`` leaves, in half the cases a speaker ("Merkel says") too, and
    two or more of its words quoted, as the text and two parses of it: one
    token per cleaned word ("flat"), and UD tokens, with the clitic split,
    the hyphenated word whole and the quote marks as tokens.  Also: the
    tokens inside the quotes in each parse, and each flat token's UD
    tokens."""
    rng = random.Random(seed)
    base = random_parse(rng)
    # Each word of the text: (text, flat tokens, UD tokens, what it hangs
    # from: its base token's index, "dep" for a random base token, or
    # "nsubj" for the next word).
    words = [(t.surface, [(t.surface, t.pos)], [(t.surface, t.pos)], t.index) for t in base.tokens]
    clitic, hyphenated = rng.choice(CLITIC_WORDS), rng.choice(HYPHENATED_WORDS)
    stem, _ = clitic.split("'")
    inserted = [[(clitic, [(clitic, "NNP")], [(stem, "NNP"), ("'s", "POS")], "dep")],
                [(hyphenated, [(part, "JJ") for part in hyphenated.split("-")],
                  [(hyphenated, "JJ")], "dep")]]
    if rng.random() < 0.5:
        inserted.append([("Merkel", [("Merkel", "NNP")], [("Merkel", "NNP")], "nsubj"),
                         ("says", [("says", "VBZ")], [("says", "VBZ")], "dep")])
    for group in inserted:
        k = rng.randrange(len(words) + 1)
        words[k:k] = group
    first = rng.randrange(len(words) - 1)
    last = rng.randrange(first + 1, len(words))
    opening, closing = rng.choice(['""', "“”"])
    text = " ".join(
        opening * (k == first) + word + closing * (k == last) for k, (word, *_) in enumerate(words)
    ) + "?" * base.raw_text.endswith("?")

    def parse(kind):
        tokens, inside, of_word, inner = [], set(), [], []
        for k, (_, flat, ud, _) in enumerate(words):
            if kind == "ud" and k == first:
                tokens.append((opening, "``"))
            own = flat if kind == "flat" else ud
            indices = list(range(len(tokens) + 1, len(tokens) + 1 + len(own)))
            tokens.extend(own)
            of_word.append(indices)
            if first <= k <= last:
                inside.update(indices)
            inner += [("case" if kind == "ud" else "dep", indices[0], i) for i in indices[1:]]
            if kind == "ud" and k == last:
                tokens.append((closing, "''"))
        head = {at: of_word[k][0] for k, (*_, at) in enumerate(words) if isinstance(at, int)}
        edges = [(e.dep, head.get(e.governor, 0), head[e.dependent]) for e in base.edges]
        for k, (*_, at) in enumerate(words):
            if at == "dep":
                edges.append(("dep", head[rng.randint(1, len(base.tokens))], of_word[k][0]))
            elif at == "nsubj":
                edges.append(("nsubj", of_word[k + 1][0], of_word[k][0]))
        edges += inner
        if kind == "ud":
            edges += [("punct", of_word[first][0], of_word[first][0] - 1),
                      ("punct", of_word[last][0], of_word[last][-1] + 1)]
        surfaces = ["ROOT"] + [surface for surface, _ in tokens]
        h = build_headline(
            "fuzz", text, [Token(i, surface, pos) for i, (surface, pos) in enumerate(tokens, 1)],
            [DependencyEdge(dep, gov, surfaces[gov], d, surfaces[d]) for dep, gov, d in edges],
        )
        return h, inside, of_word

    state = rng.getstate()
    flat, flat_inside, flat_words = parse("flat")
    rng.setstate(state)  # the same attachments in both parses
    ud, ud_inside, ud_words = parse("ud")
    ud_of = {i: ud_k for flat_k, ud_k in zip(flat_words, ud_words) for i in flat_k}
    return text, flat, flat_inside, ud, ud_inside, ud_of


@given(st.integers(0, 2**32))
def test_quotes_spans_stay_inside_the_quotes_of_a_ud_tokenization(seed):
    """The quotes rule renders the same texts from both tokenizations, and
    each UD span, less the speaker's tokens, lies inside the quotes."""
    text, flat, flat_inside, ud, ud_inside, ud_of = _two_tokenizations(seed)
    flat_out = generate_all(flat, preprocess(text), QUOTES_CFG)
    ud_out = generate_all(ud, preprocess(text), QUOTES_CFG)
    assert [i.text for i in ud_out] == [i.text for i in flat_out]
    for f, u in zip(flat_out, ud_out):
        speaker = {j for i in f.span if i not in flat_inside for j in ud_of[i]}
        assert set(u.span) - speaker <= ud_inside, (text, u.span)


def to_conllu(h) -> str:
    """One CoNLL-U sentence block: XPOS carries the tag, UPOS is left empty."""
    lines = [f"# sent_id = {h.headline_id}", f"# text = {h.raw_text}"]
    heads = {e.dependent: e for e in h.edges}
    for t in h.tokens:
        e = heads[t.index]
        lines.append(f"{t.index}\t{t.surface}\t_\t_\t{t.pos}\t_\t{e.governor}\t{e.dep}\t_\t_")
    return "\n".join(lines) + "\n\n"


@given(st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
def test_conllu_and_stanford_json_parse_alike(seeds):
    trees = []
    for n, seed in enumerate(seeds, start=1):
        rng = random.Random(seed)
        h = random_parse(rng)
        # CoNLL-U lists each token's edge in token order.
        edges = sorted(h.edges, key=lambda e: e.dependent)
        trees.append(build_headline(str(n), h.raw_text, h.tokens, edges))
    from_conllu = parse_conllu("".join(to_conllu(h) for h in trees))
    from_json = [parse_stanford_json(json.dumps(to_stanford_json(h))) for h in trees]
    assert len(from_conllu) == len(from_json) == len(trees)
    for h, a, b in zip(trees, from_conllu, from_json):
        assert a.tokens == b.tokens == h.tokens
        assert a.edges == b.edges == h.edges
        assert (a.headline_id, a.raw_text) == (b.headline_id, b.raw_text)
        p = preprocess(h.raw_text)
        assert [i.to_dict() for i in infer_all(a, p, ALL_RULES_CFG)] == [
            i.to_dict() for i in infer_all(b, p, ALL_RULES_CFG)
        ]


# The fixture parses that CoNLL-U can hold: a tab in a word would split its
# row.
CONLLU_FIXTURE_PARSES = [
    h for path in sorted(FIXTURES.glob("*.json")) for h in load_parses(str(path))
    if "\t" not in h.raw_text
]
# Police/NNS fans/NNS clashed/VBD with two nsubj edges, listed root-first as
# CoreNLP lists them.  Its CoNLL-U lists Police's edge first.
POLICE_FANS = {
    "headline": "Police fans clashed",
    "tokens": [{"index": 1, "word": "Police", "pos": "NNS"},
               {"index": 2, "word": "fans", "pos": "NNS"},
               {"index": 3, "word": "clashed", "pos": "VBD"}],
    "dependencies": [
        {"dep": "root", "governor": 0, "governorGloss": "ROOT", "dependent": 3,
         "dependentGloss": "clashed"},
        {"dep": "nsubj", "governor": 3, "governorGloss": "clashed", "dependent": 2,
         "dependentGloss": "fans"},
        {"dep": "nsubj", "governor": 3, "governorGloss": "clashed", "dependent": 1,
         "dependentGloss": "Police"},
    ],
}


@given(st.lists(st.integers(0, 2**32), max_size=4), st.integers(0, 2**32))
@settings(max_examples=20)
def test_shuffled_stanford_json_infers_as_its_conllu(tmp_path_factory, seeds, shuffle_seed):
    """However a tree's Stanford JSON lists its edges, ``infer --rules all``
    writes the JSONL of the tree's CoNLL-U, which lists one edge per token
    in token order: for every fixture parse and ``random_parse`` tree with
    its dependencies shuffled, and for the Police/fans tree listed
    root-first.  Both readers list the edges by dependent."""
    rng = random.Random(shuffle_seed)
    trees = [parse_stanford_json(POLICE_FANS), *CONLLU_FIXTURE_PARSES,
             *(random_parse(random.Random(seed)) for seed in seeds)]
    trees = [dataclasses.replace(h, headline_id=str(i)) for i, h in enumerate(trees, start=1)]
    objects = [to_stanford_json(h) for h in trees]
    objects[0]["dependencies"] = POLICE_FANS["dependencies"]
    for obj in objects[1:]:
        rng.shuffle(obj["dependencies"])
    base = tmp_path_factory.mktemp("shuffled")
    dataset = base / "dataset.txt"
    dataset.write_text("".join(f"{h.raw_text} [source: x]\n" for h in trees), "utf-8")
    documents = {
        "trees.json": "".join(json.dumps(obj) + "\n" for obj in objects),
        "trees.conllu": "".join(to_conllu(h) for h in trees),
    }
    written = []
    for name, document in documents.items():
        parses, out = base / name, base / f"{name}.jsonl"
        parses.write_text(document, "utf-8")
        assert all(e.dependent == k for h in load_parses(str(parses))
                   for k, e in enumerate(h.edges, start=1))
        argv = ["infer", "--rules", "all", "--dataset", str(dataset), "--parses", str(parses),
                "--out", str(out)]
        assert main(argv) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    records = [json.loads(line) for line in split_lines(written[0].decode("utf-8")) if line]
    assert len(records) == len(trees)
    assert {"kind": ">>", "text": "Police has clashed", "trigger": "past",
            "span": [1, 3]} in records[0]["inferences"]


# Any JSON value, NaN and Infinity included (json.loads reads them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _parse_or_parse_error(parse, document):
    """``parse(document)``, where the only exception allowed is ParseError
    (ConsistencyError is one)."""
    try:
        parse(document)
    except ParseError:
        pass


@given(st.integers(0, 2**32), st.data())
def test_malformed_stanford_json_raises_only_parse_errors(seed, data):
    obj = to_stanford_json(random_parse(random.Random(seed)))
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(["headline", "tokens", "dependencies"]))
        if target == "headline" or not obj.get(target) or not isinstance(obj[target], list):
            record = obj
        else:
            records = obj[target]
            k = data.draw(st.integers(0, len(records) - 1))
            if data.draw(st.booleans()) or not isinstance(records[k], dict):
                records[k] = data.draw(JSON_VALUES)  # a record of the wrong type
                continue
            record = records[k]
        if not record:
            continue
        key = data.draw(st.sampled_from(sorted(record)))
        if data.draw(st.booleans()):
            del record[key]  # a dropped key
        else:
            record[key] = data.draw(JSON_VALUES)  # a wrong type or a non-integer id
    _parse_or_parse_error(parse_stanford_json, obj)
    text = json.dumps(obj)
    _parse_or_parse_error(parse_stanford_json, text)
    _parse_or_parse_error(parse_stanford_json, text[: data.draw(st.integers(0, len(text)))])


@given(st.integers(0, 2**32), st.data())
def test_malformed_conllu_raises_only_parse_errors(seed, data):
    h = random_parse(random.Random(seed))
    lines = to_conllu(h).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(lines) - 1))
        cols = lines[k].split("\t")
        action = data.draw(st.sampled_from(["short", "cell", "drop", "insert"]))
        if action == "short":
            del cols[data.draw(st.integers(0, len(cols) - 1))]
        elif action == "cell":  # a non-integer id or head, or any other text
            cols[data.draw(st.integers(0, len(cols) - 1))] = data.draw(st.text(max_size=4))
        if action == "drop":
            del lines[k]
        elif action == "insert":
            lines.insert(k, data.draw(st.text(max_size=12)))
        else:
            lines[k] = "\t".join(cols)
        if not lines:
            break
    _parse_or_parse_error(parse_conllu, "\n".join(lines))


def _parse_or_located_format_error(parse, path, text):
    """``parse()`` of ``text``, read from ``path``, where the only exception
    allowed is a FormatError naming ``path:line`` for a line of the text."""
    try:
        parse()
    except FormatError as exc:
        m = re.match(re.escape(path) + r":(\d+): ", str(exc))
        assert m and 1 <= int(m.group(1)) <= text.count("\n") + 1, str(exc)


GOLD_LINES = st.sampled_from(
    ["Markets crashed", ">> markets have crashed", ">> it rose @future", ">> @but", ">>",
     "||", " || ", "# note", ""]
) | st.text(max_size=12)


@given(st.lists(GOLD_LINES, max_size=8).map("\n".join) | st.text())
def test_malformed_gold_raises_only_located_format_errors(text):
    _parse_or_located_format_error(lambda: parse_gold(text, "g.txt"), "g.txt", text)


# An inference line's text after ">>": words, tags, "@" and the characters
# that ``\s``, ``\w`` and ``str.strip`` might treat apart.
TAG_LINES = st.lists(
    st.sampled_from(["a b", " ", "@", "@but", "@lexical.iterative", "x@y", "@:-", "\t", "\r",
                     "\x0b", "\x1c", "\u2028", "\u00a0", "\u0085", "é", "_", "1", "."])
    | st.text(max_size=3).map(lambda t: t.replace("\n", "")),
    max_size=6,
).map("".join)


@given(TAG_LINES)
@example(" it rose  @future  ")
@example("a @b @c")
@example("@but")
def test_parse_gold_splits_tags_as_the_reference_regex(text):
    """``parse_gold`` splits an '@trigger' tag off as the old lazy regex
    did, and rejects the lines whose text that leaves empty."""
    document = f"Markets crashed\n>>{text}\n||\n"
    body = split_lines(document)[1].strip()[2:].strip()
    want_text, want_trigger = gold_reference.split_tag(body)
    if not want_text:
        with pytest.raises(FormatError, match="empty inference"):
            parse_gold(document)
        return
    (annotation,) = parse_gold(document)
    assert annotation.inferences == (GoldInference(want_text, want_trigger),)
    assert type(annotation.inferences[0]) is GoldInference


# Texts a JSON writer escapes or leaves raw: quotes, backslashes, control
# characters, line separators, astral characters and lone surrogates.
WRITER_TEXTS = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\t", "\n", "\x7f", "\u2028", "\u2029",
                     "\u0085", "’", "\U0001F680", "\ud800", "\udfff", " ", "a", "/"])
    | st.characters(),
    max_size=8,
)
INFERENCES = st.builds(
    Inference, st.sampled_from(InferenceKind), WRITER_TEXTS,
    WRITER_TEXTS | st.sampled_from(RULE_IDS), st.lists(st.integers()).map(tuple),
)


@given(WRITER_TEXTS, st.lists(INFERENCES, max_size=4))
@example("", [])
def test_infer_record_is_json_dumps_of_its_dicts(headline, inferences):
    """``infer`` writes each record as ``json.dumps`` writes its dict."""
    want = json.dumps(
        {"headline": headline, "inferences": [inf.to_dict() for inf in inferences]},
        ensure_ascii=False,
    )
    assert _jsonl_record(headline, inferences) == want


REPORT_ROWS = st.lists(
    st.dictionaries(
        WRITER_TEXTS,
        st.none() | st.booleans() | st.integers() | st.floats() | WRITER_TEXTS,
        min_size=1, max_size=7,
    ),
    max_size=4,
)


@given(REPORT_ROWS, REPORT_ROWS)
@example([], [])
@example(
    [{"headline": "a", "gold": 0, "computed": 1, "matched": 0, "incorrect": 1,
      "percent_correct": 100.0, "percent_incorrect": 100.0}],
    [{"trigger": "but", "accurate": None, "inaccurate": 33.3, "missing": float("nan")}],
)
def test_report_writer_is_json_dumps_indent_2(headlines, triggers):
    """``eval --out`` writes the report as ``json.dumps(indent=2)`` does."""
    report = {"headlines": headlines, "triggers": triggers}
    assert _report_json(report) == json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def _main_fails_only_with_located_errors(argv, files: dict):
    """``main(argv)`` raises nothing and returns 0, or 1 with a stderr of
    one error line that names one of ``files`` (path -> its bytes) and a line
    of it."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        assert code == 1
        error = err.getvalue()
        assert error.count("\n") == 1 and error.endswith("\n"), error
        m = re.match(r"error: (.*?):(\d+): ", error)
        assert m and m.group(1) in files, error
        assert 1 <= int(m.group(2)) <= files[m.group(1)].count(b"\n") + 1, error


def _documents(lines):
    """Files of ``lines`` joined by newlines, or of any bytes."""
    return st.lists(lines, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")) | st.binary(
        max_size=20
    )


DATASET_LINES = st.sampled_from([
    *(FIXTURES / "basic_triggers_dataset.txt").read_text("utf-8").splitlines()[:3],
    "Markets crashed [source: BBC May 08, 2016]", "[source: BBC]", " [source:", "no bracket",
    "# comment", "", " ", "A [source: ]]", "\u2028 [source: x]", "x\r [source: y 1]",
]) | st.text(max_size=12)
LEXICON_LINES = st.sampled_from([
    "iterative\tagain", "factive\tknow that", "temporal\tbefore", "judging\t  ",
    "iterative\t", "\t", "bogus\tx", "no tab", "# heads", "", "change_of_state\tstop x y",
]) | st.text(max_size=12)


@pytest.mark.parametrize("flag", ["--dataset", "--lexicon", "--config"])
@given(data=st.data())
def test_dataset_lexicon_and_config_readers_fail_only_at_a_located_line(
    tmp_path_factory, flag, data
):
    """Through ``cli.main``, a fuzzed dataset, lexicon or ``--config`` file
    infers, or exits 1 with one ``error: path:line:`` line on stderr; a config
    names its own line, or the line of the bad lexicon it names.  A lexicon
    path of no readable file (missing, a directory) is an error at the
    config's line."""
    base = tmp_path_factory.getbasetemp()
    path = base / f"fuzzed{flag}"
    files = {}
    lines = DATASET_LINES if flag == "--dataset" else LEXICON_LINES
    if flag == "--config":
        # A lexicon a config names is read from its own file.
        for name, text in (("good.tsv", "iterative\tagain\n"), ("bad.tsv", "# heads\nbogus\tx\n")):
            (base / name).write_text(text, "utf-8")
            files[str(base / name)] = text.encode("utf-8")
        lines = st.sampled_from([
            "rules = all", "rules = ,", "rules = compound, zz", "rules=lexical",
            "verb_pattern = strict", "verb_pattern = loose", "compound_mode = can_be",
            "compound_mode = q", "lexicon =", f"lexicon = {base / 'good.tsv'}",
            f"lexicon = {base / 'bad.tsv'}", f"lexicon = {base / 'nosuch.tsv'}",
            f"lexicon = {base}", "no equals", "x = 1", "= 3", "# c", "",
        ]) | st.text(max_size=12)
    files[str(path)] = data.draw(_documents(lines))
    path.write_bytes(files[str(path)])
    argv = ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
            "--parses", str(FIXTURES / "basic_triggers.json"), "--out", str(base / "o.jsonl")]
    _main_fails_only_with_located_errors([*argv, flag, str(path)], files)


def _maybe(strategy):
    return strategy | JSON_VALUES


INFERENCE_RECORDS = st.fixed_dictionaries({}, optional={
    "kind": _maybe(st.sampled_from([">>", "~=", "triple", "zz"])),
    "text": _maybe(st.text(max_size=4)),
    "trigger": _maybe(st.text(max_size=4)),
    "span": _maybe(st.lists(st.integers(-2, 9), max_size=2)),
})
EVAL_RECORDS = st.fixed_dictionaries({}, optional={
    "headline": _maybe(st.text(max_size=4)),
    "inferences": _maybe(st.lists(_maybe(INFERENCE_RECORDS), max_size=2)),
    "incorrect": _maybe(st.lists(_maybe(st.text(max_size=4)), max_size=2)),
    "matched": _maybe(st.lists(_maybe(st.lists(_maybe(st.text(max_size=3)), max_size=3)),
                               max_size=2)),
})
EVAL_LINES = EVAL_RECORDS.map(json.dumps) | JSON_VALUES.map(json.dumps) | st.text(max_size=12)


@given(st.lists(EVAL_LINES, max_size=5), st.sampled_from(["inferences", "labels"]))
@example(['{"headline": ' + "1" * 5000 + "}"], "labels")
def test_malformed_eval_records_raise_only_located_format_errors(tmp_path_factory, lines, flag):
    path = tmp_path_factory.getbasetemp() / f"{flag}.jsonl"
    path.write_text("\n".join(lines), "utf-8")
    read = (_read_inference_file if flag == "inferences"
            else _read_labels_file)
    text = "\n".join(lines)
    _parse_or_located_format_error(lambda: read(str(path), {}, set()), str(path), text)


def _split_json_lines(path):
    """(line number, value) of each line that is not blank, as the eval
    readers read JSON Lines before they decoded in place: split_lines, then
    json.loads on each line."""
    values = []
    for lineno, line in enumerate(split_lines(read_text(path)), start=1):
        if not line.strip():
            continue
        try:
            values.append((lineno, json.loads(line)))
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return values


def _in_place_json_lines(path):
    """(line number, value) of each line that is not blank, as the parse and
    eval readers read JSON Lines: decoded in place in the file's text."""
    text = read_text(path)
    return _json_lines(text, 0, len(text), 1, path)


def _values_or_error(read, path) -> str:
    """The repr of ``read(path)``'s list, which tells NaN, -0.0 and key order
    apart, or the text of its FormatError."""
    try:
        return repr(list(read(path)))
    except FormatError as exc:
        return f"FormatError: {exc}"


_DEEP = "[" * 5000 + "]" * 5000  # past the recursion limit
# What may stand on a line besides one JSON value: JSON whitespace around it,
# a line split inside an object, trailing garbage, a BOM, deep nesting, a
# number or literal cut short, a lone surrogate escape.
_JSONL_BODIES = JSON_VALUES.map(lambda v: json.dumps(v, ensure_ascii=False)) | st.sampled_from([
    '{"a":\n1}', '[1,\r\n2]', '{"a": 1} x', "1 2", "{}{}", "[1]]", "\ufeff{}", "\ufeff",
    _DEEP, "[" * 50 + "]" * 50, '{"a": 1', "tru", "-", "1.", "12", "-0", "1e5", "1e",
    '"\\ud800"', '"a\u2028b\x85c"', "\xa0{}", "{}\x0c", "\x0c1",
])
_JSONL_SPACE = st.sampled_from(["", "", " ", "\t", "\r", " \r", "\t \t"])
# A line end, or a lone "\r", which ends no line.
_JSONL_ENDS = st.sampled_from(["\n", "\r\n", "\n", "\r"])
_JSONL_BLANKS = st.lists(
    st.sampled_from(["", " ", "\u2028", "\x85", "\u3000", "\r", "\t\xa0"]).map(lambda b: b + "\n"),
    max_size=2,
).map("".join)
_JSONL_SOUPS = st.lists(
    st.tuples(_JSONL_BLANKS, _JSONL_SPACE, _JSONL_BODIES, _JSONL_SPACE, _JSONL_ENDS).map("".join),
    max_size=5,
).map("".join)


@given(_JSONL_SOUPS)
@example('{"a": 1}\r\n{"a": 1\r')  # a CR before the end of the file is in the line
@example("{}\x0c")  # only JSON whitespace may follow a value
@example('1\r\n\r2 \r\n\u3000\n\x85\n{"b":\r\n3}')
@example("\ufeff1\n\ufeff2\n")  # the first mark is dropped, the second is an error
@example("[]\n" + _DEEP + "\n")
def test_in_place_json_lines_match_split_lines_and_json_loads(tmp_path_factory, document):
    """The eval readers' line walk, which decodes each line in place, gives
    the (line, value) list of split_lines and json.loads, or the same error
    text at the same line."""
    path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    path.write_bytes(document.encode("utf-8"))
    assert (_values_or_error(_in_place_json_lines, str(path))
            == _values_or_error(_split_json_lines, str(path)))


def test_rule_subset_monotonicity_on_fixture_corpus():
    corpus = (
        load_fixture_corpus("basic_triggers.json", "basic_triggers_dataset.txt")
        + load_fixture_corpus("lexical_triggers.json", "lexical_triggers_dataset.txt")
        + load_fixture_corpus("combined.json", "combined_dataset.txt")
    )
    rng = random.Random(7)
    for h, p, _ in corpus:
        enabled = list(RULE_IDS)
        while enabled:
            full = {i.text for i in generate_all(h, p, EngineConfig(rules=tuple(enabled)))}
            enabled.remove(rng.choice(enabled))
            smaller = {
                i.text for i in generate_all(h, p, EngineConfig(rules=tuple(enabled)))
            }
            assert smaller <= full


def test_rule_subset_monotonicity_on_random_trees():
    rng = random.Random(99)
    for _ in range(200):
        h = random_parse(rng)
        p = preprocess(h.raw_text)
        subset = tuple(r for r in RULE_IDS if rng.random() < 0.5)
        smaller = {i.text for i in generate_all(h, p, EngineConfig(rules=subset))}
        full = {i.text for i in generate_all(h, p, ALL_RULES_CFG)}
        assert smaller <= full


LEXICAL_IDS = tuple(r for r in RULE_IDS if r.startswith("lexical."))
FIXTURE_PAIRS = [
    (h, p)
    for parses, dataset in [
        ("basic_triggers.json", "basic_triggers_dataset.txt"),
        ("lexical_triggers.json", "lexical_triggers_dataset.txt"),
        ("combined.json", "combined_dataset.txt"),
    ]
    for h, p, _ in load_fixture_corpus(parses, dataset)
]
# Heads from the fuzz words, some heading entries of several classes.
FUZZ_LEXICON = TriggerLexicon(
    entries={
        "iterative": {"come back", "talks", "plan"},
        "change_of_state": {"stopped", "say"},
        "factive": {"stop", "blames", "say that"},
        "implicative": {"come to", "plan"},
        "judging": {"blame", "ban", "talk"},
    }
)


def _random_pair(seed):
    h = random_parse(random.Random(seed))
    return h, preprocess(h.raw_text)


@given(
    st.sampled_from(FIXTURE_PAIRS) | st.integers(0, 2**32).map(_random_pair),
    st.sampled_from([default_lexicon(), FUZZ_LEXICON]),
    st.booleans(),
    st.lists(st.sampled_from(LEXICAL_IDS), unique=True),
)
def test_rules_sharing_a_function_render_as_if_alone(pair, lexicon, strict_verbs, subset):
    """The five lexical.* rows share one function: all rules together render
    each rule's own output, sorted by span, in registry order whatever the
    order of the configured ids, and any subset of the lexical rows renders
    only its own ids."""
    h, p = pair

    def run(rules):
        return generate_all(h, p, EngineConfig(rules=tuple(rules), lexicon=lexicon,
                                               strict_verbs=strict_verbs))

    alone = {rule_id: run([rule_id]) for rule_id in RULE_IDS}
    for out in alone.values():
        assert [inf.span for inf in out] == sorted(inf.span for inf in out)
    full = run(RULE_IDS)
    assert full == [inf for rule_id in RULE_IDS for inf in alone[rule_id]]
    assert run(reversed(RULE_IDS)) == full
    assert run(subset) == [inf for inf in full if inf.trigger in subset]


def _twinned_parse(seed):
    """A ``random_parse`` tree, and in half the cases that tree with two new
    leaves labelled nsubj and two labelled dobj under one head (a verb, if it
    has one), and two labelled case under one head (a noun, if it has one)."""
    rng = random.Random(seed)
    h = random_parse(rng)
    if rng.random() < 0.5:
        return h
    tokens, edges = list(h.tokens), list(h.edges)
    for dep, tag in (("nsubj", "V"), ("dobj", "V"), ("case", "N")):
        head = rng.choice([t for t in tokens if t.pos.startswith(tag)] or tokens)
        for _ in range(2):
            tokens.append(Token(len(tokens) + 1, rng.choice(WORDS), rng.choice(TAGS)))
            edges.append(DependencyEdge(dep, head.index, head.surface, len(tokens),
                                        tokens[-1].surface))
    raw = " ".join(t.surface for t in tokens) + "?" * h.raw_text.endswith("?")
    return build_headline(h.headline_id, raw, tokens, edges)


@given(
    st.sampled_from([h for h, _ in FIXTURE_PAIRS]) | st.integers(0, 2**32).map(_twinned_parse),
    st.integers(0, 2**32),
    st.sampled_from([default_lexicon(), FUZZ_LEXICON]),
    st.booleans(),
    st.sampled_from(COMPOUND_MODES),
)
@settings(max_examples=300)
# A token with an empty surface: the clause "temporal" renders keeps the space
# its empty object leaves, "China stockpiled  in Asia".
@example(
    make_headline(
        "China/NNP stockpiled/VBD /NN in/IN Asia/NNP before/IN talks/NNS",
        [("nsubj", 2, 1), ("root", 0, 2), ("dobj", 2, 3), ("case", 5, 4), ("nmod", 2, 5),
         ("mark", 2, 6), ("dep", 2, 7)],
        "China stockpiled in Asia before talks",
    ),
    0, default_lexicon(), False, "both",
)
def test_generate_all_matches_the_reference_rules(h, quote_seed, lexicon, strict_verbs, mode):
    """Rules that read one edge view per headline render what the reference
    copy's rules, each scanning ``h.edges`` itself, render: the same
    inferences in the same order, for each rule alone and for all rules."""
    for rules in [(rule_id,) for rule_id in RULE_IDS] + [RULE_IDS]:
        cfg = EngineConfig(rules=rules, lexicon=lexicon, strict_verbs=strict_verbs,
                           compound_mode=mode)
        for variant in _quoted_variants(h, random.Random(quote_seed)):
            p = preprocess(variant.raw_text)
            assert generate_all(variant, p, cfg) == rules_reference.generate_all(variant, p, cfg)


@given(
    st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
    st.integers(0, 2**32),
    st.lists(st.sampled_from(RULE_IDS), unique=True),
    st.sampled_from([default_lexicon(), FUZZ_LEXICON]),
    st.booleans(),
    st.sampled_from(COMPOUND_MODES),
)
@settings(max_examples=60)
def test_infer_many_is_infer_all_per_headline(length, seed, rules, lexicon, strict_verbs, mode):
    """Rules run over a chunk of headlines yield what each headline infers
    alone, in order: over no headline, one, a chunk less one, a chunk, a
    chunk and one, and two chunks and three."""
    rng = random.Random(seed)
    items = []
    for _ in range(length):
        h = rng.choice(_quoted_variants(random_parse(rng), rng))
        items.append((h, preprocess(h.raw_text)))
    cfg = EngineConfig(rules=tuple(rules), lexicon=lexicon, strict_verbs=strict_verbs,
                       compound_mode=mode)
    assert list(infer_many(items, cfg)) == [infer_all(h, p, cfg) for h, p in items]


def test_infer_all_deterministic():
    corpus = load_fixture_corpus("basic_triggers.json", "basic_triggers_dataset.txt")
    for h, p, _ in corpus:
        first = [i.to_dict() for i in infer_all(h, p, ALL_RULES_CFG)]
        second = [i.to_dict() for i in infer_all(h, p, ALL_RULES_CFG)]
        assert json.dumps(first) == json.dumps(second)


def test_dedup_keeps_first_registered_trigger():
    corpus = load_fixture_corpus("basic_triggers.json", "basic_triggers_dataset.txt")
    for h, p, _ in corpus:
        out = infer_all(h, p, ALL_RULES_CFG)
        seen = set()
        for inf in out:
            assert inf.text.lower() not in seen
            seen.add(inf.text.lower())


def _root_rule_error(h, where=""):
    """The error of a parse whose edges break the rule that only the root
    edge hangs from the root, which the reference does not check: it names
    the first other edge that does.  None for a parse that keeps the rule."""
    root = next(e for e in h.edges if e.dep == "root")
    if [e.governor for e in h.edges].count(0) == 1 and root.governor == 0:
        return None
    e = next(e for e in h.edges if e.governor == 0 and e.dep != "root")
    return (f"{where}{h.headline_id}: edge {e.dep} of token {e.dependent} hangs from the root,"
            " which only the root edge may")


def _by_dependent(h):
    """``h`` with its edges in dependent order, as the package lists them."""
    return dataclasses.replace(h, edges=tuple(sorted(h.edges, key=lambda e: e.dependent)))


def _same_outcome(read, reference_read, document, root_rule_error=lambda want: None,
                  expected=lambda want: want):
    """``read(document)`` gives what the reference gives: ``expected`` of
    its result, or an error of the same type with the same text.  Where the
    reference accepts a parse whose edges break the root rule,
    ``root_rule_error`` of its result is the text of the ConsistencyError
    ``read`` must raise."""
    try:
        want = reference_read(document)
    except ParseError as exc:
        try:
            read(document)
        except ParseError as got:
            assert (type(got), str(got)) == (type(exc), str(exc))
        else:
            raise AssertionError(f"no error, the reference raises {exc}")
        return str(exc)
    error = root_rule_error(want)
    if error is not None:
        with pytest.raises(ConsistencyError) as got:
            read(document)
        assert str(got.value) == error
        return error
    assert read(document) == expected(want)
    return None


# One defect each; "none" is the valid tree.  A defect that the tree cannot
# take (a cycle needs a token with a dependent below the root) is skipped.
# The first eight keep one edge row per token.
DEFECTS = ("none", "index", "pos", "no_root", "two_roots", "self_loop", "cycle",
           "gloss", "missing_head", "repeated")


def _inject(defect, fmt, tokens, edges, rng) -> bool:
    """Put ``defect`` into the [index, surface, pos] token rows and the
    [dep, governor, governor gloss, dependent, dependent gloss] edge rows
    (edge k hangs token k), as it can be written in ``fmt``."""
    n = len(tokens)
    k = rng.randrange(n)

    def attach(edge, governor):
        edge[1], edge[2] = governor, "ROOT" if governor == 0 else tokens[governor - 1][1]

    if defect == "index":
        tokens[k][0] = rng.choice([0, k, k + 2, n + 1, 2 * n + 5])
    elif defect == "pos":
        tokens[k][2] = ""
    elif defect == "no_root":
        for edge in edges:
            if edge[0] == "root":
                edge[0] = rng.choice(["dep", "Root", "nsubj"])
    elif defect == "two_roots":
        if n < 2 or edges[k][0] == "root":
            return False
        edges[k][0] = "root"
    elif defect == "missing_head":
        if fmt == "conllu" or rng.random() < 0.5:
            attach(edges[k], 0)
            edges[k][1] = rng.choice([n + 1, n + 7]) if fmt == "conllu" else rng.choice([-1, n + 1])
        else:
            del edges[k]
    elif defect == "self_loop":
        attach(edges[k], k + 1)
    elif defect == "cycle":
        # Token a, not hung from the root, takes its own dependent as head.
        below = [e for e in edges if e[1] != 0 and edges[e[1] - 1][1] != 0]
        if not below:
            return False
        child = rng.choice(below)
        attach(edges[child[1] - 1], child[3])
    elif defect == "gloss":
        if fmt == "conllu":
            return False
        edges[k][rng.choice([2, 4])] += rng.choice(["x", " "])
    elif defect == "repeated":
        if fmt == "conllu":
            return False
        copy = list(edges[k])
        if rng.random() < 0.5 and n > 1:
            other = rng.choice([i for i in range(n) if i != k])
            copy[3], copy[4] = edges[other][3], edges[other][4]
            edges[k] = copy
        else:
            edges.insert(rng.randrange(len(edges) + 1), copy)
    return True


def _conllu_block(hid, raw, tokens, edges, with_id) -> str:
    lines = [f"# sent_id = {hid}"] if with_id else []
    lines.append(f"# text = {raw}")
    for (index, surface, pos), (dep, governor, _, _, _) in zip(tokens, edges):
        lines.append(f"{index}\t{surface}\t_\t_\t{pos}\t_\t{governor}\t{dep}\t_\t_")
    return "\n".join(lines) + "\n\n"


def _skipped_id(rng, tokens) -> str:
    """An ID both CoNLL-U readers skip: an empty node N.M, or a multi-word
    token N-M with 1 <= N < M <= the last token ID of ``tokens``."""
    last = tokens[-1][0] if tokens else 0
    if last < 2 or rng.random() < 0.5:
        return f"{rng.randint(0, 9)}.{rng.randint(1, 9)}"
    start = rng.randint(1, last - 1)
    return f"{start}-{rng.randint(start + 1, last)}"


def _malformed_id(rng, tokens) -> str:
    """An ID the reference skips, as it skips any ID with "-" or ".", that
    the package rejects at its row: not N-M or N.M, or a range that is
    reversed, empty, from 0 or past the last token ID of ``tokens``."""
    last = tokens[-1][0]
    start = rng.randint(1, last)
    return rng.choice(["-2", "2.", "a-b", "1-2-3", f"{start + 1}-{start}", f"{start}-{start}",
                       f"0-{start}", f"{start}-{last + rng.randint(1, 3)}"])


def _with_row(block: str, with_id: bool, rng, tid: str) -> tuple[str, int]:
    """``block`` with a row of ID ``tid`` before, among or after its token
    rows, and that row's line within the block, from 0."""
    lines = block.rstrip("\n").split("\n")
    at = rng.randint(1 + with_id, len(lines))
    lines.insert(at, f"{tid}\tx\t_\t_\t_\t_\t_\t_\t_\t_")
    return "\n".join(lines) + "\n\n", at


def _stanford_object(hid, raw, tokens, edges) -> dict:
    return {
        "headline": raw,
        "sent_id": hid,
        "tokens": [{"index": i, "word": w, "pos": p} for i, w, p in tokens],
        "dependencies": [
            {"dep": d, "governor": g, "governorGloss": gg, "dependent": e, "dependentGloss": eg}
            for d, g, gg, e, eg in edges
        ],
    }


@given(
    st.sampled_from([h for h, _ in FIXTURE_PAIRS]) | st.integers(0, 2**32).map(
        lambda seed: random_parse(random.Random(seed))
    ),
    st.integers(0, 2**32),
)
# An edge outside the tokens is named by its mapped label, here conj:but.
@example(make_headline("a/NN but/CC c/NN", [("root", 0, 1), ("cc", 1, 2), ("conj", 1, 3)]), 17)
def test_readers_match_the_reference_copy(h, seed):
    """Both readers, ``build_headline`` and ``normalize_labels`` give the
    reference copy's parses on valid trees, with their edges in dependent
    order where the reference keeps the file's, and its exact error text on a
    tree with one defect, whichever check finds it.  The one check the
    reference lacks, that only the root edge hangs from the root, comes
    last: the package rejects exactly the trees the reference accepts that
    break it, such as one with no root edge and a second one, which leaves
    the root label on an edge from a token.  A CoNLL-U tree may also hold a
    valid N-M or N.M row, which both readers skip; the valid tree with a
    malformed ID row, which the reference skips too, is a ParseError at
    that row in the package."""
    rng = random.Random(seed)
    relabel = {rng.choice(sorted(LABEL_MAP.values())): rng.choice(sorted(LABEL_MAP))}
    base_tokens = [list(t) for t in h.tokens]
    base_edges = [list(e) for e in sorted(h.edges, key=lambda e: e.dependent)]
    for edge in base_edges:
        if rng.random() < 0.5:
            edge[0] = relabel.get(edge[0], edge[0])  # the UD and legacy spellings
    prefix = random_parse(rng)
    # Each defect alone, then two at once: the first check to fail names it.
    cases = [(defect,) for defect in DEFECTS]
    cases.append((rng.choice(DEFECTS[1:8]), rng.choice(DEFECTS[1:])))
    cases.append(("no_root", "two_roots"))
    for case in cases:
        for fmt in ("conllu", "stanford"):
            tokens, edges = [list(t) for t in base_tokens], [list(e) for e in base_edges]
            if not all(_inject(defect, fmt, tokens, edges, rng) for defect in case):
                continue
            if fmt == "conllu":
                with_id = rng.random() < 0.8
                before = to_conllu(prefix) if rng.random() < 0.5 else ""  # a valid sentence
                block = _conllu_block(h.headline_id, h.raw_text, tokens, edges, with_id)
                if rng.random() < 0.5:
                    block, _ = _with_row(block, with_id, rng, _skipped_id(rng, tokens))
                document = before + block
                first_line = before.count("\n") + 1
                error = _same_outcome(
                    parse_conllu, reference.parse_conllu, document,
                    lambda parses: _root_rule_error(parses[-1], f"line {first_line}: "),
                )
                if case == ("none",):
                    tid = _malformed_id(rng, tokens)
                    bad, at = _with_row(block, with_id, rng, tid)
                    assert reference.parse_conllu(before + bad) == reference.parse_conllu(document)
                    with pytest.raises(ParseError) as exc:
                        parse_conllu(before + bad)
                    assert str(exc.value).startswith(f"line {first_line + at}: "), tid
            else:
                rng.shuffle(edges)  # Stanford JSON lists the edges in any order
                document = json.dumps(_stanford_object(h.headline_id, h.raw_text, tokens, edges))
                error = _same_outcome(parse_stanford_json, reference.parse_stanford_json, document,
                                      _root_rule_error, _by_dependent)
                token_rows = [Token(*t) for t in tokens]
                edge_rows = [DependencyEdge(*e) for e in edges]
                _same_outcome(
                    lambda rows: build_headline("x", "y", *rows),
                    lambda rows: reference.build_headline("x", "y", *rows),
                    (token_rows, edge_rows),
                    _root_rule_error,
                    _by_dependent,
                )
                assert normalize_labels(edge_rows) == reference.normalize_labels(edge_rows)
            if case == ("no_root", "two_roots"):
                # The root label moved to an edge from a token, or back.
                restored = [e[0] for e in edges if e[1] == 0] == ["root"]
                assert (error is None) == restored, (fmt, error)
            elif len(case) == 1:
                assert (error is None) == (case == ("none",)), (case, fmt, error)


@given(st.integers(0, 2**32), st.booleans())
def test_every_reader_rejects_a_second_edge_from_the_root(tmp_path_factory, seed, reroot):
    """A tree whose one break is an edge other than the root edge hanging
    from the root fails in every reader at its location: a non-root edge
    re-hung from the root, or the root edge hung from a child of its token,
    which then hangs from the root, so that the edges still form a tree."""
    rng = random.Random(seed)
    h = random_parse(rng)
    while len(h.tokens) < 2:
        h = random_parse(rng)
    edges = [list(e) for e in sorted(h.edges, key=lambda e: e.dependent)]
    root = next(e for e in edges if e[1] == 0)
    if reroot:
        moved = rng.choice([e for e in edges if e[1] == root[3]])
        root[1], root[2] = moved[3], moved[4]
    else:
        moved = rng.choice([e for e in edges if e is not root])
    moved[1], moved[2] = 0, "ROOT"
    label = normalize_labels([DependencyEdge(*e) for e in edges])[moved[3] - 1].dep
    error = (f"broken: edge {label} of token {moved[3]} hangs from the root,"
             " which only the root edge may")

    def fails_at(where, read, *args):
        with pytest.raises(ConsistencyError) as got:
            read(*args)
        assert str(got.value) == where + error

    # Each reader gets the valid tree, then the broken one.
    valid = to_conllu(h)
    broken = _conllu_block("broken", h.raw_text, h.tokens, edges, True)
    line = valid.count("\n") + 1
    fails_at(f"p.conllu:{line}: ", parse_conllu, valid + broken, "p.conllu")
    valid = json.dumps(to_stanford_json(h))
    broken = json.dumps(_stanford_object("broken", h.raw_text, h.tokens, edges))
    jsonl = tmp_path_factory.getbasetemp() / "p.jsonl"
    jsonl.write_text(f"{valid}\n{broken}\n")
    array = tmp_path_factory.getbasetemp() / "p.json"
    array.write_text(f"[\n{valid},\n{broken}\n]\n")
    fails_at(f"{jsonl}:2: ", load_parses, str(jsonl))
    fails_at(f"{array}:3: ", load_parses, str(array))
    rows = [DependencyEdge(*e) for e in edges]
    rng.shuffle(rows)
    fails_at("", build_headline, "broken", h.raw_text, h.tokens, rows)


# Whitespace that str.strip removes: what JSON also skips, and what it does
# not (NBSP, U+2028, \x1c, \f, \v), as at the two ends of a parse file.
_STRIP_SPACE = st.lists(
    st.sampled_from([" ", "\t", "\n", "\r\n", "\r", "\xa0", "\u2028", "\x1c", "\f", "\v"]),
    max_size=3,
).map("".join)
# A record a parse file must reject: bad JSON, a non-object, a missing key,
# a lone surrogate in the id or a token.
_BAD_RECORDS = st.sampled_from([
    "{bad", "   {bad", "[1, 2", "null", "5", '"text"', '{"headline": "x"}',
    '{"headline": "x", "tokens": [], "dependencies": [], "sent_id": "x\\ud800"}',
    '{"headline": "a", "tokens": [{"index": 1, "word": "a\\udfff", "pos": "NN"}],'
    ' "dependencies": [{"dep": "root", "governor": 0, "governorGloss": "ROOT",'
    ' "dependent": 1, "dependentGloss": "a\\udfff"}]}',
])
# What may come between two JSON Lines records: a line end, or a lone "\r",
# which ends no line, then blank lines.
_LINE_GAPS = st.tuples(
    st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]),
    st.lists(st.sampled_from(["", " ", "\t", "\xa0", "\u2028", "\x1c", "\f"]).map(
        lambda blank: blank + "\n"), max_size=2).map("".join),
).map("".join)
_ARRAY_GAPS = st.sampled_from([",", ", ", ",\n", ",\r\n", ",\n\n"]) | _STRIP_SPACE.map(",".__add__)
_RECORD = json.dumps(json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))[0])


@st.composite
def _parse_documents(draw):
    """A Stanford JSON parse file in one of the three layouts, whitespace at
    both ends, with at most one bad record anywhere."""
    records = [
        json.dumps(to_stanford_json(random_parse(random.Random(seed))),
                   ensure_ascii=draw(st.booleans()))
        for seed in draw(st.lists(st.integers(0, 2**32), max_size=4))
    ]
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(_BAD_RECORDS))
    layout = draw(st.sampled_from(["lines", "array", "object"]))
    if layout == "object":
        body = records[0] if records else ""
    elif layout == "array":
        body = "[" + "".join(
            (draw(_ARRAY_GAPS) if k else draw(_STRIP_SPACE)) + r for k, r in enumerate(records)
        ) + draw(_STRIP_SPACE) + "]"
    else:
        body = "".join((draw(_LINE_GAPS) if k else "") + r for k, r in enumerate(records))
    return draw(_STRIP_SPACE) + body + draw(_STRIP_SPACE)


@given(_parse_documents())
# The document is the stripped text: its first line loses a leading NBSP...
@example("\xa0" + _RECORD + "\n" + _RECORD)
# ... and its first line's column 1 is that of the first non-space character.
@example("   {bad\n" + _RECORD)
# A "\r" before a "\n" is not part of the line, as the error's column shows.
@example(_RECORD + "\r\n[1, 2\r\n" + _RECORD)
# A line's JSON string is a value that is no object, not a document to decode.
@example('"text"')
@example(_RECORD + "\n" + json.dumps(_RECORD))
# So is an array item's, which the reference decodes as a document.
@example("[\n" + _RECORD + ',\n"text"]')
@example("[" + json.dumps(_RECORD) + "]")
def test_load_parses_matches_the_reference_copy(tmp_path_factory, document):
    """``load_parses`` gives the reference copy's parses, or its exact error
    text, on an object, an array or JSON Lines between any whitespace.  An
    array item that is a JSON string is an error at its line, as a JSON
    Lines line that holds one is; the reference decodes it again."""
    path = tmp_path_factory.getbasetemp() / "p.json"
    path.write_bytes(document.encode("utf-8"))
    k = _first_string_item(document)
    if k is None:
        _same_outcome(load_parses, reference.load_parses, str(path))
        return
    with pytest.raises(ParseError) as got:
        load_parses(str(path))
    line = reference._item_line(document, k)
    assert str(got.value) == f"{path}:{line}: expected a JSON object per headline"


def _first_string_item(document: str) -> int | None:
    """The position of the first JSON string item of ``document``, if it is
    an array that holds one."""
    try:
        payload = json.loads(document.strip())
    except ValueError:
        return None
    if isinstance(payload, list):
        return next((k for k, item in enumerate(payload) if type(item) is str), None)
    return None


# Texts that repeat, spell one normalized text several ways, normalize to ""
# or tie on token Jaccard ("a b" and "a c" against "a d").
MATCH_TEXTS = st.sampled_from([
    "Brexit can have campaign", "brexit can be/ can have campaign", "Brexit can be campaign.",
    "Olympics has medals", "olympics has medals!", "years had medals",
    "", "...", " - ", "a b", "a c", "b c", "a d", "a",
]) | st.text(max_size=6)
MATCH_TRIGGERS = st.sampled_from([None, "compound", "but"])


@st.composite
def _match_arguments(draw):
    gold_texts = draw(st.lists(MATCH_TEXTS, max_size=6))
    comp_texts = draw(st.lists(MATCH_TEXTS, max_size=6))
    # Judged texts and labels are the call's own texts, or absent ones.
    own = [*gold_texts, *comp_texts]
    text = st.sampled_from(own) | MATCH_TEXTS if own else MATCH_TEXTS
    judged = tuple(draw(st.lists(st.tuples(text, text), max_size=4)))
    labels = draw(st.none() | st.frozensets(text, max_size=3))
    gold = draw(st.sampled_from(["str", "inference", "annotation"]))
    if gold != "str":
        gold_texts = [GoldInference(t, draw(MATCH_TRIGGERS)) for t in gold_texts]
        if gold == "annotation":
            gold_texts = GoldAnnotation("h", tuple(gold_texts))
    if draw(st.booleans()):
        comp_texts = [
            Inference(InferenceKind.PRESUPPOSITION, t, draw(MATCH_TRIGGERS) or "rule", (1,))
            for t in comp_texts
        ]
    cfg = MatchConfig(
        mode=draw(st.sampled_from(MatchMode)),
        jaccard_threshold=draw(st.sampled_from([0.0, 1.0, 1 / 3, 0.5]) | st.floats(0, 1)),
    )
    return comp_texts, gold_texts, cfg, judged, labels


@given(_match_arguments())
# A judged pair with an absent side, one whose texts an earlier pair took,
# and an absent label.
@example((["a c"], ["a b"], MatchConfig(),
          (("a b", "zz"), ("a b", "a c"), ("a b", "a c"), ("yy", "a c")),
          frozenset({"a c", "nope"})))
def test_match_matches_the_reference_copy(arguments):
    """``match`` gives the reference copy's ``Alignment``: the same pairs in
    the same order with the same scores, the same unmatched and incorrect
    indices, normalized texts and triggers.  NamedTuples compare equal to
    plain tuples, so the record types are checked on their own.  Given an
    ``unnamed`` set, it returns the same ``Alignment`` and adds the labels
    that the reference copy of the label check finds naming nothing."""
    result = match(*arguments)
    assert result == evaluation_reference.match(*arguments)
    assert type(result) is Alignment
    assert all(type(p) is MatchPair for p in result.pairs)
    unnamed = set()
    assert match(*arguments, unnamed=unnamed) == result
    computed, gold, _, judged, labels = arguments
    gold = gold.inferences if isinstance(gold, GoldAnnotation) else gold
    texts = evaluation_reference._texts
    entry = {"matched": judged, "incorrect": () if labels is None else labels}
    reference = evaluation_reference.unnamed_labels(entry, texts(gold), texts(computed), result)
    assert unnamed == reference


@given(st.lists(_match_arguments(), max_size=6))
def test_score_by_trigger_matches_the_reference_copy(calls):
    """``score_by_trigger`` gives the rows that the reference copy's
    ``trigger_rows`` makes of its ``TriggerScore`` list over the alignments
    ``match`` builds, untagged gold and computed texts with no trigger
    included, reading them once.  The rows are compared, since no output
    holds the counts any more."""
    alignments = [match(*arguments) for arguments in calls]
    scores = evaluation_reference.score_by_trigger(alignments)
    assert score_by_trigger(iter(alignments)) == evaluation_reference.trigger_rows(scores)


# The labels and tags a triple reads, and the negator "not" in both cases.
TRIPLE_DEPS = ["nsubj"] * 3 + ["dobj"] * 3 + ["nmod", "case"] * 2 + [
    "aux", "auxpass", "neg", "advmod", "prt", "compound:prt", "nummod", "amod", "det",
    "compound", "dep"]
TRIPLE_TAGS = ["VBD", "VBZ", "VB", "VBN", "NN", "NNS", "PRP", "IN", "RB", "DT", "CD"]


def _triple_tree(seed):
    """A random tree in which a token attaches to a verb, if one comes
    before it in the shuffled order, four times in five."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    tokens = [Token(k, rng.choice([*WORDS, "not", "NOT"]), rng.choice(TRIPLE_TAGS))
              for k in range(1, n + 1)]
    order = [t.index for t in tokens]
    rng.shuffle(order)
    glosses = ["ROOT", *(t.surface for t in tokens)]
    edges = [DependencyEdge("root", 0, "ROOT", order[0], glosses[order[0]])]
    for position in range(1, n):
        verbs = [k for k in order[:position] if tokens[k - 1].pos.startswith("V")]
        parent = rng.choice(verbs if verbs and rng.random() < 0.8 else order[:position])
        node = order[position]
        edges.append(DependencyEdge(rng.choice(TRIPLE_DEPS), parent, glosses[parent], node,
                                    glosses[node]))
    return build_headline("fuzz", " ".join(glosses[1:]), tokens, edges)


@given(st.sampled_from([h for h, _ in FIXTURE_PAIRS]) | st.integers(0, 2**32).map(_triple_tree),
       st.booleans())
@settings(max_examples=400)  # about one tree in ten renders a triple
def test_extract_triplets_matches_the_reference_copy(h, strict_verbs):
    """``extract_triplets`` reads each verb's dependents from the edge view
    and renders the reference copy's triples, in span order, as Inferences."""
    got = generate_all(h, (), EngineConfig(rules=("triple",), strict_verbs=strict_verbs))
    want = infer_reference.extract_triplets(h, strict_verbs)
    assert got == sorted(want, key=lambda inf: inf.span)
    assert all(type(inf) is Inference for inf in got)


def _record_or_error(parse, line):
    try:
        return parse(line)
    except FormatError as exc:
        return f"FormatError: {exc}"


# Pieces of dataset lines: the bracket, separators that str.split and the
# regex \s treat differently, month names with trailing '.' and ',', and
# digits of other scripts.
DATASET_PIECES = st.sampled_from([
    "[source:", "]", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u2028", "\xa0", "\u3000",
    "May", "may.,", "Sept.", "JAN,", "april.", "Decembers", "\u0663", "\uff11", "\xb2", "5",
    "08,", "BBC", "The Hindu", "#", "Markets crashed",
]) | st.text(max_size=3)


@given(st.lists(DATASET_PIECES, max_size=10).map("".join))
@example("Markets crashed [source: BBC\xa0May\x1c08, 2016]")
@example("x [source: The Hindu \u0663 April., 2018]")
@example("Markets\u2028crashed [source: BBC\xa0May., 08,\u2028 2016]")
def test_parse_dataset_line_matches_the_reference_copy(line):
    """``parse_dataset_line`` and ``source_of`` give the reference copy's
    headline and source, or its error text."""
    got = _record_or_error(parse_dataset_line, line)
    if isinstance(got, HeadlineRecord):
        got = (got.text, source_of(got.bracket))
    assert got == _record_or_error(infer_reference.parse_dataset_line, line)


TAG_TEXTS = st.sampled_from(["V", "VB", "VBD", "VBZ", "VBPX", "v", "vb", "NN", "", "Vx",
                             "V\u0301", "\u01c5"]) | st.text(max_size=4)


@given(st.lists(TAG_TEXTS, max_size=8), st.booleans())
def test_verbs_of_takes_the_tokens_is_verb_tag_accepts(tags, strict):
    """``verbs_of``, the package's one verb test, takes the tokens that the
    old ``is_verb_tag`` accepts."""
    h = ParsedHeadline("x", "x", tuple(Token(k, "w", tag) for k, tag in enumerate(tags, 1)), ())
    got = verbs_of(h, strict)
    assert got == [t for t in h.tokens if infer_reference.is_verb_tag(t.pos, strict)]
    assert got == infer_reference.verbs_of(h, strict)


SPANS = st.lists(st.integers(-3, 20), max_size=5)


@given(st.lists(SPANS | SPANS.map(tuple), max_size=5))
def test_merge_matches_its_old_definition(spans):
    assert _merge(*spans) == infer_reference._merge(*spans)


# Texts that differ in case or punctuation only, in their letters, or not at all.
PAIR_TEXTS = st.sampled_from([
    "Markets crashed", "markets CRASHED!", "Markets, crashed.", "Markets crash",
    "Totally different", "1", "2", "b", "",
])
# Ids in and out of the records' range, numeric or not.
PAIR_IDS = st.sampled_from(["1", "2", "3", "4", "7", "0", "-1", "01", " 1", "b"]) | st.text(
    max_size=2
)


@st.composite
def _records_and_parses(draw):
    records = [HeadlineRecord(text, "BBC", line)
               for line, text in enumerate(draw(st.lists(PAIR_TEXTS, max_size=6)), start=1)]
    parses = []
    for k, (text, hid) in enumerate(draw(st.lists(st.tuples(PAIR_TEXTS, PAIR_IDS | st.none()),
                                                  max_size=6))):
        # A parse without an id takes its text as its id; its one token tells
        # the parses apart.
        parses.append(ParsedHeadline(text if hid is None else hid, text,
                                     (Token(1, f"w{k}", "NN"),), ()))
    return records, parses


@given(_records_and_parses())
@example(([HeadlineRecord("Markets crashed", "BBC")] * 2,
          [ParsedHeadline("2", "markets CRASHED!", (), ()),
           ParsedHeadline("2", "Markets crashed", (), ())]))
def test_pair_matches_the_reference_copy(records_and_parses):
    """``pair`` gives, record by record, the skip entries and the headlines
    to infer that ``cmd_infer``'s own loop gave, then its unused parses."""
    records, parses = records_and_parses
    verdicts = list(pair(records, parses))
    by_record, rest = verdicts[:len(records)], verdicts[len(records):]
    assert [(i, record) for i, record, _, _ in by_record] == list(enumerate(records, start=1))
    skipped, inferred, unused = infer_reference.pair_lines(records, parses)
    assert [{"line": i, "headline": record.text, "reason": reason}
            | ({"parse": h.raw_text} if h else {})
            for i, record, h, reason in by_record if reason] == skipped
    assert [(h.headline_id, h.raw_text, h.tokens, h.edges)
            for _, _, h, reason in by_record if not reason] == [
        (h.headline_id, h.raw_text, h.tokens, h.edges) for h in inferred
    ]
    assert all(record is None and reason == "unused" for _, record, _, reason in rest)
    assert [{"position": k, "id": h.headline_id} for k, _, h, _ in rest] == unused
