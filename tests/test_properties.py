"""Cross-cutting engine properties: fuzzing over random dependency trees,
format equivalence of the two ingest formats, parity of the parse readers
with a reference copy on valid and one-defect parses, malformed-input fuzzing
of the parse, gold and eval readers, rule-set monotonicity, rules that share
a registry function, quoted spans under another tokenization and output
determinism."""

import json
import random
import re

from hypothesis import example, given, strategies as st

import ingest_reference as reference
from conftest import load_fixture_corpus, make_headline
from presup.cli import _read_inference_file, _read_labels_file
from presup.corpus import parse_gold, preprocess
from presup.errors import FormatError, ParseError
from presup.ingest import (
    LABEL_MAP,
    DependencyEdge,
    Token,
    build_headline,
    normalize_labels,
    parse_conllu,
    parse_stanford_json,
    to_stanford_json,
)
from presup.lexicon import TriggerLexicon, default_lexicon
from presup.rules import (
    DEFAULT_RULES,
    EngineConfig,
    RULE_IDS,
    generate_all,
    infer_all,
    rule_quotes,
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
    flat_out = rule_quotes(flat, preprocess(text))
    ud_out = rule_quotes(ud, preprocess(text))
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
    read = _read_inference_file if flag == "inferences" else _read_labels_file
    text = "\n".join(lines)
    _parse_or_located_format_error(lambda: read(str(path)), str(path), text)


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


def _same_outcome(read, reference_read, document):
    """``read(document)`` gives what the reference gives: an equal result,
    or an error of the same type with the same text."""
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
    assert read(document) == want
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
    reference copy's parses on valid trees and its exact error text on a
    tree with one defect, whichever check finds it."""
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
    for case in cases:
        for fmt in ("conllu", "stanford"):
            tokens, edges = [list(t) for t in base_tokens], [list(e) for e in base_edges]
            if not all(_inject(defect, fmt, tokens, edges, rng) for defect in case):
                continue
            if fmt == "conllu":
                with_id = rng.random() < 0.8
                document = _conllu_block(h.headline_id, h.raw_text, tokens, edges, with_id)
                if rng.random() < 0.5:  # a valid sentence before it
                    document = to_conllu(prefix) + document
                error = _same_outcome(parse_conllu, reference.parse_conllu, document)
            else:
                rng.shuffle(edges)  # Stanford JSON lists the edges in any order
                document = json.dumps(_stanford_object(h.headline_id, h.raw_text, tokens, edges))
                error = _same_outcome(parse_stanford_json, reference.parse_stanford_json, document)
                token_rows = [Token(*t) for t in tokens]
                edge_rows = [DependencyEdge(*e) for e in edges]
                _same_outcome(
                    lambda rows: build_headline("x", "y", *rows),
                    lambda rows: reference.build_headline("x", "y", *rows),
                    (token_rows, edge_rows),
                )
                assert normalize_labels(edge_rows) == reference.normalize_labels(edge_rows)
            if len(case) == 1:
                assert (error is None) == (case == ("none",)), (case, fmt, error)
