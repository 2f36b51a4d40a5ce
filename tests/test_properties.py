"""Cross-cutting engine properties: fuzzing over random dependency trees,
format equivalence of the two ingest formats, malformed-input fuzzing of the
parse, gold and eval readers, rule-set monotonicity, rules that share a
registry function and output determinism."""

import json
import random
import re

from hypothesis import example, given, strategies as st

from conftest import load_fixture_corpus
from presup.cli import _read_inference_file, _read_labels_file
from presup.corpus import parse_gold, preprocess
from presup.errors import FormatError, ParseError
from presup.ingest import (
    DependencyEdge,
    Token,
    build_headline,
    parse_conllu,
    parse_stanford_json,
    to_stanford_json,
)
from presup.lexicon import TriggerLexicon, default_lexicon
from presup.rules import DEFAULT_RULES, EngineConfig, RULE_IDS, generate_all, infer_all

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


def test_fuzz_no_empty_inferences_and_valid_spans():
    rng = random.Random(20380119)
    for _ in range(1000):
        h = random_parse(rng)
        p = preprocess(h.raw_text)
        for inf in infer_all(h, p, ALL_RULES_CFG):
            assert inf.text.strip(), h.raw_text
            assert inf.span, h.raw_text
            assert all(1 <= i <= len(h.tokens) for i in inf.span)


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
