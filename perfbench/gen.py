"""Seeded corpus generator for the benchmark.

Imports nothing from ``presup``: the fixture trees and word pools are a
snapshot in ``data/snapshot.json``, so no change to the package or its data
can change the benchmark's inputs.  One seed gives one corpus:

* the dataset (``Headline [source: ...]`` lines),
* the same dependency trees as Stanford JSON Lines and as CoNLL-U,
* eval inputs (gold with ``@trigger`` tags, inferences JSONL, labels JSONL)
  built from the benchmark's own templates, never from ``presup infer``,
  together with the per-headline scores the eval report must contain,
* independent expectations for the infer outputs: the documented fixture
  inferences and the ``compound`` / ``nmod_of`` outputs of every tree.

Duplicate headline texts are kept as they fall.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

SNAPSHOT = json.loads((Path(__file__).parent / "data" / "snapshot.json").read_text("utf-8"))

_FIXTURES = SNAPSHOT["fixtures"]

# Percent of generated headlines that re-lexicalise a fixture tree; the rest
# are random trees.  The 19 fixtures themselves are embedded verbatim once each.
# This share, the verb pools' mix, the dependency labels and the random
# attachment of random trees are assumptions (see README.md).
RELEX_PERCENT = 45

_MONTHS = ("January February March April May June July August September "
           "October November December").split()

# Random trees follow the 19 real fixture headlines: their tags, lengths and
# shares of questions and quoted runs are dealt from these counts.
_OPENING_QUOTE = re.compile(r"(?:^|\s)[\"'‘“]\w")
_TAG_WEIGHTS = sorted(Counter(pos for fx in _FIXTURES for _, pos in fx["tokens"]).items())
_SIZE_WEIGHTS = sorted(Counter(len(fx["tokens"]) for fx in _FIXTURES).items())
_QUESTIONS = sum("?" in fx["line"] for fx in _FIXTURES)
_QUOTED = sum(bool(_OPENING_QUOTE.search(fx["line"])) for fx in _FIXTURES)

# Closed-class words: those of the fixtures plus the rules' trigger words
# (again, further, but, will, of, temporal prepositions), so the rules fire.
_FUNCTION_WORDS = {
    "RB": ["again", "further", "not", "now", "also", "still"],
    "IN": ["of", "before", "after", "while", "when", "during"],
    "MD": ["will", "can", "may"],
    "CC": ["but"],
}
for _fx in _FIXTURES:
    for _surface, _pos in _fx["tokens"]:
        if not _pos.startswith(("N", "V", "J")):
            _FUNCTION_WORDS.setdefault(_pos, []).append(_surface.lower())
_WH_WORDS = ["What", "Who", "How", "Where", "When"]
_VERB_TAGS = {"VB": 0, "VBP": 0, "VBD": 1, "VBN": 2, "VBZ": 3, "VBG": 4}
_UPOS = {"N": "NOUN", "V": "VERB", "J": "ADJ", "R": "ADV", "I": "ADP", "D": "DET",
         "M": "AUX", "C": "CCONJ", "T": "PART", "P": "PRON", "W": "PRON"}


@dataclass
class Tree:
    text: str
    tokens: list  # [(surface, pos)], index = position + 1
    edges: list  # [(dep, governor, dependent)]
    fixture: str | None = None


@dataclass
class Corpus:
    seed: int
    trees: list
    fixture_lines: dict = field(default_factory=dict)  # fixture id -> 1-based line


# ---------------------------------------------------------------- trees


class _Rng(random.Random):
    """``random.Random`` plus ``deal``, which draws from a named deck without
    replacement and reshuffles the deck when it runs out.

    Tree kinds, fixtures, sizes, tags and verb pools are dealt, so every
    seed's corpus has the same mix and seeds vary the arrangement and the
    words, not the amount of work per headline."""

    def __init__(self, seed):
        super().__init__(seed)
        self.hands = {}

    def deal(self, deck, weighted):
        hand = self.hands.setdefault(deck, [])
        if not hand:
            hand.extend(item for item, weight in weighted for _ in range(weight))
            self.shuffle(hand)
        return hand.pop()


def _noun(rng, pos):
    if pos.startswith("NNP"):
        return rng.choice(SNAPSHOT["proper_nouns"])
    word = rng.choice(SNAPSHOT["nouns"])
    if pos == "NNS" and not word.endswith("s"):
        word += "s"
    return word


def _verb(rng, pos):
    pools = SNAPSHOT["verbs"]
    pool = pools[rng.deal("verb pool", [("irregular", 1), ("lexicon", 2), ("regular", 1)])]
    return rng.choice(pool)[_VERB_TAGS.get(pos, 0)]


def _word_for(rng, pos):
    if pos.startswith("N"):
        return _noun(rng, pos)
    if pos.startswith("V"):
        return _verb(rng, pos)
    if pos == "JJ":
        return rng.choice(SNAPSHOT["adjectives"])
    return rng.choice(_FUNCTION_WORDS[pos])


def _relexicalise(rng, fixture) -> Tree:
    tokens = []
    for surface, pos in fixture["tokens"]:
        if pos.startswith(("N", "V", "J")):
            surface = _word_for(rng, pos)
        tokens.append((surface, pos))
    text = " ".join(s for s, _ in tokens)
    if "?" in fixture["line"]:
        text += "?"
    return Tree(_decorate(rng, text), tokens, [tuple(e) for e in fixture["edges"]])


def _label(rng, gov_pos, dep_pos):
    """A dependency label plausible for the (governor, dependent) tag pair,
    with legacy/UD spellings mixed in so label normalization has work."""
    g, d = gov_pos[:1], dep_pos
    if d == "MD":
        return "aux"
    if d == "RB":
        return rng.choice(["advmod", "advmod", "neg"])
    if d in ("IN", "TO"):
        return rng.choice(["case", "case", "mark"])
    if d == "DT":
        return "det"
    if d == "CC":
        return "cc"
    if d == "POS":
        return "case"
    if d == "JJ":
        return rng.choice(["amod", "amod", "xcomp"])
    if d.startswith(("N", "P", "C")):
        if g == "V":
            return rng.choice(["nsubj", "nsubj", "dobj", "obj", "nmod", "obl"])
        return rng.choice(["compound", "compound", "nn", "nmod", "nmod", "conj", "dep"])
    if d.startswith("V"):
        if g == "V":
            return rng.choice(["xcomp", "ccomp", "conj", "advcl", "dep"])
        return rng.choice(["acl", "dep", "conj"])
    return "dep"


def _random_tree(rng) -> Tree:
    n = rng.deal("size", _SIZE_WEIGHTS)
    tags = [rng.deal("tag", _TAG_WEIGHTS) for _ in range(n)]
    words = [_word_for(rng, t) for t in tags]
    question = rng.deal("question", [(True, _QUESTIONS), (False, len(_FIXTURES) - _QUESTIONS)])
    if question:
        tags[0], words[0] = "WP", rng.choice(_WH_WORDS)
    # Prefer a verb, else a noun, as the root; attach the rest in random order.
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for preferred in ("V", "N"):
        heads = [i for i in order if tags[i - 1].startswith(preferred)]
        if heads:
            order.remove(heads[0])
            order.insert(0, heads[0])
            break
    edges = [("root", 0, order[0])]
    for position in range(1, n):
        node = order[position]
        parent = order[rng.randrange(position)]
        edges.append((_label(rng, tags[parent - 1], tags[node - 1]), parent, node))
    edges.sort(key=lambda e: e[2])
    text = " ".join(words) + ("?" if question else "")
    return Tree(_decorate(rng, text), list(zip(words, tags)), edges)


def _decorate(rng, text):
    """Wrap a run of three or more words in double quotes as often as the
    fixtures quote something."""
    words = text.split(" ")
    quoted = [(True, _QUOTED), (False, len(_FIXTURES) - _QUOTED)]
    if len(words) >= 4 and rng.deal("quotes", quoted):
        start = rng.randrange(len(words) - 2)
        end = rng.randrange(start + 2, len(words))
        words[start] = '"' + words[start]
        words[end] = words[end] + '"'
    return " ".join(words)


def validate_tree(t: Tree) -> None:
    """Raise ValueError unless the edges form one rooted tree over the tokens."""
    n = len(t.tokens)
    heads = {}
    for dep, gov, dependent in t.edges:
        if not 1 <= dependent <= n or not 0 <= gov <= n or gov == dependent:
            raise ValueError(f"bad edge {(dep, gov, dependent)} in {t.text!r}")
        if dependent in heads:
            raise ValueError(f"token {dependent} has two heads in {t.text!r}")
        if (dep == "root") != (gov == 0):
            raise ValueError(f"root edge mismatch in {t.text!r}")
        heads[dependent] = gov
    if len(heads) != n or sum(1 for g in heads.values() if g == 0) != 1:
        raise ValueError(f"not a single-rooted tree: {t.text!r}")
    for start in heads:
        seen, node = set(), start
        while node:
            if node in seen:
                raise ValueError(f"cycle in {t.text!r}")
            seen.add(node)
            node = heads[node]
    for surface, pos in t.tokens:
        if not surface or not pos or any(c.isspace() for c in surface):
            raise ValueError(f"bad token {surface!r}/{pos!r} in {t.text!r}")


def generate(seed: int, size: int) -> Corpus:
    """``size`` headlines (at least the 19 fixtures) for ``seed``."""
    rng = _Rng(seed)
    fixtures = _FIXTURES
    kinds = [(True, RELEX_PERCENT), (False, 100 - RELEX_PERCENT)]
    fixture_deck = [(i, 1) for i in range(len(fixtures))]
    trees = []
    for _ in range(max(0, size - len(fixtures))):
        if rng.deal("kind", kinds):
            trees.append(_relexicalise(rng, fixtures[rng.deal("fixture", fixture_deck)]))
        else:
            trees.append(_random_tree(rng))
    corpus = Corpus(seed=seed, trees=trees)
    for fx in fixtures:
        pos = rng.randint(0, len(trees))
        text = fx["line"][: fx["line"].rfind("[source:")].strip()
        trees.insert(pos, Tree(text, [tuple(t) for t in fx["tokens"]],
                               [tuple(e) for e in fx["edges"]], fixture=fx["id"]))
    for t in trees:
        validate_tree(t)
    corpus.fixture_lines = {t.fixture: i for i, t in enumerate(trees, 1) if t.fixture}
    return corpus


# ---------------------------------------------------------------- formats


def dataset_text(corpus: Corpus) -> str:
    rng = random.Random(corpus.seed * 7919 + 1)
    fixture_line = {fx["id"]: fx["line"] for fx in _FIXTURES}
    lines = []
    for t in corpus.trees:
        if t.fixture:
            lines.append(fixture_line[t.fixture])
            continue
        stamp = (f"{rng.choice(_MONTHS)} {rng.randint(1, 28):02d}, {rng.randint(2014, 2019)} "
                 f"{rng.randint(1, 12):02d}:{rng.choice(['00', '30'])} "
                 f"{rng.choice(['AM', 'PM'])} IST")
        lines.append(f"{t.text} [source: {rng.choice(SNAPSHOT['sources'])} {stamp}]")
    return "\n".join(lines) + "\n"


def stanford_jsonl(corpus: Corpus) -> str:
    lines = []
    for i, t in enumerate(corpus.trees, 1):
        words = {k: s for k, (s, _) in enumerate(t.tokens, 1)}
        obj = {
            "sent_id": str(i),
            "headline": t.text,
            "tokens": [{"index": k, "word": s, "pos": p} for k, (s, p) in enumerate(t.tokens, 1)],
            "dependencies": [
                {"dep": dep, "governor": gov, "governorGloss": "ROOT" if gov == 0 else words[gov],
                 "dependent": d, "dependentGloss": words[d]}
                for dep, gov, d in t.edges
            ],
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def conllu(corpus: Corpus) -> str:
    out = []
    for i, t in enumerate(corpus.trees, 1):
        head = {d: (dep, gov) for dep, gov, d in t.edges}
        out.append(f"# sent_id = {i}")
        out.append(f"# text = {t.text}")
        for k, (s, p) in enumerate(t.tokens, 1):
            dep, gov = head[k]
            out.append("\t".join([str(k), s, "_", _UPOS.get(p[0], "X"), p, "_",
                                  str(gov), dep, "_", "_"]))
        out.append("")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- expectations


_COMPOUND = {"compound", "nn"}
_NMOD = {"nmod", "obl"}


def oracle_compound_nmod_of(t: Tree) -> list:
    """(trigger, text, span) of the ``compound`` then ``nmod_of`` rules for one
    tree, each rule's output ordered by span, before deduplication."""
    word = {k: s for k, (s, _) in enumerate(t.tokens, 1)}
    noun = {k: p.startswith("N") for k, (_, p) in enumerate(t.tokens, 1)}
    compound, nmod_of = [], []
    for dep, gov, d in t.edges:  # only the root edge has governor 0
        if dep in _COMPOUND and noun[gov] and noun[d]:
            compound.append(("compound", f"{word[d]} can be/can have {word[gov]}", sorted((gov, d))))
        if dep in _NMOD:
            cases = [c for c_dep, c_gov, c in t.edges
                     if c_gov == d and c_dep == "case" and word[c].lower() == "of"]
            if cases:
                nmod_of.append(("nmod_of", f"{word[d]} has {word[gov]}", sorted({gov, d, cases[0]})))
    compound.sort(key=lambda x: x[2])
    nmod_of.sort(key=lambda x: x[2])
    return compound + nmod_of


def documented_expectations(corpus: Corpus, rules=None) -> list:
    """(line, trigger, text) for each documented fixture inference whose rule
    is in ``rules`` (every rule when None)."""
    return [
        (corpus.fixture_lines[fid], trigger, text)
        for fid, trigger, text in SNAPSHOT["expected"]
        if rules is None or trigger in rules
    ]


# ---------------------------------------------------------------- eval inputs


_SYLLABLES = ("ba be bo da de do fa fe ka ke ko la le lo ma me mo na ne no pa pe "
              "po ra re ro sa se so ta te to va ve vo za ze zo").split()
_EVAL_WORDS = sorted({a + b + c for a in _SYLLABLES for b in _SYLLABLES[:12] for c in ("", "n", "r", "s")})
_EVAL_TRIGGERS = ["future", "but", "again", "compound", "past", "nmod_of",
                  "lexical.factive", "lexical.judging", "temporal", "quotes", "triple"]
_PUNCT_KEY = re.compile(r"[.,!?;:()‘\"“”]")


def norm_key(text: str) -> str:
    """Approximation of the evaluator's headline key for this generator's
    texts: lowercase, hyphens split words, punctuation and edge apostrophes
    dropped."""
    s = _PUNCT_KEY.sub("", re.sub(r"[-–—]", " ", text.lower()))
    s = re.sub(r"(?<![0-9a-z])['’]|['’](?![0-9a-z])", "", s)
    return " ".join(s.split())


def _phrase(words, rng):
    n = rng.randint(5, 8)
    return [words.pop() for _ in range(n)]


def _restyle(words, rng):
    """The same normalized text, written differently."""
    out = list(words)
    style = rng.randrange(4)
    if style == 0:
        out[0] = out[0].capitalize()
        out[-1] += "."
    elif style == 1:
        k = rng.randrange(len(out) - 1)
        out[k:k + 2] = [out[k] + "-" + out[k + 1]]
    elif style == 2:
        out = [w.upper() if i % 2 else w for i, w in enumerate(out)]
    else:
        out[1] = '"' + out[1] + '"'
    return " ".join(out)


def _eval_record(headline: str, key: str, seed: int):
    """Gold, computed and labels for one headline, and its expected counts.

    Every inference uses words no other inference of the headline uses, so the
    greedy alignment can only pair what the fate below pairs."""
    rng = random.Random(f"{seed}:{key}")
    words = rng.sample(_EVAL_WORDS, 140)
    gold, computed, matched_pairs, incorrect = [], [], [], []
    matched = 0
    for _ in range(rng.randint(1, 6)):
        g = _phrase(words, rng)
        trigger = rng.choice(_EVAL_TRIGGERS)
        fate = rng.choices(["exact", "can", "near", "judged", "missing"], [30, 8, 25, 15, 22])[0]
        if fate == "can":
            g = g[:2] + ["can", "be/can", "have"] + g[2:4]
            c_text = " ".join(g[:2] + ["can", "have"] + g[5:])
        elif fate == "exact":
            c_text = _restyle(g, rng)
        elif fate == "near":
            c = list(g)
            c[rng.randrange(len(c))] = words.pop()
            c_text = " ".join(c)
        elif fate == "judged":
            c_text = " ".join(_phrase(words, rng))
            matched_pairs.append([" ".join(g), c_text])
        tag = f" @{trigger}" if rng.random() < 0.8 else ""
        gold.append(" ".join(g) + tag)
        if fate != "missing":
            matched += 1
            computed.append(c_text)
    for _ in range(rng.randint(0, 3)):
        computed.append(" ".join(_phrase(words, rng)))
        if rng.random() < 0.5:
            incorrect.append(computed[-1])
    rng.shuffle(computed)
    inferences = [{"kind": rng.choice([">>", ">>", "~=", "triple"]), "text": c,
                   "trigger": rng.choice(_EVAL_TRIGGERS), "span": sorted(rng.sample(range(1, 12), 2))}
                  for c in computed]
    expected = {
        "headline": headline,
        "gold": len(gold),
        "computed": len(computed),
        "matched": matched,
        "incorrect": len(incorrect),
        "percent_correct": round(matched / len(gold) * 100.0, 1),
        "percent_incorrect": round(len(incorrect) / len(computed) * 100.0, 1) if computed else 0.0,
    }
    labels = {"headline": headline, "incorrect": incorrect, "matched": matched_pairs}
    return gold, {"headline": headline, "inferences": inferences}, labels, expected


def eval_inputs(corpus: Corpus) -> tuple[str, str, str, list]:
    """(gold, inferences JSONL, labels JSONL, expected report rows).

    Headlines whose keys collide get identical records, so the evaluator's
    keying by normalized text cannot change the expected scores."""
    gold_lines, inf_lines, label_lines, expected = [], [], [], []
    for t in corpus.trees:
        key = norm_key(t.text)
        gold, inferences, labels, row = _eval_record(t.text, key, corpus.seed)
        gold_lines += [t.text] + [f">> {g}" for g in gold] + ["||"]
        inf_lines.append(json.dumps(inferences, ensure_ascii=False))
        label_lines.append(json.dumps(labels, ensure_ascii=False))
        expected.append(row)
    return ("\n".join(gold_lines) + "\n", "\n".join(inf_lines) + "\n",
            "\n".join(label_lines) + "\n", expected)


def write_inputs(corpus: Corpus, out_dir: Path) -> tuple[dict, list]:
    """Write every input file for ``corpus``; returns their paths by role and
    the expected eval report rows."""
    out_dir.mkdir(parents=True, exist_ok=True)
    gold, inferences, labels, expected = eval_inputs(corpus)
    paths = {
        "dataset": out_dir / "headlines.txt",
        "stanford": out_dir / "parses.jsonl",
        "conllu": out_dir / "parses.conllu",
        "gold": out_dir / "gold.txt",
        "inferences": out_dir / "inferences.jsonl",
        "labels": out_dir / "labels.jsonl",
    }
    paths["dataset"].write_text(dataset_text(corpus), "utf-8")
    paths["stanford"].write_text(stanford_jsonl(corpus), "utf-8")
    paths["conllu"].write_text(conllu(corpus), "utf-8")
    paths["gold"].write_text(gold, "utf-8")
    paths["inferences"].write_text(inferences, "utf-8")
    paths["labels"].write_text(labels, "utf-8")
    return paths, expected
