import json

import pytest
from hypothesis import given, strategies as st

from conftest import make_headline, to_stanford_json
from presup.cli import load_parses
from presup.errors import ConsistencyError, ParseError
from presup.ingest import (
    DependencyEdge,
    Token,
    is_noun_tag,
    normalize_labels,
    nouns_of,
    parse_conllu,
    parse_stanford_json,
    verbs_of,
)

RESCUE_CONLLU = """\
# sent_id = rescue
# text = Rescue rules by Bank of England will divide Britain
1\tRescue\t_\tNOUN\tNN\t_\t2\tcompound\t_\t_
2\trules\t_\tNOUN\tNNS\t_\t8\tnsubj\t_\t_
3\tby\t_\tADP\tIN\t_\t4\tcase\t_\t_
4\tBank\t_\tPROPN\tNNP\t_\t2\tnmod\t_\t_
5\tof\t_\tADP\tIN\t_\t6\tcase\t_\t_
6\tEngland\t_\tPROPN\tNNP\t_\t4\tnmod\t_\t_
7\twill\t_\tAUX\tMD\t_\t8\taux\t_\t_
8\tdivide\t_\tVERB\tVB\t_\t0\troot\t_\t_
9\tBritain\t_\tPROPN\tNNP\t_\t8\tobj\t_\t_
"""


def edge_tuples(h):
    return {(e.dep, e.governor_gloss, e.dependent_gloss) for e in h.edges}


class TestParseConllu:
    def test_empty_document(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_rescue_rules_tuples(self):
        (h,) = parse_conllu(RESCUE_CONLLU)
        assert h.headline_id == "rescue"
        assert edge_tuples(h) >= {
            ("nmod", "rules", "Bank"),
            ("case", "England", "of"),
            ("nmod", "Bank", "England"),
            ("aux", "divide", "will"),
            ("dobj", "divide", "Britain"),  # obj normalized to dobj
        }
        assert [t.pos for t in h.tokens] == [
            "NN", "NNS", "IN", "NNP", "IN", "NNP", "MD", "VB", "NNP",
        ]

    def test_dangling_head_is_error(self):
        doc = "\n".join(
            f"{i}\tw{i}\t_\t_\tNN\t_\t{head}\t{'root' if head == 0 else 'dep'}\t_\t_"
            for i, head in [(1, 2), (2, 0), (3, 2), (4, 2), (5, 99)]
        )
        with pytest.raises(ParseError, match="99"):
            parse_conllu(doc)

    def test_wrong_column_count_names_line(self):
        doc = "1\tword\t_\tNOUN\tNN\t_\t0\troot\t_\t_\n2\tbad\tline\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_conllu(doc)

    def test_non_integer_head(self):
        doc = "1\tword\t_\tNOUN\tNN\t_\tx\troot\t_\t_\n"
        with pytest.raises(ParseError, match="non-integer head"):
            parse_conllu(doc)

    # int() would take a sign, spaces, underscores and other scripts' digits.
    @pytest.mark.parametrize("head", ["0_0", "+1", " 1", "1 ", "-1", "\u0661", ""])
    def test_head_must_be_ascii_digits(self, head):
        doc = f"1\tgo\t_\t_\tVB\t_\t0\troot\t_\t_\n2\tnow\t_\t_\tRB\t_\t{head}\tdep\t_\t_\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(doc, "s.conllu")
        assert str(exc.value) == f"s.conllu:2: non-integer head {head!r}"

    @pytest.mark.parametrize("tid", ["+1", "1_", "\u0661"])
    def test_token_id_must_be_ascii_digits(self, tid):
        doc = f"{tid}\tgo\t_\t_\tVB\t_\t0\troot\t_\t_\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(doc, "s.conllu")
        assert str(exc.value) == f"s.conllu:1: non-integer token id {tid!r}"

    # Only N-M (a multi-word token) and N.M (an empty node) are skipped.
    @pytest.mark.parametrize("tid", ["-2", "2.", "1-", ".1", "a-b", "1-2-3", "1.1.1", "1.-1",
                                     "1-\u0662", "\u0661.1", " 1-2", "1-2 "])
    def test_malformed_range_or_decimal_id_is_an_error(self, tid):
        doc = f"1\tBank\t_\t_\tNN\t_\t0\troot\t_\t_\n{tid}\tcuts\t_\t_\tVBZ\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(doc, "s.conllu")
        assert str(exc.value) == f"s.conllu:2: non-integer token id {tid!r}"

    def test_leading_zeros_and_large_ids_are_integers(self):
        rows = ["001\tw\t_\t_\tNN\t_\t0\troot\t_\t_"]
        rows += [f"{i}\tw\t_\t_\tNN\t_\t01\tdep\t_\t_" for i in range(2, 301)]
        (h,) = parse_conllu("\n".join(rows) + "\n")
        assert [t.index for t in h.tokens] == list(range(1, 301))
        assert [e.governor for e in h.edges] == [0] + [1] * 299

    def test_sentence_error_names_its_first_line(self):
        doc = (
            "1\tgo\t_\t_\tVB\t_\t0\troot\t_\t_\n\n"
            "# sent_id = two\n"
            "1\tgo\t_\t_\tVB\t_\t2\tdep\t_\t_\n"
            "2\tnow\t_\t_\tRB\t_\t1\tadvmod\t_\t_\n"
        )
        with pytest.raises(ConsistencyError) as exc:
            parse_conllu(doc)
        assert str(exc.value) == "line 3: two: expected one root edge, got 0"
        with pytest.raises(ConsistencyError) as exc:
            parse_conllu(doc, "p.conllu")
        assert str(exc.value) == "p.conllu:3: two: expected one root edge, got 0"

    def test_multiword_and_empty_nodes_skipped(self):
        doc = (
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdo\t_\tAUX\tMD\t_\t2\taux\t_\t_\n"
            "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tgo\t_\tVERB\tVB\t_\t0\troot\t_\t_\n"
        )
        (h,) = parse_conllu(doc)
        assert [t.surface for t in h.tokens] == ["do", "go"]

    # The range is checked when the sentence ends, against its last token
    # ID, and named at its own row, before the sentence's other checks.
    @pytest.mark.parametrize("tid", ["3-1", "2-2", "0-1", "7-9", "2-4", "00-1"])
    def test_multiword_range_must_lie_within_the_sentence(self, tid):
        doc = (
            "1\tBank\t_\t_\tNN\t_\t0\troot\t_\t_\n"
            f"{tid}\tcuts\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tcuts\t_\t_\tVBZ\t_\t1\tdep\t_\t_\n"
            "3\trates\t_\t_\tNNS\t_\t9\tdobj\t_\t_\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_conllu(doc, "s.conllu")
        assert str(exc.value) == (
            f"s.conllu:2: multi-word token {tid!r} is not a range N-M with"
            " 1 <= N < M <= 3, the sentence's last token id"
        )

    def test_multiword_range_in_a_sentence_without_tokens(self):
        doc = "1\tgo\t_\t_\tVB\t_\t0\troot\t_\t_\n\n# text = x\n1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(doc)
        assert str(exc.value) == (
            "line 4: multi-word token '1-2' is not a range N-M with"
            " 1 <= N < M <= 0, the sentence's last token id"
        )

    def test_multiword_range_ending_at_the_last_token_is_skipped(self):
        doc = (
            "1\tgo\t_\t_\tVB\t_\t0\troot\t_\t_\n"
            "2-3\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tdo\t_\t_\tMD\t_\t1\tdep\t_\t_\n"
            "3\tnot\t_\t_\tRB\t_\t1\tneg\t_\t_\n"
        )
        (h,) = parse_conllu(doc)
        assert [t.surface for t in h.tokens] == ["go", "do", "not"]

    @pytest.mark.parametrize("sent_id", ["s1", None])
    def test_comment_keys_match_exactly(self, sent_id):
        """UD treebanks carry text_en and similar keys next to text and sent_id."""
        doc = (
            (f"# sent_id = {sent_id}\n" if sent_id else "")
            + "# sent_id_orig = zz\n"
            "# text = Markets crashed\n"
            "# text_en = Something else entirely\n"
            "#textual = no\n"
            "1\tMarkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            "2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n"
        )
        (h,) = parse_conllu(doc)
        assert h.raw_text == "Markets crashed"
        assert h.headline_id == (sent_id or "Markets crashed")

    @pytest.mark.parametrize("key", ["sent_id", "text"])
    def test_sent_id_or_text_inside_a_sentence_is_error(self, key):
        """With no blank line between two sentences, the second one's
        comment would rename the first: it is an error at its line.  Other
        comments inside a sentence are still ignored."""
        rows = "1\tHello\t_\tINTJ\tUH\t_\t0\troot\t_\t_\n# text_en = Hi\n"
        doc = f"# sent_id = s1\n# text = Hello world\n{rows}# {key} = 2\n"
        with pytest.raises(ParseError) as exc:
            parse_conllu(doc, "p.conllu")
        assert str(exc.value) == (
            f"p.conllu:5: '# {key}' line inside sentence s1; "
            "a blank line must end the sentence first"
        )
        # A sentence without a sent_id is named by its position.
        with pytest.raises(ParseError) as exc:
            parse_conllu(f"{rows}\n{rows}# {key} = 2\n")
        assert str(exc.value) == (
            f"line 6: '# {key}' line inside sentence 2; a blank line must end the sentence first"
        )

    def test_upos_fallback_when_xpos_missing(self):
        doc = (
            "1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\trun\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        )
        (h,) = parse_conllu(doc)
        assert [t.pos for t in h.tokens] == ["NN", "VB"]


FIG7_JSON = {
    "headline": "Bank of England plans rescue",
    "tokens": [
        {"index": 1, "word": "Bank", "pos": "NNP"},
        {"index": 2, "word": "of", "pos": "IN"},
        {"index": 3, "word": "England", "pos": "NNP"},
        {"index": 4, "word": "plans", "pos": "VBZ"},
        {"index": 5, "word": "rescue", "pos": "NN"},
    ],
    "dependencies": [
        {"dep": "nsubj", "governor": 4, "governorGloss": "plans", "dependent": 1, "dependentGloss": "Bank"},
        {"dep": "case", "governor": 3, "governorGloss": "England", "dependent": 2, "dependentGloss": "of"},
        {"dep": "nmod", "governor": 1, "governorGloss": "Bank", "dependent": 3, "dependentGloss": "England"},
        {"dep": "root", "governor": 0, "governorGloss": "ROOT", "dependent": 4, "dependentGloss": "plans"},
        {"dep": "dobj", "governor": 4, "governorGloss": "plans", "dependent": 5, "dependentGloss": "rescue"},
    ],
}


class TestParseStanfordJson:
    def test_tuple_fields_kept_verbatim(self):
        h = parse_stanford_json(json.dumps(FIG7_JSON))
        (dobj,) = [e for e in h.edges if e.dep == "dobj"]
        assert (dobj.governor, dobj.governor_gloss) == (4, "plans")
        assert (dobj.dependent, dobj.dependent_gloss) == (5, "rescue")

    def test_round_trip(self):
        h = parse_stanford_json(json.dumps(FIG7_JSON))
        again = parse_stanford_json(json.dumps(to_stanford_json(h)))
        assert again.tokens == h.tokens
        assert again.edges == h.edges

    def test_missing_key_named(self):
        broken = json.loads(json.dumps(FIG7_JSON))
        del broken["dependencies"][0]["governorGloss"]
        with pytest.raises(ParseError, match="governorGloss"):
            parse_stanford_json(broken)

    @pytest.mark.parametrize("mutate, complaint", [
        (lambda o: o.update(tokens=[1]), "token 1: expected a JSON object, got int"),
        (lambda o: o.update(tokens="abc"), "headline object: key 'tokens' must be a list"),
        (lambda o: o.update(dependencies=5), "headline object: key 'dependencies' must be a list"),
        (lambda o: o.pop("tokens"), "headline object: missing key 'tokens'"),
        (lambda o: o.pop("headline"), "headline object: missing key 'headline'"),
        (lambda o: o["tokens"][2].pop("pos"), "token 3: missing key 'pos'"),
        (lambda o: o["tokens"][1].update(index=[2]), "token 2: key 'index' must be an integer, got [2]"),
        (lambda o: o["dependencies"][3].update(governor="x"),
         "dependency 4: key 'governor' must be an integer, got 'x'"),
        (lambda o: o["dependencies"][0].update(dependent=float("inf")),
         "dependency 1: key 'dependent' must be an integer, got inf"),
        (lambda o: o["dependencies"].append(None), "dependency 6: expected a JSON object, got NoneType"),
        # int() would truncate a float and take a boolean as 0 or 1.
        (lambda o: o["dependencies"][1].update(governor=2.9),
         "dependency 2: key 'governor' must be an integer, got 2.9"),
        (lambda o: o["dependencies"][1].update(dependent=3.0),
         "dependency 2: key 'dependent' must be an integer, got 3.0"),
        (lambda o: o["tokens"][0].update(index=True), "token 1: key 'index' must be an integer, got True"),
        # A digit string must be ASCII digits only.
        (lambda o: o["dependencies"][1].update(governor="+2"),
         "dependency 2: key 'governor' must be an integer, got '+2'"),
        (lambda o: o["tokens"][1].update(index=" 2"), "token 2: key 'index' must be an integer, got ' 2'"),
        (lambda o: o["tokens"][1].update(index="\u0662"),
         "token 2: key 'index' must be an integer, got '\u0662'"),
    ])
    def test_malformed_record_named(self, mutate, complaint):
        broken = json.loads(json.dumps(FIG7_JSON))
        mutate(broken)
        for document in (broken, json.dumps(broken)):
            with pytest.raises(ParseError) as exc:
                parse_stanford_json(document)
            assert str(exc.value) == complaint

    @pytest.mark.parametrize("value", [None, True, 7, [], {}], ids=repr)
    @pytest.mark.parametrize("where, key, complaint", [
        ("headline", "headline", "headline object"),
        ("tokens", "word", "token 2"),
        ("tokens", "pos", "token 2"),
        ("dependencies", "dep", "dependency 2"),
        ("dependencies", "governorGloss", "dependency 2"),
        ("dependencies", "dependentGloss", "dependency 2"),
    ])
    def test_text_that_is_not_a_string_named(self, where, key, complaint, value):
        """str() would read null as 'None', so a word and its gloss given
        null would both read 'None' and agree."""
        broken = json.loads(json.dumps(FIG7_JSON))
        (broken if where == "headline" else broken[where][1])[key] = value
        for document in (broken, json.dumps(broken)):
            with pytest.raises(ParseError) as exc:
                parse_stanford_json(document)
            assert str(exc.value) == f"{complaint}: key {key!r} must be a string, got {value!r}"

    @pytest.mark.parametrize("key", ["sent_id", "id"])
    def test_integer_ids_are_read_as_text(self, key):
        h = parse_stanford_json({**FIG7_JSON, key: 7})
        assert h.headline_id == "7"

    @pytest.mark.parametrize("ids, hid", [
        ({"sent_id": 0}, "0"),
        ({"id": 0}, "0"),
        ({"sent_id": 0, "id": "b"}, "0"),
        ({"sent_id": None, "id": 0}, "0"),
        ({"sent_id": "", "id": "b"}, "b"),
        ({"sent_id": None, "id": ""}, "Bank of England plans rescue"),
        ({}, "Bank of England plans rescue"),
    ])
    def test_id_is_the_first_string_or_integer_given(self, ids, hid):
        """0 is an id; a key that is absent, null or "" gives none, and
        without one the headline is the id."""
        assert parse_stanford_json({**FIG7_JSON, **ids}).headline_id == hid

    @pytest.mark.parametrize("key", ["sent_id", "id"])
    @pytest.mark.parametrize("value", [True, False, 1.5, 0.0, float("nan"), [1], {}], ids=repr)
    def test_id_that_is_neither_a_string_nor_an_integer_named(self, tmp_path, key, value):
        """str() would read true as 'True' and [1] as '[1]'.  The reader
        names the key, and ``load_parses`` the record's line."""
        complaint = f"key {key!r} must be a string or an integer, got {value!r}"
        broken = {**FIG7_JSON, key: value}
        for document in (broken, json.dumps(broken)):
            with pytest.raises(ParseError) as exc:
                parse_stanford_json(document)
            assert str(exc.value) == f"headline object: {complaint}"
        path = tmp_path / "parses.jsonl"
        path.write_text(json.dumps(FIG7_JSON) + "\n" + json.dumps(broken) + "\n")
        with pytest.raises(ParseError) as exc:
            load_parses(str(path))
        assert str(exc.value) == f"{path}:2: headline object: {complaint}"

    def test_digit_string_keys_are_integers(self):
        as_strings = json.loads(json.dumps(FIG7_JSON))
        for t in as_strings["tokens"]:
            t["index"] = str(t["index"])
        for d in as_strings["dependencies"]:
            d["governor"], d["dependent"] = str(d["governor"]), str(d["dependent"])
        h = parse_stanford_json(as_strings)
        assert h == parse_stanford_json(json.dumps(FIG7_JSON))

    def test_gloss_mismatch_is_consistency_error(self):
        broken = json.loads(json.dumps(FIG7_JSON))
        broken["tokens"][3]["word"] = "divides"
        with pytest.raises(ConsistencyError):
            parse_stanford_json(broken)

    def test_no_root_edge_is_consistency_error(self):
        with pytest.raises(ConsistencyError):
            parse_stanford_json(
                {
                    "headline": "X",
                    "tokens": [{"index": 1, "word": "X", "pos": "NN"}],
                    "dependencies": [],
                }
            )

    def test_cycle_is_consistency_error(self):
        with pytest.raises(ConsistencyError):
            parse_stanford_json(
                {
                    "headline": "a b c",
                    "tokens": [
                        {"index": 1, "word": "a", "pos": "NN"},
                        {"index": 2, "word": "b", "pos": "NN"},
                        {"index": 3, "word": "c", "pos": "NN"},
                    ],
                    "dependencies": [
                        {"dep": "root", "governor": 0, "governorGloss": "ROOT", "dependent": 1, "dependentGloss": "a"},
                        {"dep": "dep", "governor": 3, "governorGloss": "c", "dependent": 2, "dependentGloss": "b"},
                        {"dep": "dep", "governor": 2, "governorGloss": "b", "dependent": 3, "dependentGloss": "c"},
                    ],
                }
            )

    @pytest.mark.parametrize("indices", [(2, 1, 3), (7, 9, 3), (1, 1, 3)])
    def test_index_not_position_is_consistency_error(self, indices):
        words = [("rejected", "VBD"), ("Britain", "NNP"), ("plan", "NN")]
        with pytest.raises(ConsistencyError, match="index"):
            parse_stanford_json(
                {
                    "headline": "rejected Britain plan",
                    "tokens": [
                        {"index": i, "word": w, "pos": pos}
                        for i, (w, pos) in zip(indices, words)
                    ],
                    "dependencies": [
                        {"dep": "root", "governor": 0, "governorGloss": "ROOT", "dependent": 1, "dependentGloss": "rejected"},
                        {"dep": "compound", "governor": 3, "governorGloss": "plan", "dependent": 2, "dependentGloss": "Britain"},
                        {"dep": "dobj", "governor": 1, "governorGloss": "rejected", "dependent": 3, "dependentGloss": "plan"},
                    ],
                }
            )


    def test_two_edges_from_the_root_name_the_first_listed(self):
        """The parse lists its edges by dependent, but of two edges other
        than the root edge that hang from the root, the error names the one
        the file lists first."""
        tokens = [{"index": i, "word": w, "pos": "NN"} for i, w in enumerate(["a", "b", "c"], 1)]
        edges = [
            {"dep": "root", "governor": 1, "governorGloss": "a", "dependent": 3, "dependentGloss": "c"},
            {"dep": "obj", "governor": 0, "governorGloss": "ROOT", "dependent": 2, "dependentGloss": "b"},
            {"dep": "nsubj", "governor": 0, "governorGloss": "ROOT", "dependent": 1, "dependentGloss": "a"},
        ]
        for listed, named in ((edges, "dobj of token 2"), (edges[::-1], "nsubj of token 1")):
            with pytest.raises(ConsistencyError) as exc:
                parse_stanford_json({"headline": "a b c", "tokens": tokens, "dependencies": listed})
            assert str(exc.value) == (
                f"a b c: edge {named} hangs from the root, which only the root edge may"
            )

    def test_edges_are_listed_by_dependent(self):
        """``h.edges[k - 1]`` is the edge token k hangs from, in whatever
        order the file lists the dependencies."""
        listed = json.loads(json.dumps(FIG7_JSON))
        listed["dependencies"].reverse()
        h = parse_stanford_json(listed)
        assert [e.dependent for e in h.edges] == list(range(1, len(h.tokens) + 1))
        assert h == parse_stanford_json(FIG7_JSON)

    def test_edge_outside_the_tokens_names_its_mapped_label(self):
        """The message names the label the rules would see: a conj edge
        under a "but" is conj:but, an obj edge dobj."""
        tokens = [{"index": i, "word": w, "pos": "NN"} for i, w in enumerate(["a", "but", "c"], 1)]
        for dep, named in (("conj", "conj:but"), ("obj", "dobj")):
            with pytest.raises(ConsistencyError) as exc:
                parse_stanford_json(
                    {
                        "headline": "a but c",
                        "tokens": tokens,
                        "dependencies": [
                            {"dep": "root", "governor": 0, "governorGloss": "ROOT", "dependent": 1, "dependentGloss": "a"},
                            {"dep": "cc", "governor": 1, "governorGloss": "a", "dependent": 2, "dependentGloss": "but"},
                            {"dep": dep, "governor": 1, "governorGloss": "a", "dependent": 4, "dependentGloss": "c"},
                        ],
                    }
                )
            assert str(exc.value) == f"a but c: edge {named} references token outside 1..3"


class TestRecordTypes:
    def test_tokens_and_edges_are_immutable_tuples(self):
        t = Token(1, "w", "NN")
        assert t == (1, "w", "NN")
        assert hash(t) == hash((1, "w", "NN"))
        assert t._replace(pos="VB") == Token(1, "w", "VB")
        e = DependencyEdge("root", 0, "ROOT", 1, "w")
        assert e._replace(dep="dep") == ("dep", 0, "ROOT", 1, "w")
        with pytest.raises(AttributeError):
            e.dep = "dep"


def _edge(dep, gov, gov_gloss, dependent, dep_gloss):
    return DependencyEdge(dep, gov, gov_gloss, dependent, dep_gloss)


class TestNormalizeLabels:
    def test_obj_becomes_dobj(self):
        (e,) = normalize_labels([_edge("obj", 2, "divide", 3, "Britain")])
        assert e.dep == "dobj"

    def test_obl_becomes_nmod_and_nn_compound(self):
        out = normalize_labels(
            [_edge("obl", 2, "slow", 3, "June"), _edge("nn", 2, "plan", 1, "farm")]
        )
        assert [e.dep for e in out] == ["nmod", "compound"]

    def test_conj_but_second_conjunct_cc(self):
        # UD v2 style: cc hangs off the second conjunct.
        out = normalize_labels(
            [
                _edge("conj", 1, "ready", 3, "come"),
                _edge("cc", 3, "come", 2, "but"),
            ]
        )
        assert out[0].dep == "conj:but"

    def test_conj_but_first_conjunct_cc(self):
        out = normalize_labels(
            [
                _edge("conj", 1, "ready", 3, "come"),
                _edge("cc", 1, "ready", 2, "but"),
            ]
        )
        assert out[0].dep == "conj:but"

    def test_plain_conj_unchanged(self):
        out = normalize_labels(
            [
                _edge("conj", 1, "cheap", 3, "fast"),
                _edge("cc", 3, "fast", 2, "and"),
            ]
        )
        assert out[0].dep == "conj"

    def test_in_vocabulary_label_unchanged(self):
        (e,) = normalize_labels([_edge("nsubj", 2, "divide", 1, "rules")])
        assert e.dep == "nsubj"

    def test_unknown_label_preserved(self):
        (e,) = normalize_labels([_edge("nmod:poss", 2, "ban", 1, "Russia")])
        assert e.dep == "nmod:poss"

    def test_no_edges(self):
        assert normalize_labels([]) == []

    def test_idempotent(self):
        edges = [
            _edge("obj", 2, "v", 3, "o"),
            _edge("conj", 1, "a", 3, "o"),
            _edge("cc", 1, "a", 4, "but"),
            _edge("weird", 1, "a", 5, "x"),
        ]
        once = normalize_labels(edges)
        assert normalize_labels(once) == once


class TestTokenQueries:
    def test_verbs_of_strict_vs_relaxed(self, basic_triggers):
        h, _ = basic_triggers["future"]
        assert [t.surface for t in verbs_of(h)] == ["broadcast"]
        assert verbs_of(h, strict=True) == []

    def test_verbs_of_rejects(self, basic_triggers):
        h, _ = basic_triggers["again"]
        assert [t.surface for t in verbs_of(h)] == ["rejects"]
        assert [t.surface for t in verbs_of(h, strict=True)] == ["rejects"]

    def test_all_nouns_no_verbs(self):
        h = make_headline("Bank/NNP rescue/NN", [("root", 0, 1), ("dobj", 1, 2)])
        assert verbs_of(h) == []

    def test_nouns_of(self, basic_triggers):
        h, _ = basic_triggers["nmod_of"]
        assert [t.surface for t in nouns_of(h)] == ["Bank", "England", "rescue"]

    def test_nouns_of_none(self):
        h = make_headline("slow/JJ down/RB", [("root", 0, 1), ("advmod", 1, 2)])
        assert nouns_of(h) == []

    def test_nouns_of_uk_economy(self, basic_triggers):
        h, _ = basic_triggers["further"]
        assert [t.surface for t in nouns_of(h)] == ["UK", "economy"]

    def test_noun_tags(self):
        for tag in ("NN", "NNS", "NNP", "NNPS", "PRP"):
            assert is_noun_tag(tag), tag
        for tag in ("PRP$", "POS", "PDT", "VB", "JJ", "DT", "IN", "RB", "."):
            assert not is_noun_tag(tag), tag

    def test_verb_noun_patterns_disjoint(self):
        tags = ["NN", "NNS", "NNP", "NNPS", "PRP", "PRP$", "VB", "VBD", "VBZ",
                "VBN", "VBG", "VBP", "MD", "JJ", "RB", "IN", "DT", "CC", "POS"]
        for tag in tags:
            t = Token(1, "w", tag)
            h = make_headline(f"w/{tag}", [("root", 0, 1)])
            assert not (verbs_of(h) and nouns_of(h)), tag
            assert t  # keep the token binding used above


@given(st.lists(st.sampled_from(["obj", "obl", "nn", "nsubj", "dobj", "conj", "cc",
                                 "case", "exotic:rel"]), min_size=1, max_size=8))
def test_normalize_labels_idempotent_property(labels):
    edges = [
        _edge(dep, i, f"g{i}", i + 1, "but" if dep == "cc" else f"d{i}")
        for i, dep in enumerate(labels, start=1)
    ]
    once = normalize_labels(edges)
    assert normalize_labels(once) == once
