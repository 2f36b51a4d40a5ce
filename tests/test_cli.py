import gc
import json
from pathlib import Path

import pytest

from conftest import FIXTURES
from presup import cli, corpus
from presup.cli import (
    SETTINGS,
    _read_config_file,
    _read_inference_file,
    build_parser,
    load_parses,
    main,
)
from presup.corpus import parse_gold, read_dataset
from presup.evaluation import normalize
from presup.ingest import parse_conllu
from presup.lexicon import parse_lexicon
from presup.rules import RULE_IDS

CORE_EXPECTED_INFERENCES = [
    "Olympics is not yet broadcast",
    "being ready was expecting coming",
    "Norway regulator has rejected Donut fish farm volume plan before",
    "economy is already slow",
    "Olympic can be/can have ban",
    "dude has released this video",
    "England has Bank",
]


# (dataset, parses) of each `infer --rules all` run whose output is pinned
# under fixtures/pinned, by dataset: the CoNLL-U trees of basic_triggers are
# its JSON ones, so both runs meet the same file.
PINNED_RUNS = [
    ("basic_triggers", "basic_triggers.json"),
    ("basic_triggers", "basic_triggers.conllu"),
    ("combined", "combined.json"),
    ("lexical_triggers", "lexical_triggers.json"),
]

# The first fixture parse as one JSON Lines record.
GOOD_PARSE = json.dumps(json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))[0])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line]


def run_infer(tmp_path, extra=(), parses="basic_triggers.json", dataset="basic_triggers_dataset.txt",
              name="out.jsonl"):
    out = tmp_path / name
    code = main(
        [
            "infer",
            "--dataset", str(FIXTURES / dataset),
            "--parses", str(FIXTURES / parses),
            "--out", str(out),
            *extra,
        ]
    )
    return code, out


class TestInfer:
    def test_basic_triggers_contain_expected_inferences(self, tmp_path):
        code, out = run_infer(tmp_path)
        assert code == 0
        records = read_jsonl(out)
        assert len(records) == 7
        for record, expected in zip(records, CORE_EXPECTED_INFERENCES):
            got = {normalize(i["text"]) for i in record["inferences"]}
            assert normalize(expected) in got, record["headline"]

    def test_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out.jsonl"
        code = main(
            ["infer", "--dataset", str(empty), "--parses",
             str(FIXTURES / "basic_triggers.json"), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == ""

    def test_missing_parses_file(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = main(
            ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
             "--parses", str(tmp_path / "nope.json"), "--out", str(out)]
        )
        assert code != 0
        assert "nope.json" in capsys.readouterr().err

    def test_strict_fails_on_missing_parse(self, tmp_path):
        short = tmp_path / "short.json"
        basic_triggers = json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))
        short.write_text(json.dumps(basic_triggers[:3]))
        code = main(
            ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
             "--parses", str(short), "--out", str(tmp_path / "o.jsonl"), "--strict"]
        )
        assert code != 0
        lenient = main(
            ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
             "--parses", str(short), "--out", str(tmp_path / "o2.jsonl")]
        )
        assert lenient == 0
        assert len(read_jsonl(tmp_path / "o2.jsonl")) == 3

    def test_manifest_written(self, tmp_path):
        code, out = run_infer(tmp_path)
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["headlines"] == 7
        assert manifest["skipped"] == []
        assert len(manifest["config_hash"]) == 64
        assert "future" in manifest["rules"]
        assert "headline_counts" not in manifest  # the JSONL holds each line's inferences

    def test_rules_flag_limits_output(self, tmp_path):
        code, out = run_infer(tmp_path, extra=["--rules", "compound"])
        assert code == 0
        triggers = {
            i["trigger"] for record in read_jsonl(out) for i in record["inferences"]
        }
        assert triggers == {"compound"}

    def test_rules_all_adds_relaxed_nmod(self, tmp_path):
        code, out = run_infer(
            tmp_path, extra=["--rules", "all"],
            parses="combined.json", dataset="combined_dataset.txt",
        )
        (record,) = read_jsonl(out)
        got = {normalize(i["text"]) for i in record["inferences"]}
        assert normalize("Brexit has step") in got

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_infer(tmp_path, name="a.jsonl")
        _, second = run_infer(tmp_path, name="b.jsonl")
        assert first.read_bytes() == second.read_bytes()
        m1 = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
        m1.pop("generated_at"), m2.pop("generated_at")
        assert m1 == m2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("rules = compound\ncompound_mode = can_have\n")
        code, out = run_infer(tmp_path, extra=["--config", str(cfg)],
                              parses="basic_triggers.json")
        records = read_jsonl(out)
        texts = [i["text"] for i in records[4]["inferences"]]
        assert "Olympic can have ban" in texts

    @pytest.mark.parametrize("spec", [",", " , ,"])
    def test_rules_naming_no_rule_is_error(self, tmp_path, capsys, spec):
        code, out = run_infer(tmp_path, extra=["--rules", spec])
        assert code == 1
        assert capsys.readouterr().err == f"error: rules {spec!r} names no rule\n"
        assert not out.exists()

    def test_config_rules_naming_no_rule_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("# engine settings\nrules = ,\n")
        code, out = run_infer(tmp_path, extra=["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: rules ',' names no rule\n"
        assert not out.exists()

    @pytest.mark.parametrize("dataset, parses", PINNED_RUNS)
    def test_rules_all_output_is_pinned(self, tmp_path, dataset, parses):
        """The whole output, byte for byte.  A change that means to alter it
        rewrites the pinned file from its own run and says why."""
        code, out = run_infer(tmp_path, ["--rules", "all"], parses=parses,
                              dataset=f"{dataset}_dataset.txt")
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / f"{dataset}.jsonl").read_bytes()

    @pytest.mark.parametrize("dataset, parses", [
        ("basic_triggers", "basic_triggers.json"),
        ("lexical_triggers", "lexical_triggers.json"),
    ])
    def test_infer_never_cleans_the_text(self, tmp_path, monkeypatch, dataset, parses):
        """No rule reads the cleaned text, so infer does not compute it; both
        datasets hold a quoted headline, whose spans are still found."""
        def fail(text):
            raise AssertionError(f"clean({text!r}) called")

        monkeypatch.setattr(corpus, "clean", fail)
        code, out = run_infer(tmp_path, ["--rules", "all"], parses=parses,
                              dataset=f"{dataset}_dataset.txt")
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / f"{dataset}.jsonl").read_bytes()

    def test_unknown_rule_id_is_error(self, tmp_path, capsys):
        code, _ = run_infer(tmp_path, extra=["--rules", "compound,astrology"])
        assert code != 0
        assert capsys.readouterr().err == "error: unknown rule ids: astrology\n"

    @pytest.mark.parametrize("flag, complaint", [
        ("--verb-pattern", "verb_pattern must be strict or relaxed, got 'zz'"),
        ("--compound-mode", "unknown compound mode 'zz'"),
    ])
    def test_bad_flag_value_is_error(self, tmp_path, capsys, flag, complaint):
        code, _ = run_infer(tmp_path, extra=[flag, "zz"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"

    @pytest.mark.parametrize("key, value, other, fixtures", [
        ("rules", "compound", "future", "basic_triggers"),
        ("verb_pattern", "strict", "relaxed", "basic_triggers"),
        ("compound_mode", "can_have", "can_be", "basic_triggers"),
        ("lexicon", "blame.tsv", "regret.tsv", "lexical_triggers"),
    ])
    def test_setting_by_flag_or_config_key(self, tmp_path, monkeypatch, key, value, other,
                                           fixtures):
        monkeypatch.chdir(tmp_path)  # the lexicon paths are relative
        (tmp_path / "blame.tsv").write_text("judging\tblame\n")
        (tmp_path / "regret.tsv").write_text("factive\tregret\n")
        cfg = tmp_path / "engine.cfg"
        flag = "--" + key.replace("_", "-")

        def run(name, extra):
            code, out = run_infer(tmp_path, extra=extra, name=name, parses=f"{fixtures}.json",
                                  dataset=f"{fixtures}_dataset.txt")
            assert code == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            return out.read_bytes(), manifest["config_hash"]

        by_flag = run("flag.jsonl", [flag, value])
        cfg.write_text(f"{key} = {value}\n")
        assert run("file.jsonl", ["--config", str(cfg)]) == by_flag
        cfg.write_text(f"{key} = {other}\n")
        by_other = run("other.jsonl", ["--config", str(cfg)])
        assert by_other[0] != by_flag[0] and by_other[1] != by_flag[1]
        # The flag wins over the file.
        assert run("both.jsonl", ["--config", str(cfg), flag, value]) == by_flag

    @pytest.mark.parametrize("key, complaint", [
        ("compound_mode", "unknown compound mode 'zz'"),
        ("verb_pattern", "verb_pattern must be strict or relaxed, got 'zz'"),
        ("rules", "unknown rule ids: zz"),
        ("compund_mode", "unknown key 'compund_mode' "
                         "(known keys: rules, verb_pattern, compound_mode, lexicon)"),
    ])
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys, key, complaint):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"# engine settings\nrules = compound\n\n{key} = zz\n")
        code, _ = run_infer(tmp_path, extra=["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: {complaint}\n"

    @pytest.mark.parametrize("flag, name, line, complaint", [
        *(
            ("--parses", "p.jsonl", GOOD_PARSE[:-1] + rest, complaint)
            for rest, complaint in [
                (', "tokens": [1]}', "token 1: expected a JSON object, got int"),
                (', "tokens": "abc"}', "headline object: key 'tokens' must be a list"),
                (', "dependencies": 5}', "headline object: key 'dependencies' must be a list"),
                (', "tokens": [{"word": "w", "pos": "NN"}]}', "token 1: missing key 'index'"),
                (', "dependencies": [{"dep": "root", "governor": "x", "governorGloss": "ROOT", '
                 '"dependent": 1, "dependentGloss": "w"}]}',
                 "dependency 1: key 'governor' must be an integer, got 'x'"),
                (', "dependencies": []}', "future: expected one root edge, got 0"),
            ]
        ),
        ("--parses", "p.jsonl", '{"headline": ', "invalid JSON: Expecting value"),
        pytest.param("--parses", "p.jsonl", "[" * 100_000, "invalid JSON: maximum recursion depth",
                     id="--parses-p.jsonl-deep-nesting"),
        ("--parses", "p.jsonl", "[]", "expected a JSON object per headline"),
        pytest.param("--parses", "p.jsonl", "[" + "1" * 5000 + "]",
                     "invalid JSON: Exceeds the limit", id="--parses-p.jsonl-long-integer"),
        ("--parses", "p.json", GOOD_PARSE[:-1] + ', "tokens": [null]}',
         "token 1: expected a JSON object, got NoneType"),
        ("--parses", "p.json", '{"headline": }', "invalid JSON: Expecting value"),
        ("--parses", "p.conllu", "3\tbad\trow", "expected 10 columns, got 3"),
        ("--parses", "p.conllu", "3\tdown\t_\t_\tRB\t_\tx\tadvmod\t_\t_",
         "non-integer head 'x'"),
        ("--parses", "p.conllu", "3\tdown\t_\t_\tRB\t_\t9\tadvmod\t_\t_",
         "sentence 2: head 9 of token 3 does not exist"),
        ("--dataset", "d.txt", "no bracket here", "no '[source:' bracket in line: 'no bracket here'"),
        ("--gold", "g.txt", "Headline one", "missing '||' terminator for headline 'Headline one'"),
    ])
    def test_bad_input_names_file_and_line(self, tmp_path, capsys, flag, name, line, complaint):
        # The bad record is on line 3, after one good record and a blank line.
        first = {
            "p.jsonl": GOOD_PARSE + "\n",
            "p.json": "[\n" + GOOD_PARSE + ",",
            "p.conllu": "1\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n",
            "d.txt": "A headline [source: BBC]\n",
            "g.txt": "# gold\n",
        }[name]
        last = "\n]" if name == "p.json" else ""
        bad = tmp_path / name
        bad.write_text(f"{first}\n{line}{last}\n")
        if flag == "--gold":
            argv = ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
                    "--gold", str(bad)]
        else:
            argv = ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
                    "--parses", str(FIXTURES / "basic_triggers.json"),
                    "--out", str(tmp_path / "o.jsonl"), flag, str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:3: {complaint}")
        assert err.count("\n") == 1, err

    def test_bad_object_in_array_names_its_first_line(self, tmp_path, capsys):
        items = json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))
        del items[2]["tokens"][0]["index"]
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps(items, indent=1))
        # "[" is line 1; each item before the bad one spans its dump's lines.
        line = 2 + sum(len(json.dumps(item, indent=1).splitlines()) for item in items[:2])
        code, _ = run_infer(tmp_path, extra=["--parses", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}:{line}: token 1: missing key 'index'\n"
        # A file of one object names the line the object starts on.
        bad.write_text("\n\n" + json.dumps(items[2], indent=1))
        code, _ = run_infer(tmp_path, extra=["--parses", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}:3: token 1: missing key 'index'\n"

    def test_bad_lexicon_names_file_and_line(self, tmp_path, capsys):
        lexicon = tmp_path / "bad.tsv"
        lexicon.write_text("# comment\nfactive\tregret\nbogus\tfoo\n")
        code, _ = run_infer(tmp_path, extra=["--lexicon", str(lexicon)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {lexicon}:3: unknown class 'bogus'\n"

    @pytest.mark.parametrize("flag", ["--lexicon", "--dataset", "--gold"])
    def test_directory_path_is_an_input_error(self, tmp_path, capsys, flag):
        if flag == "--gold":
            argv = ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl")]
        else:
            argv = ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
                    "--parses", str(FIXTURES / "basic_triggers.json"),
                    "--out", str(tmp_path / "o.jsonl")]
        assert main([*argv, flag, str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("spec, want", [
        ("lexical", ("lexical.iterative", "lexical.change_of_state", "lexical.factive",
                     "lexical.implicative", "lexical.judging")),
        ("all", RULE_IDS),
    ])
    def test_rules_flag_expands_group(self, tmp_path, spec, want):
        code, _ = run_infer(tmp_path, extra=["--rules", spec])
        assert code == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert tuple(manifest["rules"]) == want

    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_custom_lexicon(self, tmp_path, by):
        # A lexicon without change-of-state entries silences that rule.
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("judging\tblame\n")
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"lexicon = {lexicon}\n")
        out = tmp_path / "o.jsonl"
        code = main(
            ["infer", "--dataset", str(FIXTURES / "lexical_triggers_dataset.txt"),
             "--parses", str(FIXTURES / "lexical_triggers.json"), "--out", str(out),
             *(["--lexicon", str(lexicon)] if by == "flag" else ["--config", str(cfg)])]
        )
        assert code == 0
        triggers = {
            i["trigger"] for record in read_jsonl(out) for i in record["inferences"]
        }
        assert "lexical.change_of_state" not in triggers
        assert "lexical.judging" in triggers

    def test_conllu_parses(self, tmp_path):
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "# sent_id = 1\n"
            "1\tMarkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            "2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n\n"
        )
        dataset = tmp_path / "d.txt"
        dataset.write_text("Markets crashed [source: Reuters]\n")
        out = tmp_path / "o.jsonl"
        code = main(["infer", "--dataset", str(dataset), "--parses", str(conllu),
                     "--out", str(out)])
        assert code == 0
        (record,) = read_jsonl(out)
        assert "Markets has crashed" in [i["text"] for i in record["inferences"]]

    def test_conllu_and_stanford_json_fixtures_infer_alike(self, tmp_path):
        """basic_triggers.conllu holds the trees of basic_triggers.json."""
        _, from_json = run_infer(tmp_path, ["--rules", "all"], name="json.jsonl")
        _, from_conllu = run_infer(tmp_path, ["--rules", "all"],
                                   parses="basic_triggers.conllu", name="conllu.jsonl")
        assert len(read_jsonl(from_json)) == 7
        assert from_conllu.read_bytes() == from_json.read_bytes()

    def test_positional_parse_of_another_text_is_skipped(self, tmp_path, capsys):
        dataset = tmp_path / "d.txt"
        dataset.write_text("A headline here [source: BBC]\nMarkets crashed [source: BBC]\n")
        parses = tmp_path / "p.jsonl"
        # No sent_id, so each parse pairs with a dataset line by position.
        parses.write_text("".join(json.dumps({
            "headline": text,
            "tokens": [{"index": 1, "word": first, "pos": "NNS"},
                       {"index": 2, "word": second, "pos": "VBD"}],
            "dependencies": [
                {"dep": "root", "governor": 0, "governorGloss": "ROOT",
                 "dependent": 2, "dependentGloss": second},
                {"dep": "nsubj", "governor": 2, "governorGloss": second,
                 "dependent": 1, "dependentGloss": first},
            ],
        }) + "\n" for text, first, second in [("Totally different", "Totally", "different"),
                                              ("markets CRASHED!", "markets", "CRASHED")]))
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(parses), "--out", str(out)]
        assert main(argv) == 0
        assert [r["headline"] for r in read_jsonl(out)] == ["Markets crashed"]
        manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
        assert manifest["skipped"] == [{"line": 1, "headline": "A headline here",
                                        "reason": "mismatch", "parse": "Totally different"}]
        assert capsys.readouterr().err == (
            "warning: line 1: parse of 'Totally different' does not match 'A headline here'\n"
        )
        assert main([*argv, "--strict"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: 1 headline(s) without a matching parse\n"
        )

    def test_parse_paired_by_id_of_another_text_is_skipped(self, tmp_path, capsys):
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "# sent_id = 1\n"
            "# text = Markets crashed\n"
            "1\tMarkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            "2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n\n"
        )
        dataset = tmp_path / "d.txt"
        dataset.write_text("A headline here [source: BBC May 08, 2016]\n")
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(conllu), "--out", str(out)]
        assert main([*argv, "--strict"]) == 1
        assert read_jsonl(out) == []
        manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
        assert manifest["skipped"] == [{"line": 1, "headline": "A headline here",
                                        "reason": "mismatch", "parse": "Markets crashed"}]
        assert capsys.readouterr().err == (
            "warning: line 1: parse of 'Markets crashed' does not match 'A headline here'\n"
            "error: 1 headline(s) without a matching parse\n"
        )
        # Paired by id with a line of the same letters, the parse is used.
        dataset.write_text("markets CRASHED! [source: BBC May 08, 2016]\n")
        assert main([*argv, "--strict"]) == 0
        (record,) = read_jsonl(out)
        assert "Markets has crashed" in [i["text"] for i in record["inferences"]]

    def test_conllu_sentence_without_sent_id_pairs_by_text(self, tmp_path, capsys):
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "1\tMarkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            "2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n\n"
        )
        dataset = tmp_path / "d.txt"
        dataset.write_text("A headline here [source: BBC]\n")
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(conllu), "--out", str(out)]
        assert main([*argv, "--strict"]) == 1
        assert read_jsonl(out) == []
        manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
        assert [s["reason"] for s in manifest["skipped"]] == ["mismatch"]
        # The same sentence pairs with a line of its own text.
        dataset.write_text("Markets crashed [source: BBC]\n")
        assert main([*argv, "--strict"]) == 0
        (record,) = read_jsonl(out)
        assert "Markets has crashed" in [i["text"] for i in record["inferences"]]

    def test_conllu_translation_comment_does_not_replace_text(self, tmp_path):
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "# text = Markets crashed\n"
            "# text_en = Something else entirely\n"
            "# sent_id_orig = zz\n"
            "1\tMarkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            "2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n\n"
        )
        dataset = tmp_path / "d.txt"
        dataset.write_text("Markets crashed [source: BBC]\n")
        out = tmp_path / "o.jsonl"
        code = main(["infer", "--dataset", str(dataset), "--parses", str(conllu),
                     "--out", str(out), "--strict"])
        assert code == 0
        (record,) = read_jsonl(out)
        assert "Markets has crashed" in [i["text"] for i in record["inferences"]]

    def test_quoted_span_of_a_ud_tokenization(self, tmp_path, capsys):
        """A UD parse splits the clitic of "May's" and keeps the quote marks
        as tokens; the span still names the speaker, the verb and the quoted
        tokens 7-9, not "plan" and the opening quote."""
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "# sent_id = 1\n"
            "# text = Merkel says May's plan \"not the breakthrough\"\n"
            "1\tMerkel\t_\tPROPN\tNNP\t_\t2\tnsubj\t_\t_\n"
            "2\tsays\t_\tVERB\tVBZ\t_\t0\troot\t_\t_\n"
            "3\tMay\t_\tPROPN\tNNP\t_\t5\tnmod:poss\t_\tSpaceAfter=No\n"
            "4\t's\t_\tPART\tPOS\t_\t3\tcase\t_\t_\n"
            "5\tplan\t_\tNOUN\tNN\t_\t2\tobj\t_\t_\n"
            "6\t\"\t_\tPUNCT\t``\t_\t9\tpunct\t_\tSpaceAfter=No\n"
            "7\tnot\t_\tPART\tRB\t_\t9\tadvmod\t_\t_\n"
            "8\tthe\t_\tDET\tDT\t_\t9\tdet\t_\t_\n"
            "9\tbreakthrough\t_\tNOUN\tNN\t_\t5\tappos\t_\tSpaceAfter=No\n"
            "10\t\"\t_\tPUNCT\t''\t_\t9\tpunct\t_\t_\n\n"
        )
        dataset = tmp_path / "d.txt"
        dataset.write_text("Merkel says May's plan \"not the breakthrough\" [source: Reuters]\n")
        out = tmp_path / "o.jsonl"
        code = main(["infer", "--dataset", str(dataset), "--parses", str(conllu),
                     "--out", str(out), "--rules", "quotes", "--strict"])
        assert code == 0
        assert capsys.readouterr().err == ""
        (record,) = read_jsonl(out)
        assert record["inferences"] == [{"kind": ">>", "text": 'Merkel says "not the breakthrough"',
                                         "trigger": "quotes", "span": [1, 2, 7, 8, 9]}]

    @pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
    @pytest.mark.parametrize("flag", ["--parses", "--inferences"])
    def test_unicode_line_separator_stays_inside_its_record(self, tmp_path, flag, char):
        # json.dumps(ensure_ascii=False), as infer writes, leaves these raw.
        records = tmp_path / "records.jsonl"
        out = tmp_path / "out.json"
        if flag == "--parses":
            items = json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))[:2]
            items[1]["tokens"][0]["word"] += char
            for d in items[1]["dependencies"]:
                for end in ("governor", "dependent"):
                    if d[end] == 1:
                        d[end + "Gloss"] += char
            argv = ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
                    "--out", str(out)]
        else:
            items = [{"headline": h, "inferences": [{"kind": ">>", "text": f"a{char}b"}]}
                     for h in ("one", "two")]
            argv = ["eval", "--gold", str(FIXTURES / "scored_gold.txt"), "--out", str(out)]
        records.write_text("".join(json.dumps(i, ensure_ascii=False) + "\n" for i in items))
        assert main([*argv, flag, str(records)]) == 0
        if flag == "--parses":
            assert len(read_jsonl(out)) == 2

    def test_deep_json_array_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text("\n" + "[" * 100_000 + "\n")
        code, _ = run_infer(tmp_path, extra=["--parses", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1, err


# Each document reader: (read a document, a one-record document holding `x`,
# the text of that record as read).
DOCUMENT_READERS = {
    "conllu": (
        parse_conllu,
        lambda x: f"1\t{x}\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n",
        lambda parses: parses[0].tokens[0].surface,
    ),
    "dataset": (
        read_dataset,
        lambda x: f"{x} crashed [source: BBC]\n",
        lambda records: records[0].text,
    ),
    "gold": (
        parse_gold,
        lambda x: f"Markets crashed\n>> {x} has crashed\n||\n",
        lambda annotations: annotations[0].inferences[0].text,
    ),
    "lexicon": (
        parse_lexicon,
        lambda x: f"# heads\nfactive\t{x}\n",
        lambda lexicon: min(lexicon.words("factive")),
    ),
}


class TestLineEnds:
    @pytest.mark.parametrize("reader", DOCUMENT_READERS)
    def test_only_newline_ends_a_line(self, reader):
        read, document, text_of = DOCUMENT_READERS[reader]
        assert "a\u2028b" in text_of(read(document("a\u2028b")))
        lf = read(document("markets"))
        assert read(document("markets").replace("\n", "\r\n")) == lf

    @pytest.mark.parametrize("reader", ["config", "parses", "inferences"])
    def test_crlf_file(self, tmp_path, reader):
        path = tmp_path / "f"
        text, read, want = {
            "config": ("# engine\nrules = future\ncompound_mode = can_be\n",
                       _read_config_file, {"rules": ("future", f"{path}:2"),
                                           "compound_mode": ("can_be", f"{path}:3")}),
            "parses": (GOOD_PARSE + "\n\n" + GOOD_PARSE + "\n",
                       lambda p: len(load_parses(p)), 2),
            "inferences": ('{"headline": "A"}\n{"headline": "B", "inferences": []}\n',
                           lambda p: sorted(_read_inference_file(p)), ["a", "b"]),
        }[reader]
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert read(str(path)) == want


class TestFileBytes:
    INFER = ["infer", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
             "--parses", str(FIXTURES / "basic_triggers.json")]
    EVAL = ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
            "--gold", str(FIXTURES / "scored_gold.txt")]

    @pytest.mark.parametrize("command, flag, name", [
        ("stats", "--dataset", "d.txt"),
        ("infer", "--dataset", "d.txt"),
        ("infer", "--parses", "p.jsonl"),
        ("infer", "--parses", "p.conllu"),
        ("infer", "--lexicon", "lex.tsv"),
        ("infer", "--config", "engine.cfg"),
        ("eval", "--gold", "g.txt"),
        ("eval", "--inferences", "i.jsonl"),
        ("eval", "--labels", "l.jsonl"),
    ])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys, command, flag, name):
        bad = tmp_path / name
        bad.write_bytes(b"# a first line\n\xff\xfe then bytes that are not UTF-8\n")
        argv = {"stats": ["stats"], "infer": [*self.INFER, "--out", str(tmp_path / "o.jsonl")],
                "eval": self.EVAL}[command]
        assert main([*argv, flag, str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: not valid UTF-8\n"

    def test_carriage_return_stays_inside_a_conllu_form(self, tmp_path):
        conllu = tmp_path / "cr.conllu"
        conllu.write_bytes(
            b"1\tMar\rkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            b"2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n\n"
        )
        assert load_parses(str(conllu))[0].tokens[0].surface == "Mar\rkets"
        dataset = tmp_path / "d.txt"
        dataset.write_text("Markets crashed [source: BBC]\n")
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(conllu), "--out", str(out)]
        assert main([*argv, "--strict"]) == 0
        assert len(read_jsonl(out)) == 1


class TestSettings:
    FLAGS = {key: "--" + key.replace("_", "-") for key in SETTINGS}

    def test_infer_has_one_flag_per_setting(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        flags = {f for a in sub.choices["infer"]._actions for f in a.option_strings}
        assert flags == {"-h", "--help", "--dataset", "--parses", "--config", "--out",
                         "--strict", *self.FLAGS.values()}

    def test_readme_cli_section_names_every_setting(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        for key, flag in self.FLAGS.items():
            assert f"`{key}`" in cli and f"`{flag} " in cli, key


class TestEval:
    def run_eval(self, tmp_path, labels=True, extra=()):
        out = tmp_path / "report.json"
        argv = [
            "eval",
            "--inferences", str(FIXTURES / "scored_computed.jsonl"),
            "--gold", str(FIXTURES / "scored_gold.txt"),
            "--out", str(out),
            *extra,
        ]
        if labels:
            argv += ["--labels", str(FIXTURES / "scored_labels.jsonl")]
        return main(argv), out

    def test_scored_report_values(self, tmp_path):
        code, out = self.run_eval(tmp_path)
        assert code == 0
        report = json.loads(out.read_text())
        got = [
            (h["percent_correct"], h["percent_incorrect"]) for h in report["headlines"]
        ]
        assert got == [(40.0, 0.0), (75.0, 0.0), (16.7, 33.3)]

    def test_empty_gold(self, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text("")
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
             "--gold", str(gold), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["headlines"] == []

    def test_malformed_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("Headline with no terminator\n>> something\n")
        code = main(
            ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
             "--gold", str(gold)]
        )
        assert code != 0
        assert "terminator" in capsys.readouterr().err

    @pytest.mark.parametrize("line, complaint, flag", [
        *(
            (line, complaint, flag)
            for line, complaint in [
                ('{"inferences": []}', "missing or non-string 'headline'"),
                ('["not", "an", "object"]', "expected a JSON object"),
                ('{"headline": ', "invalid JSON"),
            ]
            for flag in ["--inferences", "--labels"]
        ),
        *(
            pytest.param("[" * 100_000, "invalid JSON: maximum recursion depth", flag,
                         id=f"deep-nesting-{flag}")
            for flag in ["--inferences", "--labels"]
        ),
        *(
            ('{"headline": "H", ' + rest, complaint, "--inferences")
            for rest, complaint in [
                ('"inferences": [{"text": "a"}]}', "inference 'kind' must be one of"),
                ('"inferences": [{"kind": "zz", "text": "a"}]}', "inference 'kind' must be"),
                ('"inferences": "abc"}', "'inferences' must be a list"),
                ('"inferences": [{"kind": ">>", "text": 5}]}', "inference 'text' must be a string"),
                ('"inferences": [{"kind": ">>"}]}', "inference 'text' must be a string"),
                ('"inferences": ["a"]}', "each inference must be a JSON object"),
                ('"inferences": [{"kind": ">>", "text": "a", "trigger": 1}]}',
                 "inference 'trigger' must be a string"),
                ('"inferences": [{"kind": ">>", "text": "a", "span": 3}]}',
                 "inference 'span' must be a list of integers"),
            ]
        ),
        *(
            ('{"headline": "H", ' + rest, complaint, "--labels")
            for rest, complaint in [
                ('"matched": [1]}', "'matched' must be a list of [gold, computed] string pairs"),
                ('"matched": [["a", "b", "c"]]}', "'matched' must be a list of"),
                ('"matched": [[1, 2]]}', "'matched' must be a list of"),
                ('"matched": "ab"}', "'matched' must be a list of"),
                ('"incorrect": [3]}', "'incorrect' must be a list of strings"),
                ('"incorrect": "a"}', "'incorrect' must be a list of strings"),
            ]
        ),
    ])
    def test_bad_jsonl_line_names_file_and_line(self, tmp_path, capsys, flag, line, complaint):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"headline": "fine"}\n\n' + line + "\n")
        argv = ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
                "--labels", str(FIXTURES / "scored_labels.jsonl"),
                "--gold", str(FIXTURES / "scored_gold.txt"), flag, str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{bad}:3: {complaint}" in err

    @pytest.mark.parametrize("flag, first, second", [
        ("--inferences",
         '{"headline": "Same headline", "inferences": [{"kind": ">>", "text": "a"}]}',
         '{"headline": "same headline.", "inferences": [{"kind": ">>", "text": "b"}]}'),
        ("--labels",
         '{"headline": "Same headline", "incorrect": ["a"]}',
         '{"headline": "same headline.", "incorrect": ["b"]}'),
    ])
    def test_repeated_headline(self, tmp_path, capsys, flag, first, second):
        gold = tmp_path / "gold.txt"
        gold.write_text("Same headline\n>> a\n||\nSame headline\n>> b\n||\n")
        inferences = tmp_path / "inferences.jsonl"
        inferences.write_text(
            '{"headline": "Same headline", "inferences": [{"kind": ">>", "text": "a"}]}\n'
        )
        repeated = tmp_path / "repeated.jsonl"
        argv = ["eval", "--gold", str(gold), "--out", str(tmp_path / "report.json")]
        if flag == "--labels":
            argv += ["--inferences", str(inferences)]
        argv += [flag, str(repeated)]
        # The same content twice is accepted and scores both blocks alike.
        repeated.write_text(f"{first}\n\n{first}\n")
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [h["matched"] for h in report["headlines"]] == [1, 0]
        capsys.readouterr()
        # Different content under the same normalized headline is an error.
        repeated.write_text(f"{first}\n\n{second}\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{repeated}:3: headline 'same headline.' repeats line 1 with different content" in err

    def test_tsv_table(self, tmp_path):
        table = tmp_path / "table.tsv"
        code, _ = self.run_eval(tmp_path, extra=["--table", str(table)])
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "trigger\taccurate\tinaccurate\tmissing"
        assert any(line.startswith("compound\t") for line in lines)

    def test_gold_without_computed_warns(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("Unknown headline\n>> something\n||\n")
        code = main(
            ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
             "--gold", str(gold)]
        )
        assert code == 0
        assert "no computed inferences" in capsys.readouterr().err


class TestMorphAndStats:
    def test_morph_regular(self, capsys):
        assert main(["morph", "reject", "past"]) == 0
        assert capsys.readouterr().out.strip() == "rejected"

    def test_morph_irregular(self, capsys):
        assert main(["morph", "go", "past"]) == 0
        assert capsys.readouterr().out.strip() == "went"

    def test_morph_unknown_form_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["morph", "go", "pluperfect"])
        assert exc.value.code == 2

    def test_stats(self, tmp_path, capsys):
        dataset = tmp_path / "d.txt"
        dataset.write_text(
            "A [source: BBC]\nB [source: Reuters]\nC [source: BBC]\n"
        )
        assert main(["stats", "--dataset", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "headlines: 3" in out
        assert "BBC: 2" in out


@pytest.fixture
def collector():
    """Put the collector back as the test found it, whatever the test does."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def repeated(tmp_path, name, k, sep=""):
    """A copy of fixture ``name`` holding its content ``k`` times."""
    path = tmp_path / f"x{k}-{name}"
    path.write_text(sep.join([(FIXTURES / name).read_text("utf-8")] * k), "utf-8")
    return str(path)


def json_lines(tmp_path, name, k):
    """The array fixture ``name`` as JSON Lines, its records ``k`` times."""
    path = tmp_path / f"x{k}-{name}l"
    records = json.loads((FIXTURES / name).read_text("utf-8")) * k
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    return str(path)


@pytest.mark.usefixtures("collector")
class TestCollector:
    """``main`` runs each command with the cyclic collector paused."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome", ["ok", "error", "raises"])
    def test_main_restores_the_collector(self, tmp_path, monkeypatch, enabled, outcome):
        seen = []
        infer = cli.cmd_infer

        def spy(args):
            seen.append(gc.isenabled())
            if outcome == "raises":
                raise RuntimeError("unexpected")
            return infer(args)

        monkeypatch.setattr(cli, "cmd_infer", spy)
        parses = "missing.json" if outcome == "error" else "basic_triggers.json"
        (gc.enable if enabled else gc.disable)()
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="unexpected"):
                run_infer(tmp_path, parses=parses)
        else:
            code, _ = run_infer(tmp_path, parses=parses)
            assert code == (1 if outcome == "error" else 0)
        assert seen == [False]
        assert gc.isenabled() is enabled

    @staticmethod
    def cyclic_garbage(argv) -> int:
        """What a full collection finds after ``main(argv)`` ran with the
        collector off."""
        gc.collect()
        gc.disable()
        assert main(argv) == 0
        return gc.collect()

    @pytest.mark.parametrize("parses", ["basic_triggers.json", "basic_triggers.conllu"])
    def test_infer_garbage_does_not_grow_with_input(self, tmp_path, parses):
        """The fixtures 1 and 8 times over, paired by position."""
        found = []
        for k in (1, 8):
            if parses.endswith(".json"):
                parse_file = json_lines(tmp_path, parses, k)
            else:
                parse_file = repeated(tmp_path, parses, k, "\n")
            out = tmp_path / f"x{k}.jsonl"
            found.append(self.cyclic_garbage([
                "infer", "--rules", "all",
                "--dataset", repeated(tmp_path, "basic_triggers_dataset.txt", k),
                "--parses", parse_file, "--out", str(out),
            ]))
            assert len(read_jsonl(out)) == 7 * k
        assert found[1] == found[0]

    def test_eval_garbage_does_not_grow_with_input(self, tmp_path):
        found = []
        for k in (1, 8):
            out = tmp_path / f"x{k}.json"
            found.append(self.cyclic_garbage([
                "eval",
                "--inferences", repeated(tmp_path, "scored_computed.jsonl", k),
                "--gold", repeated(tmp_path, "scored_gold.txt", k),
                "--labels", repeated(tmp_path, "scored_labels.jsonl", k),
                "--out", str(out),
            ]))
            assert len(json.loads(out.read_text("utf-8"))["headlines"]) == 3 * k
        assert found[1] == found[0]
