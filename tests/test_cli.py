import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import FIXTURES, load_fixture_corpus
from presup import cli, corpus, rules
from presup.cli import (
    SETTINGS,
    _read_config_file,
    _read_inference_file,
    build_parser,
    load_parses,
    main,
)
from presup.corpus import parse_gold, read_dataset
from presup.errors import read_text
from presup.evaluation import normalize
from presup.ingest import ROOT_GLOSS, build_headline, edge_view, parse_conllu, parse_stanford_json
from presup.lexicon import parse_lexicon
from presup.rules import CHUNK, RULE_IDS

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
    # Quotes, a backslash, '’', a tab, U+2028 and an emoji in headlines and
    # tokens: what the writer escapes and what it leaves raw.
    ("escapes", "escapes.json"),
]

# Each run of `python -m presup.cli` that must write the same bytes under
# any string-hash seed, and the files it writes into "{out}": every pinned
# `infer --rules all` run, and `eval --labels --table` on the scored fixtures.
HASH_SEED_RUNS = [
    *(
        pytest.param(
            ["infer", "--rules", "all", "--dataset", str(FIXTURES / f"{dataset}_dataset.txt"),
             "--parses", str(FIXTURES / parses), "--out", "{out}/out.jsonl"],
            ["out.jsonl", "out.jsonl.manifest.json"],
            id=f"infer-{parses}",
        )
        for dataset, parses in PINNED_RUNS
    ),
    pytest.param(
        ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
         "--gold", str(FIXTURES / "scored_gold.txt"),
         "--labels", str(FIXTURES / "scored_labels.jsonl"),
         "--out", "{out}/report.json", "--table", "{out}/table.tsv"],
        ["report.json", "table.tsv"],
        id="eval-scored",
    ),
    pytest.param(
        ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
         "--gold", str(FIXTURES / "scored_gold.txt"),
         "--labels", "{tmp}/unnamed_labels.jsonl", "--out", "{out}/report.json"],
        ["report.json"],
        id="eval-labels-naming-nothing",
    ),
]

# A labels record with four texts that name none of its headline's
# inferences: eval warns about each, in sorted order.
UNNAMED_LABELS = json.dumps({
    "headline": "IOC extends North Korea deadline for Pyeongchang games",
    "incorrect": ["nobody said this", "Games has deadline", "zebras have stripes"],
    "matched": [["North Korea has deadline", "no such computed text"],
                ["no such gold text", "Korea can have deadline"]],
}) + "\n"

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

    @pytest.mark.parametrize("argv, written", HASH_SEED_RUNS)
    def test_other_string_hash_seeds_write_the_same_bytes(self, tmp_path, argv, written):
        """A run in another process, under another string-hash seed, writes
        the same files, stdout and stderr, byte for byte, but the manifest's
        ``generated_at``.  The child inherits the rest of the environment,
        so it runs the presup that this process imports.  Inputs written
        here sit outside the per-seed directories, so that both runs name
        the same paths."""
        (tmp_path / "unnamed_labels.jsonl").write_text(UNNAMED_LABELS, "utf-8")
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            out.mkdir()
            done = subprocess.run(
                [sys.executable, "-m", "presup.cli",
                 *(a.format(out=out, tmp=tmp_path) for a in argv)],
                env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, check=True,
            )
            files = [(out / name).read_bytes() for name in written]
            outputs.append((done.stdout, done.stderr,
                            [re.sub(rb'\n *"generated_at": [^\n]*', b"", data) for data in files]))
        assert outputs[0] == outputs[1]
        assert all(outputs[0][2])

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
            assert len(read_jsonl(out)) == manifest["headlines"] > 0  # one line per headline
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
        good = "verb_pattern = strict" if key == "rules" else "rules = compound"  # not repeated
        cfg.write_text(f"# engine settings\n{good}\n\n{key} = zz\n")
        code, _ = run_infer(tmp_path, extra=["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: {complaint}\n"

    @pytest.mark.parametrize("line, complaint", [
        ("rules = past", "key 'rules' repeats line 2"),
        ("rules = compound", "key 'rules' repeats line 2"),
        ("rules compound", "expected 'key = value'"),
    ])
    def test_bad_config_line_names_file_and_line(self, tmp_path, capsys, line, complaint):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"# engine settings\nrules = compound\n\n{line}\n")
        code, out = run_infer(tmp_path, extra=["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: {complaint}\n"
        assert not out.exists()

    def test_bad_config_lexicon_names_its_own_file_and_line(self, tmp_path, capsys):
        lexicon = tmp_path / "bad.tsv"
        lexicon.write_text("factive\tregret\nbogus\tfoo\n")
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"lexicon = {lexicon}\n")
        code, _ = run_infer(tmp_path, extra=["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {lexicon}:2: unknown class 'bogus'\n"

    @pytest.mark.parametrize("name, complaint", [
        ("nosuch.tsv", "No such file or directory"),
        ("", "Is a directory"),
    ])
    def test_unreadable_config_lexicon_names_the_config_line(
        self, tmp_path, capsys, name, complaint
    ):
        """A config line naming a lexicon path of no readable file is an
        error at that line; the path is taken from the working directory,
        as a flag's is."""
        lexicon = tmp_path / name
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"rules = all\nlexicon = {lexicon}\n")
        code, out = run_infer(tmp_path, extra=["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: {lexicon}: {complaint}\n"
        assert not out.exists()

    def test_empty_parses_file_skips_every_line(self, tmp_path, capsys):
        parses = tmp_path / "p.jsonl"
        parses.write_text("\n \n")
        code, out = run_infer(tmp_path, extra=["--parses", str(parses)])
        assert code == 0
        assert out.read_bytes() == b""
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        records = read_dataset((FIXTURES / "basic_triggers_dataset.txt").read_text("utf-8"))
        assert manifest["skipped"] == [
            {"line": i, "headline": r.text, "reason": "no parse"}
            for i, r in enumerate(records, start=1)
        ]
        assert capsys.readouterr().err.count("no parse for") == len(records) > 0

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
        # An array item that is a JSON string is not decoded a second time.
        ("--parses", "p.json", '"text"', "expected a JSON object per headline"),
        pytest.param("--parses", "p.json", json.dumps(GOOD_PARSE),
                     "expected a JSON object per headline", id="--parses-p.json-string-record"),
        ("--parses", "p.conllu", "3\tbad\trow", "expected 10 columns, got 3"),
        ("--parses", "p.conllu", "3\tdown\t_\t_\tRB\t_\tx\tadvmod\t_\t_",
         "non-integer head 'x'"),
        # int() reads these as 0, 1 and 3; only ASCII digits are an index.
        ("--parses", "p.conllu", "1\tdown\t_\t_\tRB\t_\t0_0\troot\t_\t_",
         "non-integer head '0_0'"),
        ("--parses", "p.conllu", "3\tdown\t_\t_\tRB\t_\t+1\tadvmod\t_\t_",
         "non-integer head '+1'"),
        ("--parses", "p.conllu", "+3\tdown\t_\t_\tRB\t_\t1\tadvmod\t_\t_",
         "non-integer token id '+3'"),
        ("--parses", "p.conllu", "2-1\tdown\t_\t_\t_\t_\t_\t_\t_\t_",
         "multi-word token '2-1' is not a range N-M with 1 <= N < M <= 0"),
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

    @pytest.mark.parametrize("name", ["p.jsonl", "p.json"])
    def test_null_word_and_gloss_are_an_error(self, tmp_path, capsys, name):
        """A null word with a null gloss read as 'None' both, agreed, and
        rendered 'None rescues economy' with exit status 0."""
        parse = {
            "headline": "Plan rescues economy",
            "tokens": [{"index": 1, "word": None, "pos": "NN"},
                       {"index": 2, "word": "rescues", "pos": "VBZ"},
                       {"index": 3, "word": "economy", "pos": "NN"}],
            "dependencies": [
                {"dep": "nsubj", "governor": 2, "governorGloss": "rescues",
                 "dependent": 1, "dependentGloss": None},
                {"dep": "root", "governor": 0, "governorGloss": "ROOT",
                 "dependent": 2, "dependentGloss": "rescues"},
                {"dep": "dobj", "governor": 2, "governorGloss": "rescues",
                 "dependent": 3, "dependentGloss": "economy"},
            ],
        }
        parses = tmp_path / name
        parses.write_text(f"\n{json.dumps(parse)}\n")
        dataset = tmp_path / "d.txt"
        dataset.write_text("Plan rescues economy [source: BBC]\n")
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(parses), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {parses}:2: token 1: key 'word' must be a string, got None\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("rows, edge", [
        # nmod_of read the root as a noun: "Bank has ROOT".
        ([("Bank", "NNP", 0, "nmod"), ("of", "IN", 1, "case"), ("England", "NNP", 4, "nsubj"),
          ("acts", "VBZ", 0, "root")], "edge nmod of token 1"),
        # future read the root as the last token: "race is not yet raced".
        ([("Team", "NN", 3, "nsubj"), ("will", "MD", 0, "aux"), ("win", "VB", 0, "root"),
          ("race", "NN", 0, "obj")], "edge aux of token 2"),
    ])
    def test_edge_other_than_the_root_edge_from_the_root_is_an_error(
        self, tmp_path, capsys, rows, edge
    ):
        text = " ".join(form for form, *_ in rows)
        conllu = tmp_path / "p.conllu"
        conllu.write_text(f"# sent_id = 1\n# text = {text}\n" + "".join(
            f"{k}\t{form}\t_\t_\t{pos}\t_\t{head}\t{deprel}\t_\t_\n"
            for k, (form, pos, head, deprel) in enumerate(rows, start=1)
        ) + "\n")
        dataset = tmp_path / "d.txt"
        dataset.write_text(f"{text} [source: BBC]\n")
        code = main(["infer", "--strict", "--rules", "all", "--dataset", str(dataset),
                     "--parses", str(conllu), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {conllu}:1: 1: {edge} hangs from the root, which only the root edge may\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt", "p.conllu"]

    def test_conllu_and_stanford_json_fixtures_infer_alike(self, tmp_path):
        """basic_triggers.conllu holds the trees of basic_triggers.json."""
        _, from_json = run_infer(tmp_path, ["--rules", "all"], name="json.jsonl")
        _, from_conllu = run_infer(tmp_path, ["--rules", "all"],
                                   parses="basic_triggers.conllu", name="conllu.jsonl")
        assert len(read_jsonl(from_json)) == 7
        assert from_conllu.read_bytes() == from_json.read_bytes()

    def test_conllu_extension_in_any_case(self, tmp_path):
        parses = tmp_path / "x.CoNLLU"
        parses.write_bytes((FIXTURES / "basic_triggers.conllu").read_bytes())
        code, out = run_infer(tmp_path, ["--rules", "all", "--parses", str(parses)])
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / "basic_triggers.jsonl").read_bytes()

    @pytest.mark.parametrize("dataset", dict.fromkeys(d for d, _ in PINNED_RUNS))
    def test_crlf_json_lines_with_blank_ends_are_pinned(self, tmp_path, dataset):
        """The array fixture as JSON Lines with CRLF line ends and a blank
        line at each end infers as the array does."""
        records = json.loads((FIXTURES / f"{dataset}.json").read_text("utf-8"))
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        parses = tmp_path / f"{dataset}.jsonl"
        parses.write_bytes("\r\n".join(["", *lines, "", ""]).encode("utf-8"))
        code, out = run_infer(tmp_path, ["--rules", "all", "--parses", str(parses)],
                              dataset=f"{dataset}_dataset.txt")
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / f"{dataset}.jsonl").read_bytes()

    def test_parses_numbered_in_reverse_pair_by_id(self, tmp_path):
        """Parses whose ids are their lines' numbers pair by id in any order:
        the array reversed, ids 7..1, infers as the file in order does, and a
        line past the last id has no parse."""
        records = json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))
        parses = tmp_path / "reversed.json"
        parses.write_text(json.dumps([{**r, "sent_id": str(i)}
                                      for i, r in enumerate(records, start=1)][::-1]))
        code, out = run_infer(tmp_path, ["--rules", "all", "--parses", str(parses)])
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / "basic_triggers.jsonl").read_bytes()
        dataset = tmp_path / "eight.txt"
        dataset.write_bytes((FIXTURES / "basic_triggers_dataset.txt").read_bytes()
                            + b"Markets crashed [source: BBC]\n")
        code, _ = run_infer(tmp_path, ["--rules", "all", "--parses", str(parses),
                                       "--dataset", str(dataset)])
        assert code == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["skipped"] == [{"line": 8, "headline": "Markets crashed",
                                        "reason": "no parse"}]

    def test_each_lexical_rule_renders_its_own_inferences(self, tmp_path):
        """The five lexical.* rules share one registry function: together
        each renders its own inferences, and one id alone renders only it."""
        def triggers(rules):
            code, out = run_infer(tmp_path, ["--rules", rules], parses="lexical_triggers.json",
                                  dataset="lexical_triggers_dataset.txt")
            assert code == 0
            return Counter(i["trigger"] for r in read_jsonl(out) for i in r["inferences"])

        assert triggers("lexical") == {
            "lexical.iterative": 1, "lexical.change_of_state": 2, "lexical.factive": 1,
            "lexical.implicative": 1, "lexical.judging": 1,
        }
        assert triggers("lexical.judging") == {"lexical.judging": 1}

    @pytest.mark.parametrize("command", ["infer", "stats"])
    def test_hashtag_headline_is_warned_about(self, tmp_path, capsys, command):
        """A line that starts with '#' is a comment, but one that holds a
        '[source:' bracket is likely a headline that starts with a hashtag:
        it is still skipped, with a warning at its line.  Record numbers are
        unchanged."""
        dataset = tmp_path / "d.txt"
        dataset.write_text("# a comment\n#MeToo wave hits Hollywood [source: BBC May 08, 2016]\n"
                           "Markets crashed [source: BBC]\n")
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "# sent_id = 1\n# text = Markets crashed\n"
            "1\tMarkets\t_\t_\tNNS\t_\t2\tnsubj\t_\t_\n"
            "2\tcrashed\t_\t_\tVBD\t_\t0\troot\t_\t_\n\n"
        )
        out = tmp_path / "o.jsonl"
        argv = {"infer": ["infer", "--strict", "--parses", str(conllu), "--out", str(out)],
                "stats": ["stats"]}[command]
        assert main([*argv, "--dataset", str(dataset)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: {dataset}:2: line starts with '#' but holds a '[source:' bracket; "
            "skipped as a comment\n"
        )
        if command == "infer":
            (record,) = read_jsonl(out)
            assert record["headline"] == "Markets crashed"
            manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
            assert (manifest["headlines"], manifest["skipped"]) == (1, [])
        else:
            assert captured.out.startswith("headlines: 1\n")

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
            f"warning: {dataset}:1: parse of 'Totally different' does not match "
            "'A headline here'\n"
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
            f"warning: {dataset}:1: parse of 'Markets crashed' does not match 'A headline here'\n"
            "error: 1 headline(s) without a matching parse\n"
        )
        # Paired by id with a line of the same letters, the parse is used.
        dataset.write_text("markets CRASHED! [source: BBC May 08, 2016]\n")
        assert main([*argv, "--strict"]) == 0
        (record,) = read_jsonl(out)
        assert "Markets has crashed" in [i["text"] for i in record["inferences"]]

    def test_warning_names_the_dataset_file_line(self, tmp_path, capsys):
        """A skipped record is warned about at its line in the dataset file,
        which counts comment and blank lines; the manifest keeps its record
        number, the id a parse must carry."""
        lines = (FIXTURES / "basic_triggers_dataset.txt").read_text("utf-8").splitlines()
        dataset = tmp_path / "d.txt"
        dataset.write_text("\n".join(["# two figure headlines", "", *lines[:2],
                                      "Markets crashed [source: BBC]", ""]))
        code, out = run_infer(tmp_path, extra=["--dataset", str(dataset)])
        assert code == 0
        assert len(read_jsonl(out)) == 2
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        parse = load_parses(str(FIXTURES / "basic_triggers.json"))[2].raw_text
        assert manifest["skipped"] == [{"line": 3, "headline": "Markets crashed",
                                        "reason": "mismatch", "parse": parse}]
        assert capsys.readouterr().err.splitlines()[0] == (
            f"warning: {dataset}:5: parse of {parse!r} does not match 'Markets crashed'"
        )

    def test_path_that_is_not_utf8_is_written_escaped(self, tmp_path):
        """A path whose bytes are not UTF-8 is recorded in the manifest with
        those bytes as \\xNN escapes, and the run succeeds."""
        parses = os.path.join(os.fsencode(tmp_path), b"p\xff.json")
        try:
            with open(parses, "wb") as f:
                f.write((FIXTURES / "basic_triggers.json").read_bytes())
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
        code, out = run_infer(tmp_path, extra=["--rules", "all", "--parses", os.fsdecode(parses)])
        assert code == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / "basic_triggers.jsonl").read_bytes()
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text("utf-8"))
        assert manifest["parses"].endswith("p\\xff.json")

    def test_error_line_writes_a_missing_path_that_is_not_utf8_escaped(self, tmp_path, capsys):
        """An error line names a path as the manifest does: a byte that is
        not UTF-8 as \\xNN, not as the surrogate Python decodes it to."""
        missing = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"nope\xff.txt"))
        code, _ = run_infer(tmp_path, extra=["--dataset", missing])
        assert code == 1
        want = f"error: {tmp_path}{os.sep}nope\\xff.txt: file not found\n"
        assert capsys.readouterr().err == want

    def test_format_error_writes_its_path_that_is_not_utf8_escaped(self, tmp_path, capsys):
        """A FormatError whose message holds a path that is not UTF-8 is
        written with that path escaped too."""
        dataset = os.path.join(os.fsencode(tmp_path), b"d\xff.txt")
        try:
            with open(dataset, "wb") as f:
                f.write(b"# a first line\n\xff\xfe then bytes that are not UTF-8\n")
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
        code, _ = run_infer(tmp_path, extra=["--dataset", os.fsdecode(dataset)])
        assert code == 1
        want = f"error: {tmp_path}{os.sep}d\\xff.txt:2: not valid UTF-8\n"
        assert capsys.readouterr().err == want

    def test_infer_warnings_and_strict_error_write_paths_that_are_not_utf8_escaped(
        self, tmp_path, capsys
    ):
        """Every line infer writes to stderr names a dataset or parses path
        as the manifest does: a byte that is not UTF-8 as \\xNN."""
        dataset = os.path.join(os.fsencode(tmp_path), b"d\xff.txt")
        parses = os.path.join(os.fsencode(tmp_path), b"p\xff.jsonl")

        def parse(hid, first, second):
            return json.dumps({
                "sent_id": hid, "headline": f"{first} {second}",
                "tokens": [{"index": 1, "word": first, "pos": "NNS"},
                           {"index": 2, "word": second, "pos": "VBD"}],
                "dependencies": [
                    {"dep": "root", "governor": 0, "governorGloss": "ROOT",
                     "dependent": 2, "dependentGloss": second},
                    {"dep": "nsubj", "governor": 2, "governorGloss": second,
                     "dependent": 1, "dependentGloss": first},
                ],
            }) + "\n"

        try:
            with open(dataset, "wb") as f:
                f.write(b"#MeToo wave [source: BBC]\nA headline here [source: BBC]\n"
                        b"Markets crashed [source: BBC]\nNothing parsed [source: BBC]\n")
            # Records 1 and 2 both pair with the first parse, by position and
            # by id; record 3 has none, and the second parse is left over.
            with open(parses, "wb") as f:
                f.write((parse("2", "Markets", "crashed") + parse("x", "Extra", "parse"))
                        .encode("utf-8"))
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
        code, out = run_infer(tmp_path, extra=["--strict", "--dataset", os.fsdecode(dataset),
                                               "--parses", os.fsdecode(parses)])
        assert code == 1
        assert [r["headline"] for r in read_jsonl(out)] == ["Markets crashed"]
        dataset_text, parses_text = (f"{tmp_path}{os.sep}{name}"
                                     for name in ("d\\xff.txt", "p\\xff.jsonl"))
        assert capsys.readouterr().err == (
            f"warning: {dataset_text}:1: line starts with '#' but holds a '[source:' bracket; "
            "skipped as a comment\n"
            f"warning: {dataset_text}:2: parse of 'Markets crashed' does not match "
            "'A headline here'\n"
            f"warning: {dataset_text}:4: no parse for 'Nothing parsed'\n"
            f"warning: {parses_text}: 1 parse(s) paired with no dataset line; "
            "see 'unused_parses' in the manifest\n"
            "error: 2 headline(s) without a matching parse\n"
        )

    def test_conllu_comment_that_renames_a_sentence_is_an_input_error(self, tmp_path, capsys):
        """A '# sent_id' line with no blank line before it would give the
        first sentence's tokens the second one's id and text, and pair them
        with the second dataset line: it is an error at its line."""
        conllu = tmp_path / "p.conllu"
        conllu.write_text(
            "# sent_id = 1\n# text = Hello world\n"
            "1\tHello\t_\tINTJ\tUH\t_\t0\troot\t_\t_\n"
            "# sent_id = 2\n# text = Bye\n"
            "2\tworld\t_\tNOUN\tNN\t_\t1\tvocative\t_\t_\n\n"
        )
        dataset = tmp_path / "d.txt"
        dataset.write_text("Hello world [source: BBC]\nBye [source: BBC]\n")
        out = tmp_path / "o.jsonl"
        assert main(["infer", "--dataset", str(dataset), "--parses", str(conllu),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {conllu}:4: '# sent_id' line inside sentence 1; "
            "a blank line must end the sentence first\n"
        )
        assert not out.exists()

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

    def test_unused_parses_are_listed_and_warned_about_once(self, tmp_path, capsys):
        """Parses no dataset line was paired with are listed in the manifest
        by position and id, with one warning; the exit code stays 0, under
        --strict too."""
        dataset = tmp_path / "d.txt"
        lines = (FIXTURES / "basic_triggers_dataset.txt").read_text("utf-8").splitlines()
        dataset.write_text("\n".join(lines[:3]) + "\n")
        parses = FIXTURES / "basic_triggers.json"
        out = tmp_path / "o.jsonl"
        code = main(["infer", "--strict", "--dataset", str(dataset), "--parses", str(parses),
                     "--out", str(out)])
        assert code == 0
        assert len(read_jsonl(out)) == 3
        manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
        ids = [h.headline_id for h in load_parses(str(parses))]
        assert manifest["skipped"] == []
        assert manifest["unused_parses"] == [
            {"position": k, "id": ids[k - 1]} for k in range(4, 8)
        ]
        assert capsys.readouterr().err == (
            f"warning: {parses}: 4 parse(s) paired with no dataset line; "
            "see 'unused_parses' in the manifest\n"
        )
        # Every parse used: the key is empty and nothing is said.
        code, _ = run_infer(tmp_path)
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert (code, manifest["unused_parses"], capsys.readouterr().err) == (0, [], "")

    def test_preprocess_runs_once_per_inferred_headline_in_order(self, tmp_path, monkeypatch):
        """The engine takes its headlines a chunk at a time, but the CLI
        still calls ``preprocess`` once for each headline it infers, in
        dataset order, and for no skipped line; over more than two chunks,
        with lines that no parse has and parses that no line uses."""
        base = load_parses(str(FIXTURES / "basic_triggers.conllu"))
        n = 3 * CHUNK
        texts = [f"Nothing parsed here {i}" if i % 5 == 0 else base[i % len(base)].raw_text
                 for i in range(1, n + 1)]
        (tmp_path / "d.txt").write_text("".join(f"{t} [source: BBC]\n" for t in texts), "utf-8")
        blocks = [(str(i), base[i % len(base)]) for i in range(1, n + 1) if i % 5]
        blocks += [(f"extra-{k}", base[k]) for k in range(3)]
        (tmp_path / "p.conllu").write_text("".join(
            f"# sent_id = {hid}\n# text = {h.raw_text}\n" + "".join(
                f"{t.index}\t{t.surface}\t_\t_\t{t.pos}\t_\t{e.governor}\t{e.dep}\t_\t_\n"
                for t, e in zip(h.tokens, h.edges)) + "\n"
            for hid, h in blocks), "utf-8")
        calls = []

        def spy(text):
            calls.append(text)
            return corpus.preprocess(text)

        monkeypatch.setattr(cli, "preprocess", spy)
        out = tmp_path / "o.jsonl"
        assert main(["infer", "--rules", "all", "--dataset", str(tmp_path / "d.txt"),
                     "--parses", str(tmp_path / "p.conllu"), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
        skipped = {s["line"] for s in manifest["skipped"]}
        assert skipped and manifest["unused_parses"]
        assert calls == [t for i, t in enumerate(texts, start=1) if i not in skipped]
        assert calls == [r["headline"] for r in read_jsonl(out)]
        assert len(calls) == manifest["inferred"] > 2 * CHUNK

    def test_preprocess_runs_at_most_one_chunk_ahead_of_the_engine(self, tmp_path, monkeypatch):
        """The CLI hands the engine its headlines lazily: when the engine
        builds the view of headline k (from 0), ``preprocess`` has run for
        exactly the headlines of k's chunk and those before it, no more."""
        preprocessed, ahead = [], []

        def spy_preprocess(text):
            preprocessed.append(text)
            return corpus.preprocess(text)

        def spy_edge_view(h, strict_verbs, quotes):
            ahead.append(len(preprocessed))
            return edge_view(h, strict_verbs, quotes)

        monkeypatch.setattr(cli, "preprocess", spy_preprocess)
        monkeypatch.setattr(rules, "edge_view", spy_edge_view)
        out = tmp_path / "o.jsonl"
        assert main(["infer", "--rules", "all",
                     "--dataset", repeated(tmp_path, "basic_triggers_dataset.txt", 15),
                     "--parses", repeated(tmp_path, "basic_triggers.conllu", 15, "\n"),
                     "--out", str(out)]) == 0
        n = len(read_jsonl(out))
        assert n > 3 * CHUNK and n % CHUNK
        assert ahead == [min((k // CHUNK + 1) * CHUNK, n) for k in range(n)]

    def test_parse_of_another_id_gets_the_line_id_and_text(self, tmp_path):
        """A sentence without a sent_id, one whose id is not its line number
        and one whose text differs from its line's only in punctuation all
        infer as the same parses with the line's own id and text: the quote
        is found in the line, and its tokens by the line's letters."""
        rows = (
            "1\tMerkel\t_\t_\tNNP\t_\t2\tdep\t_\t_\n"  # no speaker: the span is the quote's
            "2\tsays\t_\t_\tVBZ\t_\t0\troot\t_\t_\n"
            "3\tBrexit\t_\t_\tNNP\t_\t4\tcompound\t_\t_\n"
            "4\ttalks\t_\t_\tNNS\t_\t2\tdobj\t_\t_\n"
            "5\tstall\t_\t_\tVBP\t_\t2\tccomp\t_\t_\n\n"
        )
        text = 'Merkel says "Brexit talks stall"'
        dataset = tmp_path / "d.txt"
        dataset.write_text("".join(f"{text} [source: BBC]\n" for _ in range(3)))
        matching = tmp_path / "matching.conllu"
        matching.write_text("".join(f"# sent_id = {i}\n# text = {text}\n{rows}" for i in (1, 2, 3)))
        other = tmp_path / "other.conllu"
        other.write_text(
            rows  # no sent_id: its id is its text
            + f"# sent_id = b\n# text = {text}\n{rows}"
            + f"# sent_id = 3\n# text = Merkel -- says Brexit talks stall\n{rows}"
        )
        outputs = []
        for parses in (matching, other):
            out = tmp_path / f"{parses.stem}.jsonl"
            argv = ["infer", "--strict", "--rules", "all", "--dataset", str(dataset),
                    "--parses", str(parses), "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        records = read_jsonl(out)
        assert [r["headline"] for r in records] == [text] * 3
        assert all({"trigger": "quotes", "text": "something is said", "span": [3, 4, 5],
                    "kind": ">>"} in r["inferences"] for r in records)

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

    @pytest.mark.parametrize("layout", ["p.jsonl", "p.json"])
    def test_lone_surrogate_names_file_and_line(self, tmp_path, capsys, layout):
        """A \\ud800 escape in a token's word and gloss passes the letters
        check, and one in the id of a parse no line uses reaches the
        manifest: each is an error at its line before anything is written."""
        dataset = tmp_path / "d.txt"
        dataset.write_text("Markets fall again [source: BBC]\n")
        words = ["Markets\ud800", "fall", "again"]
        edges = [("nsubj", 2, 1), ("root", 0, 2), ("advmod", 2, 3)]
        obj = {
            "sent_id": "1", "headline": "Markets fall again",
            "tokens": [{"index": i, "word": w, "pos": pos}
                       for i, (w, pos) in enumerate(zip(words, ["NNS", "VBP", "RB"]), 1)],
            "dependencies": [{"dep": dep, "governor": gov, "governorGloss": ["ROOT", *words][gov],
                              "dependent": dependent, "dependentGloss": words[dependent - 1]}
                             for dep, gov, dependent in edges],
        }
        parses = tmp_path / layout
        # Two JSON Lines records, so that the file is not read as one object.
        lines = [json.dumps(obj)] * 2 if layout == "p.jsonl" else [json.dumps([obj])]
        parses.write_text("\n" + "\n".join(lines))
        assert "\\ud800" in parses.read_text()
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(parses), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {parses}:2: token 1: lone surrogate '\\ud800' is not valid UTF-8\n"
        )
        assert not out.exists()
        # An escaped surrogate pair is one character, and an escaped
        # backslash before a "u" is no escape of a character at all.
        words[0] = "Markets\U0001F680\\u"
        obj["tokens"][0]["word"] = obj["dependencies"][0]["dependentGloss"] = words[0]
        parses.write_text(json.dumps(obj))
        assert "\\ud83d\\ude80" in parses.read_text()
        assert main(argv) == 0
        (record,) = read_jsonl(out)
        assert words[0] in record["inferences"][0]["text"]
        # The id of a parse no line uses, which unused_parses would write.
        unused = dict(obj, sent_id="x\ud800")
        if layout == "p.jsonl":
            parses.write_text("\n".join(["", json.dumps(obj), json.dumps(unused)]))
        else:
            parses.write_text("\n".join(["[", json.dumps(obj) + ",", json.dumps(unused), "]"]))
        out.unlink()
        Path(f"{out}.manifest.json").unlink()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {parses}:3: id: lone surrogate '\\ud800' is not valid UTF-8\n"
        )
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    @staticmethod
    def surrogate_id_run(tmp_path):
        """(argv, its stderr) of an infer run whose parse is no tree and has
        the id 'x\\ud800': the error quotes the id as read."""
        dataset, parses = tmp_path / "d.txt", tmp_path / "p.json"
        dataset.write_text("x [source: BBC]\n")
        parses.write_text(json.dumps({"headline": "x", "sent_id": "x\ud800", "dependencies": [],
                                      "tokens": [{"index": 1, "word": "x", "pos": "NN"}]}))
        argv = ["infer", "--dataset", str(dataset), "--parses", str(parses),
                "--out", str(tmp_path / "o.jsonl")]
        return argv, f"error: {parses}:1: x\\ud800: expected one root edge, got 0\n"

    def test_error_line_escapes_a_lone_surrogate_of_a_message(self, tmp_path, capsys):
        """The error line is valid UTF-8 on any stream: a lone surrogate
        other than an escaped path byte is written \\uNNNN."""
        argv, err = self.surrogate_id_run(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == err

    def test_error_line_with_a_lone_surrogate_in_a_child(self, tmp_path):
        """Run as a program, the line has the bytes that stderr's own
        ``backslashreplace`` would write for the unescaped message."""
        argv, err = self.surrogate_id_run(tmp_path)
        done = subprocess.run([sys.executable, "-m", "presup.cli", *argv], capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (1, b"", err.encode("utf-8"))

    def test_deep_json_array_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text("\n" + "[" * 100_000 + "\n")
        code, _ = run_infer(tmp_path, extra=["--parses", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "fixture, headline_id, spans",
    [
        ("lexical_triggers", "quotes", ((6, 8),)),
        ("escapes", "quotes", ((3, 6),)),
        ("basic_triggers", "again", ((5, 5),)),
    ],
)
def test_spans_for_tokens_as_the_benchmark_sets_them(fixture, headline_id, spans):
    """The first and last token of each quote, set as ``quoted_spans`` the
    way the benchmark's rule timing builds its headlines; no rule reads
    them, so every rule renders the same for either headline."""
    loaded = load_fixture_corpus(f"{fixture}.json", f"{fixture}_dataset.txt")
    h = next(h for h, _, _ in loaded if h.headline_id == headline_id)
    p = corpus.preprocess(h.raw_text)
    quoted = replace(h, quoted_spans=cli._spans_for_tokens(h, p))
    assert quoted.quoted_spans == spans
    cfg = rules.EngineConfig(rules=RULE_IDS)
    assert rules.generate_all(quoted, p, cfg) == rules.generate_all(h, p, cfg) != []


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
    "stanford json": (
        parse_stanford_json,
        lambda x: json.dumps({
            "headline": f"{x} crashed",
            "tokens": [{"index": 1, "word": x, "pos": "NNS"},
                       {"index": 2, "word": "crashed", "pos": "VBD"}],
            "dependencies": [
                {"dep": "nsubj", "governor": 2, "governorGloss": "crashed",
                 "dependent": 1, "dependentGloss": x},
                {"dep": "root", "governor": 0, "governorGloss": "ROOT",
                 "dependent": 2, "dependentGloss": "crashed"},
            ],
        }, indent=1, ensure_ascii=False),
        lambda h: h.tokens[0].surface,
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
                       _read_config_file, {"rules": ("future", 2), "compound_mode": ("can_be", 3)}),
            "parses": (GOOD_PARSE + "\n\n" + GOOD_PARSE + "\n",
                       lambda p: len(load_parses(p)), 2),
            "inferences": ('{"headline": "A"}\n{"headline": "B", "inferences": []}\n',
                           lambda p: sorted(_read_inference_file(p, {}, {"a", "b"})),
                           ["a", "b"]),
        }[reader]
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert read(str(path)) == want


class TestByteOrderMark:
    """One leading U+FEFF, which some editors write first, is not text."""

    @pytest.mark.parametrize("reader", DOCUMENT_READERS)
    def test_leading_mark_is_dropped(self, tmp_path, reader):
        read, document, _ = DOCUMENT_READERS[reader]
        path = tmp_path / "f"
        path.write_bytes(b"\xef\xbb\xbf" + document("markets").encode("utf-8"))
        assert read(read_text(str(path))) == read(document("markets"))

    def test_only_the_first_mark_is_dropped(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n\xef\xbb\xbf")
        assert read_text(str(path)) == "\ufeffa\n\ufeff"

    @pytest.mark.parametrize("parses", [
        "basic_triggers.json", "basic_triggers.conllu", "basic_triggers.jsonl",
    ])
    def test_infer_from_marked_files_is_pinned(self, tmp_path, parses):
        """A marked dataset and parse file give the pinned output: no U+FEFF
        in the first headline, and no parse error on the first line."""
        dataset = tmp_path / "d.txt"
        source = FIXTURES / "basic_triggers_dataset.txt"
        dataset.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        objs = json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))
        text = ("\n".join(map(json.dumps, objs)) if parses.endswith(".jsonl")
                else (FIXTURES / parses).read_text("utf-8"))
        marked = tmp_path / parses
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        out = tmp_path / "o.jsonl"
        argv = ["infer", "--dataset", str(dataset), "--parses", str(marked),
                "--out", str(out), "--rules", "all", "--strict"]
        assert main(argv) == 0
        assert out.read_bytes() == (FIXTURES / "pinned" / "basic_triggers.jsonl").read_bytes()


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
    # A leading byte-order mark counts toward the line: a decoder that drops
    # it before decoding would count 3 bytes short and name line 1.
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys, command, flag, name, mark):
        bad = tmp_path / name
        bad.write_bytes(mark + b"# a first line\n\xff\xfe then bytes that are not UTF-8\n")
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

    # Writing to /dev/full fails when the file is flushed, and that error
    # carries no file name.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv, written", [
        ([*INFER, "--out", "/dev/full"], "/dev/full"),
        ([*INFER, "--out", "{tmp}/o.jsonl"], "{tmp}/o.jsonl.manifest.json"),
        ([*EVAL, "--out", "/dev/full"], "/dev/full"),
        ([*EVAL, "--out", "{tmp}/r.json", "--table", "/dev/full"], "/dev/full"),
    ], ids=["infer-out", "infer-manifest", "eval-out", "eval-table"])
    def test_full_disk_names_the_file_written(self, tmp_path, capsys, argv, written):
        (tmp_path / "o.jsonl.manifest.json").symlink_to("/dev/full")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {written.format(tmp=tmp_path)}: No space left on device\n"

    def test_os_error_without_a_file_names_no_file(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(cli, "read_dataset", fail)
        assert main(["stats", "--dataset", str(FIXTURES / "basic_triggers_dataset.txt")]) == 1
        assert capsys.readouterr().err == "error: Input/output error\n"


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

    def test_output_is_pinned(self, tmp_path, capsys):
        """The report, the table and stdout, byte for byte.  A change that
        means to alter them rewrites the pinned files and says why."""
        table = tmp_path / "table.tsv"
        code, out = self.run_eval(tmp_path, extra=["--table", str(table)])
        assert code == 0
        pinned = FIXTURES / "pinned"
        assert out.read_bytes() == (pinned / "scored_report.json").read_bytes()
        assert table.read_bytes() == (pinned / "scored_table.tsv").read_bytes()
        assert capsys.readouterr().out == (pinned / "scored_stdout.txt").read_text("utf-8")

    def test_jaccard_output_is_pinned(self, tmp_path, capsys):
        """Jaccard mode without labels at a low threshold, so that the Jaccard
        phase pairs what exact matching leaves (3 of 5 gold on the first
        headline, where exact mode pairs none): report and stdout, byte for
        byte."""
        extra = ["--match-mode", "jaccard", "--jaccard-threshold", "0.3"]
        code, out = self.run_eval(tmp_path, labels=False, extra=extra)
        assert code == 0
        pinned = FIXTURES / "pinned"
        assert out.read_bytes() == (pinned / "scored_jaccard_report.json").read_bytes()
        stdout = capsys.readouterr().out
        assert stdout == (pinned / "scored_jaccard_stdout.txt").read_text("utf-8")
        assert json.loads(out.read_text())["headlines"][0]["matched"] == 3

    @pytest.mark.parametrize("labels, pinned", [
        (True, ("scored_report.json", "scored_table.tsv", "scored_stdout.txt")),
        (False, ("scored_jaccard_report.json", None, "scored_jaccard_stdout.txt")),
    ])
    def test_crlf_and_marked_inputs_are_pinned(self, tmp_path, capsys, labels, pinned):
        """CRLF copies of the JSON Lines inputs and a gold file that starts
        with a byte-order mark give the pinned report, table and stdout."""
        files = {}
        for name in ("scored_computed.jsonl", "scored_labels.jsonl"):
            files[name] = tmp_path / name
            files[name].write_bytes((FIXTURES / name).read_bytes().replace(b"\n", b"\r\n"))
        gold = tmp_path / "gold.txt"
        gold.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "scored_gold.txt").read_bytes())
        out, table = tmp_path / "report.json", tmp_path / "table.tsv"
        argv = ["eval", "--inferences", str(files["scored_computed.jsonl"]),
                "--gold", str(gold), "--out", str(out), "--table", str(table)]
        if labels:
            argv += ["--labels", str(files["scored_labels.jsonl"])]
        else:
            argv += ["--match-mode", "jaccard", "--jaccard-threshold", "0.3"]
        assert main(argv) == 0
        report, pinned_table, stdout = (FIXTURES / "pinned" / n if n else None for n in pinned)
        assert out.read_bytes() == report.read_bytes()
        if pinned_table:
            assert table.read_bytes() == pinned_table.read_bytes()
        captured = capsys.readouterr()
        assert captured.out == stdout.read_text("utf-8")
        assert captured.err == ""

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
                # JSON true is a bool, which Python counts as an int.
                ('"inferences": [{"kind": ">>", "text": "a", "span": [true]}]}',
                 "inference 'span' must be a list of integers"),
                ('"inferences": [{"kind": ">>", "text": "a", "span": [1, false]}]}',
                 "inference 'span' must be a list of integers"),
                ('"inferences": [{"kind": ">>", "text": "a", "span": [1.0]}]}',
                 "inference 'span' must be a list of integers"),
                ('"inferences": [{"kind": ">>", "text": "a", "span": [1, "2"]}]}',
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
                ('"incorrect": [null]}', "'incorrect' must be a list of strings"),
                ('"matched": [["a", null]]}', "'matched' must be a list of"),
                ('"matched": [["a", true]]}', "'matched' must be a list of"),
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

    def test_lone_surrogate_in_trigger_names_file_and_line(self, tmp_path, capsys):
        """A trigger reaches the report, the table and stdout, which no
        UTF-8 output can hold with a \\ud800 in it: an error at its line
        before anything is written."""
        inferences = tmp_path / "inferences.jsonl"
        inferences.write_text(
            (FIXTURES / "scored_computed.jsonl").read_text("utf-8").split("\n")[0] + "\n"
            + json.dumps({"headline": "Second", "inferences": [
                {"kind": ">>", "text": "a", "trigger": "pa\ud800st"}]}) + "\n"
        )
        out, table = tmp_path / "report.json", tmp_path / "table.tsv"
        argv = ["eval", "--inferences", str(inferences), "--out", str(out), "--table", str(table),
                "--gold", str(FIXTURES / "scored_gold.txt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {inferences}:2: inference 'trigger': lone surrogate '\\ud800' "
            "is not valid UTF-8\n"
        )
        assert captured.out == ""
        assert not out.exists() and not table.exists()

    @pytest.mark.parametrize("trigger", ["pa\tst", "pa\rst", "pa\nst", "pa\x00st"])
    def test_unprintable_trigger_names_file_and_line(self, tmp_path, capsys, trigger):
        """A tab or a line break in a trigger would split its row of the
        table: an error at its line before anything is written."""
        inferences = tmp_path / "inferences.jsonl"
        inferences.write_text(
            (FIXTURES / "scored_computed.jsonl").read_text("utf-8").split("\n")[0] + "\n"
            + json.dumps({"headline": "Second", "inferences": [
                {"kind": ">>", "text": "a", "trigger": trigger}]}) + "\n"
        )
        out, table = tmp_path / "report.json", tmp_path / "table.tsv"
        argv = ["eval", "--inferences", str(inferences), "--out", str(out), "--table", str(table),
                "--gold", str(FIXTURES / "scored_gold.txt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {inferences}:2: inference 'trigger' must be printable, got {trigger!r}\n"
        )
        assert captured.out == ""
        assert not out.exists() and not table.exists()

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

    def test_bad_threshold_is_an_error_before_any_file_is_read(self, tmp_path, capsys):
        """eval checks its flags before it reads an input, as infer does: no
        warning about the inputs comes before the error, and a missing
        input goes unnamed."""
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text('{"headline": "Markets fall again", "inferences": []}\n')
        for inferences in (orphan, tmp_path / "nope.jsonl"):
            assert main(["eval", "--inferences", str(inferences), "--jaccard-threshold", "1.5",
                         "--gold", str(FIXTURES / "scored_gold.txt")]) == 1
            assert capsys.readouterr().err == "error: jaccard_threshold must be within [0, 1]\n"

    def test_record_without_gold_block_warns_by_file_and_line(self, tmp_path, capsys):
        """An inferences or labels record whose headline no gold block has is
        named on stderr; the report is as without it and the exit code 0."""
        orphan = '{"headline": "Markets fall again", "inferences": [], "incorrect": []}\n'
        files = {}
        for name in ("scored_computed.jsonl", "scored_labels.jsonl"):
            files[name] = tmp_path / name
            files[name].write_text((FIXTURES / name).read_text("utf-8") + "\n" + orphan)
        out = tmp_path / "report.json"
        code = main(["eval", "--inferences", str(files["scored_computed.jsonl"]),
                     "--labels", str(files["scored_labels.jsonl"]),
                     "--gold", str(FIXTURES / "scored_gold.txt"), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == "".join(
            f"warning: {files[name]}:5: no gold block for 'Markets fall again'; record ignored\n"
            for name in ("scored_computed.jsonl", "scored_labels.jsonl")
        )
        assert out.read_bytes() == (FIXTURES / "pinned" / "scored_report.json").read_bytes()

    def test_gold_without_computed_warns(self, tmp_path, capsys):
        """A gold block with no computed record is named by the gold file
        and the line of its headline."""
        gold = tmp_path / "gold.txt"
        gold.write_text("# no record has this one\n\nUnknown headline\n>> something\n||\n"
                        + (FIXTURES / "scored_gold.txt").read_text("utf-8"))
        code = main(
            ["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
             "--gold", str(gold)]
        )
        assert code == 0
        assert capsys.readouterr().err == (
            f"warning: {gold}:3: no computed inferences for 'Unknown headline'; "
            "counting all gold as missing\n"
        )

    def run_with_labels(self, tmp_path, capsys, records, gold=FIXTURES / "scored_gold.txt"):
        """Eval on the scored inferences with ``records`` as the labels file:
        (exit code, report bytes, stderr, labels path)."""
        labels, out = tmp_path / "labels.jsonl", tmp_path / "report.json"
        labels.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        code = main(["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
                     "--gold", str(gold), "--labels", str(labels), "--out", str(out)])
        return code, out.read_bytes(), capsys.readouterr().err, labels

    @pytest.mark.parametrize("line, field, extra, warning", [
        (1, "matched", ["No such gold text", "Korea can have deadline"],
         "matched gold text 'No such gold text' names no gold inference of {h!r}; ignored"),
        (1, "matched", ["There exists North Korea", "no such computed text"],
         "matched computed text 'no such computed text' names no computed inference of {h!r}; "
         "ignored"),
        (3, "incorrect", "nobody said this",
         "incorrect label 'nobody said this' names no computed inference of {h!r}; ignored"),
    ], ids=["gold-side", "computed-side", "incorrect"])
    def test_label_that_names_nothing_warns(self, tmp_path, capsys, line, field, extra, warning):
        """A judged pair's side or an incorrect label that normalizes to none
        of its headline's inferences is warned about at its record's line;
        exit code and report are as without it."""
        records = read_jsonl(FIXTURES / "scored_labels.jsonl")
        records[line - 1].setdefault(field, []).append(extra)
        code, report, err, labels = self.run_with_labels(tmp_path, capsys, records)
        assert code == 0
        headline = records[line - 1]["headline"]
        assert err == f"warning: {labels}:{line}: {warning.format(h=headline)}\n"
        assert report == (FIXTURES / "pinned" / "scored_report.json").read_bytes()

    def test_labels_that_name_nothing_warn_once_each_in_sorted_order(self, tmp_path, capsys):
        """Each text is warned about once, however many pairs hold it, and a
        record's warnings come sorted, whatever the order of a set."""
        records = read_jsonl(FIXTURES / "scored_labels.jsonl")
        records[0]["matched"] += [["gone", computed] for computed in
                                  ("Korea can have deadline", "Pyeongchang has games")]
        records[0]["incorrect"] = ["zeta", "alpha"]
        code, report, err, labels = self.run_with_labels(tmp_path, capsys, records)
        assert code == 0
        h = records[0]["headline"]
        assert err == "".join(f"warning: {labels}:1: {w} of {h!r}; ignored\n" for w in [
            "incorrect label 'alpha' names no computed inference",
            "incorrect label 'zeta' names no computed inference",
            "matched gold text 'gone' names no gold inference",
        ])

    def test_label_that_names_a_taken_text_is_not_warned_about(self, tmp_path, capsys):
        """A pair whose texts an earlier pair took names them: no warning,
        and the report is as without it."""
        records = read_jsonl(FIXTURES / "scored_labels.jsonl")
        records[0]["matched"].append(records[0]["matched"][0])
        records[2]["incorrect"].append("Campaign has deceived.")  # the same text, normalized
        code, report, err, _ = self.run_with_labels(tmp_path, capsys, records)
        assert (code, err) == (0, "")
        assert report == (FIXTURES / "pinned" / "scored_report.json").read_bytes()

    def test_labels_of_a_headline_already_warned_about_warn_no_more(self, tmp_path, capsys):
        """No label warning for a headline with no computed record or no gold
        block, and one for a record that two gold blocks share, whose gold
        texts may name an inference of either block."""
        gold = tmp_path / "gold.txt"
        gold.write_text("Unknown headline\n>> something\n||\n"
                        + (FIXTURES / "scored_gold.txt").read_text("utf-8")
                        + "IOC extends North Korea deadline for Pyeongchang games\n>> x\n||\n")
        records = read_jsonl(FIXTURES / "scored_labels.jsonl")
        records[0]["incorrect"] = ["nobody said this"]
        records[0]["matched"] += [["x", "Games has deadline"],  # "x": the second block's
                                  ["in neither block", "Games has deadline"]]
        records += [{"headline": "Unknown headline", "incorrect": ["nobody said this"]},
                    {"headline": "Orphan", "incorrect": ["nobody said this"]}]
        code, _, err, labels = self.run_with_labels(tmp_path, capsys, records, gold)
        assert code == 0
        assert err == (
            f"warning: {labels}:5: no gold block for 'Orphan'; record ignored\n"
            f"warning: {gold}:1: no computed inferences for 'Unknown headline'; "
            "counting all gold as missing\n"
            f"warning: {labels}:1: incorrect label 'nobody said this' names no computed "
            "inference of 'IOC extends North Korea deadline for Pyeongchang games'; ignored\n"
            f"warning: {labels}:1: matched gold text 'in neither block' names no gold "
            "inference of 'IOC extends North Korea deadline for Pyeongchang games'; ignored\n"
        )

    def test_repeated_labels_record_warns_at_its_first_line(self, tmp_path, capsys):
        """A labels record that repeats is read once, and its label warning
        names the line of the headline's first record; a record with no gold
        block is warned about at each of its lines."""
        h = read_jsonl(FIXTURES / "scored_labels.jsonl")[0]["headline"]
        first, orphan = {"headline": h, "incorrect": ["nobody said this"]}, {"headline": "Orphan"}
        code, _, err, labels = self.run_with_labels(tmp_path, capsys,
                                                    [first, orphan, first, orphan])
        assert code == 0
        assert err == (
            f"warning: {labels}:2: no gold block for 'Orphan'; record ignored\n"
            f"warning: {labels}:4: no gold block for 'Orphan'; record ignored\n"
            f"warning: {labels}:1: incorrect label 'nobody said this' names no computed "
            f"inference of {h!r}; ignored\n"
        )

    def test_warnings_write_paths_that_are_not_utf8_escaped(self, tmp_path, capsys):
        """The eval warnings name a gold or labels path as every other line
        does: a byte that is not UTF-8 as \\xNN."""
        gold = os.path.join(os.fsencode(tmp_path), b"g\xff.txt")
        labels = os.path.join(os.fsencode(tmp_path), b"l\xff.jsonl")
        records = [{"headline": "Orphan"}, *read_jsonl(FIXTURES / "scored_labels.jsonl")]
        records[3]["incorrect"] = ["z"]
        unknown = b"Unknown headline\n>> x\n||\n"
        try:
            with open(gold, "wb") as f:
                f.write(unknown + (FIXTURES / "scored_gold.txt").read_bytes())
            with open(labels, "wb") as f:
                f.write("".join(json.dumps(r) + "\n" for r in records).encode("utf-8"))
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
        code = main(["eval", "--inferences", str(FIXTURES / "scored_computed.jsonl"),
                     "--gold", os.fsdecode(gold), "--labels", os.fsdecode(labels)])
        assert code == 0
        gold_text, labels_text = (f"{tmp_path}{os.sep}{n}" for n in ("g\\xff.txt", "l\\xff.jsonl"))
        assert capsys.readouterr().err == (
            f"warning: {labels_text}:1: no gold block for 'Orphan'; record ignored\n"
            f"warning: {gold_text}:1: no computed inferences for 'Unknown headline'; "
            "counting all gold as missing\n"
            f"warning: {labels_text}:4: incorrect label 'z' names no computed inference of "
            f"{records[3]['headline']!r}; ignored\n"
        )

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

    @pytest.mark.parametrize("name, want", [
        ("basic_triggers_dataset.txt", "headlines: 7\n  BBC: 3\n  Reuters: 4\n"),
        ("lexical_triggers_dataset.txt",
         "headlines: 11\n  BBC: 3\n  Reuters: 6\n  The Hindu: 2\n"),
    ])
    def test_stats_output_on_fixtures_is_pinned(self, capsys, name, want):
        assert main(["stats", "--dataset", str(FIXTURES / name)]) == 0
        assert capsys.readouterr().out == want

    def test_stats(self, tmp_path, capsys):
        """The source is the bracket's words before the first that starts a
        date: a month name or abbreviation, with '.' or ',' after it, in any
        case, or a word that starts with a digit."""
        dataset = tmp_path / "d.txt"
        dataset.write_text(
            "A [source: BBC]\n"  # no timestamp
            "B [source: Reuters Sept. 5, 2018 01:00 PM IST]\n"
            "C [source: The Hindu may., 2018]\n"
            "D [source: Al Jazeera 2018-05-01]\n"  # a word that starts with a digit
            "E [source: Decembers Post 12:00]\n"  # not a month name
            "F [source: BBC  June 1\n"  # no ']'
            "G [source: March 3, 2018]\n"  # a date first: no source
            "H [source: ]\n",
            "utf-8",
        )
        assert main(["stats", "--dataset", str(dataset)]) == 0
        assert capsys.readouterr().out == (
            "headlines: 8\n"
            "  (unknown): 2\n"
            "  Al Jazeera: 1\n"
            "  BBC: 2\n"
            "  Decembers Post: 1\n"
            "  Reuters: 1\n"
            "  The Hindu: 1\n"
        )

    def test_stats_of_an_empty_bracket_is_unknown(self, tmp_path, capsys):
        dataset = tmp_path / "d.txt"
        dataset.write_text("Markets crashed [source:]\n", "utf-8")
        assert main(["stats", "--dataset", str(dataset)]) == 0
        assert capsys.readouterr().out == "headlines: 1\n  (unknown): 1\n"


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


class TestParseMemory:
    """What ``load_parses`` holds while it reads, and what its parses keep."""

    @pytest.mark.parametrize("layout", ["p.jsonl", "p.json", "p.conllu", "build_headline"])
    def test_edges_keep_their_tokens_strings(self, tmp_path, layout):
        """An edge's glosses are its tokens' words, the same string objects,
        or ``ROOT_GLOSS``: no equal copy of a word is kept."""
        if layout == "p.jsonl":
            parses = load_parses(json_lines(tmp_path, "basic_triggers.json", 1))
        elif layout == "p.json":
            parses = load_parses(str(FIXTURES / "basic_triggers.json"))
        elif layout == "p.conllu":
            parses = load_parses(str(FIXTURES / "basic_triggers.conllu"))
        else:
            def copy(text):
                return text.encode("utf-8").decode("utf-8")  # an equal, new string

            parses = [
                build_headline(h.headline_id, h.raw_text, h.tokens, [
                    (e.dep, e.governor, copy(e.governor_gloss), e.dependent,
                     copy(e.dependent_gloss))
                    for e in h.edges
                ])
                for h in load_parses(str(FIXTURES / "basic_triggers.json"))
            ]
        assert len(parses) == 7
        for h in parses:
            words = (ROOT_GLOSS, *(t.surface for t in h.tokens))
            for e in h.edges:
                assert e.governor_gloss is words[e.governor]
                assert e.dependent_gloss is words[e.dependent]

    def test_json_lines_are_read_out_of_one_text(self, tmp_path):
        """Reading about 2.7 MB of JSON Lines, ``load_parses`` holds at most
        the parses it has built and the file's text once: no stripped copy
        of the text and no list of its lines."""
        block = "".join(
            json.dumps(record) + "\n"  # ASCII, so the text takes a byte a character
            for name in ("basic_triggers.json", "combined.json", "lexical_triggers.json",
                         "escapes.json")
            for record in json.loads((FIXTURES / name).read_text("utf-8"))
        )
        copies = 2_700_000 // len(block) + 1
        path = tmp_path / "p.jsonl"
        path.write_text(block * copies, "utf-8")
        size = path.stat().st_size
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            parses = load_parses(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parses) == block.count("\n") * copies
        assert peak - base <= retained - base + 1.1 * size
