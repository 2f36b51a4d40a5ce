"""Shared fixtures: fixture-file loaders, a compact parse builder, and the
writers that the round-trip tests invert the readers with."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from presup.cli import load_parses
from presup.corpus import GoldAnnotation, preprocess, read_dataset
from presup.ingest import DependencyEdge, ParsedHeadline, Token, build_headline

FIXTURES = Path(__file__).parent / "fixtures"


def make_headline(spec: str, edges, raw_text: str | None = None) -> ParsedHeadline:
    """Build a validated parse from 'surface/TAG ...' and (dep, gov, dep) triples.

    Underscores in a surface stand for spaces.
    """
    tokens = []
    for i, item in enumerate(spec.split(), start=1):
        surface, pos = item.rsplit("/", 1)
        tokens.append(Token(index=i, surface=surface.replace("_", " "), pos=pos))
    surfaces = {t.index: t.surface for t in tokens}
    built = [
        DependencyEdge(
            dep=dep,
            governor=gov,
            governor_gloss="ROOT" if gov == 0 else surfaces[gov],
            dependent=dependent,
            dependent_gloss=surfaces[dependent],
        )
        for dep, gov, dependent in edges
    ]
    text = raw_text if raw_text is not None else " ".join(t.surface for t in tokens)
    return build_headline("test", text, tokens, built)


def to_stanford_json(h: ParsedHeadline) -> dict:
    """``h`` in the Stanford-style JSON shape that ``parse_stanford_json`` reads."""
    return {
        "headline": h.raw_text,
        "sent_id": h.headline_id,
        "tokens": [{"index": t.index, "word": t.surface, "pos": t.pos} for t in h.tokens],
        "dependencies": [
            {
                "dep": e.dep,
                "governor": e.governor,
                "governorGloss": e.governor_gloss,
                "dependent": e.dependent,
                "dependentGloss": e.dependent_gloss,
            }
            for e in h.edges
        ],
    }


def render_gold(annotations: list[GoldAnnotation]) -> str:
    """The gold file that ``parse_gold`` reads back as ``annotations``, for
    annotations without '@' in inference texts."""
    lines = []
    for a in annotations:
        lines.append(a.headline)
        for inf in a.inferences:
            lines.append(f">> {inf.text}" + (f" @{inf.trigger}" if inf.trigger else ""))
        lines.append("||")
    return "\n".join(lines) + ("\n" if lines else "")


def load_fixture_corpus(parses_name: str, dataset_name: str):
    """Parses zipped with their dataset records; raw_text comes from the record."""
    parses = load_parses(str(FIXTURES / parses_name))
    records = read_dataset((FIXTURES / dataset_name).read_text("utf-8"))
    out = []
    for h, record in zip(parses, records):
        out.append((replace(h, raw_text=record.text), preprocess(record.text), record))
    return out


@pytest.fixture(scope="session")
def basic_triggers():
    """Parse/preprocess pairs for the seven bundled figure headlines, by id."""
    return {
        h.headline_id: (h, p)
        for h, p, _ in load_fixture_corpus("basic_triggers.json", "basic_triggers_dataset.txt")
    }


@pytest.fixture(scope="session")
def lexical_triggers():
    return {
        h.headline_id: (h, p)
        for h, p, _ in load_fixture_corpus("lexical_triggers.json", "lexical_triggers_dataset.txt")
    }


@pytest.fixture(scope="session")
def combined_example():
    corpus = load_fixture_corpus("combined.json", "combined_dataset.txt")
    return corpus[0][0], corpus[0][1]


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")
