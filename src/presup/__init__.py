"""Rule-based inference computation for English news headlines."""

__version__ = "0.1.0"

from .corpus import (
    GoldAnnotation, GoldInference, HeadlineRecord, QuotedSpan, parse_gold, preprocess, read_dataset,
)
from .errors import ConsistencyError, FormatError, ParseError
from .evaluation import (
    Alignment, MatchConfig, MatchMode, MatchPair, match, normalize, score_by_trigger,
    score_headline,
)
from .ingest import (
    DependencyEdge, ParsedHeadline, Token, build_headline, normalize_labels, parse_conllu,
    parse_stanford_json,
)
from .lexicon import TriggerLexicon, default_lexicon, load_lexicon
from .morphology import VerbForm, conjugate, lemma
from .rules import (
    DEFAULT_RULES, RULE_IDS, EngineConfig, Inference, InferenceKind, generate_all, infer_all,
)

# The public API, as the README's Library section lists it.  Every other
# name is imported from its submodule (presup.rules.rule_future, ...).
__all__ = [
    # readers
    "parse_stanford_json", "parse_conllu", "build_headline", "normalize_labels",
    "read_dataset", "parse_gold", "preprocess",
    # records
    "Token", "DependencyEdge", "ParsedHeadline", "HeadlineRecord", "QuotedSpan",
    "GoldAnnotation", "GoldInference", "Inference", "InferenceKind",
    # engine
    "EngineConfig", "infer_all", "generate_all", "RULE_IDS", "DEFAULT_RULES",
    "TriggerLexicon", "default_lexicon", "load_lexicon",
    # evaluation
    "match", "MatchConfig", "MatchMode", "MatchPair", "Alignment", "score_headline",
    "score_by_trigger", "normalize",
    # morphology
    "lemma", "conjugate", "VerbForm",
    # errors
    "FormatError", "ParseError", "ConsistencyError",
]
