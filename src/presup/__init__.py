"""Rule-based inference computation for English news headlines."""

__version__ = "0.1.0"

from .corpus import (
    GoldAnnotation,
    GoldInference,
    HeadlineRecord,
    QuotedSpan,
    parse_dataset_line,
    parse_gold,
    preprocess,
    read_dataset,
    render_gold,
)
from .errors import ConsistencyError, FormatError, ParseError
from .evaluation import (
    Alignment,
    MatchConfig,
    MatchMode,
    TriggerScore,
    match,
    normalize,
    score_by_trigger,
    score_headline,
    trigger_rows,
)
from .ingest import (
    DependencyEdge,
    EdgeView,
    ParsedHeadline,
    Token,
    edge_view,
    edges_with,
    normalize_labels,
    nouns_of,
    parse_conllu,
    parse_stanford_json,
    to_stanford_json,
    verbs_of,
)
from .lexicon import TriggerLexicon, default_lexicon, load_lexicon, parse_lexicon
from .morphology import VerbForm, conjugate, irregular_table, lemma
from .rules import (
    DEFAULT_RULES,
    EngineConfig,
    Inference,
    InferenceKind,
    RULE_IDS,
    extract_triplets,
    generate_all,
    infer_all,
    rule_again,
    rule_but,
    rule_further,
    rule_future,
    rule_lexical,
    rule_nmod_of,
    rule_nmod_relaxed,
    rule_noun_compound,
    rule_past_tense,
    rule_question,
    rule_quotes,
    rule_temporal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
