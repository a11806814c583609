"""tgfa: Tajik-Cyrillic / Perso-Arabic transliteration toolkit.

Script normalization, contextual-marker tokenization, a lattice baseline
transliterator with character n-gram rescoring, corpus utilities, and an
evaluation suite (chrF, chrF++, CER, normalized CER, sequence accuracy).
"""

from __future__ import annotations

from .script import (
    CharClass,
    NormMode,
    Script,
    ScriptText,
    TextState,
    classify_char,
    normalize,
    normalize_text,
    strip_whitespace,
)
from .tokenizer import detokenize, tokenize
from .metrics import (
    EvalPair,
    MetricReport,
    cer_mean,
    chrf,
    chrf_pp,
    edit_distance,
    ncer_mean,
    ngram_f,
    score_corpus,
    seq_acc,
)
from .corpus import (
    ParallelPair,
    SplitSpec,
    group_domains,
    kfold,
    load,
    paranames_filter,
    split_holdout,
    stats,
)
from .translit import (
    CharNGramLM,
    MappingTable,
    TranslitDict,
    beam_decode,
    build_dictionary,
    default_mapping_table,
    expand_lattice,
    train_lm,
    transliterate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Script",
    "CharClass",
    "NormMode",
    "TextState",
    "ScriptText",
    "classify_char",
    "normalize",
    "normalize_text",
    "strip_whitespace",
    "tokenize",
    "detokenize",
    "EvalPair",
    "MetricReport",
    "edit_distance",
    "cer_mean",
    "ncer_mean",
    "ngram_f",
    "chrf",
    "chrf_pp",
    "seq_acc",
    "score_corpus",
    "ParallelPair",
    "SplitSpec",
    "load",
    "stats",
    "split_holdout",
    "kfold",
    "paranames_filter",
    "group_domains",
    "MappingTable",
    "CharNGramLM",
    "TranslitDict",
    "default_mapping_table",
    "train_lm",
    "build_dictionary",
    "expand_lattice",
    "beam_decode",
    "transliterate",
]
