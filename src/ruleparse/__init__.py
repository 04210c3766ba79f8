"""Rule-based dependency pre-annotation for Turkish treebanks.

The package reads CoNLL-U treebanks plus a morphological sidecar, applies
a small set of adjacency rules (complex predicates, compounds, possessive
constructions, adverb/adjective attachment), and exports the resulting
partial trees together with per-token suffix features for use by a
downstream statistical parser.
"""

__version__ = "0.1.0"

from .conllu import (Sentence, Token, group_by_sentence, parse_conllu,
                     read_morph_sidecar, write_conllu)
from .engine import (ALL_RULES, DEFAULT_RULES, Diagnostics, RuleAssignment,
                     RuleCode, RuleConfig, assigned_heads, run)
from .errors import (AlignmentError, ConlluError, EngineError,
                     InputFormatError, LexiconError, SidecarError)
from .evaluate import (AblationStep, AttachmentScores, SigResult, ablate,
                       ablation_steps, randomization_test, score)
from .features import (FeatureBundle, HybridConfig, bundle_from_token, encode,
                       export, export_jsonl)
from .lexicon import Lexicon, default_lexicon_dir, fold, load_lexicon
from .morpho import (LemmaSuffixMatrix, MorphAnalysis, SuffixInventory,
                     build_matrix, default_inventory, inflectional_suffixes,
                     last_suffix, load_inventory, read_matrix, suffix_vector,
                     write_matrix)

__all__ = [
    "__version__",
    "Sentence", "Token", "parse_conllu", "write_conllu", "read_morph_sidecar",
    "group_by_sentence",
    "RuleCode", "RuleConfig", "RuleAssignment", "Diagnostics",
    "DEFAULT_RULES", "ALL_RULES", "run", "assigned_heads",
    "InputFormatError", "ConlluError", "SidecarError", "LexiconError",
    "AlignmentError", "EngineError",
    "AttachmentScores", "SigResult", "AblationStep",
    "score", "randomization_test", "ablate", "ablation_steps",
    "FeatureBundle", "HybridConfig", "encode", "export", "export_jsonl",
    "bundle_from_token",
    "Lexicon", "fold", "load_lexicon", "default_lexicon_dir",
    "MorphAnalysis", "SuffixInventory", "LemmaSuffixMatrix",
    "load_inventory", "default_inventory", "inflectional_suffixes",
    "last_suffix", "build_matrix", "read_matrix", "write_matrix",
    "suffix_vector",
]
