"""Discontinuous constituency parsing as sequence transduction.

Trees with crossing branches are linearised into transition-token
sequences (several scheme variants, with and without reordering
tokens), decoded back with deterministic repair rules, and scored with
labelled bracketing metrics.  A small numpy transformer demonstrates
the intended consumer: its cross-attention is steered by stack and
buffer masks replayed from the token stream alone.
"""

from .decode import DecodeResult, Repair, decode
from .masks import MaskPair, MaskState, initial_state, step, trace
from .metrics import (DEFAULT_PUNCTUATION, MetricsError, Report, Score,
                      bracket_items, evaluate)
from .oracle import EncodeError, VocabStats, encode, vocab_stats
from .transitions import (SHIPPED_SCHEMES, Configuration, IllegalTransition,
                          Scheme, Transition, apply, extract_tree,
                          format_transitions, illegality, initial, is_terminal,
                          legal, parse_scheme, parse_transition,
                          parse_transitions)
from .tree import (Constituent, ConstituentTree, Violation, canonical_leaf_order,
                   discontinuous_constituents, is_continuous, permute_leaves,
                   reorder_canonical, validate)
from .treebank import (TreebankError, bundled, emit_bracketed, emit_discbracket,
                       load_treebank, parse_bracketed, parse_discbracket,
                       parse_treebank, save_treebank)

__version__ = "0.1.0"

__all__ = [
    "Configuration", "Constituent", "ConstituentTree",
    "DEFAULT_PUNCTUATION", "DecodeResult", "EncodeError", "IllegalTransition",
    "MaskPair", "MaskState", "MetricsError",
    "Repair", "Report", "SHIPPED_SCHEMES", "Scheme",
    "Score", "Transition", "TreebankError", "Violation",
    "VocabStats", "apply",
    "bracket_items", "bundled", "canonical_leaf_order", "decode",
    "discontinuous_constituents", "emit_bracketed",
    "emit_discbracket", "encode", "evaluate",
    "extract_tree", "format_transitions", "illegality",
    "initial", "initial_state", "is_continuous", "is_terminal", "legal",
    "load_treebank", "parse_bracketed", "parse_discbracket",
    "parse_scheme", "parse_transition", "parse_transitions", "parse_treebank",
    "permute_leaves", "reorder_canonical", "save_treebank", "step", "trace",
    "validate", "vocab_stats",
]
