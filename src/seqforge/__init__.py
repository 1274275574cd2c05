"""seqforge: deterministic training-corpus compiler and verification toolkit.

Compiles annotated spoken-dialogue corpora into modality-interleaved
training sequences, runs the cleaning pipeline against pluggable clients,
plans staged training budgets, and verifies loss numerics and evaluation
metrics against independent oracles. All randomness flows from a single
64-bit seed; outputs are byte-identical across runs and worker counts.
"""

__version__ = "0.1.0"

# Corpus dialogue languages, also the values `eval wer --lang` accepts. Kept
# here so that eval checks them without loading the corpus data model.
LANGUAGES = ("zh", "en", "ja", "ko", "other")
