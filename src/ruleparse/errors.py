"""Exception types shared across the package.

``InputFormatError`` and its subclasses signal malformed or inconsistent
input data; the command line maps them to exit code 2.  ``EngineError``
signals a broken internal invariant and maps to exit code 3.
"""


class InputFormatError(ValueError):
    """Malformed input data (files, streams, or mismatched arguments)."""


class ConlluError(InputFormatError):
    """A CoNLL-U stream could not be parsed or validated."""

    def __init__(self, sentence, line, message):
        super().__init__(f"sentence {sentence}, line {line}: {message}")
        self.sentence = sentence
        self.line = line


class SidecarError(InputFormatError):
    """A morphological-analysis sidecar line is malformed."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LexiconError(InputFormatError):
    """A lexicon file is missing or contains a malformed entry."""


class AlignmentError(InputFormatError):
    """Two treebanks that should align token-for-token do not."""


class AnalysisError(InputFormatError):
    """A token that needs a morphological analysis has none."""


class EngineError(RuntimeError):
    """The rule engine violated one of its own invariants."""
