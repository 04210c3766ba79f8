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
        self.message = message

    def __reduce__(self):
        # ``args`` holds the formatted text; a copy or an unpickled error
        # is made from the parts, as ``__init__`` takes them, and then
        # gets the attributes, notes included.
        return type(self), (self.sentence, self.line, self.message), self.__dict__


class SidecarError(InputFormatError):
    """A morphological-analysis sidecar line is malformed."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        return type(self), (self.line, self.message), self.__dict__


class LexiconError(InputFormatError):
    """A lexicon file is missing or contains a malformed entry."""


class AlignmentError(InputFormatError):
    """Two treebanks that should align token-for-token do not."""


class AnalysisError(InputFormatError):
    """A token that needs a morphological analysis has none."""


class EngineError(RuntimeError):
    """The rule engine violated one of its own invariants."""
