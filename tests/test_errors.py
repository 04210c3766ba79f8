"""Every error class of ``ruleparse.errors`` survives pickle and copy.

``ConlluError`` and ``SidecarError`` are made from their parts, while
their ``args`` hold the formatted text; copying or unpickling one must
still give the same type, text and place.
"""

import copy
import inspect
import pickle

import pytest

from ruleparse import errors

# One instance of each class, built as the readers and checks build it.
EXAMPLES = {
    errors.InputFormatError: errors.InputFormatError("bad input"),
    errors.ConlluError: errors.ConlluError(2, 5, "bad head"),
    errors.SidecarError: errors.SidecarError(3, "empty lemma"),
    errors.LexiconError: errors.LexiconError("no such lexicon"),
    errors.AlignmentError: errors.AlignmentError("sentence counts differ"),
    errors.AnalysisError: errors.AnalysisError("token 1 has no analysis"),
    errors.EngineError: errors.EngineError("cycle"),
}

ROUND_TRIPS = {
    "pickle": lambda error: pickle.loads(pickle.dumps(error)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_every_error_class_has_an_example():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("round_trip", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_an_error_comes_back_with_its_type_text_and_place(cls, round_trip):
    error = EXAMPLES[cls]
    back = ROUND_TRIPS[round_trip](error)
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    for place in ("line", "sentence"):
        assert getattr(back, place, None) == getattr(error, place, None)


@pytest.mark.parametrize("round_trip", sorted(ROUND_TRIPS))
def test_a_place_error_keeps_the_attributes_set_on_it(round_trip):
    error = errors.SidecarError(7, "duplicate entry for sentence 1 token 2")
    error.source = "morph.tsv"
    back = ROUND_TRIPS[round_trip](error)
    assert (back.line, back.message, back.source) \
        == (7, "duplicate entry for sentence 1 token 2", "morph.tsv")
