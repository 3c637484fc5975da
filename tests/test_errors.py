"""Every library error survives pickling, as it must to come back from a
scoring worker process: same type, message and code."""

import inspect
import pickle

import pytest

from tabrep import errors
from tabrep.errors import MixedKindFeatureError, NonFiniteGradientError, ShapeMismatchError

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.TabrepError)]
SPECIAL = {MixedKindFeatureError: MixedKindFeatureError("f", {"a", "b"}),
           ShapeMismatchError: ShapeMismatchError("mhsa", (1, 2), (3,)),
           NonFiniteGradientError: NonFiniteGradientError("fusion_w1")}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_an_error_round_trips_through_pickle(cls):
    error = SPECIAL.get(cls) or cls("something went wrong")
    got = pickle.loads(pickle.dumps(error))
    assert type(got) is cls
    assert str(got) == str(error)
    assert got.code == error.code
    assert vars(got) == vars(error)


def test_the_special_constructors_are_the_only_ones():
    assert {cls for cls in CLASSES if "__init__" in vars(cls)} == set(SPECIAL)
