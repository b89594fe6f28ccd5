import inspect
import pickle

import pytest

from factkit import errors

ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.FactkitError) and cls is not errors.FactkitError
]


def test_error_classes_found():
    assert len(ERROR_CLASSES) >= 20


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_declares_exit_code(cls):
    """Without its own exit_code an error class would fall back to exit 1."""
    assert "exit_code" in vars(cls)
    assert 3 <= cls.exit_code <= 11


# the classes whose constructors take arguments other than one message
ARGUMENTS = {
    errors.UnknownEnumValue: ("time", ["Present"]),
    errors.ParseError: (3, "invalid JSON"),
    errors.DuplicateId: ("f1",),
    errors.ZeroVector: (7,),
    errors.ProtocolError: (502, "x" * 300),
}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    """An error raised in a worker process reaches the parent with its class and message."""
    error = cls(*ARGUMENTS.get(cls, ("a message",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.exit_code == error.exit_code
    assert vars(copy) == vars(error)
