import inspect

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
