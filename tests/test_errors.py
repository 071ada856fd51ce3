import importlib
import inspect
import pkgutil

import lichtorus
from lichtorus import cli
from lichtorus.errors import Blowup, LichtorusError, SolverFailure
from lichtorus.grid import GridMismatchError


def _package_exceptions():
    for info in pkgutil.iter_modules(lichtorus.__path__):
        module = importlib.import_module(f"lichtorus.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                yield obj


def test_every_error_is_a_lichtorus_error():
    # GridMismatchError alone marks a programming error
    found = set(_package_exceptions())
    assert len(found) >= 18
    assert GridMismatchError in found and not issubclass(GridMismatchError, LichtorusError)
    strays = [cls.__name__ for cls in found - {GridMismatchError}
              if not issubclass(cls, LichtorusError)]
    assert strays == []


def test_every_failure_class_has_a_stderr_line():
    codes = {cls.exit_code for cls in _package_exceptions()
             if issubclass(cls, LichtorusError) and cls is not LichtorusError}
    assert codes == set(cli.FAILURE_LINES) == {2, 3, 4}
    assert (SolverFailure.exit_code, Blowup.exit_code) == (3, 4)
