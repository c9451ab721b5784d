"""The public API surface: everything advertised in __all__ exists and
the error hierarchy is sound."""

import importlib

import pytest

import repro
from repro import errors


@pytest.mark.parametrize("name", repro.__all__)
def test_top_level_exports_resolve(name):
    assert getattr(repro, name) is not None


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.net",
        "repro.core",
        "repro.spec",
        "repro.storage",
        "repro.config_service",
        "repro.server",
        "repro.client",
        "repro.baselines",
        "repro.bench",
        "repro.apps.waltsocial",
        "repro.apps.retwis",
    ],
)
def test_subpackage_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert getattr(mod, name) is not None, "%s.%s" % (module, name)


def test_error_hierarchy():
    subclasses = [
        errors.TransactionAborted,
        errors.TransactionStateError,
        errors.TypeMismatchError,
        errors.NoSuchContainerError,
        errors.ConfigurationError,
    ]
    for exc in subclasses:
        assert issubclass(exc, errors.WalterError)
        assert issubclass(exc, Exception)


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_public_docstrings_exist():
    # Every public module and top-level export carries documentation.
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, "%s lacks a docstring" % name
