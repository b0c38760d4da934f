"""The package namespace: every export resolves lazily to its home module."""

import importlib
import sys

import pytest

import gframes

SUBMODULES = ("controlled", "core", "decompositions", "errors", "io", "kernel",
              "multipliers", "sampling", "tolerances")


def test_exports_resolve_to_their_home_modules():
    assert len(gframes.__all__) == 68 and gframes.__all__ == sorted(set(gframes.__all__))
    for name in gframes.__all__:
        home = importlib.import_module(f"gframes.{gframes._HOME[name]}")
        # through the resolver itself, whether or not the name is cached yet
        assert gframes.__getattr__(name) is getattr(home, name) is getattr(gframes, name)
        assert getattr(home, name).__module__ == home.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gframes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gframes.__all__)


def test_submodules_resolve_as_attributes():
    for name in SUBMODULES:
        assert gframes.__getattr__(name) is sys.modules[f"gframes.{name}"]
        assert getattr(gframes, name) is sys.modules[f"gframes.{name}"]


def test_dir_and_unknown_names():
    listing = dir(gframes)
    assert "__all__" in listing and set(gframes.__all__) <= set(listing)
    assert set(SUBMODULES) <= set(listing)
    with pytest.raises(AttributeError, match="no_such_name"):
        gframes.no_such_name  # noqa: B018
    assert not hasattr(gframes, "no_such_name")
