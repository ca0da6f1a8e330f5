"""Tests for the package's public namespace."""

import importlib
import importlib.util

import pytest

import ngtmsv


def test_public_names_resolve_and_removed_names_are_gone():
    missing = [name for name in ngtmsv.__all__ if not hasattr(ngtmsv, name)]
    assert missing == []
    for name in ("Polynomial", "TruncatedSeries", "series_exp"):
        assert name not in ngtmsv.__all__
        assert not hasattr(ngtmsv, name)
    assert importlib.util.find_spec("ngtmsv.polynomial") is None


@pytest.mark.parametrize("module", ["analytics", "series", "model", "sweep"])
def test_module_public_names_resolve(module):
    # the names a caller may import from each layer, and that the bench's
    # layer tracing wraps
    mod = importlib.import_module(f"ngtmsv.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
