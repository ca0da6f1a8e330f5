"""Tests for the package's public namespace."""

import importlib.util

import ngtmsv


def test_public_names_resolve_and_removed_names_are_gone():
    missing = [name for name in ngtmsv.__all__ if not hasattr(ngtmsv, name)]
    assert missing == []
    for name in ("Polynomial", "TruncatedSeries", "series_exp"):
        assert name not in ngtmsv.__all__
        assert not hasattr(ngtmsv, name)
    assert importlib.util.find_spec("ngtmsv.polynomial") is None
