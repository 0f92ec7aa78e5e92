"""The package's public surface."""

import severi


def test_every_export_resolves():
    missing = [name for name in severi.__all__ if not hasattr(severi, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(severi.__all__) == len(set(severi.__all__))
