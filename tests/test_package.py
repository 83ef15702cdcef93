"""The package surface: every exported name exists and is listed once."""

import gqt


def test_all_names_resolve_and_are_unique():
    names = gqt.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gqt, name)]
    assert missing == []
