"""The package's public names."""

import fqec


def test_all_names_resolve_without_duplicates():
    assert len(fqec.__all__) == len(set(fqec.__all__))
    missing = [name for name in fqec.__all__ if not hasattr(fqec, name)]
    assert missing == []
