"""The package namespace: every exported name exists and is listed once."""

import qicsim


def test_all_names_resolve_once():
    assert len(qicsim.__all__) == len(set(qicsim.__all__))
    missing = [name for name in qicsim.__all__ if not hasattr(qicsim, name)]
    assert missing == []
