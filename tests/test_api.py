"""The package's public names: what ``__all__`` lists is what ``hgtensor`` binds."""

from __future__ import annotations

import types

import hgtensor


def test_all_lists_exactly_the_public_names():
    missing = [name for name in hgtensor.__all__ if not hasattr(hgtensor, name)]
    public = {
        name
        for name, value in vars(hgtensor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert missing == []
    assert sorted(public - set(hgtensor.__all__)) == []
