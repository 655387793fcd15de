"""The package's public surface."""

import types

import entail_typing


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(entail_typing).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(entail_typing.__all__) == len(set(entail_typing.__all__))
    assert set(entail_typing.__all__) == public
