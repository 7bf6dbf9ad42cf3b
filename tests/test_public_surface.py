"""The package's public surface: `dscsim.__all__` and the attributes of
`dscsim` agree, so a deleted or added name cannot drift out of step."""

import types

import dscsim


def test_every_listed_name_resolves():
    missing = [name for name in dscsim.__all__ if not hasattr(dscsim, name)]
    assert missing == []


def test_every_public_attribute_is_listed():
    public = {
        name for name, value in vars(dscsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(dscsim.__all__)) == []
