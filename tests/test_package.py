"""The package namespace exports exactly its public classes and functions."""

import inspect

import gowersim


def test_exports_resolve_and_cover_the_public_names():
    exported = gowersim.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(gowersim, name) is not None
    public = {
        name
        for name, value in vars(gowersim).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert set(exported) == public
