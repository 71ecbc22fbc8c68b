"""The package namespace exports exactly its public classes and functions."""

import inspect
from pathlib import Path

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
    # results are plain values: no wrapper of an array, a (value, index) pair or a dict
    assert not {"StateVector", "LinearDistance", "RejectionBound"} & set(exported)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (## Library)", "exec"), {})
    assert "0.0625" in capsys.readouterr().out
