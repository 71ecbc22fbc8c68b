"""No module defines a name the library dropped, and the README's library and
command-line examples print what the README says they print."""

import importlib
import pkgutil
import shlex
from pathlib import Path

import gowersim
from gowersim import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_no_module_defines_the_removed_names():
    # results are plain values: no wrapper of an array, a (value, index) pair or a dict;
    # no library-only helper that the CLI never runs; a circuit holds its own registers;
    # and each object is built one way (no second name for a builder), classes included
    removed = {"StateVector", "LinearDistance", "RejectionBound", "constant", "autocorrelation",
               "RegisterLayout", "build_u2_circuit", "from_packed"}
    for info in pkgutil.iter_modules(gowersim.__path__):
        module = importlib.import_module(f"gowersim.{info.name}")
        names = set(vars(module)).union(*(vars(obj) for obj in vars(module).values()
                                          if isinstance(obj, type)))
        assert not removed & names, info.name


def test_readme_library_example_runs(capsys):
    section = README.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (## Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    stated = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(stated) == 7
    for out, comment in zip(printed, stated):
        # each comment opens with the printed line, then explains it
        assert comment.startswith(out) and not comment[len(out):][:1].isalnum(), (out, comment)


def test_readme_cli_examples_run(capsys):
    # every `$ gowersim ...` line of the README's code blocks, with the output shown under it
    examples = []
    for block in README.split("```")[1::2]:
        for chunk in block.split("$ gowersim ")[1:]:
            command, _, shown = chunk.partition("\n")
            examples.append((shlex.split(command), shown))
    assert len(examples) == 9
    assert sum(bool(shown) for _, shown in examples) == 1  # the analyze block
    for argv, shown in examples:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if shown:
            assert out == shown, argv
