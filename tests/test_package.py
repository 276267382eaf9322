"""The package surface: its exports and README's library example."""

import math
import re
import types
from pathlib import Path

import bistar

README = Path(__file__).resolve().parents[1] / "README.md"
# A number as printed (optionally cut short with "..."), NaN or a boolean.
TOKEN = re.compile(r"nan|True|False|[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?(?:\.\.\.)?")


class TestExports:
    def test_every_name_resolves_and_none_is_a_module(self):
        assert len(bistar.__all__) == len(set(bistar.__all__)) > 0
        for name in bistar.__all__:
            assert not name.startswith("_")
            assert not isinstance(getattr(bistar, name), types.ModuleType), name

    def test_star_import_exports_all(self):
        namespace = {}
        exec("from bistar import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(bistar.__all__)
        assert {"gdop_arrays", "gdop_batch", "solve_multistatic_batch"} <= set(namespace)
        assert "gdop" not in namespace and "fusion" not in namespace


def readme_example():
    """The code of README's one ``python`` block."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def matches(expected, printed):
    """Whether the tokens of a ``# ->`` comment match the printed ones: a
    number ending in "..." is a prefix of the printed digits, any other
    number equals the printed value to 1e-9."""
    want, got = TOKEN.findall(expected), TOKEN.findall(printed)
    if len(want) != len(got):
        return False
    for w, g in zip(want, got):
        if w.endswith("..."):
            if not g.startswith(w[:-3]):
                return False
        elif w in ("nan", "True", "False") or g in ("nan", "True", "False"):
            if w != g:
                return False
        elif not math.isclose(float(w), float(g), rel_tol=1e-9, abs_tol=1e-9):
            return False
    return True


class TestReadmeExample:
    def test_runs_and_prints_what_its_comments_state(self):
        code = readme_example()
        # The comment after a print, on its line or the next: what it prints,
        # up to the colon that starts the explanation.
        expected = [
            text.split(":")[0]
            for text in re.findall(r"#\s*->\s*(.*)", code)
        ]
        printed = []
        namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
        exec(compile(code, str(README), "exec"), namespace)
        assert len(printed) == len(expected) == code.count("print(") > 0
        for want, got in zip(expected, printed):
            assert matches(want, got), (want, got)
