"""The README's library example runs as written, and the names it exports exist."""

import importlib
import pathlib
import re

import rrsmooth

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    out = capsys.readouterr().out
    assert re.search(r"^termination  (grad_tol|energy_tol|max_iters)$", out, re.M)


def resolves(name):
    """Whether ``name`` is an attribute of rrsmooth or a ``rrsmooth.<module>`` path."""
    if not name.startswith("rrsmooth."):
        return hasattr(rrsmooth, name)
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        module, _, attr = name.rpartition(".")
        return hasattr(importlib.import_module(module), attr)
    return True


def test_exported_names_resolve():
    text = README.read_text()
    start = text.index("Lower-level pieces are exported too")
    paragraph = text[start : text.index("\n\n", start)]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert "rrsmooth.triangles" in names and "rrsmooth.tetrahedra" in names
    assert [n for n in names if not resolves(n)] == []
