"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    out = capsys.readouterr().out
    assert re.search(r"^termination  (grad_tol|energy_tol|max_iters)$", out, re.M)
