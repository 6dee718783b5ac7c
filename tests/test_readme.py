"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    verdict, t_star, theta, ratio = capsys.readouterr().out.split()
    assert verdict == "Candidate"
    # on exact data every point of the optimal face has margin mu* = 0, and
    # T* is the solver's interior choice on it, a few percent off the truth
    # (criterion 3c accepts [0.5, 2]); the direction is exact
    assert float(theta) < 1e-6 and 0.5 <= float(ratio) <= 2.0
