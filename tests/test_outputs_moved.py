"""The gen table and truth file check of tools/outputs_moved.py on small output directories."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_moved.py"
spec = importlib.util.spec_from_file_location("outputs_moved", TOOL)
outputs_moved = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs_moved)

TABLE = ["# n = 2", "# seed = 3", "I\t1.0", "Z0\t0.5", "X0 X1\t0.25"]
TRUTH = ["# n = 2", "# temperature = 1.0", "-0.5\tZ0 Z1", "-1.0\tX0 X1"]


def write_outputs(root, table, truth):
    (root / "gen" / "n2").mkdir(parents=True)
    (root / "gen" / "n2" / "table_T1p0.tsv").write_text("\n".join(table) + "\n")
    if truth is not None:
        (root / "gen" / "n2" / "truth_T1p0.txt").write_text("\n".join(truth) + "\n")
    return root


@pytest.mark.parametrize(
    "table, truth, code",
    [
        (TABLE[:2] + TABLE[:1:-1], TRUTH[:2] + TRUTH[:1:-1], 0),
        (TABLE[:-1] + ["X0 X1\t0.26"], TRUTH, 1),
        (TABLE[1::-1] + TABLE[2:], TRUTH, 1),
        (TABLE + ["Z0\t0.5"], TRUTH, 1),
        (TABLE, None, 1),
    ],
    ids=["reordered-lines", "changed-value", "reordered-headers", "repeated-line", "missing-file"],
)
def test_gen_files_must_hold_the_same_lines(tmp_path, capsys, table, truth, code):
    old = write_outputs(tmp_path / "old", TABLE, TRUTH)
    new = write_outputs(tmp_path / "new", table, truth)
    assert outputs_moved.main(["outputs_moved.py", str(old), str(new)]) == code
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == f"same header and data lines on {2 - code} of 2 table and truth files"
