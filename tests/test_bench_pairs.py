"""The summary step of tools/bench_pairs.py on fixed result lines."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "gen.median_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def result_line(gen, runs, correct=True, failed=3):
    return json.dumps({
        "correct": correct, "attempted": 14, "failed": failed,
        "metrics": {"gen.median_s": {"value": gen, "unit": "s"},
                    "runs_per_s": {"value": runs, "unit": "1/s"}},
    })


def parsed(lines):
    return [json.loads(line) for line in lines]


def test_medians_quartiles_wins_and_failed_share():
    results = {
        "rev": parsed([result_line(0.018, 7.0), result_line(0.016, 7.2),
                       result_line(0.017, 7.1), result_line(0.019, 6.9)]),
        "tree": parsed([result_line(0.013, 7.1), result_line(0.017, 7.1),
                        result_line(0.012, 7.1), result_line(0.014, 7.0)]),
    }
    lines, correct = bench_pairs.summarize(METRICS, results)
    assert correct
    gen = next(line for line in lines if line.startswith("gen.median_s")).split()
    # inclusive quartiles of (0.016, 0.017, 0.018, 0.019): 0.01675 and 0.01825
    assert gen[1:4] == ["0.0175", "[0.01675,", "0.01825]"]
    assert gen[4:7] == ["0.0135", "[0.01275,", "0.01475]"]
    assert gen[7] == "3/4"  # lower is better: the tree lost the second pair only
    runs = next(line for line in lines if line.startswith("runs_per_s")).split()
    assert runs[7] == "2/4"  # higher is better: a tie is no win
    assert lines[-1] == "failed/attempted: rev 12/56, tree 12/56"


def test_one_pair_and_a_run_that_is_not_correct():
    results = {"rev": parsed([result_line(0.02, 7.0)]),
               "tree": parsed([result_line(0.01, 8.0, correct=False, failed=4)])}
    lines, correct = bench_pairs.summarize(METRICS, results)
    assert not correct
    assert lines[1].split()[1:4] == ["0.02", "[0.02,", "0.02]"]
    assert lines[-2] == "failed/attempted: rev 3/14, tree 4/14"
    assert lines[-1] == "not correct: tree pair 1"
