#!/usr/bin/env python3
"""How far results moved between two tools/outputs.sh directories: tools/outputs_moved.py OLD NEW

For a change meant to move results in their last digits, or to reorder the
lines of a file, where `diff -r` of the two directories is not empty by
design.  It compares every `learn` record (learn/*.record, with theta from
the matching learn/*.txt) and every row of each sweep-*/records.csv, matched
by (sigma_noise, temperature, run), and every `gen` table and truth file
(gen/*/table_*.tsv, gen/*/truth_*.txt), which must hold the same header
lines, in order, and the same data lines, in any order.  It exits 1 if any
record or row changes its verdict or q, if any table or truth file holds
other lines, or if one of them is missing on one side, and prints the
largest |delta mu*|, the largest relative delta T* (t_star of a record,
temp_ratio of a row) and the largest |delta theta|, each with where it
occurs.  Exit code 2 is a usage error.
"""

import csv
import sys
from collections import Counter
from pathlib import Path

KEY = ("sigma_noise", "temperature", "run")
GEN_FILES = ("gen/*/table_*.tsv", "gen/*/truth_*.txt")


def learn_results(out):
    """{name: fields} of each learn record, with theta read off its standard output."""
    results = {}
    for record in sorted((out / "learn").glob("*.record")):
        fields = {}
        for line in record.read_text().splitlines():
            key, _, value = line.partition(" = ")
            fields[key] = value
        stdout = record.with_suffix(".txt")
        for line in stdout.read_text().splitlines() if stdout.exists() else ():
            if line.startswith("recovery angle theta = "):
                fields["theta"] = line.rpartition(" = ")[2]
        results[f"learn/{record.name}"] = {
            "verdict": fields.get("verdict", ""),
            "q": fields.get("q", ""),
            "mu_star": fields.get("mu_star", ""),
            "t_star": fields.get("t_star", ""),
            "theta": fields.get("theta", ""),
        }
    return results


def sweep_results(out):
    """{name: fields} of each sweep row, with temp_ratio standing in for t_star."""
    results = {}
    for path in sorted(out.glob("sweep-*/records.csv")):
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                name = f"{path.parent.name}/records.csv " + " ".join(f"{k}={row[k]}" for k in KEY)
                results[name] = dict(row, t_star=row.get("temp_ratio", ""))
    return results


def gen_files(out):
    """{name: (header lines, Counter of data lines)} of each gen table and truth file."""
    files = {}
    for pattern in GEN_FILES:
        for path in sorted(out.glob(pattern)):
            lines = path.read_text().splitlines()
            files[path.relative_to(out).as_posix()] = (
                [line for line in lines if line.startswith("#")],
                Counter(line for line in lines if not line.startswith("#")),
            )
    return files


def compare_gen_files(old_dir, new_dir):
    """Print and count each gen table or truth file one side lacks or that holds other lines."""
    old, new = gen_files(old_dir), gen_files(new_dir)
    names = sorted(set(old) | set(new))
    differ = 0
    for name in names:
        if name not in old or name not in new:
            print(f"only in {'OLD' if name in old else 'NEW'}: {name}")
        elif old[name] != new[name]:
            print(f"{name}: other header or data lines")
        else:
            continue
        differ += 1
    same = len(names) - differ
    print(f"same header and data lines on {same} of {len(names)} table and truth files")
    return differ


def number(text):
    return float(text) if text not in ("", None) else None


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} OLD NEW", file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[1]), Path(argv[2])
    old = {**learn_results(old_dir), **sweep_results(old_dir)}
    new = {**learn_results(new_dir), **sweep_results(new_dir)}
    changed = sorted(set(old) ^ set(new))
    for name in changed:
        print(f"only in {'OLD' if name in old else 'NEW'}: {name}")
    largest = {"|delta mu*|": (0.0, "-"), "relative delta T*": (0.0, "-"), "|delta theta|": (0.0, "-")}
    for name in sorted(set(old) & set(new)):
        a, b = old[name], new[name]
        if (a["verdict"], a["q"]) != (b["verdict"], b["q"]):
            changed.append(name)
            print(f"{name}: verdict {a['verdict']} q {a['q']} -> verdict {b['verdict']} q {b['q']}")
        for label, field, relative in (
            ("|delta mu*|", "mu_star", False),
            ("relative delta T*", "t_star", True),
            ("|delta theta|", "theta", False),
        ):
            x, y = number(a[field]), number(b[field])
            if x is None or y is None:
                continue
            moved = abs(y - x) / (abs(x) if relative and x else 1.0)
            if moved > largest[label][0]:
                largest[label] = (moved, name)
    total = len(set(old) | set(new))
    print(f"verdict and q unchanged on {total - len(changed)} of {total} records and rows")
    for label, (moved, name) in largest.items():
        print(f"largest {label}: {moved:.3g} ({name})")
    differ = compare_gen_files(old_dir, new_dir)
    return 1 if changed or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
