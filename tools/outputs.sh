#!/bin/sh
# Write the outputs a refactor must leave byte-identical: tools/outputs.sh SRC OUT
#
# SRC is a source tree's src/ directory; OUT is created.  Run it on the old
# and on the new src/, then `diff -r OLD_OUT NEW_OUT` is the check.  With one
# BLAS thread it writes:
#   gen/       n=6 (T in {1, 10}, sigma=1e-6, seed 606), n=10 (T=1, sigma=1e-8,
#              seed 3) and n=12 (T=1, exact) XXZ tables and truth files, and
#              the tables and truth files of custom6.ini, an n=6 chain with
#              single-Y terms and so a complex Hamiltonian matrix (T in {1, 2},
#              sigma=1e-8, seed 61)
#   learn/     standard output, exit code and record of `learn --truth --out`
#              on the n=6, n=10 and custom n=6 tables
#   sweep-w1/, sweep-w2/
#              an n=6 sweep (T in {1, 2, 10}, sigma in {1e-8, 1e-6, 1e-3},
#              2 runs, seed 7) at --workers 1 and 2, without the wall_ms column
#   verify.txt `verify --n 3 --instances 100 --seed 404` and its exit code
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
SRC=$(cd "$1" && pwd)
mkdir -p "$2/gen" "$2/learn"
cd "$2"
export PYTHONPATH="$SRC" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
run() { python3 -m gibbslearn "$@"; }

# paths are relative to OUT, so what gen prints is the same on both sides
run gen --n 6 --temperatures 1,10 --sigma 1e-6 --seed 606 --out gen/n6 > gen/n6.txt
run gen --n 10 --temperatures 1 --sigma 1e-8 --seed 3 --out gen/n10 > gen/n10.txt
run gen --n 12 --temperatures 1 --out gen/n12 > gen/n12.txt
cat > gen/custom6.ini <<'INI'
[experiment]
n = 6
model = custom
temperatures = 1, 2
seed = 61

[terms]
t1 = -1.0 X0 X1
t2 = -0.7 Y1 Y2
t3 = 0.4 Z2 Z3
t4 = 0.3 X3 Y4
t5 = -0.5 Z4 X5
t6 = 0.25 Y0
t7 = 0.6 Z5
t8 = -0.45 X2
INI
run gen --config gen/custom6.ini --sigma 1e-8 --out gen/custom6 > gen/custom6.txt

for stem in n6/T1p0 n6/T10p0 n10/T1p0 custom6/T1p0 custom6/T2p0; do
    name=$(echo "$stem" | tr / _)
    table="gen/$(dirname "$stem")/table_$(basename "$stem").tsv"
    truth="gen/$(dirname "$stem")/truth_$(basename "$stem").txt"
    code=0
    run learn --table "$table" --truth "$truth" --out "learn/$name.record" \
        > "learn/$name.txt" || code=$?
    echo "exit $code" >> "learn/$name.txt"
done

for workers in 1 2; do
    dir="sweep-w$workers"
    run sweep --n 6 --temperatures 1,2,10 --sigma-grid 1e-8,1e-6,1e-3 --runs-per-point 2 \
        --seed 7 --workers "$workers" --out-dir "$dir" > /dev/null
    python3 - "$dir/records.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as handle:
    rows = list(csv.DictReader(handle))
columns = [key for key in rows[0] if key != "wall_ms"]
with open(sys.argv[1], "w", newline="") as handle:
    writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
PY
done

code=0
run verify --n 3 --instances 100 --seed 404 > verify.txt || code=$?
echo "exit $code" >> verify.txt
