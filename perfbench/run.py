"""Benchmark of the gibbslearn pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package is imported from the checkout's ``src``.  The
run repeats whole rounds of its workload (see ``workloads.py``) until the
next round would end after ``--seconds``, checks every output, and prints
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each round runs once
plain, once traced and once replayed stage by stage, and the metrics are the
per-layer ones.  The line before it records the environment.  Result and
trace files go to ``perfbench-out/``.
"""

import argparse
import filecmp
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pin

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(seconds, one_round):
    """Call ``one_round(index)`` until the next round would end after ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        one_round(index)
        index += 1
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return index


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus, with a pool, each worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * pool) / 1024.0


def measure_setup(workload, scratch: Path) -> float:
    """Median time from a fresh process's start to the end of its set-up."""
    times = []
    for i in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload.name, str(scratch / f"probe{i}")],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            took = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(took)
    return statistics.median(times)


def blas_threads():
    """The thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_sha():
    if not (pin.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=pin.ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package source, which identifies the program without git."""
    digest = hashlib.sha256()
    for path in sorted(pin.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(pin.SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in pin.THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def plain_run(workload, seed, seconds, work):
    import numpy as np

    from checks import evaluate
    from workloads import XXZ_DELTA, run_round

    calls = []
    rounds = run_rounds(seconds, lambda k: calls.extend(run_round(workload, seed, k, work)))
    rss = peak_rss_mb(workload.workers)
    outcome = evaluate(calls, XXZ_DELTA, np.random.default_rng(seed), work / "round-trip.tsv")
    setup = measure_setup(workload, work)

    reconstructions = sum(len(c.records) if c.kind == "run_sweep" else c.kind == "learn"
                          for c in calls)
    metrics = {
        "setup_s": (setup, "s"),
        "runs_per_s": (reconstructions / sum(c.wall_s for c in calls), "1/s"),
        "gen.median_s": (statistics.median(c.wall_s for c in calls if c.kind == "gen"), "s"),
        "learn.median_s": (statistics.median(c.wall_s for c in calls if c.kind == "learn"), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {"rounds": rounds, "calls": [(c.kind, c.wall_s) for c in calls]}
    return outcome, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def traced_run(workload, seed, seconds, work):
    import numpy as np

    import tracing
    from checks import evaluate
    from workloads import K_LOCAL, XXZ_DELTA, run_round

    tracer = tracing.Tracer()
    plain, traced, problems = [], [], []

    def one_round(k):
        tracer.round = k
        before = run_round(workload, seed, k, work / "plain")
        with tracing.instrumented(tracer):
            after = run_round(workload, seed, k, work / "traced", span=tracer.span)
            problems.extend(tracing.replay_calls(tracer, after, XXZ_DELTA, K_LOCAL))
        problems.extend(_differences(before, after))
        plain.extend(before)
        traced.extend(after)

    rounds = run_rounds(seconds, one_round)
    outcome = evaluate(plain, XXZ_DELTA, np.random.default_rng(seed), work / "round-trip.tsv")
    outcome.problems.extend(problems)
    spans = tracer.dump()
    metrics = tracing.per_layer_metrics(spans, traced, plain)
    return outcome, metrics, {"rounds": rounds, "spans": spans}


def _differences(plain, traced):
    """The traced pass must produce what the plain pass produced."""
    found = []
    for a, b in zip(plain, traced):
        if a.kind == "run_sweep":
            strip = [{k: v for k, v in r.items() if k != "wall_ms"} for r in a.records]
            if strip != [{k: v for k, v in r.items() if k != "wall_ms"} for r in b.records]:
                found.append("traced run_sweep records differ from the plain ones")
        else:
            out_a = a.record if a.kind == "learn" else a.table
            out_b = b.record if b.kind == "learn" else b.table
            if a.exit_code != b.exit_code or (
                out_a is not None and not filecmp.cmp(out_a, out_b, shallow=False)
            ):
                found.append(f"traced {a.kind} output differs from the plain one")
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin.pin_and_locate()
        import workloads

        pin.check_imported_from_source()
    except pin.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = pin.OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workloads.warm_up(workload, work / "warm-up")
        run = traced_run if args.trace else plain_run
        outcome, metrics, details = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    env = environment()
    (pin.OUT / f"result-{tag}.json").write_text(json.dumps(
        {"environment": env, "result": result, "problems": outcome.problems,
         **{k: v for k, v in details.items() if k != "spans"}}, indent=1))
    if "spans" in details:
        (pin.OUT / f"trace-{tag}.json").write_text(json.dumps(details["spans"]))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
