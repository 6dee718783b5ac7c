"""Spans at the layer boundaries, the stage-by-stage replay, and per-layer metrics.

Tracing wraps the package's public functions from the benchmark's side, for
the duration of a traced pass only: each call records a span (name, start,
end, parent span, round) in memory.  The ``scipy.linalg`` eigen and
Cholesky entry points are wrapped too, to count factorizations made inside
``sdp.solve``.  Spans recorded in sweep pool workers stay in those
processes; the replay covers their rows in this one.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.linalg

from checks import CheckFailed, check_recovery, read_record
from gibbslearn import cli, learn, models, pauli, sdp, states
from gibbslearn.moments import MomentAssembler
from gibbslearn.pauli import enumerate_geometric_k_local

FACTORIZATIONS = ("eigh", "eigvalsh", "cholesky", "cho_factor")


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.round = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "round": self.round,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count_in(self, name: str, key: str):
        """Add one to ``key`` on the innermost open span called ``name``, if any."""
        for idx in reversed(self._open):
            rec = self.spans[idx]
            if rec["name"] == name:
                rec["attrs"][key] = rec["attrs"].get(key, 0) + 1
                return

    def dump(self) -> List[dict]:
        return [dict(rec, duration=rec["end"] - rec["start"]) for rec in self.spans]


def _timed(tracer: Tracer, name: str, fn: Callable, describe: Optional[Callable] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if describe is not None:
                rec["attrs"].update(describe(args, out))
            return out

    return wrapper


def _counted(tracer: Tracer, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count_in("sdp.solve", "factorizations")
        return fn(*args, **kwargs)

    return wrapper


def _describe_save(args, out):
    table, path = args[0], args[1]
    return {"strings": len(table.values), "bytes": os.path.getsize(path)}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer boundaries of the package for the duration of the block."""
    saved = []

    def patch(owners, attr, make):
        original = owners[0].__dict__[attr]
        new = make(original)
        for owner in owners:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def timed(name, describe=None):
        return lambda fn: _timed(tracer, name, fn, describe)

    Table = states.ExpectationTable
    patch([pauli], "dense_matrix", timed("pauli.dense_matrix"))
    patch([states], "required_strings", timed("states.required_strings"))
    patch([states, cli], "gibbs_density", timed("states.gibbs_density"))
    patch([states, cli], "build_table", timed("states.build_table"))
    patch([states, cli], "add_noise", timed("states.add_noise"))
    patch([Table], "save", timed("states.save", _describe_save))
    patch(
        [Table], "load",
        lambda cm: classmethod(_timed(tracer, "states.load", cm.__func__)),
    )
    patch(
        [MomentAssembler], "__init__",
        timed("moments.assembler_init",
              lambda a, _: {"r": len(a[0].b), "s": len(a[0].h_terms)}),
    )
    patch([MomentAssembler], "moment_set",
          timed("moments.moment_set", lambda _, out: {"q": out[1].q}))
    patch([sdp], "log_psd", timed("sdp.log_psd"))
    patch([sdp], "solve",
          timed("sdp.solve", lambda _, out: {"iterations": out.iterations}))
    patch([learn, cli], "reconstruct", timed("learn.reconstruct"))
    for name in FACTORIZATIONS:
        patch([scipy.linalg], name, lambda fn: _counted(tracer, fn))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- stage-by-stage replay ------------------------------------------------------


@dataclass
class Replayed:
    verdict: str
    mu_star: Optional[float] = None
    t_star: Optional[float] = None
    y: Optional[np.ndarray] = None
    labels: Optional[List[str]] = None


def replay(tracer: Tracer, table, assembler: MomentAssembler) -> Replayed:
    """The stages ``learn.reconstruct`` runs, called one by one with default options."""
    opts = learn.ReconstructOptions()
    with tracer.span("replay"):
        _, moments = assembler.moment_set(
            table, gram_floor=opts.gram_floor, epsilon_w_value=opts.epsilon_w
        )
        if moments.q == 0:
            return Replayed(learn.Verdict.NOT_STATIONARY.value)
        l0, _ = sdp.log_psd(moments.delta, eig_floor=opts.delta_floor, project=opts.project_delta)
        problem = sdp.SdpProblem(
            l0, moments.h_tilde_mats, moments.h_tilde_expectations, replace(opts.sdp)
        )
        solution = sdp.solve(problem)
        with tracer.span("sdp.check_solution"):
            sdp.check_solution(problem, solution)
        if solution.status is not sdp.SolverStatus.OPTIMAL:
            return Replayed("SolverFailure")
        l0_norm = float(np.abs(scipy.linalg.eigvalsh(l0)).max())
        cutoff = opts.certificate_tol_rel * max(1.0, l0_norm)
        verdict = learn.Verdict.NOT_GIBBS if solution.mu_star < -cutoff else learn.Verdict.CANDIDATE
        labels = [s.to_text() for s in assembler.b]
        return Replayed(
            verdict.value,
            solution.mu_star,
            solution.t_star,
            moments.kernel_coeffs.T @ solution.y_star,
            labels,
        )


def string_basis(n: int, k_local: int):
    basis = enumerate_geometric_k_local(n, k_local)
    return basis, models.string_basis_operators(basis)


def _same(replayed: Replayed, verdict: str, mu_text: str) -> Optional[str]:
    mu = "" if replayed.mu_star is None else repr(replayed.mu_star)
    if (replayed.verdict, mu) != (verdict, mu_text):
        return f"replay gave {replayed.verdict} mu* {mu or '-'}, the program {verdict} mu* {mu_text or '-'}"
    return None


def replay_calls(tracer: Tracer, calls, delta: float, k_local: int) -> List[str]:
    """Replay every reconstruction of a round's calls; return the disagreements found.

    Sweep rows are rebuilt from the exact tables and the per-row noise seed
    ``SeedSequence((seed, sigma index, T index, run))`` that ``run_sweep``
    uses, and their coefficients, which the sweep records do not keep, are
    checked against the model here.  Learn calls are replayed on the table
    file and must reproduce the record's coefficients bit for bit.
    """
    problems = []
    for call in calls:
        if call.kind == "run_sweep":
            part = call.sweep
            basis, h_terms = string_basis(part.n, k_local)
            assembler = MomentAssembler(basis, h_terms)
            needed = states.required_strings(basis, h_terms)
            h_true = models.xxz_chain(part.n, delta)
            exact = {t: states.build_table(states.gibbs_density(h_true, t), needed)
                     for t in part.temperatures}
            for rec in call.records:
                si = part.sigmas.index(rec["sigma_noise"])
                ti = part.temperatures.index(rec["temperature"])
                seed_seq = np.random.SeedSequence((call.seed, si, ti, rec["run"]))
                noisy = states.add_noise(exact[rec["temperature"]], rec["sigma_noise"], seed_seq)
                got = replay(tracer, noisy, assembler)
                where = f"sweep seed {call.seed} row {(si, ti, rec['run'])}"
                problem = _same(got, rec["verdict"], rec["mu_star"])
                if problem is None and got.y is not None:
                    try:
                        check_recovery(got.labels, got.y, got.t_star, rec["temperature"],
                                       rec["sigma_noise"], delta)
                    except CheckFailed as exc:
                        problem = str(exc)
                if problem:
                    problems.append(f"{where}: {problem}")
        elif call.kind == "learn" and call.record is not None and call.record.exists():
            table = states.ExpectationTable.load(call.table)
            assembler = MomentAssembler(*string_basis(table.n, k_local))
            got = replay(tracer, table, assembler)
            fields, _, coeffs = read_record(call.record)
            problem = _same(got, fields["verdict"], fields["mu_star"])
            if problem is None and got.y is not None and list(got.y) != coeffs:
                problem = "replayed coefficients differ from the learn record"
            if problem:
                problems.append(f"learn {call.table.name}: {problem}")
    return problems


# -- per-layer metrics ------------------------------------------------------------

TIMED_SPANS = {
    "pauli.dense_matrix_s": "pauli.dense_matrix",
    "states.required_strings_s": "states.required_strings",
    "states.gibbs_density_s": "states.gibbs_density",
    "states.build_table_s": "states.build_table",
    "states.add_noise_s": "states.add_noise",
    "states.save_s": "states.save",
    "states.load_s": "states.load",
    "moments.assembler_init_s": "moments.assembler_init",
    "moments.moment_set_s": "moments.moment_set",
    "sdp.log_psd_s": "sdp.log_psd",
    "sdp.solve_s": "sdp.solve",
    "sdp.check_solution_s": "sdp.check_solution",
    "learn.reconstruct_s": "learn.reconstruct",
}

_CLI_SPANS = ("cli.run_sweep", "cli.gen", "cli.learn")
# spans whose time run_sweep spends outside its rows, in this process
_SWEEP_SETUP = ("states.required_strings", "states.gibbs_density", "states.build_table",
                "moments.assembler_init")


def _median(values, what):
    values = list(values)
    if not values:
        raise ValueError(f"the traced run recorded no {what}")
    return float(statistics.median(values))


def per_layer_metrics(spans: List[dict], traced_calls, plain_calls) -> Dict[str, dict]:
    """Per-layer metrics from the spans of a traced run.

    Times are medians of one call over every round; counts come from round 0,
    so that they repeat exactly for a seed whatever the number of rounds.
    """
    named: Dict[str, List[int]] = {}
    children: Dict[int, List[int]] = {}
    for i, rec in enumerate(spans):
        named.setdefault(rec["name"], []).append(i)
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(i)

    def durations(name):
        return [spans[i]["duration"] for i in named.get(name, [])]

    def round0(name, value):
        return _median((value(spans[i]) for i in named.get(name, []) if spans[i]["round"] == 0),
                       name)

    def child_time(i, names=None):
        return sum(spans[c]["duration"] for c in children.get(i, [])
                   if names is None or spans[c]["name"] in names)

    out = {metric: (_median(durations(name), name), "s") for metric, name in TIMED_SPANS.items()}
    out["states.table_strings"] = (round0("states.save", lambda r: r["attrs"]["strings"]), "count")
    out["states.table_bytes"] = (round0("states.save", lambda r: r["attrs"]["bytes"]), "bytes")
    out["moments.r"] = (round0("moments.assembler_init", lambda r: r["attrs"]["r"]), "count")
    out["moments.q"] = (round0("moments.moment_set", lambda r: r["attrs"]["q"]), "count")
    out["moments.triple_entries"] = (
        round0("moments.assembler_init", lambda r: r["attrs"]["s"] * r["attrs"]["r"] ** 2),
        "count")

    def iterations(rec):
        return max(1, rec["attrs"]["iterations"])

    out["sdp.iterations"] = (round0("sdp.solve", lambda r: r["attrs"]["iterations"]), "count")
    out["sdp.ms_per_iteration"] = (
        _median((1e3 * spans[i]["duration"] / iterations(spans[i]) for i in named["sdp.solve"]),
                "sdp.solve"), "ms")
    out["sdp.factorizations_per_iteration"] = (
        round0("sdp.solve", lambda r: r["attrs"].get("factorizations", 0) / iterations(r)),
        "count")
    out["learn.self_s"] = (
        _median((spans[i]["duration"] - child_time(i) for i in named["learn.reconstruct"]),
                "learn.reconstruct"), "s")

    # share of the CLI calls' worker time spent in library work
    busy = capacity = 0.0
    cli_spans = [i for i, rec in enumerate(spans) if rec["name"] in _CLI_SPANS]
    for i, call in zip(cli_spans, traced_calls):
        if call.kind == "run_sweep":
            busy += sum(float(row["wall_ms"]) / 1e3 for row in call.records)
            busy += child_time(i, _SWEEP_SETUP)
        else:
            busy += child_time(i)
        capacity += call.workers * spans[i]["duration"]
    out["cli.worker_busy_share"] = (busy / capacity, "ratio")

    traced = sum(c.wall_s for c in traced_calls)
    plain = sum(c.wall_s for c in plain_calls)
    out["trace.overhead_share"] = ((traced - plain) / plain, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
