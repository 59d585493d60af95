"""The four workloads: what one pass over each runs, and what it must output.

One pass is a fixed list of operations ("ops") built from the workload seed:
battery cases grouped per registry entry, single solves, or CLI jobs.  Each
pass function returns the ops' latencies, the number of ops attempted and
failed, and a fingerprint of the outputs, which run.py compares across
passes and, at the default seed, against ``fingerprint.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time

WS_ENTRIES = (17, 18, 19, 20, 21, 27)
SET_ENTRIES = tuple(i for i in range(1, 28) if i not in WS_ENTRIES)

# trials per entry in one battery pass; chosen so a pass takes a few seconds
BATTERY_TRIALS = {"battery-ws": 1, "battery-sets": 25}
BATTERY_ENTRIES = {"battery-ws": WS_ENTRIES, "battery-sets": SET_ENTRIES}

# one instance per problem family, at the largest width that still solves in
# a few seconds: (name, k, r, n)
SOLVE_SET = (
    ("weak_pigeon", None, None, 20),
    ("pigeon", None, None, 20),
    ("general_pigeon", 3, None, 20),
    ("weak_ekr", None, None, 12),
    ("ws", None, None, 5),
    ("ws_collisions", None, None, 5),
    ("ws_colorful", None, None, 5),
    ("weak_cayley", None, None, 7),
    ("cayley", None, None, 7),
    ("weak_mantel", None, None, 8),
    ("weak_turan", None, 3, 6),
)

# gen -> reduce -> solve -> pullback -> verify jobs: (registry entry, source n).
# Entries 20, 21 and 27 need n >= 5, where entry 20 alone writes a 42 MB target
# and takes 13 to 19 s: one such sample per run spread 0.26 across seeds, so
# the text-heavy jobs here are entries 18 and 19 at n=4 (327 KB targets).
PIPELINE_JOBS = ((1, 2), (2, 10), (5, 10), (14, 10), (17, 4), (18, 4), (19, 4), (22, 7))

WORKLOADS = ("battery-ws", "battery-sets", "solve-wide", "pipeline-cli")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """Result of one pass: per-op seconds, op counts and output fingerprint."""

    def __init__(self):
        self.ops: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprint: dict[str, object] = {}
        self.wall_s = 0.0
        self.solutions: list = []  # solve-wide outputs, checked after the pass

    def to_json(self) -> dict:
        return {
            "ops": self.ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:5],
            "fingerprint": self.fingerprint,
            "wall_s": self.wall_s,
        }


def solve_instances(tfn, seed: int):
    """The solve-wide instances, labelled, generated from the workload seed."""
    out = []
    for name, k, r, n in SOLVE_SET:
        pid = tfn.problems.ProblemId(name, k=k, r=r)
        out.append((f"{pid} n={n}", tfn.solvers.fuzz_instance(pid, n, seed)))
    return out


def battery_pass(tfn, workload: str, seed: int) -> Pass:
    res = Pass()
    trials = BATTERY_TRIALS[workload]
    t_pass = time.perf_counter()
    for idx in BATTERY_ENTRIES[workload]:
        t0 = time.perf_counter()
        rep = tfn.solvers.fuzz_soundness(idx, trials=trials, seed=seed)
        res.ops.append((f"entry {idx}", time.perf_counter() - t0))
        res.attempted += rep["cases"]
        res.failed += min(rep["failures"], rep["cases"])
        if rep["failures"]:
            res.errors.append(f"entry {idx}: {rep['first_failure']}")
        res.fingerprint[str(idx)] = [rep["cases"], rep["solutions_checked"], rep["failures"]]
    res.wall_s = time.perf_counter() - t_pass
    return res


def solve_pass(tfn, instances, tracer=None, parallelism: int = 1) -> Pass:
    """Solve every instance; ``check_solutions`` verifies them afterwards."""
    res = Pass()
    budget = tfn.solvers.SolveBudget(parallelism=parallelism)
    t_pass = time.perf_counter()
    for label, inst in instances:
        if tracer is not None:
            tracer.new_case()
        t0 = time.perf_counter()
        try:
            sol = tfn.solvers.brute_force_solve(inst, budget)
        except Exception as exc:  # a failed solve is counted, not fatal
            sol = None
            res.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        res.ops.append((label, time.perf_counter() - t0))
        res.solutions.append(sol)
    res.wall_s = time.perf_counter() - t_pass
    return res


def check_solutions(tfn, instances, res: Pass) -> None:
    for (label, inst), sol in zip(instances, res.solutions):
        res.attempted += 1
        if sol is None or not tfn.problems.verify(inst, sol):
            res.failed += 1
            res.fingerprint[label] = None
            continue
        res.fingerprint[label] = _digest(tfn.problems.solution_to_text(sol))


def _job_argv(tfn, idx: int, n: int, seed: int, d: str) -> list[list[str]]:
    name = dict(tfn.reductions.registry())[idx]
    pid = tfn.reductions.build_entry(idx).source
    extra = [f"k={pid.k}"] if pid.k is not None else []
    extra += [f"r={pid.r}"] if pid.r is not None else []
    src, tgt = os.path.join(d, "src.txt"), os.path.join(d, "tgt.txt")
    tsol, back = os.path.join(d, "tgt_sol.txt"), os.path.join(d, "back.txt")
    return [
        ["gen", pid.name, *extra, str(n), str(seed), "--out", src],
        ["reduce", "--name", name, "--in", src, "--out", tgt],
        ["solve", "--inst", tgt, "--out", tsol],
        ["pullback", "--name", name, "--inst", src, "--sol", tsol, "--out", back],
        ["verify", "--inst", src, "--sol", back],
    ]


def run_job(tfn, idx: int, n: int, seed: int, res: Pass, tracer=None) -> None:
    """One CLI job in its own directory under the current one; every step
    must exit 0, and the last step is the source-side verify."""
    label = f"entry {idx} n={n}"
    d = os.path.abspath(f"job_{idx}_{n}")
    os.makedirs(d)
    argvs = _job_argv(tfn, idx, n, seed, d)
    codes = []
    if tracer is not None:
        tracer.new_case()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        for argv in argvs:
            codes.append(tfn.cli.main(argv))
            if codes[-1] != 0:
                break
    res.ops.append((label, time.perf_counter() - t0))
    res.attempted += 1
    if codes != [0] * len(argvs):
        res.failed += 1
        res.errors.append(f"{label}: exit codes {codes}: {err.getvalue().strip()[-300:]}")
        res.fingerprint[label] = None
    else:
        with open(os.path.join(d, "back.txt")) as fh:
            res.fingerprint[label] = _digest(fh.read()) + f" verify={codes[-1]}"
    shutil.rmtree(d)


def pipeline_pass(tfn, seed: int, tracer=None) -> Pass:
    res = Pass()
    t_pass = time.perf_counter()
    for idx, n in PIPELINE_JOBS:
        run_job(tfn, idx, n, seed, res, tracer)
    res.wall_s = time.perf_counter() - t_pass
    return res


def run_pass(tfn, workload: str, seed: int, tracer=None) -> Pass:
    """One pass of a workload; with a tracer, spans cover the pass but not
    input generation or the benchmark's own output checks."""
    instances = solve_instances(tfn, seed) if workload == "solve-wide" else None
    if tracer is not None:
        tracer.install(tfn)
    try:
        if workload in BATTERY_ENTRIES:
            res = battery_pass(tfn, workload, seed)
        elif workload == "solve-wide":
            res = solve_pass(tfn, instances, tracer)
        else:
            res = pipeline_pass(tfn, seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if instances is not None:
        check_solutions(tfn, instances, res)
    return res
