#!/usr/bin/env python3
"""tfnpkit benchmark: soundness battery, near-cap solves and the CLI pipeline.

Run from the root of a tfnpkit checkout:

    python3 perfbench/run.py --workload battery-ws --seed 0 --seconds 26 --trace 0

Every pass of a workload runs in a fresh Python process with a fresh working
directory under ``.perfbench_work/``, so the program's process-wide memos
start cold, as they do for a CLI user, and the Baranyai tables that entries 6
and 8 write land there instead of in the checkout.  Passes repeat until the
next one would end after ``--seconds``; each op's time is its median over
the passes, and set-up time is the median over fresh processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
reference pass, then traced passes, then the probes in ``probes.py``, and
prints the per-layer metrics.  The last line of standard output is the result
object; the line before it carries details (per-op samples, per-entry times,
the slowest op, the output fingerprint, machine info).  The run exits 2
without a result when the checkout holds no ``src/tfnpkit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_RUNS = 7
RUN_DEADLINE_S = 170
WORK_DIR = ".perfbench_work"
TREE_SKIP = {".git", "__pycache__", WORK_DIR, ".bench_build"}

# span -> workloads that must enter it; a traced pass that does not is a
# failure, which catches a caller's alias the tracer silently missed
EXERCISED = {
    "circuit.eval": ("battery-ws", "pipeline-cli"),
    "circuit.eval_all": ("battery-sets", "solve-wide"),
    "circuit.apply_many": ("battery-sets", "solve-wide"),
    "circuit.from_text": ("pipeline-cli",),
    "circuit.to_text": ("pipeline-cli",),
    "encodings.baranyai_index": ("battery-sets",),
    "problems.verify": ("battery-ws", "battery-sets", "pipeline-cli"),
    "problems.wellformed": ("battery-ws", "battery-sets", "pipeline-cli"),
    "problems.gen_random_instance": ("battery-sets", "pipeline-cli"),
    "problems.instance_from_text": ("pipeline-cli",),
    "problems.instance_to_text": ("pipeline-cli",),
    "reductions.apply": ("battery-ws", "battery-sets"),
    "reductions.transform": ("battery-ws", "battery-sets"),
    "reductions.pullback": ("battery-ws", "battery-sets"),
    "reductions.translate": ("battery-ws", "battery-sets"),
    "solvers.enumerate_solutions": ("battery-ws", "battery-sets"),
    "solvers.fuzz_instance": ("battery-ws", "battery-sets"),
    "solvers.brute_force_solve": ("solve-wide", "pipeline-cli"),
    **{f"cli.{cmd}": ("pipeline-cli",) for cmd in ("gen", "reduce", "solve", "pullback", "verify")},
}


# ---------------------------------------------------------------------------
# child processes


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import tfnpkit
    import tfnpkit.cli  # noqa: F401  (loads every submodule)

    if Path(tfnpkit.__file__).resolve().parent != (src / "tfnpkit").resolve():
        raise SystemExit(f"imported tfnpkit from {tfnpkit.__file__}, not from {src}")
    return tfnpkit


def child_main(kind: str, root: Path, workload: str, seed: int, trace: bool) -> dict:
    if kind == "setup":
        t0 = time.perf_counter()
        tfn = _import_program(root)
        for idx, _ in tfn.reductions.registry():
            tfn.reductions.build_entry(idx)
        return {"setup_s": time.perf_counter() - t0}

    tfn = _import_program(root)
    if kind == "probe":
        from probes import codec_phase, coverage_probe, parallel_probe
        from tracer import layer_values

        codec, codec_errors = codec_phase(tfn)
        parallel, parallel_errors = parallel_probe(tfn, seed)
        tracer, coverage_errors = coverage_probe(tfn, seed)
        layers, calls = layer_values(tracer)
        parallel["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"codec": codec, "parallel": parallel, "layers": layers, "calls": calls,
                "errors": codec_errors + parallel_errors + coverage_errors}

    from tracer import Tracer, layer_values
    from workloads import run_pass

    tracer = Tracer() if trace else None
    out = run_pass(tfn, workload, seed, tracer).to_json()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"], out["calls"] = layer_values(tracer)
    return out


# ---------------------------------------------------------------------------
# parent


class Run:
    """Spawns the child processes of one benchmark run inside a scratch
    directory of the checkout, each in a fresh working directory."""

    def __init__(self, args, root: Path, work: Path):
        self.args, self.root, self.work = args, root, work
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, kind: str, trace: bool = False) -> dict:
        cwd = tempfile.mkdtemp(dir=self.work)
        cmd = [sys.executable, str(HERE / "run.py"), "--child", kind, "--root", str(self.root),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(int(trace))]
        try:
            proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{kind} process exited {proc.returncode}")
        return json.loads(lines[-1])

    def passes(self, trace: bool) -> list[dict]:
        """Passes until the next one would end after --seconds (at least one)."""
        out, spans = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            out.append(self.spawn("pass", trace))
            spans.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(spans) > self.args.seconds:
                return out


def check_passes(passes: list[dict], workload: str, seed: int, errors: list[str]) -> int:
    """Failed ops from fingerprint mismatches: every pass must match the first,
    and at the default seed the first must match fingerprint.json."""
    reference = passes[0]["fingerprint"]
    if seed == DEFAULT_SEED:
        reference = json.loads((HERE / "fingerprint.json").read_text())[workload]
    failed = 0
    for p in passes:
        for key in sorted(set(reference) | set(p["fingerprint"])):
            if p["fingerprint"].get(key) != reference.get(key):
                failed += 1
                errors.append(f"fingerprint mismatch at {key}: {p['fingerprint'].get(key)} "
                              f"!= {reference.get(key)}")
        errors.extend(p["errors"])
    return failed


def op_samples(passes: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        for op, s in p["ops"]:
            samples.setdefault(op, []).append(s)
    return samples


def op_seconds(passes: list[dict]) -> dict[str, float]:
    """Each op's median time over the run's passes.

    On this shared host other tenants slow a process by tens of percent most
    of the time, with short fast spells between; the fastest repeat of an op
    depends on whether a run caught such a spell, the median does not."""
    return {op: statistics.median(v) for op, v in op_samples(passes).items()}


def entry_seconds(per_op: dict[str, float]) -> dict:
    return {f"check.entry.{op.split()[1]:0>2}.s": s for op, s in per_op.items() if op.startswith("entry ")}


def measure(run: Run, detail: dict, errors: list[str]) -> tuple[dict, int, int]:
    setup = [run.spawn("setup")["setup_s"] for _ in range(SETUP_RUNS)]
    passes = run.passes(trace=False)
    failed = sum(p["failed"] for p in passes)
    failed += check_passes(passes, run.args.workload, run.args.seed, errors)
    per_op = op_seconds(passes)
    detail.update(passes=len(passes), setup_runs=SETUP_RUNS, ops=len(per_op),
                  op_samples=op_samples(passes),
                  setup_samples=setup, fingerprint=passes[0]["fingerprint"])
    if run.args.workload.startswith("battery"):
        detail["entries"] = entry_seconds(per_op)
    # the slowest op is a single op's time, too unsteady across seeds for a
    # bound, so it is reported here only
    slowest = max(per_op, key=per_op.get)
    detail["op_max_ms"] = {"op": slowest, "value": per_op[slowest] * 1e3}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_wall_s": (sum(per_op.values()), "s"),
        # geometric mean: a median over a few ops of very different sizes
        # jumps between the two ops at the gap it falls in
        "op_geomean_ms": (statistics.geometric_mean(per_op.values()) * 1e3, "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, sum(p["attempted"] for p in passes), failed


def measure_traced(run: Run, detail: dict, errors: list[str]) -> tuple[dict, int, int]:
    from tracer import LAYER_METRICS

    workload = run.args.workload
    reference = run.spawn("pass")
    traced = run.passes(trace=True)
    probe = run.spawn("probe")
    passes = [reference] + traced
    failed = sum(p["failed"] for p in passes) + len(probe["errors"])
    failed += check_passes(passes, workload, run.args.seed, errors)
    errors.extend(probe["errors"])

    metrics, from_probe = {}, []
    calls = traced[0]["calls"]
    for name, (unit, span, _) in LAYER_METRICS.items():
        if span is None or calls.get(span, 0):
            value = statistics.median(p["layers"][name] for p in traced)
        else:
            value = probe["layers"][name]
            from_probe.append(name)
        metrics[name] = (value, unit)
    for name, value in probe["codec"].items():
        metrics[name] = (value, "ns")
    metrics["solvers.brute_force_solve.p2_speedup"] = (probe["parallel"]["speedup"], "x")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced) / reference["wall_s"], "x")

    missed = [span for span, wls in EXERCISED.items() if workload in wls and not calls.get(span, 0)]
    if workload == "battery-ws" and not traced[0]["layers"]["numerics.bitstring_new"]:
        missed.append("numerics.bitstring_new")
    for span in missed:
        errors.append(f"self-test: traced {workload} pass made no call into {span}")
    detail.update(traced_passes=len(traced), from_probe=from_probe, parallel_probe=probe["parallel"],
                  missed_layers=missed)
    if workload.startswith("battery"):
        detail["entries"] = entry_seconds(op_seconds([reference]))
    return metrics, sum(p["attempted"] for p in passes), failed + len(missed)


def tree_snapshot(root: Path) -> dict:
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in TREE_SKIP]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            snap[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return snap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--child", choices=("setup", "pass", "probe"), help=argparse.SUPPRESS)
    ap.add_argument("--root", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(child_main(args.child, Path(args.root), args.workload, args.seed,
                                    bool(args.trace))))
        return 0

    root = Path.cwd()
    if not (root / "src" / "tfnpkit" / "__init__.py").is_file():
        print(f"no tfnpkit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    before = tree_snapshot(root)
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work))
    errors: list[str] = []
    detail = {
        "workload": args.workload, "seed": args.seed,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "processor": platform.processor()},
    }
    try:
        run = Run(args, root, run_dir)
        measured = measure_traced if args.trace else measure
        metrics, attempted, failed = measured(run, detail, errors)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()
    if tree_snapshot(root) != before:
        errors.append("the run changed files in the checkout")
        failed += 1
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
