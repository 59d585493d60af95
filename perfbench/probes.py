"""Micro-phases of the traced run: codec timings with round-trip checks, the
parallel-solve probe, and the coverage probe.

The coverage probe is one small CLI job plus one small battery entry, traced.
It enters every layer, so a layer that the workload itself bypasses still
reports measured numbers; run.py lists which metrics came from it.
"""

from __future__ import annotations

import statistics
import time

from tracer import Tracer
from workloads import Pass, run_job, solve_instances, solve_pass

REPEATS = 5


def _per_call_ns(fn, items) -> float:
    """Median over REPEATS sweeps of the mean nanoseconds per call."""
    sweeps = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(item)
        sweeps.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(sweeps)


def codec_phase(tfn) -> tuple[dict, list[str]]:
    """Per-call time of each codec's public encode/decode over a fixed domain,
    after checking that the two are inverse on that domain."""
    enc, BitString = tfn.encodings, tfn.numerics.BitString
    errors = []
    out = {}

    k, m = 4, 10
    vecs = [BitString(m, v) for v in range(1 << m) if bin(v).count("1") == k]
    ranks = [enc.cover_encode(k, m, v) for v in vecs]
    if [enc.cover_decode(k, m, r) for r in ranks] != vecs or len(set(ranks)) != len(vecs):
        errors.append("cover round trip failed")
    out["cover.encode_ns"] = _per_call_ns(lambda v: enc.cover_encode(k, m, v), vecs)
    out["cover.decode_ns"] = _per_call_ns(lambda r: enc.cover_decode(k, m, r), ranks)

    n = 5
    pairs = [(BitString(n, u), BitString(n, v)) for u in range(1 << n) for v in range(u + 1, 1 << n)]
    ranks = [enc.lexpair_encode(n, u, v) for u, v in pairs]
    if [enc.lexpair_decode(n, r) for r in ranks] != pairs:
        errors.append("lexpair round trip failed")
    out["lexpair.encode_ns"] = _per_call_ns(lambda p: enc.lexpair_encode(n, *p), pairs)
    out["lexpair.decode_ns"] = _per_call_ns(lambda r: enc.lexpair_decode(n, r), ranks)

    n = 6
    ranks = [BitString(enc.prufer_width(n), r) for r in range(enc.tree_count(n))]
    trees = [enc.prufer_decode_rank(n, r) for r in ranks]
    if [enc.prufer_encode_rank(n, g) for g in trees] != ranks:
        errors.append("prufer round trip failed")
    out["prufer.encode_ns"] = _per_call_ns(lambda g: enc.prufer_encode_rank(n, g), trees)
    out["prufer.decode_ns"] = _per_call_ns(lambda r: enc.prufer_decode_rank(n, r), ranks)

    w = 12
    xs = [BitString(w, v) for v in range(1 << w)]
    forms = [enc.catalan_factorize(x) for x in xs]
    if [enc.catalan_expand(f, c) for f, c in forms] != xs:
        errors.append("catalan round trip failed")
    out["catalan.encode_ns"] = _per_call_ns(enc.catalan_factorize, xs)
    out["catalan.decode_ns"] = _per_call_ns(lambda fc: enc.catalan_expand(*fc), forms)

    reps = [enc.chain_representative(x) for x in xs]
    if any(r.weight != w // 2 or enc.chain_representative(r) != r for r in reps):
        errors.append("chain representative is not a weight-w/2 fixed point")
    out["chain.rep_ns"] = _per_call_ns(enc.chain_representative, xs)
    return {f"encodings.{key}": value for key, value in out.items()}, errors


# each solving thread builds its own full output table, so at width 22
# (weak_ekr n=12) two threads would hold 2.2 GB; the probe leaves that one out
PROBE_MAX_WIDTH = 21


def parallel_probe(tfn, seed: int) -> tuple[dict, list[str]]:
    """The solve-wide set at parallelism 1 and 2; outputs must be identical."""
    every = solve_instances(tfn, seed)
    instances = [(label, inst) for label, inst in every if inst.circuit.in_width <= PROBE_MAX_WIDTH]
    serial = solve_pass(tfn, instances, parallelism=1)
    threaded = solve_pass(tfn, instances, parallelism=2)
    errors = serial.errors + threaded.errors
    for (label, _), a, b in zip(instances, serial.solutions, threaded.solutions):
        if a is None or a != b:
            errors.append(f"{label}: parallelism 2 returned a different solution")
    return {
        "serial_s": serial.wall_s,
        "parallel_s": threaded.wall_s,
        "speedup": serial.wall_s / threaded.wall_s,
        "left_out": [label for label, inst in every if inst.circuit.in_width > PROBE_MAX_WIDTH],
    }, errors


def coverage_probe(tfn, seed: int) -> tuple[Tracer, list[str]]:
    tracer = Tracer()
    res = Pass()
    tracer.install(tfn)
    try:
        run_job(tfn, 6, 3, seed, res, tracer)
        rep = tfn.solvers.fuzz_soundness(1, trials=1, seed=seed)
    finally:
        tracer.uninstall()
    errors = res.errors
    if rep["failures"]:
        errors.append(f"coverage battery entry 1: {rep['first_failure']}")
    return tracer, errors
