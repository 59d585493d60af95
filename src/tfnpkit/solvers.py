"""Ground-truth brute-force search, the explicit Ramsey clique finder, and
the reduction fuzz harness.

``enumerate_solutions`` lists accepted solutions in a fixed canonical order
(solution type tag first, then witness values lexicographically), optionally
capped per type.  ``brute_force_solve`` returns the canonical minimum and, by
totality of every catalog problem, must always find one; exhausting the space
without a hit raises an integrity failure because it can only mean a verifier
or wellformedness bug.  The fuzz harness drives every registry reduction over
designed and seeded random instances, pulls every enumerated target solution
back, and re-verifies it on the source.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .circuit import Circuit, Compose, Gate, GateNet, const_circuit, eval_all, not_all, take_low
from .errors import CapabilityError, DomainError, IntegrityError, ParseError
from .numerics import BitString
from .problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    circuit_shape,
    gen_random_instance,
    honest_turan_params,
    random_aux,
    random_table,
    solution_order_key,
)
from .reductions import (
    apply as apply_reduction,
    build_entry,
    lookup,
    pullback as pullback_reduction,
)

__all__ = [
    "ColoringMatrix",
    "SolveBudget",
    "brute_force_solve",
    "coloring_from_text",
    "coloring_to_text",
    "enumerate_solutions",
    "fuzz_instance",
    "fuzz_soundness",
    "ramsey_explicit",
    "random_coloring",
]

WIDTH_CAP = 22


@dataclass(frozen=True)
class SolveBudget:
    """Limits for exhaustive search: input width cap, per-type solution cap,
    and an optional thread count for partitioned scans."""

    max_in_width: int = WIDTH_CAP
    max_per_type: Optional[int] = 2000
    parallelism: int = 1

    def __post_init__(self):
        if self.max_in_width > WIDTH_CAP:
            raise DomainError(f"width cap {self.max_in_width} exceeds the hard limit {WIDTH_CAP}")
        if self.parallelism < 1:
            raise DomainError("parallelism must be at least 1")


def _solutions(inst: ProblemInstance, tag: str, outs: np.ndarray,
               lo: int, hi: int) -> Iterator[Solution]:
    """Accepted solutions of one tag in canonical order, first witness in
    [lo, hi), scanned by the tag's clause over the output table outs."""
    pid = inst.pid
    clause = pid.spec.clauses[tag]
    names = clause.names(pid)
    width = pid.spec.witness_width(inst.n, inst.in_width)
    for values in clause.scan(inst, outs, lo, hi):
        yield Solution(tag, tuple(zip(names, [BitString(width, v) for v in values])))


# ---------------------------------------------------------------------------
# public search API


def enumerate_solutions(inst: ProblemInstance, budget: SolveBudget = SolveBudget()
                        ) -> tuple[list[Solution], bool]:
    """All accepted solutions in canonical order, capped per type.

    Returns (solutions, truncated).  Every type is enumerated lazily in
    canonical order and stopped at the per-type cap, the only cap that
    applies; ``truncated`` says whether any type reached it.  Clique-type
    witnesses appear once, in sorted-index form, from a depth-first search
    that yields them in ascending order without building the rest.
    """
    wf = inst.wellformed_verdict
    if not wf:
        raise DomainError(f"instance is malformed: {wf.reason}")
    w = inst.circuit.in_width
    if w > budget.max_in_width:
        raise CapabilityError(f"input width {w} exceeds budget {budget.max_in_width}")
    cap = budget.max_per_type
    out: list[Solution] = []
    truncated = False
    outs = eval_all(inst.circuit)
    hi = 1 << inst.pid.spec.witness_width(inst.n, w)
    for tag in inst.pid.spec.clauses:
        got = 0
        for s in _solutions(inst, tag, outs, 0, hi):
            if cap is not None and got >= cap:
                truncated = True
                break
            out.append(s)
            got += 1
    return out, truncated


def brute_force_solve(inst: ProblemInstance, budget: SolveBudget = SolveBudget()) -> Solution:
    """The canonical-minimum accepted solution.

    Deterministic for any parallelism degree: chunks of the first-witness
    range are scanned independently and reduced by the canonical order.
    """
    wf = inst.wellformed_verdict
    if not wf:
        raise DomainError(f"instance is malformed: {wf.reason}")
    w = inst.circuit.in_width
    if w > budget.max_in_width:
        raise CapabilityError(f"input width {w} exceeds budget {budget.max_in_width}")
    outs = eval_all(inst.circuit)
    hi = 1 << inst.pid.spec.witness_width(inst.n, w)

    def first_in(tag: str, lo: int, chunk_hi: int) -> Optional[Solution]:
        for s in _solutions(inst, tag, outs, lo, chunk_hi):
            return s
        return None

    p = min(budget.parallelism, hi)
    for tag in inst.pid.spec.clauses:
        if p == 1:
            got = first_in(tag, 0, hi)
            if got is not None:
                return got
            continue
        bounds = [(hi * i // p, hi * (i + 1) // p) for i in range(p)]
        with ThreadPoolExecutor(max_workers=p) as pool:
            candidates = list(pool.map(lambda b: first_in(tag, b[0], b[1]), bounds))
        candidates = [s for s in candidates if s is not None]
        if candidates:
            return min(candidates, key=solution_order_key)
    raise IntegrityError(
        f"no accepted solution for {inst.pid} at n={inst.n}: the problem is total, "
        "so this indicates a verifier or wellformedness bug"
    )


# ---------------------------------------------------------------------------
# instance generation for wide inputs and designed adversarial cases


def _fold_circuit(w_in: int, w_out: int) -> Circuit:
    """XOR-fold wide inputs onto w_out wires so a small table can drive them."""
    gates = [Gate("INPUT", i) for i in range(w_in)]
    outs = []
    for j in range(w_out):
        acc = j
        pos = j + w_out
        while pos < w_in:
            gates.append(Gate("XOR", acc, pos))
            acc = len(gates) - 1
            pos += w_out
        outs.append(acc)
    return GateNet(w_in, gates, outs)


def fuzz_instance(pid: ProblemId, n: int, seed: int) -> ProblemInstance:
    """Seeded random instance; inputs wider than the table cap are XOR-folded
    onto a random 16-bit-input table so generation stays cheap."""
    in_w, out_w = circuit_shape(pid, n)
    if in_w <= 16:
        return gen_random_instance(pid, n, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    circ = Compose(random_table(rng, 16, out_w), _fold_circuit(in_w, 16))
    return ProblemInstance(pid, n, circ, *random_aux(pid, n, rng))


def designed_instances(pid: ProblemId, n: int) -> list[ProblemInstance]:
    """Adversarial non-random cases: constants, a projection, a permutation."""
    in_w, out_w = circuit_shape(pid, n)
    circuits = [
        const_circuit(BitString(out_w, 0), in_width=in_w),
        const_circuit(BitString(out_w, (1 << out_w) - 1), in_width=in_w),
    ]
    if in_w >= out_w:
        circuits.append(take_low(in_w, out_w))
    if in_w == out_w:
        circuits.append(not_all(in_w))
    abc = nm = None
    if pid.spec.vertex_pairs:
        abc = (BitString(2 * n, 0), BitString(2 * n, (1 << (2 * n)) - 1), BitString(2 * n, 1))
    if pid.spec.nm:
        nm = honest_turan_params(pid.r, n)
    return [ProblemInstance(pid, n, c, abc=abc, nm=nm) for c in circuits]


# ---------------------------------------------------------------------------
# reduction fuzz harness


def fuzz_soundness(name_or_index, trials: int = 100, seed: int = 0,
                   budget: Optional[SolveBudget] = None,
                   params: Optional[dict] = None) -> dict:
    """Drive one registry entry over designed plus seeded random instances.

    Every enumerated target solution is pulled back and re-verified on the
    source; type purity is asserted for the target tags the entry's registry
    row declares ``forbidden``.

    Default budget: exhaustive enumeration when the target input width is at
    most 12, except that vertex-pair (ws family) targets are capped per type
    (their six-witness solutions grow quadratically in the triple count);
    wider targets cap every type.

    The report counts the cases run, the target solutions pulled back, the
    cases whose enumeration hit the per-type cap (``truncated_cases``) and
    the failures, with the first failure's message.
    """
    row = lookup(name_or_index)
    index = row.index
    red = build_entry(index, **(params or {}))
    if budget is None:
        tgt_w, _ = circuit_shape(red.target, red.target_n)
        if tgt_w > 12:
            budget = SolveBudget(max_per_type=200)
        elif red.target.spec.vertex_pairs:
            budget = SolveBudget(max_per_type=2000)
        else:
            budget = SolveBudget(max_per_type=None)
    forbidden = row.forbidden

    designed = designed_instances(red.source, red.source_n)

    def cases() -> Iterator[tuple[str, ProblemInstance]]:
        # generated one at a time: an instance's eval_all table lives on its
        # circuit, and the identity entries share that circuit with the source
        for inst in designed:
            yield "designed", inst
        for t in range(trials):
            yield f"seed={seed + t}", fuzz_instance(red.source, red.source_n, seed + t)

    # constant circuits collide everywhere; cap their enumeration regardless
    designed_budget = budget
    if budget.max_per_type is None or budget.max_per_type > 2000:
        designed_budget = SolveBudget(max_in_width=budget.max_in_width, max_per_type=2000,
                                      parallelism=budget.parallelism)

    checked = 0
    failures = 0
    truncated_cases = 0
    first_failure = None

    def fail(kind: str, msg: str):
        nonlocal failures, first_failure
        failures += 1
        if first_failure is None:
            first_failure = f"[{kind}] {msg}"

    for kind, inst in cases():
        try:
            tgt = apply_reduction(red, inst)
        except Exception as exc:
            fail(kind, f"apply failed: {exc}")
            continue
        wf = tgt.wellformed_verdict
        if not wf:
            fail(kind, f"target malformed: {wf.reason}")
            continue
        try:
            sols, truncated = enumerate_solutions(
                tgt, budget if kind != "designed" else designed_budget)
        except Exception as exc:
            fail(kind, f"target enumeration failed: {exc}")
            continue
        truncated_cases += truncated
        if not sols:
            fail(kind, "target instance has no solutions at all")
            continue
        for s in sols:
            if s.tag in forbidden:
                fail(kind, f"type-{s.tag} target solution violates the image structure")
                continue
            checked += 1
            try:
                pullback_reduction(red, inst, s, target=tgt)
            except Exception as exc:
                fail(kind, f"pull-back of type {s.tag} {tuple(str(v) for v in s.values())}: {exc}")

    return {
        "entry": index,
        "name": red.name,
        "trials": trials,
        "cases": len(designed) + trials,
        "solutions_checked": checked,
        "truncated_cases": truncated_cases,
        "failures": failures,
        "first_failure": first_failure,
        "purity_tags": forbidden,
        "ok": failures == 0,
    }


# ---------------------------------------------------------------------------
# explicit Ramsey clique via iterative majority restriction


@dataclass(frozen=True, eq=False)
class ColoringMatrix:
    """Symmetric two-coloring of the complete graph on N vertices."""

    n: int
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = self.table
        if t.shape != (self.n, self.n):
            raise DomainError("coloring table shape mismatch")
        if not np.array_equal(t, t.T):
            raise DomainError("coloring must be symmetric")
        if not np.isin(t[~np.eye(self.n, dtype=bool)], (0, 1)).all():
            raise DomainError("colors must be 0 or 1")

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise DomainError("no self-loops in the coloring")
        return int(self.table[u, v])


def random_coloring(n: int, seed: int) -> ColoringMatrix:
    rng = np.random.Generator(np.random.PCG64(seed))
    upper = rng.integers(0, 2, size=(n, n))
    table = np.triu(upper, 1)
    table = table + table.T
    return ColoringMatrix(n, table)


def coloring_to_text(c: ColoringMatrix) -> str:
    lines = [str(c.n)]
    for i in range(c.n - 1):
        lines.append("".join(str(int(c.table[i, j])) for j in range(i + 1, c.n)))
    return "\n".join(lines)


def coloring_from_text(text: str) -> ColoringMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty coloring file", 1)
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be N, got {lines[0]!r}", 1) from None
    if n < 2:
        raise ParseError("coloring needs N >= 2", 1)
    if len(lines) != n:
        raise ParseError(f"expected {n - 1} triangle rows, got {len(lines) - 1}", len(lines))
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        row = lines[i + 1]
        want = n - 1 - i
        if len(row) != want or any(ch not in "01" for ch in row):
            raise ParseError(f"row {i} must be {want} characters of 0/1", i + 2)
        for off, ch in enumerate(row):
            j = i + 1 + off
            table[i, j] = table[j, i] = int(ch)
    return ColoringMatrix(n, table)


def ramsey_explicit(c: ColoringMatrix) -> list[int]:
    """Monochromatic clique of size >= ceil(log2(N)/2) by majority restriction.

    Repeatedly pick the smallest remaining vertex, keep the majority-color
    neighborhood (ties resolve to color 0), and finally return the picked
    vertices whose recorded color matches the majority among them.  The
    halving invariants are asserted at every step.
    """
    if c.n < 2:
        raise DomainError("need at least two vertices")
    remaining = list(range(c.n))
    picks: list[tuple[int, int]] = []
    steps = 0
    while remaining:
        v = remaining[0]
        rest = remaining[1:]
        if not rest:
            picks.append((v, 0))
            break
        colors = [c.color(v, u) for u in rest]
        ones = sum(colors)
        zeros = len(colors) - ones
        maj = 0 if zeros >= ones else 1
        new_remaining = [u for u, col in zip(rest, colors) if col == maj]
        # halving invariants: strict shrink, at least half of the rest kept
        if not set(new_remaining) < set(remaining):
            raise IntegrityError("restricted vertex set failed to shrink")
        if len(new_remaining) < (len(remaining) - 1) // 2:
            raise IntegrityError("majority side smaller than half the neighborhood")
        if any(c.color(v, u) != maj for u in new_remaining):
            raise IntegrityError("kept a vertex of the minority color")
        picks.append((v, maj))
        remaining = new_remaining
        steps += 1
    min_picks = 1
    while (1 << min_picks) <= c.n:
        min_picks += 1
    min_picks -= 1  # floor(log2 N)
    if len(picks) < min_picks:
        raise IntegrityError(
            f"majority restriction picked {len(picks)} vertices, expected at least {min_picks}"
        )
    ones = sum(col for _, col in picks)
    zeros = len(picks) - ones
    maj = 0 if zeros >= ones else 1
    clique = [v for v, col in picks if col == maj]
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if c.color(u, v) != maj:
                raise IntegrityError("returned clique is not monochromatic")
    return clique
