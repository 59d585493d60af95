"""Ground-truth brute-force search, the explicit Ramsey clique finder, and
the reduction fuzz harness.

``enumerate_solutions`` lists accepted solutions in a fixed canonical order
(solution type tag first, then witness values lexicographically), optionally
capped per type; ``solution_rows`` gives the same witness tuples per tag as
int arrays.  ``brute_force_solve`` returns the canonical minimum and, by
totality of every catalog problem, must always find one; exhausting the space
without a hit raises an integrity failure because it can only mean a verifier
or wellformedness bug.  The fuzz harness drives every registry reduction over
designed and seeded random instances, pulls every enumerated target solution
back, and re-verifies it on the source: in batches of int arrays for an
entry with ``translate_many``, one ``Solution`` at a time for the others.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .circuit import (Circuit, Compose, Gate, GateNet, const_circuit, eval_all, not_all,
                      table_prefix, take_low)
from .errors import DomainError, IntegrityError, ParseError
from .numerics import BitString
from .problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    _content_lines,
    circuit_shape,
    gen_random_instance,
    honest_turan_params,
    random_aux,
    random_table,
    seeded_rng,
    solution_order_key,
)
from .reductions import (
    Reduction,
    _ws_abc,
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
    "solution_rows",
]

MAX_PARALLELISM = 64
FUZZ_TABLE_WIDTH = 16


@dataclass(frozen=True)
class SolveBudget:
    """Per-type solution cap and thread count of an exhaustive search, whose
    input width ``eval_all`` caps at ``circuit.MAX_EVAL_WIDTH``."""

    max_per_type: Optional[int] = 2000
    parallelism: int = 1

    def __post_init__(self):
        if not 1 <= self.parallelism <= MAX_PARALLELISM:
            raise DomainError(f"parallelism must be between 1 and {MAX_PARALLELISM}, "
                              f"got {self.parallelism}")


def _solutions(inst: ProblemInstance, tag: str, rows: list) -> list[Solution]:
    """The Solutions of one tag whose witness values are the int tuples rows."""
    names = inst.pid.spec.clauses[tag].names(inst.pid)
    width = inst.pid.spec.witness_width(inst.n, inst.in_width)
    return [Solution(tag, tuple(zip(names, [BitString(width, v) for v in values]))) for values in rows]


def _witness_range(inst: ProblemInstance) -> int:
    """The witness range of a well-formed instance whose circuit ``eval_all``
    can tabulate; checked before any input is evaluated."""
    wf = inst.wellformed_verdict
    if not wf:
        raise DomainError(f"instance is malformed: {wf.reason}")
    table_prefix(inst.circuit, 0)
    return 1 << inst.pid.spec.witness_width(inst.n, inst.circuit.in_width)


# ---------------------------------------------------------------------------
# public search API


def solution_rows(inst: ProblemInstance, budget: SolveBudget = SolveBudget()
                  ) -> tuple[dict[str, np.ndarray], bool]:
    """Accepted witness tuples per tag, in canonical order, as int arrays.

    Returns ({tag: rows}, truncated), rows of shape (N, number of witnesses)
    for every tag in canonical order.  Each tag's scan runs lazily and stops
    at the per-type cap, the only cap that applies; ``truncated`` says
    whether any tag reached it.  Clique-type witnesses appear once, in
    sorted-index form, from a depth-first search that yields them in
    ascending order without building the rest.
    """
    hi = _witness_range(inst)
    outs = eval_all(inst.circuit)
    cap = budget.max_per_type
    rows: dict[str, np.ndarray] = {}
    truncated = False
    for tag, clause in inst.pid.spec.clauses.items():
        got = list(islice(clause.scan(inst, outs, 0, hi), None if cap is None else cap + 1))
        if cap is not None and len(got) > cap:
            truncated = True
            del got[cap:]
        rows[tag] = np.array(got, dtype=np.int64).reshape(len(got), len(clause.names(inst.pid)))
    return rows, truncated


def enumerate_solutions(inst: ProblemInstance, budget: SolveBudget = SolveBudget()
                        ) -> tuple[list[Solution], bool]:
    """All accepted solutions in canonical order, capped per type: the
    ``Solution`` form of ``solution_rows``.  Returns (solutions, truncated)."""
    rows, truncated = solution_rows(inst, budget)
    return [s for tag, arr in rows.items() for s in _solutions(inst, tag, arr.tolist())], truncated


def brute_force_solve(inst: ProblemInstance, budget: SolveBudget = SolveBudget()) -> Solution:
    """The canonical-minimum accepted solution.

    Tags are tried in canonical order.  A tag whose scan reads the whole
    table (``Clause.whole_table``) is scanned once the circuit is tabulated;
    with ``parallelism`` above 1, threads scan chunks of its first-witness
    range, and the hits are reduced by the canonical order, so every
    parallelism gives the same answer.  Any other tag is scanned serially
    and fetches what its scan reads: a single-value tag tabulates the
    circuit no further than the 2^16-input block of its first hit, a pinned
    tag reads its own points, and the asymmetric-pair tag reads row and
    column 0 of the color matrix before it tabulates anything.
    """
    hi = _witness_range(inst)
    c = inst.circuit

    def first_in(tag: str, outs: Optional[np.ndarray], lo: int, chunk_hi: int) -> Optional[Solution]:
        values = next(inst.pid.spec.clauses[tag].scan(inst, outs, lo, chunk_hi), None)
        return None if values is None else _solutions(inst, tag, [values])[0]

    p = min(budget.parallelism, hi)
    for tag, clause in inst.pid.spec.clauses.items():
        outs = eval_all(c) if clause.whole_table else None
        if p == 1 or not clause.whole_table:
            got = first_in(tag, outs, 0, hi)
        else:
            bounds = [(hi * i // p, hi * (i + 1) // p) for i in range(p)]
            with ThreadPoolExecutor(max_workers=p) as pool:
                hits = list(pool.map(lambda b: first_in(tag, outs, *b), bounds))
            got = min((s for s in hits if s is not None), key=solution_order_key, default=None)
        if got is not None:
            return got
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
    """Seeded random instance; inputs wider than FUZZ_TABLE_WIDTH are XOR-folded
    onto a random table that wide so generation stays cheap."""
    in_w, out_w = circuit_shape(pid, n)
    if in_w <= FUZZ_TABLE_WIDTH:
        return gen_random_instance(pid, n, seed)
    rng = seeded_rng(seed)
    circ = Compose(random_table(rng, FUZZ_TABLE_WIDTH, out_w), _fold_circuit(in_w, FUZZ_TABLE_WIDTH))
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
        abc = _ws_abc(n)
    if pid.spec.nm:
        nm = honest_turan_params(pid.r, n)
    return [ProblemInstance(pid, n, c, abc=abc, nm=nm) for c in circuits]


# ---------------------------------------------------------------------------
# reduction fuzz harness


def fuzz_soundness(name_or_index, trials: int = 100, seed: int = 0,
                   budget: Optional[SolveBudget] = None) -> dict:
    """Drive one registry entry over designed plus seeded random instances.

    Every enumerated target solution is pulled back and re-verified on the
    source; type purity is asserted for the target tags the entry's registry
    row declares ``forbidden``.

    Default budget: exhaustive enumeration when the target input width is at
    most 12, except that vertex-pair (ws family) targets are capped per type
    (their six-witness solutions grow quadratically in the triple count);
    wider targets cap every type.

    An entry whose reduction gives ``translate_many`` (the ``reductions``
    module docstring names them) takes the batch path: each tag's target
    rows get one target ``check_many``, one ``translate_many`` and one
    source ``check_many`` per source tag, and each row the batch rejects
    counts as one failure, reported through the scalar ``pullback`` of that
    row.  Every other entry pulls back one ``Solution`` at a time.

    The report counts the cases run, the target solutions pulled back, the
    cases whose enumeration hit the per-type cap (``truncated_cases``) and
    the failures, with the first failure's message.  ``per_tag`` counts the
    accepted pull-backs per (target tag, source tag) cell.
    """
    if trials < 0:
        raise DomainError(f"trials must be non-negative, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    row = lookup(name_or_index)
    index = row.index
    red = build_entry(index)
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
        designed_budget = SolveBudget(max_per_type=2000, parallelism=budget.parallelism)

    checked = 0
    failures = 0
    truncated_cases = 0
    first_failure = None
    per_tag: Counter = Counter()

    def fail(kind: str, msg: str, count: int = 1):
        nonlocal failures, first_failure
        failures += count
        if first_failure is None:
            first_failure = f"[{kind}] {msg}"

    def pull_back(inst: ProblemInstance, tgt: ProblemInstance, s: Solution) -> str:
        """The scalar pull-back of s: its source tag, or raises."""
        return pullback_reduction(red, inst, s, target=tgt).tag

    def batch(kind: str, inst: ProblemInstance, tgt: ProblemInstance, tag: str, rows: np.ndarray):
        try:
            ok, cells = _batch_pullback(red, inst, tgt, tag, rows)
        except Exception:
            ok, cells = np.zeros(len(rows), dtype=bool), Counter()
        per_tag.update(cells)
        bad = np.flatnonzero(~ok)
        if not len(bad):
            return
        s = _solutions(tgt, tag, [rows[bad[0]].tolist()])[0]
        shown = f"pull-back of type {tag} {tuple(str(v) for v in s.values())}"
        try:
            pull_back(inst, tgt, s)
            msg = f"{shown}: the batch check rejects what the scalar pull-back accepts"
        except Exception as exc:
            msg = f"{shown}: {exc}"
        fail(kind, msg, len(bad))

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
        case_budget = budget if kind != "designed" else designed_budget
        try:
            if red.translate_many is None:
                sols, truncated = enumerate_solutions(tgt, case_budget)
                found: dict = {}
                for s in sols:
                    found.setdefault(s.tag, []).append(s)
            else:
                found, truncated = solution_rows(tgt, case_budget)
        except Exception as exc:
            fail(kind, f"target enumeration failed: {exc}")
            continue
        truncated_cases += truncated
        if not any(map(len, found.values())):
            fail(kind, "target instance has no solutions at all")
            continue
        for tag, got in found.items():
            if not len(got):
                continue
            if tag in forbidden:
                fail(kind, f"type-{tag} target solution violates the image structure", len(got))
                continue
            checked += len(got)
            if red.translate_many is not None:
                batch(kind, inst, tgt, tag, got)
                continue
            for s in got:
                try:
                    per_tag[tag, pull_back(inst, tgt, s)] += 1
                except Exception as exc:
                    fail(kind, f"pull-back of type {tag} {tuple(str(v) for v in s.values())}: {exc}")

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
        "per_tag": dict(sorted(per_tag.items())),
        "ok": failures == 0,
    }


def _batch_pullback(red: Reduction, inst: ProblemInstance, tgt: ProblemInstance, tag: str,
                    rows: np.ndarray) -> tuple[np.ndarray, Counter]:
    """The batch pull-back of one tag's target rows.  Returns the mask of
    rows that the target clause accepts and that pull back to exactly one
    row the source clause accepts, and those rows' (target tag, source tag)
    counts."""
    accepted = np.flatnonzero(tgt.pid.spec.clauses[tag].check_many(tgt, rows))
    spec, pid = inst.pid.spec, inst.pid
    limit = 1 << spec.witness_width(inst.n, inst.in_width)
    hits = np.zeros(len(rows), dtype=np.int64)
    passed = []
    for src_tag, src_rows, idx in red.translate_many(inst, tag, rows[accepted]):
        idx = accepted[idx]
        np.add.at(hits, idx, 1)
        clause = spec.clauses.get(src_tag)
        if clause is None or src_rows.shape[1] != len(clause.names(pid)):
            continue
        fits = ((src_rows >= 0) & (src_rows < limit)).all(axis=1)
        good = np.zeros(len(idx), dtype=bool)
        good[fits] = clause.check_many(inst, src_rows[fits])
        passed.append((src_tag, idx[good]))
    ok = np.zeros(len(rows), dtype=bool)
    for _, idx in passed:
        ok[idx] = True
    ok &= hits == 1
    cells = Counter()
    for src_tag, idx in passed:
        cells[tag, src_tag] += int(ok[idx].sum())
    return ok, +cells


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
    rng = seeded_rng(seed)
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
    """Read ``coloring_to_text``'s format; blank lines are skipped, and errors
    give the line number in the text."""
    lines = [(no, ln) for no, _, ln in _content_lines(text)]
    if not lines:
        raise ParseError("empty coloring file", 1)
    first_no, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(f"first line must be N, got {first!r}", first_no) from None
    if n < 2:
        raise ParseError("coloring needs N >= 2", first_no)
    if len(lines) != n:
        raise ParseError(f"expected {n - 1} triangle rows, got {len(lines) - 1}", lines[-1][0])
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        row_no, row = lines[i + 1]
        want = n - 1 - i
        if len(row) != want or any(ch not in "01" for ch in row):
            raise ParseError(f"row {i} must be {want} characters of 0/1", row_no)
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
