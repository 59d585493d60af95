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
from itertools import combinations
from typing import Callable, Iterator, Optional

import numpy as np

from .circuit import Circuit, Compose, Gate, GateNet, const_circuit, eval_all, not_all, take_low
from .errors import CapabilityError, DomainError, IntegrityError, ParseError
from .numerics import BitString, binomial
from .problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    all_solution_tags,
    circuit_shape,
    gen_random_instance,
    honest_turan_params,
    make_solution,
    random_table,
    solution_order_key,
    star_tree,
)
from .reductions import (
    apply as apply_reduction,
    build_entry,
    pullback as pullback_reduction,
    registry,
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


def _bs(width: int, value: int) -> BitString:
    return BitString(width, int(value))


# ---------------------------------------------------------------------------
# generic scans, each restrictable to a first-witness range for parallel runs


def _singles(mask: np.ndarray, lo: int, hi: int) -> Iterator[int]:
    idx = np.flatnonzero(mask[lo:hi])
    for v in idx:
        yield lo + int(v)


def _collision_pairs(outs: np.ndarray, lo: int, hi: int,
                     first_ok=None, second_ok=None) -> Iterator[tuple[int, int]]:
    """Ordered pairs (x, y), x != y, outs[x] == outs[y], ascending (x, y)."""
    values, inverse, counts = np.unique(outs, return_inverse=True, return_counts=True)
    colliding = counts[inverse] >= 2
    groups: dict[int, np.ndarray] = {}
    xs = np.flatnonzero(colliding[lo:hi]) + lo
    if first_ok is not None:
        xs = xs[first_ok[xs]]
    for x in xs:
        x = int(x)
        key = int(inverse[x])
        if key not in groups:
            groups[key] = np.flatnonzero(inverse == key)
        mates = groups[key]
        if second_ok is not None:
            mates = mates[second_ok[mates]]
        for y in mates:
            y = int(y)
            if y != x:
                yield (x, y)


def _relation_pairs(cond_for_x: Callable[[int], np.ndarray], lo: int, hi: int,
                    first_ok=None, allow_equal: bool = False) -> Iterator[tuple[int, int]]:
    """Ordered pairs (x, y) with a vectorized per-x candidate mask."""
    for x in range(lo, hi):
        if first_ok is not None and not first_ok[x]:
            continue
        mates = np.flatnonzero(cond_for_x(x))
        for y in mates:
            y = int(y)
            if allow_equal or y != x:
                yield (x, y)


# ---------------------------------------------------------------------------
# per-problem enumeration, canonical order within each tag


def _enum_tag(inst: ProblemInstance, tag: str, lo: int, hi: int) -> Iterator[Solution]:
    pid, n = inst.pid, inst.n
    name = pid.name
    w = inst.circuit.in_width
    outs = eval_all(inst.circuit)
    size = 1 << w

    def sol(*values: int) -> Solution:
        return make_solution(pid, tag, *(_bs(w, v) for v in values))

    if name == "weak_pigeon":
        # single type: collisions
        for x, y in _collision_pairs(outs, lo, hi):
            yield sol(x, y)
        return

    if name == "pigeon":
        if tag == "i":
            for x in _singles(outs == 0, lo, hi):
                yield sol(x)
        else:
            for x, y in _collision_pairs(outs, lo, hi):
                yield sol(x, y)
        return

    if name == "general_pigeon":
        if tag == "i":
            for x, y in _collision_pairs(outs, lo, hi):
                yield sol(x, y)
        else:
            for x in _singles(outs < pid.k, lo, hi):
                yield sol(x)
        return

    if name in ("weak_ekr", "weak_gekr", "ekr", "gekr"):
        k = pid.k if pid.k is not None else 2
        tight = name in ("ekr", "gekr")
        thr = binomial(k * n - 1, n - 1)
        weights = _popcount(outs)
        in_thr = np.arange(size) < thr if tight else np.ones(size, dtype=bool)
        if tag == "i":
            for x in _singles((weights != n) & in_thr, lo, hi):
                yield sol(x)
        elif tag == "ii":
            for x, y in _collision_pairs(outs, lo, hi, first_ok=in_thr, second_ok=in_thr):
                yield sol(x, y)
        elif tag == "iii":
            # the disjointness clause does not require distinct indices
            def disjoint(x: int) -> np.ndarray:
                return ((outs & outs[x]) == 0) & in_thr

            for x, y in _relation_pairs(disjoint, lo, hi, first_ok=in_thr, allow_equal=True):
                yield sol(x, y)
        else:
            blocks = _canonical_blocks(k, n)
            mask = np.isin(outs, blocks) & in_thr
            for x in _singles(mask, lo, hi):
                yield sol(x)
        return

    if name in ("weak_sperner", "sperner"):
        thr = binomial(2 * n, n)
        in_thr = np.arange(size) < thr if name == "sperner" else np.ones(size, dtype=bool)
        if tag == "i":
            def contained(x: int) -> np.ndarray:
                return ((outs[x] & ~outs) == 0) & in_thr

            for x, y in _relation_pairs(contained, lo, hi, first_ok=in_thr):
                yield sol(x, y)
        else:
            upper = (1 << n) - 1
            for x in _singles((outs == upper) & in_thr, lo, hi):
                yield sol(x)
        return

    if name in ("weak_cayley", "cayley"):
        thr = n ** (n - 2)
        in_thr = np.arange(size) < thr if name == "cayley" else np.ones(size, dtype=bool)
        if tag == "i":
            for x in _singles(~_tree_mask(n, outs) & in_thr, lo, hi):
                yield sol(x)
        elif tag == "ii":
            # only the first witness is range-restricted by the tight variant
            for x, y in _collision_pairs(outs, lo, hi, first_ok=in_thr):
                yield sol(x, y)
        else:
            star = star_tree(n).value
            for x in _singles((outs == star) & in_thr, lo, hi):
                yield sol(x)
        return

    if name in ("ws", "ws_collisions", "ws_colorful"):
        yield from _enum_ws(inst, outs, tag, lo, hi)
        return

    if name in ("weak_mantel", "mantel", "weak_turan", "turan"):
        yield from _enum_graph(inst, outs, tag, lo, hi)
        return

    raise DomainError(f"unknown problem {name!r}")


def _popcount(a: np.ndarray) -> np.ndarray:
    """Set bits per element of a non-negative integer array."""
    return np.bitwise_count(a)


def _canonical_blocks(k: int, n: int) -> np.ndarray:
    vals = []
    for j in range(k):
        bits = 0
        for pos in range(j * n, (j + 1) * n):
            bits |= 1 << (k * n - 1 - pos)
        vals.append(bits)
    return np.array(vals, dtype=np.int64)


def _tree_mask(n: int, outs: np.ndarray) -> np.ndarray:
    """Which values of outs are spanning trees on n vertices, as edge bitmaps
    in the pair order of ``edges_of_bitmap``.

    A graph with n-1 edges is a tree exactly when it is connected, so only
    those rows are swept: each gets one vertex bitmask per vertex, and the
    set reached from vertex 1 grows a neighbourhood at a time.
    """
    mask = _popcount(outs) == n - 1
    graphs = outs[mask]
    vtype = np.min_scalar_type((1 << n) - 1)
    nbrs = [np.zeros(len(graphs), dtype=vtype) for _ in range(n)]
    bit = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            bit -= 1
            has = ((graphs >> bit) & 1).astype(vtype)
            nbrs[i] |= has << j
            nbrs[j] |= has << i
    reached = np.ones(len(graphs), dtype=vtype)
    for _ in range(n - 1):
        grown = reached.copy()
        for v in range(n):
            grown |= nbrs[v] * ((reached >> v) & 1)
        reached = grown
    mask[mask] = reached == (1 << n) - 1
    return mask


# ws family: the circuit input is a vertex pair, so the output table reshapes
# into a full V x V color matrix.


def _enum_ws(inst: ProblemInstance, outs: np.ndarray, tag: str,
             lo: int, hi: int) -> Iterator[Solution]:
    pid, n = inst.pid, inst.n
    v_count = 1 << (2 * n)
    m = outs.reshape(v_count, v_count)
    a, b, c = inst.abc

    def vertex(v: int) -> BitString:
        return _bs(2 * n, v)

    if tag == "i":
        if lo == 0 and m[a.value, b.value] == m[a.value, c.value]:
            yield make_solution(pid, "i")
        return

    if tag == "ii":
        asym = m != m.T
        for x in range(lo, min(hi, v_count)):
            for y in np.flatnonzero(asym[x]):
                yield make_solution(pid, "ii", vertex(x), vertex(int(y)))
        return

    ids = np.arange(v_count)
    if tag == "iii":
        # triangles (x, y, z): color(x,y) == color(y,z) != color(x,z)
        for x in range(lo, min(hi, v_count)):
            exy = m[x][:, None]
            eyz = m
            exz = m[x][None, :]
            cond = (exy == eyz) & (exy != exz)
            cond[x, :] = False
            cond[:, x] = False
            cond[ids, ids] = False
            for y, z in np.argwhere(cond):
                yield make_solution(pid, "iii", vertex(x), vertex(int(y)), vertex(int(z)))
        return

    # tag == "iv": two vertex triples, distinct as sets, with matching edge
    # colors position by position (first triple trichromatic for the colorful
    # variant).
    colorful = pid.name == "ws_colorful"
    triples = _distinct_triples(v_count)
    c1 = m[triples[:, 0], triples[:, 1]]
    c2 = m[triples[:, 0], triples[:, 2]]
    c3 = m[triples[:, 1], triples[:, 2]]
    key = (c1.astype(np.int64) * v_count + c2) * v_count + c3
    order = np.lexsort((triples[:, 2], triples[:, 1], triples[:, 0]))
    groups: dict[int, np.ndarray] = {}
    sets = np.sort(triples, axis=1)
    tri_ok = np.ones(len(triples), dtype=bool)
    if colorful:
        tri_ok = (c1 != c2) & (c1 != c3) & (c2 != c3)
    for t1 in order:
        t1 = int(t1)
        x = int(triples[t1, 0])
        if not (lo <= x < hi) or not tri_ok[t1]:
            continue
        kk = int(key[t1])
        if kk not in groups:
            members = np.flatnonzero(key == kk)
            members = members[np.lexsort((triples[members, 2], triples[members, 1],
                                          triples[members, 0]))]
            groups[kk] = members
        for t2 in groups[kk]:
            t2 = int(t2)
            if (sets[t1] != sets[t2]).any():
                yield make_solution(
                    pid, "iv",
                    vertex(int(triples[t1, 0])), vertex(int(triples[t1, 1])),
                    vertex(int(triples[t1, 2])),
                    vertex(int(triples[t2, 0])), vertex(int(triples[t2, 1])),
                    vertex(int(triples[t2, 2])),
                )


def _distinct_triples(v_count: int) -> np.ndarray:
    ids = np.arange(v_count)
    x, y, z = np.meshgrid(ids, ids, ids, indexing="ij")
    flat = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    keep = (flat[:, 0] != flat[:, 1]) & (flat[:, 0] != flat[:, 2]) & (flat[:, 1] != flat[:, 2])
    return flat[keep]


# graph-bound problems: outputs are edges (u, v) read as two n-bit halves


def _enum_graph(inst: ProblemInstance, outs: np.ndarray, tag: str,
                lo: int, hi: int) -> Iterator[Solution]:
    pid, n = inst.pid, inst.n
    name = pid.name
    w = inst.circuit.in_width
    size = 1 << w
    e_u = outs >> n
    e_v = outs & ((1 << n) - 1)
    r = pid.r if pid.r is not None else 2

    if name == "turan":
        big_n, big_m = inst.nm
        in_range = np.arange(size) < big_m
    else:
        big_n = None
        in_range = np.ones(size, dtype=bool)

    def sol(*values: int) -> Solution:
        return make_solution(pid, tag, *(_bs(w, v) for v in values))

    clique_tag = "iii" if name == "turan" else "i"
    decreasing_tag = "iv" if name == "turan" else "ii"
    collision_tag = "v" if name == "turan" else "iii"
    successor_tag = "vi" if name == "turan" else "iv"

    if name == "turan" and tag == "i":
        honest = (
            big_n % r == 0
            and big_n <= 2 ** n
            and big_n + r > 2 ** n
            and 2 * r * big_m == (r - 1) * big_n * big_n
        )
        if lo == 0 and not honest:
            yield make_solution(pid, "i")
        return

    if name == "turan" and tag == "ii":
        mask = ((e_u >= big_n) | (e_v >= big_n)) & in_range
        for x in _singles(mask, lo, hi):
            yield sol(x)
        return

    if tag == clique_tag and name in ("weak_mantel", "mantel", "weak_turan", "turan"):
        r_here = 2 if name in ("weak_mantel", "mantel") else r
        yield from _clique_solutions(pid, w, n, e_u, e_v, in_range, r_here, lo, hi)
        return

    if tag == decreasing_tag:
        for x in _singles((e_u >= e_v) & in_range, lo, hi):
            yield sol(x)
        return

    if tag == collision_tag:
        for x, y in _collision_pairs(outs, lo, hi, first_ok=in_range, second_ok=in_range):
            yield sol(x, y)
        return

    if tag == successor_tag:
        succ = (e_u + 1) % (1 << n)
        for x in _singles((e_v == succ) & in_range, lo, hi):
            yield sol(x)
        return

    raise DomainError(f"{name} has no solution type {tag!r}")


def _clique_solutions(pid: ProblemId, w: int, n: int, e_u: np.ndarray, e_v: np.ndarray,
                      in_range: np.ndarray, r: int, lo: int, hi: int) -> Iterator[Solution]:
    """Index tuples whose edges form a clique on r+1 vertices, lazily and in
    ascending lexicographic order, first index in [lo, hi).

    Each clique is reported once per choice of covering indices, as the
    sorted index tuple (the canonical minimum among its permutations).  The
    search is depth first over the tuple: with i_1 < ... < i_d chosen, the
    next index is taken ascending from the merged index lists of the pairs
    that can still complete a K_{r+1} around the chosen vertices, and no
    later than the last index of any pair still owed.  Edges whose endpoints
    have fewer than r-1 common neighbours lie in no K_{r+1} and are dropped
    first, so a graph without one fails fast.  Nothing is capped here: the
    caller stops the generator at its per-type cap.
    """
    tag = "iii" if pid.name == "turan" else "i"
    n_verts = 1 << n
    idx = np.flatnonzero(in_range & (e_u != e_v))
    if not len(idx):
        return
    a, b = np.minimum(e_u[idx], e_v[idx]), np.maximum(e_u[idx], e_v[idx])
    adj = np.zeros((n_verts, n_verts), dtype=bool)
    adj[a, b] = adj[b, a] = True
    adj_f = adj.astype(np.float32)  # exact: counts stay far below 2**24
    keep = (adj_f @ adj_f)[a, b] >= r - 1
    del adj_f
    idx, a, b = idx[keep], a[keep], b[keep]
    if not len(idx):
        return
    adj[:] = False
    adj[a, b] = adj[b, a] = True

    # index lists per vertex pair: members[start[p]:stop[p]] ascending
    order = np.argsort(a * n_verts + b, kind="stable")
    members = idx[order]
    a, b = a[order], b[order]
    start = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    stop = np.r_[start[1:], len(members)]
    pair_id = np.full((n_verts, n_verts), -1, dtype=np.int32)
    pair_id[a[start], b[start]] = pair_id[b[start], a[start]] = np.arange(len(start))
    last_of_pair = members[stop - 1]

    def fill(chosen: tuple[int, ...], owed: list[list[int]]) -> Iterator[tuple[int, ...]]:
        # every vertex is fixed: take one index from each owed pair, ascending
        if not owed:
            yield chosen
            return
        bound = min(lst[-1] for lst in owed)
        for i, k in sorted((i, k) for k, lst in enumerate(owed)
                           for i in lst if chosen[-1] < i <= bound):
            yield from fill(chosen + (i,), owed[:k] + owed[k + 1:])

    def extend(verts: tuple[int, ...], chosen: tuple[int, ...],
               used: frozenset[int]) -> Iterator[tuple[int, ...]]:
        owed = [int(pair_id[x, y]) for x, y in combinations(verts, 2)]
        owed = [p for p in owed if p not in used]
        need = r + 1 - len(verts)
        if not need:
            yield from fill(chosen, [members[start[p]:stop[p]].tolist() for p in owed])
            return
        last = chosen[-1]
        bound = min((int(last_of_pair[p]) for p in owed), default=len(e_u))
        if bound <= last:
            return
        common = adj[list(verts)].all(axis=0)
        common[list(verts)] = False
        cs = np.flatnonzero(common)
        if need >= 2:
            # the vertices still to come form a clique: each needs need-1
            # neighbours among the common ones
            inner = adj[np.ix_(cs, cs)]
            ok = inner.sum(axis=1) >= need - 1
            cs, inner = cs[ok], inner[np.ix_(ok, ok)]
        if len(cs) < need:
            return
        cand = [np.array(owed, dtype=np.int64), pair_id[np.ix_(verts, cs)].ravel()]
        if need >= 2:
            x, y = np.nonzero(np.triu(inner, 1))
            cand.append(pair_id[cs[x], cs[y]])
        pairs = np.concatenate(cand)
        lens = stop[pairs] - start[pairs]
        offsets = np.repeat(start[pairs] - np.cumsum(lens) + lens, lens)
        nxt = members[offsets + np.arange(len(offsets))]
        yield from branch(np.sort(nxt[(nxt > last) & (nxt <= bound)]).tolist(), verts, chosen, used)

    def branch(candidates: list[int], verts: tuple[int, ...], chosen: tuple[int, ...],
               used: frozenset[int]) -> Iterator[tuple[int, ...]]:
        # if no completion follows index i of pair p, none follows a later index
        # of p either: swapping it for i would give one
        dead: set[int] = set()
        for i in candidates:
            u, v = int(e_u[i]), int(e_v[i])
            p = int(pair_id[u, v])
            if p in dead:
                continue
            found = False
            for tup in extend(tuple(sorted({*verts, u, v})), chosen + (i,), used | {p}):
                found = True
                yield tup
            if not found:
                dead.add(p)

    firsts = np.sort(members[(members >= lo) & (members < hi)]).tolist()
    for tup in branch(firsts, (), (), frozenset()):
        yield make_solution(pid, tag, *(_bs(w, t) for t in tup))


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
    hi = 1 << w
    if inst.pid.name in ("ws", "ws_collisions", "ws_colorful"):
        hi = 1 << (2 * inst.n)
    for tag in all_solution_tags(inst.pid):
        got = 0
        for s in _enum_tag(inst, tag, 0, hi):
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
    hi = 1 << w
    if inst.pid.name in ("ws", "ws_collisions", "ws_colorful"):
        hi = 1 << (2 * inst.n)

    def first_in(tag: str, lo: int, chunk_hi: int) -> Optional[Solution]:
        for s in _enum_tag(inst, tag, lo, chunk_hi):
            return s
        return None

    p = min(budget.parallelism, hi)
    for tag in all_solution_tags(inst.pid):
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
    abc = None
    if pid.name in ("ws", "ws_collisions", "ws_colorful"):
        while True:
            vals = [int(v) for v in rng.integers(0, 2 ** (2 * n), size=3, dtype=np.uint64)]
            if len(set(vals)) == 3:
                break
        abc = tuple(BitString(2 * n, v) for v in vals)
    nm = honest_turan_params(pid.r, n) if pid.name == "turan" else None
    return ProblemInstance(pid, n, circ, abc=abc, nm=nm)


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
    abc = None
    if pid.name in ("ws", "ws_collisions", "ws_colorful"):
        abc = (BitString(2 * n, 0), BitString(2 * n, (1 << (2 * n)) - 1), BitString(2 * n, 1))
    nm = honest_turan_params(pid.r, n) if pid.name == "turan" else None
    return [ProblemInstance(pid, n, c, abc=abc, nm=nm) for c in circuits]


# ---------------------------------------------------------------------------
# reduction fuzz harness


FORBIDDEN_TARGET_TAGS = {
    2: ("i", "iii"),
    5: ("i", "iii"),
    14: ("i",),
    17: ("ii",),
    22: ("i", "ii"),
}


def fuzz_soundness(name_or_index, trials: int = 100, seed: int = 0,
                   budget: Optional[SolveBudget] = None,
                   params: Optional[dict] = None) -> dict:
    """Drive one registry entry over designed plus seeded random instances.

    Every enumerated target solution is pulled back and re-verified on the
    source; type purity is asserted for the entries whose image provably
    avoids certain target solution types.

    Default budget: exhaustive enumeration when the target input width is at
    most 12, except that six-witness ws solutions are capped (their count
    grows quadratically in the triple count); wider targets cap every type.

    The report counts the cases run, the target solutions pulled back, the
    cases whose enumeration hit the per-type cap (``truncated_cases``) and
    the failures, with the first failure's message.
    """
    index = None
    if isinstance(name_or_index, int):
        index = name_or_index
    else:
        for idx, nm in registry():
            if nm == name_or_index:
                index = idx
                break
        if index is None:
            raise DomainError(f"unknown reduction {name_or_index!r}")
    overrides = dict(params or {})
    red = build_entry(index, **overrides)
    if budget is None:
        tgt_w, _ = circuit_shape(red.target, red.target_n)
        if tgt_w > 12:
            budget = SolveBudget(max_per_type=200)
        elif red.target.name in ("ws", "ws_collisions", "ws_colorful"):
            budget = SolveBudget(max_per_type=2000)
        else:
            budget = SolveBudget(max_per_type=None)
    forbidden = FORBIDDEN_TARGET_TAGS.get(index, ())

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
