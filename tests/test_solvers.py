"""Solver tests: exhaustive agreement with the verifier, canonical ordering,
budget handling, and the explicit Ramsey construction."""

import time
from dataclasses import replace
from itertools import combinations, islice, permutations, product

import numpy as np
import pytest

import tfnpkit.catalog as catalog_mod
import tfnpkit.circuit as circuit_mod
from tfnpkit.catalog import (SPECS, Value, _collision_pairs, _distinct_triples, _popcount,
                             _tree_mask)
from tfnpkit.circuit import (MAX_EVAL_WIDTH, Builtin, Compose, ConstOp, Slice, Table, eval_all,
                             identity)
from tfnpkit.encodings import is_spanning_tree
from tfnpkit.errors import CapabilityError, DomainError, ParseError
from tfnpkit.numerics import BitString, bits_of, ceil_log2
from tfnpkit.problems import (
    ProblemId,
    ProblemInstance,
    all_solution_tags,
    gen_random_instance,
    instance_to_text,
    make_solution,
    solution_order_key,
    verify,
    wellformed,
    witness_names,
)
from tfnpkit.solvers import (
    MAX_PARALLELISM,
    ColoringMatrix,
    SolveBudget,
    brute_force_solve,
    coloring_from_text,
    coloring_to_text,
    designed_instances,
    enumerate_solutions,
    fuzz_instance,
    ramsey_explicit,
    random_coloring,
    solution_rows,
)

WS = ("ws", "ws_collisions", "ws_colorful")

# solver convention: clique witnesses appear once, in sorted-index form
CLIQUE_TAG = {"weak_mantel": "i", "mantel": "i", "weak_turan": "i", "turan": "iii"}


def expected_solutions(inst):
    """Every verify-accepted witness tuple, restricted to the solver's
    clique representative convention."""
    pid = inst.pid
    win = 2 * inst.n if pid.name in WS else inst.in_width
    out = []
    for tag in all_solution_tags(pid):
        arity = len(witness_names(pid, tag))
        for vals in product(range(1 << win), repeat=arity):
            if tag == CLIQUE_TAG.get(pid.name) and list(vals) != sorted(vals):
                continue
            sol = make_solution(pid, tag, *(bits_of(v, win) for v in vals))
            if verify(inst, sol).ok:
                out.append(sol)
    return out


ENUM_CASES = [
    ("weak_pigeon", 2, {}),
    ("pigeon", 2, {}),
    ("general_pigeon", 2, {"k": 2}),
    ("ekr", 2, {}),
    ("weak_gekr", 2, {"k": 3}),
    ("weak_sperner", 2, {}),
    ("sperner", 2, {}),
    ("cayley", 3, {}),
    ("ws", 1, {}),
    ("ws_collisions", 1, {}),
    ("ws_colorful", 1, {}),
    ("weak_mantel", 2, {}),
    ("mantel", 2, {}),
    ("weak_turan", 2, {"r": 2}),
    ("turan", 2, {"r": 2}),
]


@pytest.mark.parametrize("name,n,extra", ENUM_CASES)
def test_enumeration_complete_sound_and_ordered(name, n, extra):
    pid = ProblemId(name, **extra)
    for seed in (0, 3):
        inst = gen_random_instance(pid, n, seed)
        sols, truncated = enumerate_solutions(inst, SolveBudget(max_per_type=None))
        assert not truncated
        assert sols == expected_solutions(inst), (name, seed)
        keys = [solution_order_key(s) for s in sols]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("name,n,extra", ENUM_CASES)
def test_brute_force_minimum_and_parallel_determinism(name, n, extra):
    pid = ProblemId(name, **extra)
    for seed in (0, 3):
        inst = gen_random_instance(pid, n, seed)
        sols, _ = enumerate_solutions(inst, SolveBudget(max_per_type=None))
        best = brute_force_solve(inst)
        assert best == min(sols, key=solution_order_key) == sols[0]
        par = brute_force_solve(inst, SolveBudget(parallelism=4))
        assert par == best


def test_truncation_flag_and_cap():
    pid = ProblemId("weak_pigeon")
    inst = designed_instances(pid, 3)[0]  # constant circuit: everything collides
    sols, truncated = enumerate_solutions(inst, SolveBudget(max_per_type=5))
    assert truncated and len(sols) == 5
    full, t2 = enumerate_solutions(inst, SolveBudget(max_per_type=None))
    assert not t2 and len(full) == 16 * 15  # all ordered colliding pairs


def test_budget_guards():
    for p in (0, MAX_PARALLELISM + 1):
        with pytest.raises(DomainError, match="parallelism must be between 1 and 64"):
            SolveBudget(parallelism=p)
    assert SolveBudget(parallelism=MAX_PARALLELISM).parallelism == MAX_PARALLELISM == 64
    wide = fuzz_instance(ProblemId("weak_pigeon"), 22, 0)
    assert wide.circuit.in_width == MAX_EVAL_WIDTH + 1 == 23
    with pytest.raises(CapabilityError, match="capped at in_width 22"):
        enumerate_solutions(wide)
    with pytest.raises(CapabilityError, match="capped at in_width 22"):
        brute_force_solve(wide)
    inst = gen_random_instance(ProblemId("weak_pigeon"), 4, 0)
    broken = ProblemInstance(ProblemId("pigeon"), 2, inst.circuit)
    with pytest.raises(DomainError):
        brute_force_solve(broken)


def test_totality_fuzz_sample():
    # a smaller in-suite slice of the totality sweep: every random instance
    # of every problem has at least one solution
    specs = [(name, n, extra) for name, n, extra in ENUM_CASES] + [
        ("gekr", 2, {"k": 3}),
        ("weak_ekr", 2, {}),
        ("weak_cayley", 3, {}),
    ]
    for name, n, extra in specs:
        pid = ProblemId(name, **extra)
        for seed in range(5):
            inst = gen_random_instance(pid, n, 100 + seed)
            brute_force_solve(inst)  # raises if nothing is found


def test_generators_are_wellformed_and_deterministic():
    for name, n, extra in ENUM_CASES:
        pid = ProblemId(name, **extra)
        for inst in designed_instances(pid, n):
            assert wellformed(inst).ok
        a = fuzz_instance(pid, n, 7)
        b = fuzz_instance(pid, n, 7)
        assert instance_to_text(a) == instance_to_text(b)
        assert wellformed(a).ok


def test_fuzz_instance_folds_wide_inputs():
    inst = fuzz_instance(ProblemId("ws"), 5, 0)  # input width 20
    assert inst.in_width == 20
    assert wellformed(inst).ok
    out = inst.circuit.eval(bits_of(0, 20))
    assert out.width == 5


def collision_pairs_by_inverse(outs, lo, hi, first_ok=None, second_ok=None):
    """The collision scan as written on np.unique(return_inverse=True): the
    reference for the pair order the battery's enumeration depends on."""
    values, inverse, counts = np.unique(outs, return_inverse=True, return_counts=True)
    colliding = counts[inverse] >= 2
    groups = {}
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


def test_collision_pairs_match_the_inverse_scan():
    rng = np.random.default_rng(3)
    tables = {
        "random": rng.integers(0, 40, 300),
        "wide random": rng.integers(-(1 << 40), 1 << 40, 300) | 1,
        "constant": np.full(48, 7),
        "injective": rng.permutation(300),
        "one pair": np.r_[np.arange(100), 42],
    }
    for label, outs in tables.items():
        outs = np.asarray(outs, dtype=np.int64)
        size = len(outs)
        for first_ok, second_ok in [(None, None),
                                    (rng.random(size) < 0.5, None),
                                    (None, rng.random(size) < 0.5),
                                    (rng.random(size) < 0.7, rng.random(size) < 0.3)]:
            for chunks in (1, 2, 3):
                cuts = [0, *sorted(rng.integers(0, size + 1, chunks - 1).tolist()), size]
                total = []
                for lo, hi in zip(cuts, cuts[1:]):
                    got = list(_collision_pairs(outs, lo, hi, first_ok, second_ok))
                    assert got == list(collision_pairs_by_inverse(
                        outs, lo, hi, first_ok, second_ok)), (label, lo, hi)
                    total += got
                assert total == list(collision_pairs_by_inverse(
                    outs, 0, size, first_ok, second_ok)), label
    # a table without collisions yields nothing; a constant one yields every pair
    assert list(_collision_pairs(np.arange(5), 0, 5)) == []
    assert len(list(_collision_pairs(np.zeros(6, dtype=np.int64), 0, 6))) == 30


@pytest.mark.parametrize("first_on,second_on", [(False, False), (True, False),
                                                 (False, True), (True, True)])
def test_collision_pairs_in_small_blocks_match_the_inverse_scan(monkeypatch, first_on, second_on):
    # blocks of at most 4 inputs split every cut below; the values fit uint8,
    # uint16 and uint32, or are negative or 2**40 wide and stay int64
    monkeypatch.setattr(catalog_mod, "_EVAL_BLOCK", 4)
    rng = np.random.default_rng(11)
    size = 90
    tables = {
        "uint8": rng.integers(0, 200, size),
        "uint16": rng.integers(0, 1 << 16, size) % 60 * 1000,
        "uint32": rng.integers(1 << 16, 1 << 32, size) % 50 + (1 << 31),
        "negative": rng.integers(-30, 30, size),
        "2**40 wide": rng.integers(-(1 << 40), 1 << 40, size) % 40 * (1 << 34) - (1 << 40),
        "one late pair": np.r_[np.arange(size - 1) * 7, 7 * (size - 3)],
    }
    first_ok = rng.random(size) < 0.7 if first_on else None
    second_ok = rng.random(size) < 0.6 if second_on else None
    for label, outs in tables.items():
        outs = np.asarray(outs, dtype=np.int64)
        assert len(np.unique(outs)) < size, label  # every table has a collision
        for lo, hi in [(0, size), (0, 1), (1, 6), (5, 9), (7, 40), (size - 1, size), (size, size)]:
            got = list(_collision_pairs(outs, lo, hi, first_ok, second_ok))
            assert got == list(collision_pairs_by_inverse(outs, lo, hi, first_ok, second_ok)), \
                (label, lo, hi)


def twin_matches_by_brute_force(inst, outs, colorful):
    """The vertex triples in lexicographic order, and a bool matrix that holds
    at (i, j) when triples i and j are distinct as sets and match in color
    position by position, triple i trichromatic when colorful: the reference
    for Twins.scan, whose rows are the matrix's true cells in row-major
    order."""
    v_count = 1 << (2 * inst.n)
    m = outs.reshape(v_count, v_count)
    t = np.array(list(permutations(range(v_count), 3)))
    colors = [m[t[:, 0], t[:, 1]], m[t[:, 0], t[:, 2]], m[t[:, 1], t[:, 2]]]
    sets = np.sort(t, axis=1) @ [v_count * v_count, v_count, 1]
    match = sets[:, None] != sets[None, :]
    for c in colors:
        match &= c[:, None] == c[None, :]
    if colorful:
        c1, c2, c3 = colors
        match &= ((c1 != c2) & (c1 != c3) & (c2 != c3))[:, None]
    return t, match


def twin_rows(t, match, lo, hi, cap):
    """The first cap rows of the matrix whose first vertex lies in [lo, hi)."""
    rows = []
    for i in np.flatnonzero((t[:, 0] >= lo) & (t[:, 0] < hi)):
        rows += [(*t[i].tolist(), *t[j].tolist()) for j in np.flatnonzero(match[i])]
        if cap is not None and len(rows) >= cap:
            break
    return rows[:cap]


def test_distinct_triples_are_lexicographic():
    for v_count in (3, 4, 16):
        triples = _distinct_triples(v_count)
        assert len(triples) == v_count * (v_count - 1) * (v_count - 2)
        assert triples.tolist() == [list(p) for p in permutations(range(v_count), 3)]


@pytest.mark.parametrize("name", ["ws_collisions", "ws_colorful"])
@pytest.mark.parametrize("n", [1, 2])
def test_twin_scan_matches_the_brute_force(name, n):
    pid = ProblemId(name)
    clause = SPECS[name].clauses["iv"]
    v_count = 1 << (2 * n)
    cuts = [(0, v_count), (1, v_count - 1), (v_count // 2, v_count), (1, 1)]
    caps = [None] if n == 1 else [200, 2000]
    for inst in [*designed_instances(pid, n), *(fuzz_instance(pid, n, s) for s in range(10))]:
        outs = eval_all(inst.circuit)
        t, match = twin_matches_by_brute_force(inst, outs, clause.colorful)
        for lo, hi in cuts:
            for cap in caps:
                got = list(islice(clause.scan(inst, outs, lo, hi), cap))
                assert got == twin_rows(t, match, lo, hi, cap), (lo, hi, cap)


def test_popcount_matches_bin_count():
    top = (1 << 24) - 1
    vals = np.r_[0, top, np.random.default_rng(0).integers(0, top, size=2000)].astype(np.int64)
    assert _popcount(vals).tolist() == [bin(int(v)).count("1") for v in vals]


def test_tree_mask_matches_is_spanning_tree():
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        m = n * (n - 1) // 2
        if n <= 6:
            graphs = np.arange(1 << m, dtype=np.int64)  # every graph
        else:
            # uniform bitmaps are almost never n-1 edges, so add edge subsets
            # of that size, about a quarter of which are trees
            subsets = [sum(1 << int(e) for e in rng.choice(m, n - 1, replace=False))
                       for _ in range(3000)]
            graphs = np.r_[rng.integers(0, 1 << m, size=2000), subsets].astype(np.int64)
        want = [is_spanning_tree(n, bits_of(int(g), m)) for g in graphs]
        assert _tree_mask(n, graphs).tolist() == want, n
        if n <= 6:
            assert sum(want) == n ** (n - 2)  # Cayley's formula
        else:
            assert 0.1 < sum(want) / 3000 < 0.5
    # no value has n-1 edges, so no row survives to the reachability sweep
    for graphs in (np.zeros(0, dtype=np.int64), np.array([0, (1 << 21) - 1, 7], dtype=np.int64)):
        assert _tree_mask(7, graphs).tolist() == [False] * len(graphs)


# ---------------------------------------------------------------------------
# clique search


def oracle_cliques(inst, r):
    """Sorted index tuples whose edges cover a K_{r+1}: every vertex subset of
    size r+1 times the product of its pairs' index lists, uncapped."""
    n = inst.n
    outs = eval_all(inst.circuit)
    limit = inst.nm[1] if inst.pid.name == "turan" else len(outs)
    pairs = {}
    for i in range(limit):
        u, v = int(outs[i]) >> n, int(outs[i]) & ((1 << n) - 1)
        if u != v:
            pairs.setdefault((min(u, v), max(u, v)), []).append(i)
    verts = sorted({p for pair in pairs for p in pair})
    found = []
    for subset in combinations(verts, r + 1):
        lists = [pairs.get(pq) for pq in combinations(subset, 2)]
        if all(lists):
            found.extend(tuple(sorted(combo)) for combo in product(*lists))
    return sorted(found)


def clique_tuples(sols, name):
    return [tuple(v.value for v in s.values()) for s in sols if s.tag == CLIQUE_TAG[name]]


CLIQUE_ORACLE_CASES = (
    [(name, None, n) for name in ("weak_mantel", "mantel") for n in range(2, 7)]
    + [(name, r, n) for name in ("weak_turan", "turan") for r in (2, 3) for n in range(2, 6)]
)


@pytest.mark.parametrize("name,r,n", CLIQUE_ORACLE_CASES)
def test_clique_enumeration_matches_oracle(name, r, n):
    pid = ProblemId(name, r=r)
    for inst in designed_instances(pid, n) + [fuzz_instance(pid, n, seed) for seed in (0, 1)]:
        want = oracle_cliques(inst, r or 2)
        # the cap is per type: at len(want) the clique type is complete
        sols, _ = enumerate_solutions(inst, SolveBudget(max_per_type=max(len(want), 1)))
        assert clique_tuples(sols, name) == want


@pytest.mark.parametrize("pid,n,count", [
    (ProblemId("weak_mantel"), 7, 340025),
    (ProblemId("weak_turan", r=4), 5, 269776),
])
def test_clique_enumeration_past_two_hundred_thousand(pid, n, count):
    # more cliques than a search capped at 200000 could build: the first 300
    # in canonical order must still be the true first 300
    inst = fuzz_instance(pid, n, 0)
    want = oracle_cliques(inst, pid.r or 2)
    assert len(want) == count
    sols, truncated = enumerate_solutions(inst, SolveBudget(max_per_type=300))
    got = clique_tuples(sols, pid.name)
    assert truncated and got == want[:300]
    if pid.name == "weak_mantel":
        assert (0, 285, 7920) in got


@pytest.mark.parametrize("name,r", [("weak_mantel", None), ("mantel", None),
                                    ("weak_turan", 3), ("turan", 2)])
def test_clique_solve_agrees_across_parallelism(name, r):
    pid = ProblemId(name, r=r)
    for n in (6, 7, 8):
        for inst in designed_instances(pid, n) + [fuzz_instance(pid, n, seed) for seed in (0, 1)]:
            best = brute_force_solve(inst)
            for p in (2, 3):
                assert brute_force_solve(inst, SolveBudget(parallelism=p)) == best


def bipartite_mantel(n):
    """weak_mantel on the complete bipartite graph between the lower and the
    upper half of the vertices, every pair in both orientations: no triangle."""
    w = 2 * n - 1
    half = 1 << (n - 1)
    i = np.arange(1 << w)
    low, high = i & (half - 1), half | ((i >> (n - 1)) & (half - 1))
    swap = (i >> (w - 1)) == 1
    e_u, e_v = np.where(swap, high, low), np.where(swap, low, high)
    return ProblemInstance(ProblemId("weak_mantel"), n, Table(w, 2 * n, (e_u << n) | e_v))


def width_19_cases():
    mantel = ProblemId("weak_mantel")
    yield "random", fuzz_instance(mantel, 10, 0), "i"
    for k, inst in enumerate(designed_instances(mantel, 10)):
        yield f"designed-{k}", inst, "ii"
    yield "bipartite", bipartite_mantel(10), "ii"
    yield "turan-r3", fuzz_instance(ProblemId("weak_turan", r=3), 10, 0), "i"


@pytest.mark.parametrize("label", [label for label, _, _ in width_19_cases()])
def test_clique_solve_within_budget_at_width_19(label):
    inst, tag = next((inst, tag) for lab, inst, tag in width_19_cases() if lab == label)
    assert inst.in_width == 19
    t0 = time.perf_counter()
    sol = brute_force_solve(inst)
    elapsed = time.perf_counter() - t0
    assert verify(inst, sol).ok and sol.tag == tag
    assert elapsed < 10, f"{label}: {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# colorings and the explicit Ramsey clique


def test_coloring_round_trip_and_validation():
    c = random_coloring(9, 4)
    assert coloring_to_text(random_coloring(9, 4)) == coloring_to_text(c)
    back = coloring_from_text(coloring_to_text(c))
    assert back.n == 9 and np.array_equal(back.table, c.table)
    with pytest.raises(DomainError):
        c.color(3, 3)
    with pytest.raises(DomainError):
        ColoringMatrix(3, np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]))
    with pytest.raises(DomainError):
        ColoringMatrix(3, np.full((3, 3), 7))
    with pytest.raises(ParseError):
        coloring_from_text("")
    with pytest.raises(ParseError):
        coloring_from_text("3\n01")
    with pytest.raises(ParseError):
        coloring_from_text("3\n0x\n1")


def test_ramsey_clique_monochromatic_and_large_enough():
    for big_n in (4, 8, 16, 32, 64):
        bound = -(-ceil_log2(big_n) // 2) if big_n > 1 else 1
        for seed in range(8):
            c = random_coloring(big_n, seed)
            clique = ramsey_explicit(c)
            assert len(clique) >= bound
            assert len(set(clique)) == len(clique)
            if len(clique) >= 2:
                col = c.color(clique[0], clique[1])
                for i, u in enumerate(clique):
                    for v in clique[i + 1:]:
                        assert c.color(u, v) == col


def test_ramsey_on_constant_colorings():
    for big_n in (8, 16, 32):
        for fill in (0, 1):
            table = np.full((big_n, big_n), fill)
            np.fill_diagonal(table, 0)
            clique = ramsey_explicit(ColoringMatrix(big_n, table))
            # every pick keeps the whole remainder: floor(log2 N) + 1 picks
            assert len(clique) >= ceil_log2(big_n)


def test_ramsey_deterministic():
    c = random_coloring(40, 12)
    assert ramsey_explicit(c) == ramsey_explicit(c)
    with pytest.raises(DomainError):
        ramsey_explicit(ColoringMatrix(1, np.zeros((1, 1), dtype=int)))


def test_twin_triangle_scan_refuses_wide_vertex_sets():
    # n=5 has 1024 vertices, about 1.07e9 ordered triples: the scan must
    # refuse before laying them out
    t0 = time.perf_counter()
    inst = gen_random_instance(ProblemId("ws_collisions"), 5, 0)
    scan = inst.pid.spec.clauses["iv"].scan(inst, eval_all(inst.circuit), 0, 1 << 10)
    with pytest.raises(CapabilityError, match="vertex triples"):
        next(scan)
    assert time.perf_counter() - t0 < 2.0


def test_coloring_errors_give_the_line_in_the_text():
    with pytest.raises(ParseError, match="^line 4: row 1 must be 1 characters"):
        coloring_from_text("3\n\n01\n0x\n")
    with pytest.raises(ParseError, match="^line 4: expected 2 triangle rows, got 1"):
        coloring_from_text("3\n\n\n01\n")
    with pytest.raises(ParseError, match="^line 4: expected 1 triangle rows, got 2"):
        coloring_from_text("2\n1\n\n1\n")
    with pytest.raises(ParseError, match="^line 3: first line must be N"):
        coloring_from_text("\n\nx\n")
    c = coloring_from_text("\n3\n\n01\n\n1\n\n")
    assert c.n == 3 and c.table.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


# ---------------------------------------------------------------------------
# solve stops at its answer: local tags walk the table block by block

LAZY_CASES = [(name, n) for name, spec in SPECS.items() for n in (spec.min_n, spec.min_n + 1)]


def _lazy_instances(name, n):
    """Designed and seeded instances, built afresh so no table is cached."""
    pid = ProblemId(name, **SPECS[name].params)
    return designed_instances(pid, n) + [fuzz_instance(pid, n, seed) for seed in range(20)]


@pytest.mark.parametrize("name,n", LAZY_CASES)
def test_lazy_solve_is_the_first_row_of_the_full_scan(name, n, monkeypatch):
    firsts = []
    for inst in _lazy_instances(name, n):
        rows, _ = solution_rows(inst, SolveBudget(max_per_type=1))
        tag = next(t for t, r in rows.items() if len(r))
        firsts.append((tag, rows[tag][0].tolist()))
    # the default block holds every input here; blocks of 3 make the walk resume
    for block in (circuit_mod._EVAL_BLOCK, 3):
        monkeypatch.setattr(circuit_mod, "_EVAL_BLOCK", block)
        monkeypatch.setattr(catalog_mod, "_EVAL_BLOCK", block)
        for p in (1, 4):
            for inst, want in zip(_lazy_instances(name, n), firsts):
                got = brute_force_solve(inst, SolveBudget(parallelism=p))
                assert (got.tag, [v.value for v in got.values()]) == want


@pytest.mark.parametrize("name,n", [(name, n) for name, n in LAZY_CASES if any(
    isinstance(c, Value) for c in SPECS[name].clauses.values())])
def test_value_scan_by_blocks_equals_the_whole_table_mask(name, n, monkeypatch):
    # the scan and the table fill both step 4 inputs at a time
    monkeypatch.setattr(circuit_mod, "_EVAL_BLOCK", 4)
    monkeypatch.setattr(catalog_mod, "_EVAL_BLOCK", 4)
    for inst in _lazy_instances(name, n):
        outs = eval_all(inst.circuit)
        size = len(outs)
        for clause in inst.pid.spec.clauses.values():
            if not isinstance(clause, Value):
                continue
            ok = (clause.mask or clause.holds)(inst, outs)
            if clause.range is not None:
                ok = ok & clause.range.within(inst, np.arange(size)[:, None])
            want = np.flatnonzero(ok).tolist()
            for block in (1, 3, size):
                fresh, got = _untabled(inst), []
                for lo in range(0, size, block):
                    top = min(size, lo + block)
                    got += [x for (x,) in clause.scan(fresh, None, lo, top)]
                    if top + 4 <= size:
                        # the scan stopped before the last block of the table
                        assert fresh.circuit._table is None
                assert got == want


@pytest.mark.parametrize("name", [name for name, spec in SPECS.items() if not all(
    c.whole_table for c in spec.clauses.values())])
def test_a_scan_that_is_not_whole_table_fetches_its_own_outputs(name):
    # outs=None makes a scan that reads it fail, and a fresh circuit has no
    # table for it to read by another way
    spec = SPECS[name]
    pid, n = ProblemId(name, **spec.params), spec.min_n
    for inst in designed_instances(pid, n) + [fuzz_instance(pid, n, seed) for seed in range(5)]:
        hi = 1 << spec.witness_width(n, inst.circuit.in_width)
        outs = eval_all(inst.circuit)
        for clause in spec.clauses.values():
            if not clause.whole_table:
                want = list(clause.scan(inst, outs, 0, hi))
                assert list(clause.scan(_untabled(inst), None, 0, hi)) == want


def test_solve_stops_at_the_first_block_with_a_hit(monkeypatch):
    calls = []
    real = circuit_mod.apply_many
    monkeypatch.setattr(circuit_mod, "apply_many",
                        lambda c, xs: calls.append(len(xs)) or real(c, xs))
    for p in (1, 2):
        inst = fuzz_instance(ProblemId("weak_ekr"), 12, 0)
        assert inst.circuit.in_width == MAX_EVAL_WIDTH
        sol = brute_force_solve(inst, SolveBudget(parallelism=p))
        assert sol.tag == "i" and sol.values()[0].value == 0 and verify(inst, sol)
        assert calls == [circuit_mod._EVAL_BLOCK] and inst.circuit._table is None
        calls.clear()
    wide = fuzz_instance(ProblemId("pigeon"), MAX_EVAL_WIDTH + 1, 0)
    with pytest.raises(CapabilityError, match="capped at in_width 22"):
        brute_force_solve(wide)
    assert calls == []


def test_solve_returns_a_hit_that_lies_before_a_failing_block():
    # cover_decode k=6 m=22 fails on block 1; the xor makes x = 0 map to 0,
    # so pigeon's first tag holds in block 0
    decode = Slice(Builtin("cover_decode", k=6, m=22), 5, 22)
    circ = Compose(ConstOp("xor", BitString(17, decode.value_at(0))), decode)
    inst = ProblemInstance(ProblemId("pigeon"), 17, circ)
    sol = brute_force_solve(inst)
    assert sol.tag == "i" and sol.values()[0].value == 0 and circ._table is None
    with pytest.raises(DomainError):
        eval_all(circ)


def test_capped_value_scan_masks_only_the_first_block(monkeypatch):
    inst = fuzz_instance(ProblemId("weak_ekr"), 12, 0)
    clause = inst.pid.spec.clauses["i"]
    masked = []
    real = clause.mask
    monkeypatch.setattr(clause, "mask", lambda i, outs: masked.append(len(outs)) or real(i, outs))
    rows, truncated = solution_rows(inst, SolveBudget(max_per_type=1))
    assert truncated
    assert {tag: r.tolist() for tag, r in rows.items()} == {
        "i": [[0]], "ii": [[0, 65537]], "iii": [[0, 267]]}
    assert masked == [circuit_mod._EVAL_BLOCK]


# ---------------------------------------------------------------------------
# solve stops at its answer: an asymmetric pair costs one row and column


def asymmetric_pairs_by_transpose(inst, outs, lo, hi):
    """The Asymmetric scan as written on the whole color matrix: the
    reference for the rows of the row-and-column scan."""
    v_count = 1 << (2 * inst.n)
    m = outs.reshape(v_count, v_count)
    asym = m != m.T
    for x in range(lo, min(hi, v_count)):
        for y in np.flatnonzero(asym[x]):
            yield (x, int(y))


def _untabled(inst):
    """inst on a fresh wrapper of its circuit, which has no table yet."""
    return replace(inst, circuit=Compose(inst.circuit, identity(inst.circuit.in_width)))


def _ws_abc(n):
    w = 2 * n
    return (BitString(w, 0), BitString(w, (1 << w) - 1), BitString(w, 1))


def symmetric_ws(n, f, name="ws"):
    """A ws instance whose color of (u, v) is f(u XOR v), on a plain table."""
    w = 2 * n
    i = np.arange(1 << (2 * w))
    rows = np.asarray(f((i >> w) ^ (i & ((1 << w) - 1))), dtype=np.int64)
    return ProblemInstance(ProblemId(name), n, Table(2 * w, n, rows), abc=_ws_abc(n))


def _asymmetric_cuts(v_count):
    return [(0, v_count), (0, 1), (1, v_count), (v_count // 2, v_count), (1, 3),
            (v_count - 1, v_count + 5), (v_count, v_count)]


def _check_asymmetric_scan(inst):
    clause = inst.pid.spec.clauses["ii"]
    outs = eval_all(inst.circuit)
    for lo, hi in _asymmetric_cuts(1 << (2 * inst.n)):
        want = list(asymmetric_pairs_by_transpose(inst, outs, lo, hi))
        assert list(clause.scan(inst, outs, lo, hi)) == want, (lo, hi)
        fresh = _untabled(inst)
        got = list(clause.scan(fresh, circuit_mod.table_prefix(fresh.circuit, 0), lo, hi))
        assert got == want, (lo, hi)


@pytest.mark.parametrize("name,n", [(name, n) for name in WS for n in (1, 2, 3)])
def test_asymmetric_scan_matches_the_transpose_scan(name, n):
    pid = ProblemId(name)
    for inst in designed_instances(pid, n) + [fuzz_instance(pid, n, seed) for seed in range(20)]:
        _check_asymmetric_scan(inst)


def test_asymmetric_scan_on_planted_tables():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        v_count = 1 << (2 * n)
        f = rng.integers(0, 1 << n, v_count)
        sym = symmetric_ws(n, lambda d: f[d])
        _check_asymmetric_scan(sym)
        assert list(sym.pid.spec.clauses["ii"].scan(sym, eval_all(sym.circuit), 0, v_count)) == []
        for x, y in [(0, 1), (v_count - 1, 0), (2, v_count - 1)]:
            rows = np.array(sym.circuit.rows)
            rows[(x << (2 * n)) | y] ^= 1
            one = ProblemInstance(sym.pid, n, Table(4 * n, n, rows), abc=sym.abc)
            _check_asymmetric_scan(one)
            scan = one.pid.spec.clauses["ii"].scan(one, eval_all(one.circuit), 0, v_count)
            assert sorted(scan) == sorted([(x, y), (y, x)])


def _count_inputs(monkeypatch):
    counts = []
    real = circuit_mod.apply_many
    monkeypatch.setattr(circuit_mod, "apply_many",
                        lambda c, xs: counts.append(len(xs)) or real(c, xs))
    return counts


def test_ws_solve_reads_one_row_and_column(monkeypatch):
    # the answer is the asymmetric pair (0, 1): row 0 and column 0 of the
    # 1024 x 1024 color matrix are all that is evaluated
    counts = _count_inputs(monkeypatch)
    for name in WS:
        for p in (1, 2):
            inst = fuzz_instance(ProblemId(name), 5, 0)
            assert inst.circuit.in_width == 20
            sol = brute_force_solve(inst, SolveBudget(parallelism=p))
            assert (sol.tag, [v.value for v in sol.values()]) == ("ii", [0, 1])
            assert verify(inst, sol).ok and inst.circuit._table is None
            assert sum(counts) <= 2 * 1024, (name, counts)
            counts.clear()


def test_symmetric_ws_solve_tabulates_once_within_budget(monkeypatch):
    # no asymmetric pair: after row and column 0 the scan reads the table, so
    # the circuit is evaluated on its 2**20 inputs once, plus those 2048 points
    counts = _count_inputs(monkeypatch)
    for name in WS:
        plain = symmetric_ws(5, lambda d: np.bitwise_count(d) % 32, name)
        inst = _untabled(plain)
        t0 = time.perf_counter()
        sol = brute_force_solve(inst)
        elapsed = time.perf_counter() - t0
        assert sol.tag == "iii" and verify(inst, sol).ok
        assert sum(counts) == (1 << 20) + 2 * 1024, (name, counts)
        assert elapsed < 1.0, f"{name}: {elapsed:.2f} s"
        counts.clear()
