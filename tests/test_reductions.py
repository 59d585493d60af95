"""Registry-wide soundness fuzzing plus targeted checks on the apply and
pull-back plumbing.  The heavy exhaustive sweep lives in the acceptance suite;
here each entry gets a few seeds so failures localize quickly."""

import re
from collections import Counter

import numpy as np
import pytest

from tfnpkit.circuit import GateNet, Table, apply_many, eval_all
from tfnpkit.errors import CapabilityError, DomainError, IntegrityError
from tfnpkit.numerics import bits_of
from tfnpkit.problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    circuit_shape,
    gen_random_instance,
    instance_to_text,
    make_solution,
    verify,
    wellformed,
)
from tfnpkit.reductions import (
    ENTRIES,
    apply,
    build_entry,
    build_reduction,
    pullback,
    registry,
)
from tfnpkit.solvers import (
    SolveBudget,
    brute_force_solve,
    designed_instances,
    enumerate_solutions,
    fuzz_instance,
    fuzz_soundness,
)


def test_registry_shape():
    entries = registry()
    assert [idx for idx, _ in entries] == list(range(1, 28))
    names = [nm for _, nm in entries]
    assert len(set(names)) == 27
    assert set(ENTRIES) == set(range(1, 28))
    # the target tags each image provably avoids, as the declarations state them
    assert {idx: row.forbidden for idx, row in ENTRIES.items() if row.forbidden} == {
        2: ("i", "iii"), 3: ("i", "iii"), 5: ("i", "iii"), 7: ("i", "iii"), 14: ("i",),
        15: ("i",), 17: ("ii",), 22: ("i", "ii"), 24: ("i", "ii")}


def test_build_lookup_both_ways():
    for idx, nm in registry():
        red = build_entry(idx)
        assert red.index == idx and red.name == nm
        same = build_reduction(nm, **ENTRIES[idx].defaults)
        assert (same.source, same.target, same.source_n, same.target_n) == (
            red.source, red.target, red.source_n, red.target_n)
    with pytest.raises(DomainError):
        build_reduction("no_such_entry")
    with pytest.raises(DomainError):
        build_entry(28)


# target size chosen by the size scan for source widths m = 1..8
SCANNED_TARGET_N = {
    2: [2, 3, 3, 4, 4, 5, 6, 6],
    3: [2, 3, 3, 4, 4, 5, 6, 6],
    5: [2, 3, 3, 3, 4, 4, 5, 5],
    7: [2, 2, 3, 3, 4, 4, 4, 5],
    14: [4, 4, 4, 5, 5, 6, 6, 6],
    15: [3, 4, 4, 4, 5, 5, 6, 6],
}


def test_size_scan_picks_the_smallest_fitting_target():
    for idx, sizes in SCANNED_TARGET_N.items():
        assert [build_entry(idx, m=m).target_n for m in range(1, 9)] == sizes, idx
    with pytest.raises(CapabilityError, match="no target size under 64 fits source width 200"):
        build_entry(2, m=200)


@pytest.mark.parametrize("idx", range(1, 28))
def test_entry_soundness_fuzz(idx):
    report = fuzz_soundness(idx, trials=3, seed=11)
    assert report["ok"], report["first_failure"]
    assert report["failures"] == 0
    assert report["solutions_checked"] > 0
    assert report["purity_tags"] == ENTRIES[idx].forbidden


@pytest.mark.parametrize("idx", range(1, 28))
def test_target_table_agrees_with_scalar_interpreter(idx):
    """eval_all's vector interpreter against the scalar one on real targets:
    every point up to 12 input bits, a fixed 4096-point sample beyond."""
    red = build_entry(idx)
    sources = designed_instances(red.source, red.source_n)
    sources.append(fuzz_instance(red.source, red.source_n, 0))
    for inst in sources:
        circ = apply(red, inst).circuit
        w = circ.in_width
        if w <= 12:
            points = np.arange(1 << w)
        else:
            points = np.random.Generator(np.random.PCG64(idx)).integers(0, 1 << w, size=4096)
        want = [circ._eval_value(int(v)) for v in points]
        assert eval_all(circ)[points].tolist() == want


def _gatenets(c):
    found, stack = [], [c]
    while stack:
        c = stack.pop()
        if isinstance(c, GateNet):
            found.append(c)
        stack.extend(c._children())
    return found


@pytest.mark.parametrize("idx", range(1, 28))
def test_target_gatenets_agree_with_scalar_interpreter(idx):
    """apply_many's word plan and planes against the scalar interpreter on
    every GateNet inside the targets: every point up to 16 input bits, a
    fixed sample beyond."""
    red = build_entry(idx)
    sources = designed_instances(red.source, red.source_n) + [fuzz_instance(red.source, red.source_n, 0)]
    nets = {net: None for inst in sources for net in _gatenets(apply(red, inst).circuit)}
    assert nets
    rng = np.random.Generator(np.random.PCG64(idx))
    for net in nets:
        w = net.in_width
        points = np.arange(1 << w) if w <= 16 else rng.integers(0, 1 << w, size=4096)
        assert apply_many(net, points).tolist() == [net._eval_value(int(v)) for v in points]


def test_apply_is_deterministic_and_wellformed():
    red = build_entry(1)
    inst = gen_random_instance(red.source, red.source_n, 9)
    a, b = apply(red, inst), apply(red, inst)
    assert instance_to_text(a) == instance_to_text(b)
    assert wellformed(a).ok
    assert a.pid == red.target and a.n == red.target_n


def test_apply_rejects_mismatched_sources():
    red = build_entry(1)
    other = gen_random_instance(ProblemId("pigeon"), 2, 0)
    with pytest.raises(DomainError):
        apply(red, other)
    wrong_n = gen_random_instance(red.source, red.source_n + 1, 0)
    with pytest.raises(DomainError):
        apply(red, wrong_n)
    broken = ProblemInstance(red.source, red.source_n,
                             gen_random_instance(ProblemId("pigeon"), 3, 0).circuit)
    with pytest.raises(DomainError):
        apply(red, broken)


def test_pullback_round_trip_via_solver():
    for idx in (1, 3, 4, 10, 12, 16, 23, 26):
        red = build_entry(idx)
        inst = gen_random_instance(red.source, red.source_n, 21)
        tgt = apply(red, inst)
        sol = brute_force_solve(tgt)
        back = pullback(red, inst, sol)
        assert verify(inst, back).ok
        # explicit target= path gives the same answer without a rebuild
        assert pullback(red, inst, sol, target=tgt) == back


def test_pullback_rejects_bogus_target_solution():
    red = build_entry(1)
    inst = gen_random_instance(red.source, red.source_n, 2)
    tgt = apply(red, inst)
    w = tgt.in_width
    bogus = make_solution(tgt.pid, "ii", bits_of(0, w), bits_of(0, w))
    assert not verify(tgt, bogus).ok
    with pytest.raises(DomainError):
        pullback(red, inst, bogus)
    with pytest.raises(DomainError):
        pullback(red, inst, Solution("ix", ()))


@pytest.mark.parametrize("idx", [row.index for row in ENTRIES.values() if row.forbidden])
def test_image_instances_avoid_forbidden_types(idx):
    red = build_entry(idx)
    forbidden = set(ENTRIES[idx].forbidden)
    budget = SolveBudget(max_per_type=500)
    for seed in range(6):
        inst = gen_random_instance(red.source, red.source_n, seed)
        tgt = apply(red, inst)
        sols, _ = enumerate_solutions(tgt, budget)
        assert sols
        got = {s.tag for s in sols}
        assert not (got & forbidden), (idx, got & forbidden, seed)


def test_fuzz_report_flags_planted_failure():
    # sabotaged translate: emits an out-of-language tag, so every pull-back
    # must surface as a failure rather than pass silently
    import dataclasses

    red = build_entry(4)
    bad = dataclasses.replace(red, translate=lambda inst, sol: Solution("ix", ()))
    inst = gen_random_instance(red.source, red.source_n, 0)
    tgt = apply(bad, inst)
    sol = brute_force_solve(tgt)
    with pytest.raises(Exception):
        pullback(bad, inst, sol)


def test_fuzz_rejects_negative_trials_and_seeds():
    with pytest.raises(DomainError, match="trials must be non-negative"):
        fuzz_soundness(4, trials=-3)
    with pytest.raises(DomainError, match="seed must be non-negative"):
        fuzz_soundness(4, trials=1, seed=-1)


def test_fuzz_report_counts_truncated_cases():
    full = fuzz_soundness(1, trials=2, seed=0)
    assert full["truncated_cases"] == 0
    capped = fuzz_soundness(1, trials=2, seed=0, budget=SolveBudget(max_per_type=1))
    assert capped["truncated_cases"] == capped["cases"] == full["cases"]
    assert capped["solutions_checked"] < full["solutions_checked"]


def _pull_backs(red, inst) -> list:
    """Every target solution of inst's image, each with its pull-back."""
    tgt = apply(red, inst)
    sols, truncated = enumerate_solutions(tgt, SolveBudget(max_per_type=None))
    assert not truncated
    return [(s, pullback(red, inst, s, target=tgt)) for s in sols]


def _values(sol) -> tuple:
    return tuple(v.value for v in sol.values())


# (target tag -> source tag) cells over every source truth table at the
# default size; any pull-back failure raises out of the test
EXHAUSTIVE_CELLS = {
    3: {("ii", "ii"): 768, ("iv", "i"): 256},
    7: {("ii", "ii"): 768, ("iv", "i"): 256},
    15: {("ii", "ii"): 768, ("iii", "i"): 256},
    16: {("i", "i"): 7680, ("ii", "i"): 13440, ("i", "iii"): 1536, ("ii", "ii"): 1152},
    24: {("iii", "ii"): 768, ("iv", "i"): 256},
}


@pytest.mark.parametrize("idx", sorted(EXHAUSTIVE_CELLS))
def test_exhaustive_soundness_at_smallest_size(idx):
    """Every source truth table (2^8 pigeon maps, 2^12 cayley edge maps) and
    every target solution of its image.

    Entry 15's overflow-band branch (a collision with y >= thr) cannot be
    reached here: at m = 2 the threshold 4^2 = 16 equals 2^beta, so every
    target input lies below it.
    """
    red = build_entry(idx)
    in_w, out_w = circuit_shape(red.source, red.source_n)
    mask = (1 << out_w) - 1
    cells = Counter()
    for code in range(1 << (out_w << in_w)):
        rows = [(code >> (out_w * i)) & mask for i in range(1 << in_w)]
        inst = ProblemInstance(red.source, red.source_n, Table(in_w, out_w, rows))
        for sol, back in _pull_backs(red, inst):
            cells[sol.tag, back.tag] += 1
            if red.source.name == "pigeon":
                # a guarded pigeon map pulls back to the target's own witnesses
                assert _values(back) == _values(sol)
    assert dict(cells) == EXHAUSTIVE_CELLS[idx]


def test_guarded_map_band_edges():
    """Entry 15 where its star band starts.  At m = 5 the band [125, 128)
    lies inside the 7-bit target domain: each band input collides with the
    map's zero and pulls back to it.  At m = 4 the band is empty (4^2 = 2^4),
    so a collision on the last input 15 stays a collision."""
    red = build_entry(15, m=5)
    inst = ProblemInstance(red.source, 5, Table(5, 5, list(range(1, 32)) + [0]))
    got = [(sol.tag, _values(sol), back.tag, _values(back)) for sol, back in _pull_backs(red, inst)]
    assert sorted(got) == [("ii", (31, y), "i", (31,)) for y in (125, 126, 127)] + [
        ("iii", (31,), "i", (31,))]
    red = build_entry(15, m=4)
    inst = ProblemInstance(red.source, 4, Table(4, 4, list(range(15)) + [14]))
    got = [(sol.tag, _values(sol), back.tag, _values(back)) for sol, back in _pull_backs(red, inst)]
    assert sorted(got) == [("ii", (14, 15), "ii", (14, 15)), ("ii", (15, 14), "ii", (15, 14)),
                           ("iii", (0,), "i", (0,))]


def test_edge_ranking_pullback_on_planted_pairs():
    """Entry 23's edge ranking: a loop and a decreasing pair share rank zero,
    and their collision pulls back to whichever of them comes first; an
    increasing pair listed twice pulls back to the repeat."""
    red = build_entry(23)
    pairs = [(1, 1), (2, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3)]
    inst = ProblemInstance(red.source, 2, Table(3, 4, [(u << 2) | v for u, v in pairs]))
    got = [(sol.tag, _values(sol), back.tag, _values(back)) for sol, back in _pull_backs(red, inst)]
    assert got == [
        ("i", (0,), "ii", (0,)),
        ("i", (1,), "ii", (1,)),
        ("ii", (0, 1), "ii", (0,)),
        ("ii", (1, 0), "ii", (1,)),
        ("ii", (6, 7), "iii", (6, 7)),
        ("ii", (7, 6), "iii", (7, 6)),
    ]


# n-sets of one partition class: two complementary 2-sets of a 4-set, and
# the canonical partition of a 6-set into 2-sets
PLANTED_POOLS = {None: (0b0011, 0b1100), 3: (0b000011, 0b001100, 0b110000)}

# (target tag -> source tag) cells over the 30 planted tables of each entry
PLANTED_CELLS = {
    1: {("ii", "i"): 294, ("ii", "ii"): 592, ("ii", "iii"): 668},
    4: {("i", "i"): 19, ("i", "iv"): 67, ("ii", "i"): 76, ("ii", "ii"): 44, ("ii", "iii"): 44},
    6: {("ii", "i"): 900, ("ii", "ii"): 2174, ("ii", "iii"): 4126},
    8: {("i", "i"): 20, ("i", "iv"): 130, ("ii", "i"): 160, ("ii", "ii"): 158,
        ("ii", "iii"): 282},
    9: {("i", "i"): 364, ("i", "ii"): 1184, ("i", "iii"): 1497},
    11: {("i", "i"): 85, ("i", "ii"): 88, ("i", "iii"): 125, ("ii", "iv"): 67},
}


def _planted_instance(red, seed: int) -> ProblemInstance:
    """Rows drawn from one partition class's sets, plus one row that is not
    an n-set."""
    in_w, out_w = circuit_shape(red.source, red.source_n)
    rng = np.random.default_rng(seed)
    rows = [int(v) for v in rng.choice(PLANTED_POOLS[red.source.k], size=1 << in_w)]
    off = [v for v in range(1 << out_w) if bin(v).count("1") != red.source_n]
    rows[int(rng.integers(len(rows)))] = int(rng.choice(off))
    return ProblemInstance(red.source, red.source_n, Table(in_w, out_w, rows))


@pytest.mark.parametrize("idx", sorted(PLANTED_CELLS))
def test_set_pair_pullbacks_on_planted_classes(idx):
    """The set-pair (entries 1, 4, 6, 8) and doubled-domain (9, 11) pull-backs
    reach every source tag: same-class and cross-class pairs, off-weight
    witnesses and, for the tight sources, the extremal set."""
    red = build_entry(idx)
    cells = Counter()
    for seed in range(30):
        for sol, back in _pull_backs(red, _planted_instance(red, seed)):
            cells[sol.tag, back.tag] += 1
    assert {src for _, src in cells} == set(red.source.spec.clauses)
    assert dict(cells) == PLANTED_CELLS[idx]


# target solutions that the images of entries 2, 3 and 4 cannot produce, and
# how each entry's translate refuses them
REFUSALS = [
    (2, "i", (0,), IntegrityError, "the compressed image avoids type i"),
    (2, "ii", (5, 5), DomainError, "pull-back needs distinct inputs"),
    (3, "iv", (7,), IntegrityError, "zero-rank witness off the zeros of the guarded map"),
    (3, "ii", (1, 7), IntegrityError, "collision touched the guarded region"),
    (3, "i", (0,), IntegrityError, "the guarded map's image avoids type i"),
    (4, "i", (3,), IntegrityError, "identity region mapped to zero"),
    (4, "ii", (0, 3), IntegrityError, "collision touched the identity region"),
]


@pytest.mark.parametrize("idx, tag, values, error, message", REFUSALS)
def test_family_translate_refuses_what_the_image_avoids(idx, tag, values, error, message):
    """The refusal branches of the shrink-chain (entry 2), guarded-map (3)
    and identity-above (4) pull-backs, on the seed-0 fuzz source.  These call
    ``translate`` directly: ``pullback`` rejects such a target solution
    before translating it."""
    red = build_entry(idx)
    inst = fuzz_instance(red.source, red.source_n, 0)
    w, _ = circuit_shape(red.target, red.target_n)
    sol = make_solution(red.target, tag, *(bits_of(v, w) for v in values))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        red.translate(inst, sol)


# target solutions that the per-solution entries 11, 16, 17, 24 and 25 refuse,
# as witness values on the seed-0 fuzz source
PER_SOLUTION_REFUSALS = [
    (11, "ii", (6,), "witness outside the doubled domain"),
    (16, "i", (1,), "tree off the zero rank mapped to zero"),
    (17, "iv", (1, 2, 3, 1, 2, 3), "matching triangles share every edge"),
    (24, "iv", (0,), "consecutive pair off the zero preimage"),
    (24, "iii", (0, 1), "edge collision without a map collision"),
    (24, "ii", (0,), "the edge map is bipartite and increasing, type ii cannot occur"),
    (25, "i", (0,) * 6, "expected 3 edges inside the kept corner, found 6"),
]


@pytest.mark.parametrize("idx, tag, values, message", PER_SOLUTION_REFUSALS)
def test_per_solution_translate_refuses_what_the_image_avoids(idx, tag, values, message):
    red = build_entry(idx)
    inst = fuzz_instance(red.source, red.source_n, 0)
    w = red.target.spec.witness_width(red.target_n, circuit_shape(red.target, red.target_n)[0])
    sol = make_solution(red.target, tag, *(bits_of(v, w) for v in values))
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        red.translate(inst, sol)


@pytest.mark.parametrize("m, cells", [
    (3, {("iii", "ii"): 252, ("iv", "i"): 29}),
    (5, {("iii", "ii"): 2576, ("iv", "i"): 55}),
])
def test_pigeon_to_mantel_pulls_back_every_solution_at_odd_m(m, cells):
    """At odd m, entry 24 lifts the source map to m + 1 bits behind a guard.
    Every target solution of the designed and first 20 seeded sources, with
    no per-type cap, pulls back to a source solution that verifies."""
    red = build_entry(24, m=m)
    got = Counter()
    for inst in designed_instances(red.source, m) + [fuzz_instance(red.source, m, s) for s in range(20)]:
        tgt = apply(red, inst)
        sols, truncated = enumerate_solutions(tgt, SolveBudget(max_per_type=None))
        assert not truncated
        for sol in sols:
            back = pullback(red, inst, sol, target=tgt)
            assert verify(inst, back).ok
            got[sol.tag, back.tag] += 1
    assert dict(got) == cells
