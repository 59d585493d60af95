"""The batch path of the soundness battery against its scalar references:
``Clause.check_many`` against ``Clause.check``, ``translate_many`` against the
per-solution ``translate``, and the battery's batch report against its
per-solution report."""

import dataclasses
from itertools import count, product

import numpy as np
import pytest

import tfnpkit.reductions as reductions
import tfnpkit.solvers as solvers
from tfnpkit.catalog import SPECS
from tfnpkit.circuit import MAX_EVAL_WIDTH, Compose, Table, const_circuit, eval_all, values_at
from tfnpkit.errors import DomainError, IntegrityError
from tfnpkit.numerics import BitString
from tfnpkit.problems import (
    ProblemId,
    ProblemInstance,
    circuit_shape,
    gen_random_instance,
    honest_turan_params,
    wellformed,
)
from tfnpkit.reductions import apply, build_entry
from tfnpkit.solvers import (
    SolveBudget,
    designed_instances,
    enumerate_solutions,
    fuzz_instance,
    fuzz_soundness,
    solution_rows,
)

BATCH_ENTRIES = (1, 2, 5, 6, 9, 10, 13, 14, 17, 18, 19, 21, 22, 23, 26, 27)
SHRUNK_ENTRIES = (2, 5, 14)
NEVER_RAISES = (1, 6, 9, 18, 19)  # set pairs, doubled pairs and the identity
TUPLE_SPACE_CAP = 1 << 16


def _smallest(name: str, r=None) -> tuple[ProblemId, int]:
    spec = SPECS[name]
    params = dict(spec.params)
    if r is not None:
        params["r"] = r
    return ProblemId(name, **params), spec.min_n


CHECK_CASES = [_smallest(name) for name in SPECS] + [
    _smallest("weak_turan", r=3), _smallest("turan", r=3)]


def _tuples(inst, tag: str) -> np.ndarray:
    """Every witness tuple of the tag when there are at most 2^16, else a
    fixed sample of 2^16 plus every tuple the scan accepts."""
    pid = inst.pid
    k = len(pid.spec.clauses[tag].names(pid))
    w = pid.spec.witness_width(inst.n, inst.in_width)
    if (1 << (w * k)) <= TUPLE_SPACE_CAP:
        return np.array(list(product(range(1 << w), repeat=k)), dtype=np.int64).reshape(1 << (w * k), k)
    sample = np.random.Generator(np.random.PCG64(k)).integers(0, 1 << w, size=(TUPLE_SPACE_CAP, k))
    scanned, _ = solution_rows(inst, SolveBudget(max_per_type=None))
    return np.concatenate([sample, scanned[tag]])


def _planted(pid, n: int) -> list:
    """Tables that reach corners the seed-0 tables miss.  Graph problems get
    every edge u < v of the complete graph, last edge first and repeated to
    fill the table, so that cliques reach the highest indices, past a turan
    instance's limit M.  ws problems get the coloring that is 1 off the
    diagonal and 0 on it, whose symmetric pairs differ from their loops."""
    in_w, out_w = circuit_shape(pid, n)
    if pid.spec.vertex_pairs:
        v = 1 << (2 * n)
        rows = [int(p // v != p % v) for p in range(1 << in_w)]
        return [ProblemInstance(pid, n, Table(in_w, out_w, rows),
                                abc=designed_instances(pid, n)[0].abc)]
    if pid.name not in ("weak_mantel", "mantel", "weak_turan", "turan"):
        return []
    edges = [(u << n) | v for u in range(1 << n) for v in range(u + 1, 1 << n)][::-1]
    rows = (edges * (1 << in_w))[:1 << in_w]
    nm = honest_turan_params(pid.r, n) if pid.spec.nm else None
    return [ProblemInstance(pid, n, Table(in_w, out_w, rows), nm=nm)]


@pytest.mark.parametrize("pid,n", CHECK_CASES, ids=str)
def test_check_many_agrees_with_scalar_check(pid, n):
    accepted = rejected = 0
    for inst in designed_instances(pid, n) + [gen_random_instance(pid, n, 0)] + _planted(pid, n):
        w = pid.spec.witness_width(n, inst.in_width)
        for tag, clause in pid.spec.clauses.items():
            rows = _tuples(inst, tag)
            got = clause.check_many(inst, rows)
            want = [clause.check(inst, tuple(BitString(w, v) for v in row)) is None
                    for row in rows.tolist()]
            assert got.dtype == bool and got.tolist() == want, (tag, inst.circuit)
            accepted += int(got.sum())
            rejected += int((~got).sum())
    assert accepted and rejected


def _few_colors(red, colors: int, seed: int) -> ProblemInstance:
    """A ws source whose edges take only ``colors`` colors, so that the
    uniform-probe case, matching anchor colors and symmetric pairs, which
    random colorings reach by luck, are common."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, w = red.source_n, 2 * red.source_n
    table = Table(16, n, rng.integers(0, colors, size=1 << 16))
    abc = tuple(BitString(w, int(v)) for v in rng.choice(1 << w, size=3, replace=False))
    return ProblemInstance(red.source, n, Compose(table, solvers._fold_circuit(2 * w, 16)), abc=abc)


def _cases(red):
    """The battery's cases of an entry at seeds 0-2, and for the ws band
    entries few-color sources as well."""
    cases = designed_instances(red.source, red.source_n) + [
        fuzz_instance(red.source, red.source_n, seed) for seed in range(3)]
    if red.index in (21, 27):
        cases += [_few_colors(red, colors, seed) for colors in (2, 3, 5) for seed in range(12)]
    return cases


def _probe_rows(inst, tgt, tag: str, rows: np.ndarray) -> np.ndarray:
    """The tag's target rows plus rows the target rejects: a fixed random
    sample, and for vertex-pair sources rows that hit the anchors a, b, c."""
    k = rows.shape[1]
    w = tgt.pid.spec.witness_width(tgt.n, tgt.in_width)
    extra = [np.random.Generator(np.random.PCG64(7)).integers(0, 1 << w, size=(256, k))]
    if inst.abc is not None and k:
        anchors = [v.value for v in inst.abc]
        extra.append(np.array([[anchors[t % 3]] * k for t in range(3)], dtype=np.int64))
        if k == 2 and len(rows):
            extra.append(np.column_stack([np.resize(anchors, len(rows)), rows[:, 1]]))
            extra.append(rows[:, ::-1])
    return np.concatenate([rows] + extra)


def _scalar(red, inst, tgt, tag: str, row: list):
    try:
        back = red.translate(inst, solvers._solutions(tgt, tag, [row])[0])
    except (IntegrityError, DomainError):
        return None
    return back.tag, tuple(v.value for v in back.values())


def _by_row(red, inst, tag: str, rows: np.ndarray) -> dict:
    """The batch pull-back of rows as {target row: (source tag, witness ints)};
    a row in two groups fails."""
    got: dict[int, tuple] = {}
    for src_tag, src_rows, at in red.translate_many(inst, tag, rows):
        assert src_rows.shape == (len(at), len(inst.pid.spec.clauses[src_tag].names(inst.pid)))
        for t, values in zip(at.tolist(), src_rows.tolist()):
            assert t not in got, (tag, rows[t])
            got[t] = (src_tag, tuple(values))
    return got


@pytest.mark.parametrize("idx", BATCH_ENTRIES)
def test_translate_many_matches_translate(idx):
    """Every target row of the designed cases and seeds 0-2, plus rows the
    target rejects, gets the source tag and witness ints of the scalar
    translate, and a row it raises on is in no group."""
    red = build_entry(idx)
    compared = covered = 0
    for inst in _cases(red):
        tgt = apply(red, inst)
        scanned, _ = solution_rows(tgt, SolveBudget(max_per_type=2000))
        for tag, rows in scanned.items():
            rows = _probe_rows(inst, tgt, tag, rows)
            got = _by_row(red, inst, tag, rows)
            for t, row in enumerate(rows.tolist()):
                assert got.get(t) == _scalar(red, inst, tgt, tag, row), (tag, row)
            compared += len(rows)
            covered += len(got)
    assert covered
    if idx not in NEVER_RAISES:
        assert compared > covered


@pytest.mark.parametrize("idx", SHRUNK_ENTRIES)
def test_shrunk_pullback_groups_exactly_the_target_collisions(idx):
    """Planted rows for the shrink-chain entries: every target collision of
    distinct inputs is in a group, and the rows the scalar translate raises
    on are in none: x == y, every pair the target maps apart (some of them
    would meet one stage past the chain's end), and every row of a tag other
    than ii."""
    red = build_entry(idx)
    for seed in range(3):
        inst = fuzz_instance(red.source, red.source_n, seed)
        tgt = apply(red, inst)
        outs = eval_all(tgt.circuit)
        for tag in tgt.pid.spec.clauses:
            rows = _tuples(tgt, tag)
            if tag == "ii":
                x, y = rows[:, 0], rows[:, 1]
                genuine = (outs[x] == outs[y]) & (x != y)
                [(got_tag, _, at)] = red.translate_many(inst, tag, rows[genuine])
                assert got_tag == "ii" and sorted(at.tolist()) == list(range(genuine.sum()))
                rows = rows[~genuine]
            assert sum(len(at) for _, _, at in red.translate_many(inst, tag, rows)) == 0, tag
            assert all(_scalar(red, inst, tgt, tag, row) is None for row in rows.tolist()), tag


EKR_IMAGES = [0b0011, 0b0101, 0b1100, 0b0111]    # first bit 0, 0, 1; not a 2-set
GEKR_IMAGES = [0b000011, 0b000011, 0b000101, 0b000111]
CHAIN_IMAGES = [0b1000, 0b1011, 0b1100, 0b0000, 0b1000]  # forms 10zz 10zz 1100 zzzz 10zz; levels 0 2 0 0 0
TREE_IMAGES = [0b011, 0b011, 0b101, 0b111]        # trees on 3 vertices, then a triangle
EDGE_IMAGES = [0b0001, 0b0001, 0b0110, 0b1001, 0b0101]  # (0,1) (0,1) (1,2) (2,1) (1,1)
I, II, III = "i", "ii", "iii"

# entry, source images (the first repeats to fill the table), target tag,
# target rows, and each row's source solution or None where translate raises
PLANTED = [
    # _set_pair: the first image, then the second is not an n-set; one
    # class, then two classes, each both ways round
    (1, EKR_IMAGES, II, [(3, 0), (0, 3), (0, 1), (1, 0), (0, 2), (2, 1)],
     [(I, (3,)), (I, (3,)), (II, (0, 1)), (II, (1, 0)), (III, (0, 2)), (III, (2, 1))]),
    (6, GEKR_IMAGES, II, [(3, 0), (0, 3), (0, 1), (1, 0), (0, 2), (2, 1)],
     [(I, (3,)), (I, (3,)), (II, (0, 1)), (II, (1, 0)), (III, (0, 2)), (III, (2, 1))]),
    # _doubled_pair on x = 2u + flag: the (0, 1) flag pair before the n-set
    # test, then either image not an n-set, flags (0, 0) and (1, 1), flags (1, 0)
    (9, EKR_IMAGES, I, [(0, 7), (7, 0), (1, 6), (0, 2), (1, 3), (1, 2)],
     [(III, (0, 3)), (I, (3,)), (I, (3,)), (II, (0, 1)), (II, (0, 1)), (III, (0, 1))]),
    # _chain_pair: levels in order, swapped, equal both ways, and a cross-form collision
    (10, CHAIN_IMAGES, II, [(0, 1), (1, 0), (0, 4), (4, 0), (0, 2), (3, 2)],
     [(I, (0, 1)), (I, (0, 1)), (I, (0, 4)), (I, (4, 0)), None, None]),
    # _tree_pair: either image not a tree, one tree twice, two trees with one rank
    (13, TREE_IMAGES, II, [(3, 0), (0, 3), (0, 1), (0, 2)],
     [(I, (3,)), (I, (3,)), (II, (0, 1)), None]),
    # entry 22 on i = y || z (3 + 2 bits): a collision, z differs, y equal
    (22, [0], III, [(0b00110, 0b01010), (0b00110, 0b10111), (0b00110, 0b00110)],
     [(II, (1, 2)), None, None]),
    (22, [0], II, [(0b00110,)], [None]),
    (22, [0], I, [(0, 1, 2)], [None]),
    # _edge_translate: a zero from an increasing pair, from decreasing and equal ends
    (23, EDGE_IMAGES, I, [(0,), (3,), (4,)], [None, (II, (3,)), (II, (4,))]),
    (26, EDGE_IMAGES, I, [(0,), (3,), (4,)], [None, (II, (3,)), (II, (4,))]),
    # either pair not increasing, one increasing pair twice, distinct increasing pairs
    (23, EDGE_IMAGES, II, [(3, 0), (0, 3), (0, 1), (0, 2)],
     [(II, (3,)), (II, (3,)), (III, (0, 1)), None]),
    (26, EDGE_IMAGES, II, [(3, 0), (0, 3), (0, 1), (0, 2)],
     [(II, (3,)), (II, (3,)), (III, (0, 1)), None]),
]


@pytest.mark.parametrize("idx,images,tag,rows,want", PLANTED,
                         ids=[f"{p[0]}-{p[2]}-{i}" for i, p in enumerate(PLANTED)])
def test_translate_many_on_planted_rows(idx, images, tag, rows, want):
    """Planted source tables and target rows that reach every branch of the
    array pull-backs, including the ones seeds 0-2 may miss: the batch and
    the scalar translate both give the expected source solution, and a row
    the scalar translate raises on is in no group."""
    red = build_entry(idx)
    in_w, out_w = circuit_shape(red.source, red.source_n)
    table = images + [images[0]] * ((1 << in_w) - len(images))
    inst = ProblemInstance(red.source, red.source_n, Table(in_w, out_w, table))
    tgt = apply(red, inst)
    rows = np.array(rows, dtype=np.int64)
    got = _by_row(red, inst, tag, rows)
    assert [got.get(t) for t in range(len(rows))] == want
    assert [_scalar(red, inst, tgt, tag, row) for row in rows.tolist()] == want


def _without_batch(monkeypatch):
    monkeypatch.setattr(solvers, "build_entry", lambda idx, **kw: dataclasses.replace(
        build_entry(idx, **kw), translate_many=None))


@pytest.mark.parametrize("idx", BATCH_ENTRIES)
def test_batch_and_per_solution_reports_agree(idx, monkeypatch):
    batch = fuzz_soundness(idx, trials=3, seed=0)
    _without_batch(monkeypatch)
    scalar = fuzz_soundness(idx, trials=3, seed=0)
    assert batch == scalar
    assert batch["ok"] and sum(batch["per_tag"].values()) == batch["solutions_checked"]


def test_per_tag_on_the_per_solution_path():
    rep = fuzz_soundness(4, trials=3, seed=0)
    assert rep["per_tag"] and sum(rep["per_tag"].values()) == rep["solutions_checked"]
    assert {tgt for tgt, _ in rep["per_tag"]} <= {"i", "ii"}


def _sabotaged(monkeypatch, idx: int, translate_many):
    monkeypatch.setattr(solvers, "build_entry", lambda i, **kw: dataclasses.replace(
        build_entry(i, **kw), translate_many=translate_many))
    return fuzz_soundness(idx, trials=1, seed=0)


def test_sabotaged_translate_many_is_reported(monkeypatch):
    red = build_entry(21)

    def swapped(inst, tag, rows):
        return [(src_tag, src_rows[:, ::-1], at)
                for src_tag, src_rows, at in red.translate_many(inst, tag, rows)]

    rep = _sabotaged(monkeypatch, 21, swapped)
    assert not rep["ok"] and rep["failures"] > 0
    assert "the batch check rejects what the scalar pull-back accepts" in rep["first_failure"]

    def broken(inst, tag, rows):
        raise ValueError("broken batch")

    rep = _sabotaged(monkeypatch, 21, broken)
    assert not rep["ok"] and rep["failures"] == rep["solutions_checked"] > 0


def test_scalar_reason_names_a_batch_failure(monkeypatch):
    """A row that both paths reject is reported with the scalar reason."""
    red = build_entry(18)

    def translate(inst, sol):
        raise IntegrityError("planted defect")

    monkeypatch.setattr(solvers, "build_entry", lambda i, **kw: dataclasses.replace(
        build_entry(i, **kw), translate=translate,
        translate_many=lambda inst, tag, rows: []))
    rep = fuzz_soundness(18, trials=1, seed=0)
    assert rep["failures"] == rep["solutions_checked"] > 0 and not rep["per_tag"]
    assert rep["first_failure"].startswith("[designed] pull-back of type i ()")
    assert rep["first_failure"].endswith(f"{red.name}: planted defect")


def test_values_at_never_tabulates():
    inst = fuzz_instance(ProblemId("ws_colorful"), 5, 0)
    c = inst.circuit
    points = np.array([[0, 1], [(1 << 20) - 1, 12345]])
    got = values_at(c, points)
    assert c._table is None and got.shape == (2, 2)
    assert got.tolist() == [[c.value_at(int(v)) for v in row] for row in points]
    small = gen_random_instance(ProblemId("pigeon"), 3, 0).circuit
    assert values_at(small, np.arange(8)).tolist() == eval_all(small).tolist()
    assert values_at(c, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


# ---------------------------------------------------------------------------
# the battery's own failure branches, on a per-solution entry (4) and a batch
# entry (22)


def _replaced(monkeypatch, idx: int, trials: int = 1, seed: int = 0, **fields) -> dict:
    """fuzz_soundness of entry idx with the given Reduction fields replaced."""
    monkeypatch.setattr(solvers, "build_entry", lambda i, **kw: dataclasses.replace(
        build_entry(i, **kw), **fields))
    return fuzz_soundness(idx, trials=trials, seed=seed)


def _first_target_solution(red):
    """The first target solution of the first designed case."""
    inst = designed_instances(red.source, red.source_n)[0]
    return enumerate_solutions(apply(red, inst), SolveBudget(max_per_type=1))[0][0]


def _shown(sol) -> str:
    return f"pull-back of type {sol.tag} {tuple(str(v) for v in sol.values())}"


@pytest.mark.parametrize("idx", (4, 22))
def test_battery_reports_a_failed_apply_with_its_case(idx, monkeypatch):
    red = build_entry(idx)

    def transform(inst):
        if isinstance(inst.circuit, Table):  # the seeded cases, not the designed ones
            raise DomainError("planted transform defect")
        return red.transform(inst)

    rep = _replaced(monkeypatch, idx, trials=2, seed=3, transform=transform)
    assert (rep["failures"], rep["ok"]) == (2, False)
    assert rep["first_failure"] == "[seed=3] apply failed: planted transform defect"


@pytest.mark.parametrize("idx", (4, 22))
def test_battery_reports_a_malformed_target(idx, monkeypatch):
    red = build_entry(idx)
    wrong_n = red.target_n + 1
    rep = _replaced(monkeypatch, idx, transform=lambda inst: dataclasses.replace(
        red.transform(inst), n=wrong_n))
    reason = wellformed(dataclasses.replace(
        apply(red, designed_instances(red.source, red.source_n)[0]), n=wrong_n)).reason
    assert (rep["failures"], rep["ok"], rep["solutions_checked"]) == (rep["cases"], False, 0)
    assert rep["first_failure"] == f"[designed] target malformed: {reason}"


@pytest.mark.parametrize("idx", (4, 22))
def test_battery_reports_a_failed_enumeration(idx, monkeypatch):
    red = build_entry(idx)
    n = next(n for n in count(red.target.spec.min_n)
             if circuit_shape(red.target, n)[0] > MAX_EVAL_WIDTH)
    in_w, out_w = circuit_shape(red.target, n)
    wide = ProblemInstance(red.target, n, const_circuit(BitString(out_w, 0), in_width=in_w))
    rep = _replaced(monkeypatch, idx, transform=lambda inst: wide)
    assert (rep["failures"], rep["ok"], rep["solutions_checked"]) == (rep["cases"], False, 0)
    assert rep["first_failure"] == (
        f"[designed] target enumeration failed: eval_all capped at in_width {MAX_EVAL_WIDTH}, got {in_w}")


@pytest.mark.parametrize("idx", (4, 22))
def test_battery_reports_a_case_without_solutions(idx):
    rep = fuzz_soundness(idx, trials=1, seed=0, budget=SolveBudget(max_per_type=0))
    assert (rep["failures"], rep["ok"], rep["truncated_cases"]) == (rep["cases"], False, rep["cases"])
    assert rep["first_failure"] == "[designed] target instance has no solutions at all"


@pytest.mark.parametrize("idx, tag", [(4, "ii"), (22, "iii")])
def test_battery_reports_a_forbidden_target_tag(idx, tag, monkeypatch):
    clean = fuzz_soundness(idx, trials=1, seed=0)
    found = sum(n for (tgt, _), n in clean["per_tag"].items() if tgt == tag)
    assert found > 0
    monkeypatch.setattr(solvers, "lookup", lambda key: dataclasses.replace(
        reductions.lookup(key), forbidden=(tag,)))
    rep = fuzz_soundness(idx, trials=1, seed=0)
    assert (rep["failures"], rep["ok"]) == (found, False)
    assert rep["solutions_checked"] == clean["solutions_checked"] - found
    assert rep["first_failure"] == f"[designed] type-{tag} target solution violates the image structure"


@pytest.mark.parametrize("idx", (4, 22))
def test_battery_reports_a_failed_pull_back(idx, monkeypatch):
    red = build_entry(idx)

    def translate(inst, sol):
        raise IntegrityError("planted defect")

    # the batch entry rejects every row, so each is reported through the scalar pull-back
    rep = _replaced(monkeypatch, idx, translate=translate,
                    translate_many=red.translate_many and (lambda inst, tag, rows: []))
    assert (rep["failures"], rep["ok"], rep["per_tag"]) == (rep["solutions_checked"], False, {})
    assert rep["failures"] > 0
    first = _shown(_first_target_solution(red))
    assert rep["first_failure"] == f"[designed] {first}: {red.name}: planted defect"


@pytest.mark.parametrize("sabotage", ["unknown source tag", "rows one column wide"])
def test_batch_drops_a_group_it_cannot_check(sabotage, monkeypatch):
    """The first translated row of each batch goes in a group of its own that
    the battery cannot check: that row fails and every other row still
    pulls back."""
    red = build_entry(22)
    calls = []

    def translate_many(inst, tag, rows):
        (src_tag, src_rows, at), *rest = red.translate_many(inst, tag, rows)
        calls.append(tag)
        odd = ("zz", src_rows[:1]) if sabotage == "unknown source tag" else (src_tag, src_rows[:1, :1])
        return [(*odd, at[:1]), (src_tag, src_rows[1:], at[1:]), *rest]

    clean = fuzz_soundness(22, trials=1, seed=0)
    rep = _replaced(monkeypatch, 22, translate_many=translate_many)
    assert rep["solutions_checked"] == clean["solutions_checked"]
    assert (rep["failures"], rep["ok"]) == (len(calls), False) and len(calls) >= rep["cases"]
    assert sum(rep["per_tag"].values()) == rep["solutions_checked"] - len(calls)
    first = _shown(_first_target_solution(red))
    assert rep["first_failure"] == (
        f"[designed] {first}: the batch check rejects what the scalar pull-back accepts")
